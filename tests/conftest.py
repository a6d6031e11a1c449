"""Suite-wide test settings.

Hypothesis runs derandomized and without its example database, so every run
of the suite tries the same examples. Each test's own `@settings` still sets
its `max_examples` and `deadline`: they inherit the rest from this profile,
which is loaded before any test module is imported.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
