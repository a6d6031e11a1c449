"""The benchmark's outside-in tracer still fits the package it patches.

`perfbench/tracing.py` names sonartkbd functions, methods and a property
by string and rebinds them while tracing. It is imported here as it
stands, so renaming or deleting one of those names, or a patch that is
not undone, shows up in the tests and not only in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(name):
    return importlib.import_module(f"sonartkbd.{name}")


def test_every_traced_name_exists(tracing):
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.FUNCTIONS
               if not inspect.isfunction(getattr(_module(mod), attr, None))]
    for mod, cls, attr, _ in tracing.METHODS:
        if not inspect.isfunction(vars(getattr(_module(mod), cls)).get(attr)):
            missing.append(f"{mod}.{cls}.{attr}")
    for mod, cls, attr in tracing.PROPERTIES:
        if not isinstance(vars(getattr(_module(mod), cls)).get(attr), property):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []


def _namespaces(tracing):
    """Every namespace the tracer may patch: package modules and traced classes."""
    for mod, *_ in tracing.FUNCTIONS:
        _module(mod)
    spaces = [module for name, module in sys.modules.items()
              if name == "sonartkbd" or name.startswith("sonartkbd.")]
    spaces += [getattr(_module(mod), cls)
               for mod, cls, *_ in tracing.METHODS + tracing.PROPERTIES]
    return list({id(space): space for space in spaces}.values())


def test_install_then_uninstall_restores_every_object(tracing):
    spaces = _namespaces(tracing)
    before = [dict(vars(space)) for space in spaces]
    original = _module("pipeline").run_tracker
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _module("pipeline").run_tracker is not original  # the tracer did patch
    finally:
        tracer.uninstall()
    for space, saved in zip(spaces, before):
        now = vars(space)
        changed = [attr for attr in set(saved) | set(now) if now.get(attr) is not saved.get(attr)]
        assert changed == [], f"{space.__name__}: {changed} not restored"
