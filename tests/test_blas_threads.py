"""Importing sonartkbd pins OpenBLAS to one thread, so fits and whitened
streams are the same bits whatever the environment's thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sonartkbd

SRC = Path(__file__).resolve().parents[1] / "src"

# fit_var's Gram product is large enough for OpenBLAS to split over threads,
# which changes its last bits unless the count is pinned
DIGEST_SCRIPT = """
import hashlib
import numpy as np
from sonartkbd.noise import fit_var, whiten
rng = np.random.default_rng(7)
rec = rng.standard_normal((20000, 8))
rec[1:] += 0.6 * rec[:-1]
model = fit_var(rec, 14)
white = whiten(model, rec)[0]
h = hashlib.sha256()
for a in (model.coeffs, model.noise_cov, white):
    h.update(np.ascontiguousarray(a).tobytes())
print(h.hexdigest())
"""


def test_fit_and_whiten_do_not_depend_on_blas_threads():
    digests = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        done = subprocess.run([sys.executable, "-c", DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests[threads] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests


def test_no_openblas_found_warns_and_carries_on(monkeypatch):
    def no_maps(*args, **kwargs):
        raise OSError("no /proc here")
    monkeypatch.setattr(sonartkbd, "open", no_maps, raising=False)
    with pytest.warns(RuntimeWarning, match="no OpenBLAS"):
        assert sonartkbd._pin_blas_threads() == 0
