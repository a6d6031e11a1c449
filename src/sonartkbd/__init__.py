"""Broadband passive-sonar track-before-detect toolkit.

Subpackages cover the full pipeline: array geometry and fractional-delay
beamforming (:mod:`sonartkbd.array`), vector-autoregressive ambient noise
modelling and whitening (:mod:`sonartkbd.noise`), heavy-tailed likelihood
ratios (:mod:`sonartkbd.stats`), a CFAR detector with a detection-based
likelihood (:mod:`sonartkbd.detect`), the Bernoulli particle filter
(:mod:`sonartkbd.tkbd`), a scenario simulator (:mod:`sonartkbd.sim`),
evaluation metrics (:mod:`sonartkbd.evaluate`), and the command line
interface (:mod:`sonartkbd.cli`).

Importing the package pins numpy's OpenBLAS to one thread, so results do
not depend on `OPENBLAS_NUM_THREADS` and study workers do not compete with
BLAS threads for the cores. numpy is the only runtime dependency.
"""

import ctypes
import warnings

__version__ = "0.1.0"

# thread-count setters of a system OpenBLAS and of the builds numpy wheels bundle
_BLAS_SET_THREADS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _pin_blas_threads() -> int:
    """Set every loaded OpenBLAS to one thread; return how many were set.

    Each OpenBLAS in this process (numpy's, and any a library imported
    earlier brought) is found by path in the memory map (Linux only). Warns
    once if none could be set (another platform, or MKL or Accelerate):
    results then follow the BLAS library's own thread setting.
    """
    import numpy  # noqa: F401  (loads numpy's OpenBLAS)
    try:
        with open("/proc/self/maps") as fh:
            # only the pathname field of a mapping line can hold the word
            paths = {line.split(None, 5)[5].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        paths = set()
    pinned = 0
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # e.g. "... (deleted)": the file was replaced after loading
            continue
        for name in _BLAS_SET_THREADS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned += 1
    if not pinned:
        warnings.warn("sonartkbd: found no OpenBLAS to pin to one thread; results "
                      "may depend on the BLAS thread count", RuntimeWarning)
    return pinned


_pin_blas_threads()
