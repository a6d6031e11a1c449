"""Outside-in tracing of sonartkbd's public functions.

Nothing under src/ knows about the tracer. `Tracer.install` rebinds every
traced function in each sonartkbd module namespace that holds it, so call
sites written as `from .noise import whiten` see the wrapper too, and it
patches methods and the `LikelihoodField.grid` property through their class.
`uninstall` puts the originals back, so an untraced run pays nothing.

A span is (name, start, end, parent, pass, work): `parent` is the index of
the enclosing span in the same process (-1 for a root), `pass` numbers
`run_tracker` calls and is inherited by everything nested in one, and
`work` counts the items a call handled where that is cheap to read off its
arguments or result (rows whitened, ratios evaluated, detections). Spans are
kept in flat in-memory arrays and written out once at the end.

`run_study` fans runs out over a `ProcessPoolExecutor`; the tracer rebinds
that name in `sonartkbd.study` to `TracedPool`, whose jobs record their own
spans in the worker and return them with the job's result, so worker spans
land in the parent's arrays as extra roots.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

import numpy as np


def _rows(args, kwargs, result):
    return np.shape(args[1])[0]


def _size(args, kwargs, result):
    return np.size(result)


def _detections(args, kwargs, result):
    return len(result[0])


def _batches(args, kwargs, result):
    return result.batch_index.size


def _samples(args, kwargs, result):
    return args[1]


# (module, attribute, work counter or None) for plain functions
FUNCTIONS = (
    ("noise", "whiten", _rows),
    ("noise", "fit_var", None),
    ("noise", "select_order", None),
    ("array", "make_steering", None),
    ("array", "apply_steering", None),
    ("stats", "t_log_lr", _size),
    ("stats", "gauss_log_lr", _size),
    ("tkbd", "predict", None),
    ("tkbd", "motion_step", None),
    ("tkbd", "sample_birth", None),
    ("tkbd", "update", None),
    ("tkbd", "systematic_resample", None),
    ("tkbd", "extract", None),
    ("detect", "cfar_detect", _detections),
    ("detect", "detection_log_lr", _size),
    ("sim", "generate_dataset", None),
    ("sim", "generate_batch", None),
    ("sim", "channel_noise_power", None),
    ("sim", "save_dataset", None),
    ("sim", "load_dataset", None),
    ("evaluate", "make_run_report", None),
    ("pipeline", "run_tracker", _batches),
    ("pipeline", "make_likelihood", None),
    ("study", "default_ambient_model", None),
    ("study", "fit_observed_models", None),
    ("study", "generate_calibration_data", None),
    ("study", "calibrate_variant", None),
    ("study", "run_study", None),
)

# (module, class, attribute, work counter or None); patched on the class
METHODS = (
    ("noise", "NoiseStream", "take", _samples),
    ("noise", "VarModel", "stationary_cov", None),
    ("array", "BeamformGrid", "energies", None),
)
PROPERTIES = (("tkbd", "LikelihoodField", "grid"),)

PASS_SPAN = "pipeline.run_tracker"
WORKER_SPAN = "study.worker_job"

# the tracer installed in this process; worker jobs look it up here
_active: "Tracer | None" = None


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self.pid = os.getpid()
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.pass_id = array("q")
        self.work = array("d")
        self._stack: list[int] = []
        self._passes = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording --------------------------------------------------------

    def open(self, nid: int, new_pass: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        if new_pass:
            self._passes += 1
            pass_id = self._passes
        else:
            pass_id = self.pass_id[parent] if parent >= 0 else -1
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(parent)
        self.pass_id.append(pass_id)
        self.end.append(0.0)
        self.work.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, work: float = 0.0) -> None:
        self.end[idx] = perf_counter()
        self.work[idx] = work
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        nid = self.name_id(name)
        new_pass = name == PASS_SPAN
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid, new_pass)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, work(args, kwargs, result)
                             if work is not None and result is not None else 0.0)
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        global _active
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = "sonartkbd"
        for mod in {m for m, *_ in FUNCTIONS + METHODS + PROPERTIES}:
            importlib.import_module(f"{package}.{mod}")
        wrappers = {}
        for mod, attr, work in FUNCTIONS:
            fn = getattr(sys.modules[f"{package}.{mod}"], attr)
            wrappers[id(fn)] = (fn, self.wrap(f"{mod}.{attr}", fn, work))
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for mod, cls_name, attr, work in METHODS:
            cls = getattr(sys.modules[f"{package}.{mod}"], cls_name)
            self._patch(cls, attr, self.wrap(f"{mod}.{cls_name}.{attr}",
                                             cls.__dict__[attr], work))
        for mod, cls_name, attr in PROPERTIES:
            cls = getattr(sys.modules[f"{package}.{mod}"], cls_name)
            prop = cls.__dict__[attr]
            fget = self.wrap(f"{mod}.{cls_name}.{attr}", prop.fget)
            self._patch(cls, attr, property(fget, prop.fset, prop.fdel, prop.__doc__))
        self._patch(sys.modules[f"{package}.study"], "ProcessPoolExecutor", TracedPool)
        self.pid = os.getpid()
        _active = self

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        global _active
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        if _active is self:
            _active = None

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        """Spans as numpy arrays plus the name table."""
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
        }

    def absorb(self, spans: dict) -> None:
        """Append spans exported by another process, as roots of their own."""
        if spans["name"].size == 0:
            return
        remap = np.array([self.name_id(str(n)) for n in spans["names"]], dtype=np.int32)
        offset = len(self.name)
        parent = spans["parent"]
        pass_id = spans["pass_id"]
        self.name.frombytes(remap[spans["name"]].tobytes())
        self.start.frombytes(spans["start"].tobytes())
        self.end.frombytes(spans["end"].tobytes())
        self.parent.frombytes(np.where(parent >= 0, parent + offset, -1).tobytes())
        self.pass_id.frombytes(np.where(pass_id >= 0, pass_id + self._passes, -1).tobytes())
        self.work.frombytes(spans["work"].tobytes())
        self._passes += int(max(pass_id.max(), 0))


class WorkerCall:
    """Picklable job wrapper: runs `fn` traced in the worker, returns spans too."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        tracer = _worker_tracer()
        idx = tracer.open(tracer.name_id(WORKER_SPAN))
        try:
            result = self.fn(*args)
        finally:
            tracer.close(idx)
        spans = tracer.export()
        tracer.clear()
        return spans, result


def _worker_tracer() -> Tracer:
    """This process's tracer: inherited through fork, or installed fresh."""
    global _active
    if _active is None:
        Tracer().install()
    elif _active.pid != os.getpid():
        _active.clear()  # a forked copy still holds the parent's spans
        _active.pid = os.getpid()
    return _active


class TracedPool(ProcessPoolExecutor):
    """`ProcessPoolExecutor` whose jobs ship their spans back to the parent."""

    def map(self, fn, *iterables, **kwargs):
        tracer = _active
        for spans, result in super().map(WorkerCall(fn), *iterables, **kwargs):
            if tracer is not None:
                tracer.absorb(spans)
            yield result


def span_table(spans: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, work, in-pass calls.

    Self time is a span's duration minus the durations of its direct
    children; worker spans are roots, so parallel jobs never subtract from
    the parent span that waited for them.
    """
    name = spans["name"]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    own = dur - child_time
    n_names = len(spans["names"])
    in_pass = spans["pass_id"] >= 0

    def per_name(weights=None, mask=None):
        ids = name if mask is None else name[mask]
        w = None if weights is None else (weights if mask is None else weights[mask])
        return np.bincount(ids, weights=w, minlength=n_names)

    calls = per_name()
    total = per_name(dur)
    self_s = per_name(own)
    work = per_name(spans["work"])
    pass_calls = per_name(mask=in_pass)
    pass_work = per_name(spans["work"], mask=in_pass)
    out = {}
    for i, n in enumerate(spans["names"]):
        out[str(n)] = {"calls": float(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i]), "work": float(work[i]),
                       "pass_calls": float(pass_calls[i]), "pass_work": float(pass_work[i])}
    return out


def count_nested(spans: dict, child: str, ancestor: str) -> int:
    """How many `child` spans have an `ancestor` span above them."""
    names = [str(n) for n in spans["names"]]
    if child not in names or ancestor not in names:
        return 0
    cid, aid = names.index(child), names.index(ancestor)
    name, parent = spans["name"], spans["parent"]
    count = 0
    for idx in np.flatnonzero(name == cid):
        p = parent[idx]
        while p >= 0 and name[p] != aid:
            p = parent[p]
        count += p >= 0
    return count
