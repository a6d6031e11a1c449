"""The three benchmark workloads: track, study and prepare.

Each workload builds its inputs from the workload seed in `setup`, does one
unit of timed work in `unit`, and checks that unit's outputs in `check`,
outside the timed interval. Every call into sonartkbd goes through the
module attribute (`study.run_study`, not a name imported at load time), so
the tracer's rebinding reaches the benchmark's own calls as well.

Why these three:

- track: what `sonartkbd track` does, one pass of every variant over the
  default sim dataset. The streaming front end, the ratios and the filter
  do nearly all the work; simulation and VAR fitting stay in set-up.
- study: a small calibrated Monte-Carlo study as in scripts/run_sim_study.py.
  It repeats tracker passes over the same datasets (calibration sweeps and
  variants share them), fans runs out to two worker processes, and adds
  simulation and evaluation to the timed part.
- prepare: data preparation with almost no tracker work. Simulation,
  dataset persistence, AIC order selection, VAR fitting and one bulk
  whitening call, so noise and array code run in their fitting and
  simulating roles rather than the streaming ones.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from sonartkbd import evaluate, noise, pipeline, sim, study
from sonartkbd.config import default_config

# study size: one unit in well under a minute on 2 cores. The scenario starts
# at 1000 m instead of 2000 m, which halves every dataset (617 batches) and
# keeps the close approach where detections happen.
STUDY_START_RANGE_M = 1000.0
STUDY_CAL_RUNS = 2
STUDY_RUNS = 2
STUDY_WORKERS = 2
# target-free study runs get their own seed, as --free-seed in run_sim_study.py
FREE_SEED_OFFSET = 1_000_000

SELECT_MAX_ORDER = 20
PREPARE_ORDER = 14
WHITEN_REPEATS = 5
WHITEN_TOLERANCE = 1e-12


class Ops:
    """Counts operations attempted and failed; failures are reported, not raised."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def call(self, label: str, fn, *args, **kwargs):
        """Run one operation; on an exception log it and return None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:  # benchmark boundary: record and keep going
            self.failed += 1
            self.log(f"FAILED {label}: {type(err).__name__}: {err}")
            return None

    def check(self, label: str, ok: bool) -> None:
        """Record a failed check against the operation it belongs to."""
        if not ok:
            self.failed += 1
            self.log(f"FAILED check {label}")


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class UnitResult:
    batches: int  # batches of recording the unit carried through its pipeline
    stages: dict[str, float]  # workload-specific figures, by name
    outputs: dict
    # (wall s, CPU s) at a seed-independent amount of work, for a unit whose
    # work depends on the seed; `batches` then counts that amount
    nominal: tuple[float, float] | None = None


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def track_digest(log: pipeline.TrackLog) -> str:
    return digest(log.exist_prob, log.psi_deg, log.psidot, log.eta_db, log.confirmed)


def _finite_track(log: pipeline.TrackLog) -> bool:
    q = log.exist_prob
    states = (log.psi_deg, log.psidot, log.eta_db)
    return bool(np.all(np.isfinite(q)) and np.all((q >= 0.0) & (q <= 1.0))
                and all(np.all(np.isfinite(s)) for s in states))


def _round_trip(ds: sim.Dataset, path: Path) -> sim.Dataset:
    sim.save_dataset(ds, path)
    return sim.load_dataset(path)


class Workload:
    name = ""

    def __init__(self, seed: int, ops: Ops, work_dir: Path):
        self.seed = seed
        self.ops = ops
        self.work_dir = work_dir
        self.cfg = default_config("sim")
        self.geom = study.default_geometry(self.cfg)

    def _environment(self) -> None:
        """Generator model and scenario; the ambient fit is part of set-up."""
        self.ambient, _ = study.default_ambient_model(self.geom)
        self.scenario = study.scenario_from_config(self.cfg, self.geom, self.ambient)

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> UnitResult:
        raise NotImplementedError

    def check(self, result: UnitResult) -> dict[str, str]:
        """Check one unit's outputs; returns the digests to print."""
        raise NotImplementedError


class Track(Workload):
    name = "track"

    def setup(self) -> None:
        self._environment()
        self.model, self.model0 = study.fit_observed_models(self.scenario, self.seed)
        rng = pipeline.spawn_rng(self.seed, study.SEED_SIMULATE, 0)
        self.dataset = sim.generate_dataset(self.scenario, rng)

    def unit(self) -> UnitResult:
        logs, stages = {}, {}
        for i, variant in enumerate(pipeline.VARIANTS):
            rng = pipeline.spawn_rng(self.seed, study.SEED_TRACK, 0, i)
            model = study.models_for_variant(variant, self.model, self.model0)
            t0 = perf_counter()
            log = self.ops.call(f"track {variant}", pipeline.run_tracker,
                                self.dataset, variant, self.cfg, model, rng)
            stages[f"{variant}_batches_per_s"] = self.dataset.n_batches / (perf_counter() - t0)
            logs[variant] = log
        batches = self.dataset.n_batches * len(pipeline.VARIANTS)
        return UnitResult(batches, stages, {"logs": logs})

    def check(self, result: UnitResult) -> dict[str, str]:
        digests = {}
        for variant, log in result.outputs["logs"].items():
            if log is None:
                continue
            self.ops.check(f"track {variant} finite q in [0, 1] and states",
                           _finite_track(log))
            if variant == "tvar":
                first = evaluate.sustained_confirmation(log.confirmed,
                                                        self.cfg.eval_min_confirm_run)
                self.ops.check("track tvar sustained confirmation", first is not None)
            digests[variant] = track_digest(log)
        return digests


class Study(Workload):
    name = "study"

    def __init__(self, seed: int, ops: Ops, work_dir: Path):
        super().__init__(seed, ops, work_dir)
        self.cfg = replace(self.cfg, scenario_start_range_m=STUDY_START_RANGE_M)

    def setup(self) -> None:
        self._environment()
        self.model, self.model0 = study.fit_observed_models(self.scenario, self.seed)

    def unit(self) -> UnitResult:
        ops, n_batches = self.ops, self.scenario.n_batches()
        cpu0, t0 = cpu_seconds(), perf_counter()
        cal_sets = ops.call("calibration datasets", study.generate_calibration_data,
                            self.cfg, self.geom, self.ambient, STUDY_CAL_RUNS, self.seed)
        ops.attempted += STUDY_CAL_RUNS - 1  # one operation per dataset
        cpu1, t1 = cpu_seconds(), perf_counter()
        cfgs, traces, cal_passes = {}, {}, 0
        for variant in pipeline.VARIANTS if cal_sets is not None else ():
            result = ops.call(f"calibrate {variant}", study.calibrate_variant, variant,
                              self.cfg, cal_sets, self.model, self.model0, self.seed)
            if result is not None:
                cfgs[variant] = result.config
                traces[variant] = result.trace
                steps = len(result.trace)
                ops.attempted += steps * STUDY_CAL_RUNS - 1  # one per tracker pass
                cal_passes += steps * STUDY_CAL_RUNS
        cpu2, t2 = cpu_seconds(), perf_counter()
        runs, mc_passes = {}, 0
        for label, seed, free in (("target", self.seed, False),
                                  ("target_free", self.seed + FREE_SEED_OFFSET, True)):
            runs[label] = ops.call(f"run_study {label}", study.run_study, cfgs, self.geom,
                                   self.ambient, self.model, self.model0, STUDY_RUNS,
                                   seed, target_free=free, workers=STUDY_WORKERS)
            if runs[label] is not None:
                n_passes = sum(len(r) for r in runs[label].values())
                ops.attempted += STUDY_RUNS + n_passes - 1  # datasets plus passes
                mc_passes += n_passes
        cpu3, t3 = cpu_seconds(), perf_counter()
        stages = {"calibrate_s": t2 - t1, "montecarlo_s": t3 - t2,
                  "passes_per_s": (cal_passes + mc_passes) / (t3 - t0)}
        # The sweep takes one or more steps per variant, depending on the seed,
        # and a calibration pass costs less than an oversubscribed Monte-Carlo
        # pass. Scaling the sweep to one step per variant keeps the unit's
        # amount and mix of work the same for every seed.
        one_step = len(traces) * STUDY_CAL_RUNS
        scale = one_step / cal_passes if cal_passes else 0.0
        nominal = ((t1 - t0) + scale * (t2 - t1) + (t3 - t2),
                   (cpu1 - cpu0) + scale * (cpu2 - cpu1) + (cpu3 - cpu2))
        return UnitResult((one_step + mc_passes) * n_batches, stages,
                          {"traces": traces, "runs": runs}, nominal)

    def check(self, result: UnitResult) -> dict[str, str]:
        out = result.outputs
        self.ops.check("study every variant calibrated",
                       set(out["traces"]) == set(pipeline.VARIANTS))
        parts = [np.array([s for v in sorted(out["traces"]) for step in out["traces"][v]
                           for s in step], dtype=float)]
        for label in sorted(out["runs"]):
            for variant, runs in sorted((out["runs"][label] or {}).items()):
                for r in runs:
                    rep = r.report
                    ok = (_finite_track(r.track) and np.all(np.isfinite(rep.ospa))
                          and (rep.detection_range_m is None
                               or np.isfinite(rep.detection_range_m)))
                    self.ops.check(f"study {label} run {r.run} {variant} summary finite",
                                   bool(ok))
                    parts.append(np.array([r.run, rep.ospa.sum(), rep.flips_after_detect,
                                           -1 if rep.first_confirm is None
                                           else rep.first_confirm], dtype=float))
                    parts.append(r.track.exist_prob)
        return {"summaries": digest(*parts)}


class Prepare(Workload):
    name = "prepare"

    def setup(self) -> None:
        self._environment()

    def unit(self) -> UnitResult:
        ops, work_dir = self.ops, self.work_dir / f"prepare-{self.seed}"
        n_batches = self.scenario.n_batches()
        t0 = perf_counter()
        made = {}
        for key, free in (("target", False), ("target_free", True)):
            rng = pipeline.spawn_rng(self.seed, study.SEED_SIMULATE, int(free))
            made[key] = ops.call(f"simulate {key}", sim.generate_dataset,
                                 self.scenario, rng, target_free=free, seed=self.seed)
        t1 = perf_counter()
        loaded = {}
        for key, ds in made.items():
            if ds is not None:
                loaded[key] = ops.call(f"save and load {key}", _round_trip, ds,
                                       work_dir / key)
        shutil.rmtree(work_dir, ignore_errors=True)
        recording = loaded.get("target_free")
        t2 = perf_counter()
        order = model = white = None
        t3 = t2
        whiten_s = []
        if recording is not None:
            order = ops.call("select_order", noise.select_order, recording.samples,
                             SELECT_MAX_ORDER)
            t3 = perf_counter()
            model = ops.call("fit_var", noise.fit_var, recording.samples, PREPARE_ORDER)
            for _ in range(WHITEN_REPEATS if model is not None else 0):
                t = perf_counter()
                white = ops.call("whiten bulk", noise.whiten, model, recording.samples)
                whiten_s.append(perf_counter() - t)
        stages = {"simulate_batches_per_s": 2 * n_batches / (t1 - t0),
                  "select_order_s": t3 - t2}
        if whiten_s:
            stages["whiten_bulk_samples_per_s"] = \
                recording.samples.shape[0] / float(np.median(whiten_s))
        return UnitResult(2 * n_batches, stages,
                          {"made": made, "loaded": loaded, "order": order,
                           "model": model, "white": white})

    def check(self, result: UnitResult) -> dict[str, str]:
        out, ops = result.outputs, self.ops
        digests = {}
        for key, ds in out["made"].items():
            back = out["loaded"].get(key)
            if ds is None or back is None:
                continue
            want = ds.samples.astype("<f4")
            ops.check(f"prepare {key} round trip keeps float32 samples",
                      back.samples.dtype == np.float64
                      and np.array_equal(back.samples.astype("<f4"), want)
                      and np.array_equal(back.samples, want.astype(float)))
            digests[f"{key}_samples"] = digest(want)
        model, white = out["model"], out["white"]
        if model is not None:
            ops.check("prepare fitted model stable", model.spectral_radius() < 1.0)
            digests["model"] = digest(model.coeffs, model.noise_cov)
        if white is not None:
            rec = out["loaded"]["target_free"].samples
            streamed = self._stream_whiten(model, rec)
            if streamed is not None:
                gap = float(np.max(np.abs(streamed - white[0])))
                ops.check(f"prepare bulk whiten equals streaming (max diff {gap:.2e})",
                          gap <= WHITEN_TOLERANCE and white[2] == model.order)
            digests["whitened"] = digest(white[0])
        if out["order"] is not None:
            digests["order"] = str(out["order"][0])
        return digests

    def _stream_whiten(self, model, rec):
        """Batch-by-batch whitening of the recording, as the trackers do it."""
        n = self.cfg.batch_samples

        def stream():
            state, parts = None, []
            for k in range(rec.shape[0] // n):
                white, state, _ = noise.whiten(model, rec[k * n:(k + 1) * n], state)
                parts.append(white)
            return np.concatenate(parts)
        return self.ops.call("whiten streaming", stream)


WORKLOADS = {w.name: w for w in (Track, Study, Prepare)}
