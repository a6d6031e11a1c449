"""Monte-Carlo study engine: results do not depend on how runs are spread."""

from dataclasses import fields, replace

import numpy as np

from sonartkbd.config import default_config
from sonartkbd.pipeline import VARIANTS, TrackLog
from sonartkbd.study import default_ambient_model, default_geometry, run_study


def test_worker_count_does_not_change_track_logs():
    """Two worker processes give the same logs as one, field for field, bit for bit."""
    cfg = replace(default_config("sim"), scenario_duration_s=17.1,
                  filter_n_persist=400, filter_n_birth=100)
    geom = default_geometry(cfg)
    ambient, ambient0 = default_ambient_model(geom)
    cfgs = dict.fromkeys(VARIANTS, cfg)
    serial, pooled = (run_study(cfgs, geom, ambient, ambient, ambient0, n_runs=2,
                                master_seed=5, workers=workers) for workers in (1, 2))
    for variant in VARIANTS:
        assert [r.run for r in pooled[variant]] == [0, 1]
        for one, two in zip(serial[variant], pooled[variant]):
            assert one.track.batch_index.size == 100
            for field in fields(TrackLog):
                assert np.array_equal(getattr(one.track, field.name),
                                      getattr(two.track, field.name)), (variant, field.name)
