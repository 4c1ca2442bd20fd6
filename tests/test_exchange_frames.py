"""Exchanges hold their flights and build context frames only when read.

The batch path (generation, forecast_split, the conformal study and the
returner experiment) must build no Frame3D, no ContextWindow, no
ExchangeSample row view and no one-row Chains view. A row view's
``context`` must build exactly the frames generate_exchanges used to build
eagerly, and the batch forecast must read the frames a lead time's
``context_mask`` keeps of them.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ttrally import anticipate, control, core, synth
from ttrally.anticipate import STUDY_HORIZONS
from ttrally.ball import Chains
from ttrally.core import Frame3D, Vec3
from ttrally.errors import InputMismatch
from ttrally.synth import (CONTEXT_DT, CONTEXT_S, CONTEXT_TIMES, TABLE, context_mask,
                           generate_exchanges)

LEAD_TIMES = [0.0, 0.02, 0.1, 0.58, 0.6]
NOTHING = dict.fromkeys(("Frame3D", "ContextWindow", "ExchangeSample", "one-row Chains"), 0)


@pytest.fixture
def constructed(monkeypatch):
    """Counts of Frame3D, ContextWindow and ExchangeSample constructions, and
    of one-row Chains views, while a test runs."""
    counts = dict(NOTHING)
    for cls in (core.Frame3D, anticipate.ContextWindow, synth.ExchangeSample):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    view = Chains.__getitem__

    def viewing(self, rows):
        out = view(self, rows)
        counts["one-row Chains"] += len(out.T) == 1
        return out

    monkeypatch.setattr(Chains, "__getitem__", viewing)
    return counts


@pytest.mark.parametrize("lead_time", [0.0, 0.2])
def test_the_batch_path_builds_no_frame(constructed, lead_time):
    exchanges = generate_exchanges(3, 200)
    assert len(exchanges) == 200
    # The conformal study's stages, on forecasts issued lead_time before the hit.
    predictors = anticipate.physics_baseline_ensemble(3)
    cal, test = (anticipate.forecast_split(predictors, rows, STUDY_HORIZONS, lead_time)
                 for rows in (exchanges[:40], exchanges[40:70]))
    calib = anticipate.calibrate_ensemble(cal, 0.1)
    anticipate.evaluate_coverage(calib, test)
    anticipate.extreme_hit_bias(calib, test)
    assert constructed == NOTHING
    # The counter sees frames when they are read.
    assert len(exchanges[0].context) == len(CONTEXT_TIMES)
    assert constructed["Frame3D"] == len(CONTEXT_TIMES)


def test_the_drivers_build_no_row_view(constructed):
    study = anticipate.run_conformal_study(3, n_cal=40, n_test=30)
    rows = control.run_experiment(5, n_episodes=6, n_cal=60)
    assert study.bias.n_extreme > 0 and len(rows) == 8
    assert constructed == NOTHING
    # The counters see a row view, and its two one-row chains once it samples its truth.
    ex = generate_exchanges(5, 6)[2]
    ex.truth_at(0.1), ex.truth_at(-0.1), ex.truth_at(0.3)
    assert constructed["ExchangeSample"] == 1 and constructed["one-row Chains"] == 2


def test_a_batch_keeps_no_context_column():
    # A row view samples its context from the incoming chain when read, so a
    # batch holds its flights and crossings only: two (30, 3) context columns
    # alone would take 1,440 B an exchange.
    tracemalloc.start()
    try:
        exchanges = generate_exchanges(3, 4000)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept / len(exchanges) < 600


def _ease(u):
    """The scalar cosine easing those frames were built with."""
    return 0.5 - 0.5 * math.cos(math.pi * min(max(u, 0.0), 1.0))


def _eager_context(exchanges, i):
    """The frames generate_exchanges built for every exchange before its
    context became array rows: that construction, copied, on row i, with the
    hit read as its incoming chain's end."""
    hl = TABLE.half_length
    balls = exchanges.incoming[i:i + 1].positions(CONTEXT_TIMES)[0]
    approach = np.array([_ease(1.0 + t / CONTEXT_S) for t in CONTEXT_TIMES.tolist()])
    y = float(exchanges.opp_root_y[i])
    rest = np.array([hl + 0.6, y, 1.0])
    hands = rest[None] + (exchanges.incoming.bT[i, -1] - rest)[None] * approach[:, None]
    root_x = hl + 0.55
    hip = Vec3(root_x, y, 0.95)
    ankles = (Vec3(root_x - 0.08, y, 0.0), Vec3(root_x + 0.08, y, 0.0))
    return [Frame3D(j, Vec3(*ball), [hip, Vec3(*hand), *ankles])
            for j, (ball, hand) in enumerate(zip(balls.tolist(), hands.tolist()))]


@pytest.fixture(scope="module")
def exchanges():
    return generate_exchanges(7, 200)


def test_context_equals_the_eager_frames(exchanges):
    for i, ex in enumerate(exchanges):
        frames, want = ex.context, _eager_context(exchanges, i)
        assert frames == want
        assert repr(frames) == repr(want)  # float types and signed zeros too


@pytest.mark.parametrize("lead_time", LEAD_TIMES)
def test_context_until_equals_the_eager_filter(exchanges, lead_time):
    # The context until a lead time: the frames its context_mask keeps, as a
    # single-context forecast reads them and as the batch forecast does.
    keep = context_mask(lead_time)
    want_times = CONTEXT_TIMES[CONTEXT_TIMES <= -lead_time + 1e-9]  # the eager filter
    assert CONTEXT_TIMES[keep].tobytes() == want_times.tobytes()
    windows = []
    for i, ex in enumerate(exchanges):
        frames = [f for f, k in zip(ex.context, keep) if k]
        want_frames = [f for f, t in zip(_eager_context(exchanges, i), CONTEXT_TIMES)
                       if t <= -lead_time + 1e-9]
        assert frames == want_frames
        assert repr(frames) == repr(want_frames)
        windows.append((want_times, want_frames))
    # The last frame sits one step before the hit, so a lead time of one step keeps all.
    m = len(CONTEXT_TIMES)
    assert len(want_times) == min(m, m + 1 - round(lead_time / CONTEXT_DT))
    if len(want_times) < 2:
        with pytest.raises(InputMismatch):
            anticipate._exchange_arrays(exchanges, lead_time)
        return
    hit, root_y = anticipate._exchange_arrays(exchanges, lead_time)
    want_hit, want_root_y = anticipate._context_arrays(
        [anticipate.ContextWindow(times, frames) for times, frames in windows])
    assert hit.tobytes() == want_hit.tobytes()
    assert root_y.tobytes() == want_root_y.tobytes()
