"""Exchanges hold their context as array rows and build frames only when read.

The batch path (generation, forecast_split, the conformal study) must build no
Frame3D and no ContextWindow; ``ex.context`` and ``ex.context_until`` must
build exactly the frames generate_exchanges used to build eagerly.
"""

import math

import numpy as np
import pytest

from ttrally import anticipate, core
from ttrally.core import Frame3D, Vec3
from ttrally.synth import CONTEXT_DT, CONTEXT_S, CONTEXT_TIMES, generate_exchanges

LEAD_TIMES = [0.0, 0.02, 0.1, 0.58, 0.6]


@pytest.fixture
def constructed(monkeypatch):
    """Counts of Frame3D and ContextWindow constructions while a test runs."""
    counts = {"Frame3D": 0, "ContextWindow": 0}
    for cls in (core.Frame3D, anticipate.ContextWindow):
        init = cls.__init__

        def counting(self, *args, _init=init, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("lead_time", [0.0, 0.2])
def test_the_batch_path_builds_no_frame(constructed, lead_time):
    exchanges = generate_exchanges(3, 200)
    assert len(exchanges) == 200
    study = anticipate.run_conformal_study(3, n_cal=40, n_test=30, lead_time=lead_time)
    assert study.coverage.n_test == 30
    assert constructed == {"Frame3D": 0, "ContextWindow": 0}
    # The counter sees frames when they are read.
    assert len(exchanges[0].context) == len(CONTEXT_TIMES)
    assert constructed["Frame3D"] == len(CONTEXT_TIMES)


def _ease(u):
    """The scalar cosine easing those frames were built with."""
    return 0.5 - 0.5 * math.cos(math.pi * min(max(u, 0.0), 1.0))


def _eager_context(ex):
    """The frames generate_exchanges built for every exchange before its
    context became array rows: that construction, copied, on one exchange."""
    hl = ex.table.half_length
    balls = ex.incoming.positions(CONTEXT_TIMES)[0]
    approach = np.array([_ease(1.0 + t / CONTEXT_S) for t in CONTEXT_TIMES.tolist()])
    rest = np.array([hl + 0.6, ex.opp_root_y, 1.0])
    hands = rest[None] + (ex.hit_pos.as_array() - rest)[None] * approach[:, None]
    root_x = hl + 0.55
    ego_root = Vec3(-hl - 0.5, 0.0, 0.0)
    y = ex.opp_root_y
    hip = Vec3(root_x, y, 0.95)
    ankles = (Vec3(root_x - 0.08, y, 0.0), Vec3(root_x + 0.08, y, 0.0))
    return [Frame3D(j, Vec3(*ball), [hip, Vec3(*hand), *ankles], ego_root)
            for j, (ball, hand) in enumerate(zip(balls.tolist(), hands.tolist()))]


def _eager_context_until(ex, t_rel_hit):
    """The mask-and-filter context_until ran over the eager frames."""
    mask = ex.context_times <= t_rel_hit + 1e-9
    return ex.context_times[mask], [f for f, m in zip(_eager_context(ex), mask) if m]


@pytest.fixture(scope="module")
def exchanges():
    return generate_exchanges(7, 200)


def test_context_equals_the_eager_frames(exchanges):
    for ex in exchanges:
        frames, want = ex.context, _eager_context(ex)
        assert frames == want
        assert repr(frames) == repr(want)  # float types and signed zeros too


@pytest.mark.parametrize("lead_time", LEAD_TIMES)
def test_context_until_equals_the_eager_filter(exchanges, lead_time):
    for ex in exchanges:
        times, frames = ex.context_until(-lead_time)
        want_times, want_frames = _eager_context_until(ex, -lead_time)
        assert times.tobytes() == want_times.tobytes()
        assert frames == want_frames
        assert repr(frames) == repr(want_frames)
    # The last frame sits one step before the hit, so a lead time of one step keeps all.
    m = len(CONTEXT_TIMES)
    assert len(frames) == min(m, m + 1 - round(lead_time / CONTEXT_DT))
