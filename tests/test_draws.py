"""The generators' scalar draws against numpy's method forms.

``src/`` draws each scalar as one ``random()`` or ``standard_normal()`` and
maps it in numpy's own order: ``uniform(low, high)`` is
``low + (high - low) * random()`` and ``normal(loc, scale)`` is
``loc + scale * standard_normal()``. The references below draw with the
method forms (``rng.uniform``, ``rng.normal``) in the same order; every value
must match bit for bit, and the stream must end in the same state.
"""

import numpy as np
import pytest

from ttrally.anticipate import physics_baseline_ensemble
from ttrally.camera import project
from ttrally.core import Vec3
from ttrally.errors import AssumptionViolation
from ttrally.synth import (
    DRAG_K_RANGE,
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    LEG_VERTICALITY_TOL_PX,
    RALLY_SPEED_CLIP,
    RALLY_SPEED_MEAN,
    RALLY_SPEED_SD,
    SERVE_SPEED_RANGE,
    SHOT_AIM_SD,
    SHOT_SPEED_MEAN,
    SHOT_SPEED_SD,
    TABLE,
    _draw_exchange,
    generate_exchanges,
    generate_rally,
    leg_verticality,
    sample_camera,
    tilt_camera,
)


def _reference_exchange(rng):
    return (
        rng.random(), rng.normal(0.0, 0.12),
        rng.random(), rng.normal(0.0, 0.05), rng.uniform(0.95, 1.2),
        rng.uniform(-0.35, 0.35), rng.uniform(0.95, 1.15),
        rng.uniform(0.45, 1.0), rng.normal(10.0, 1.5),
        rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3),
        rng.normal(0.0, SHOT_AIM_SD), rng.uniform(0.92, 1.18),
        rng.random(), rng.normal(SHOT_SPEED_MEAN, SHOT_SPEED_SD),
        rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3),
    )


def _reference_camera(rng):
    for _ in range(100):
        y_c = float(rng.uniform(-9.0, -6.5))
        z_c = float(rng.uniform(1.6, 3.0))
        tilt = float(rng.uniform(0.0, 1.2e-3))
        focal = float(rng.uniform(850.0, 1100.0))
        cx = IMAGE_WIDTH / 2.0 + float(rng.uniform(-20, 20))
        cam = tilt_camera(focal, cx, 0.0, y_c, z_c, tilt)
        v_center = project(cam, Vec3(0.0, 0.0, TABLE.height_z)).v
        cy = IMAGE_HEIGHT / 2.0 - v_center + float(rng.uniform(-15, 15))
        cam = tilt_camera(focal, cx, cy, y_c, z_c, tilt)
        if leg_verticality(cam) <= LEG_VERTICALITY_TOL_PX:
            return cam
    raise AssumptionViolation("could not sample a valid camera")


def _reference_rally(rng, fps, n_hits):
    """generate_rally's anchors, hit frames and drags: (hits, bounces, pieces)
    with pieces as (start, end, b0, bT, k)."""
    hl, h = TABLE.half_length, TABLE.height_z
    sides = [(-1 if i % 2 == 0 else 1) for i in range(n_hits)]
    hit_pos = [Vec3(s * (hl + 0.15 + 0.2 * rng.random()), float(rng.uniform(-0.55, 0.55)),
                    float(rng.uniform(0.9, 1.25))) for s in sides]
    hit_frames, bounces, pieces = [0], [], []
    for i in range(n_hits - 1):
        a, b = hit_pos[i], hit_pos[i + 1]
        bounce_xs = [sides[i] * (0.35 + 0.4 * rng.random())] if i == 0 else []
        bounce_xs.append(sides[i + 1] * (0.35 + 0.4 * rng.random()))
        anchors = [a]
        for xb in bounce_xs:
            u = (a.x - xb) / (a.x - b.x)
            anchors.append(Vec3(xb, a.y + u * (b.y - a.y) + float(rng.uniform(-0.08, 0.08)), h))
        anchors.append(b)
        chords = [(q - p).norm() for p, q in zip(anchors, anchors[1:])]
        if i == 0:
            speed = float(rng.uniform(*SERVE_SPEED_RANGE))
        else:
            speed = float(np.clip(rng.normal(RALLY_SPEED_MEAN, RALLY_SPEED_SD), *RALLY_SPEED_CLIP))
        total_t = sum(chords) / speed
        min_frames = 6 if len(chords) == 3 else 9
        f = hit_frames[-1]
        for (p, q), c in zip(zip(anchors, anchors[1:]), chords):
            n_f = max(min_frames, round(total_t * fps * c / sum(chords)))
            pieces.append((f, f + n_f, p, q, float(rng.uniform(*DRAG_K_RANGE))))
            if q is not b:
                bounces.append((f + n_f, q))
            f += n_f
        hit_frames.append(f)
    hits = [(hit_frames[i], i % 2, hit_pos[i]) for i in range(n_hits)]
    return hits, bounces, pieces


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_exchange_draws_equal_the_method_forms(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = [_draw_exchange(rng) for _ in range(5000)]
    want = [_reference_exchange(ref) for _ in range(5000)]
    assert _bits(got) == _bits(want)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_camera_draws_equal_the_method_forms():
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = sample_camera(rng), _reference_camera(ref)
        assert got.intrinsics == want.intrinsics
        assert got.extrinsics.r.tobytes() == want.extrinsics.r.tobytes()
        assert got.extrinsics.t.tobytes() == want.extrinsics.t.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n_hits", range(2, 9))
def test_rally_draws_equal_the_method_forms(n_hits):
    for seed in range(10):
        rng, ref = np.random.default_rng([seed, n_hits]), np.random.default_rng([seed, n_hits])
        rally = generate_rally(rng, 60.0, n_hits)
        hits, bounces, pieces = _reference_rally(ref, 60.0, n_hits)
        assert rally.hits == hits
        assert rally.bounces == bounces
        assert [(s, e, seg.b0, seg.bT, seg.k) for s, e, seg in rally.pieces] == pieces
        assert rng.bit_generator.state == ref.bit_generator.state


def test_member_draws_equal_the_method_forms():
    for seed in range(20):
        table = physics_baseline_ensemble(seed, 50)
        assert table.shape == (50, 5)
        for index, row in enumerate(table):
            ref = np.random.default_rng([seed, index])
            want = [ref.normal(0.0, s) for s in (0.10, 0.6, 0.15, 0.05, 0.04)]
            assert _bits(row.tolist()) == _bits(want)


def test_generate_exchanges_rejects_a_negative_count():
    with pytest.raises(ValueError, match=r"\bn\b.*-1"):
        generate_exchanges(1, -1)
