"""The batched drag fit against the per-piece scalar fit it replaced.

``_oracle_fit_drag`` and ``_oracle_golden_section`` below are the earlier
scalar search, kept verbatim: one objective call per probe and per golden
section step, each building a ``StokesSegment`` and projecting its samples.
The batched objective reaches the same sums by another arithmetic route, so
the two agree to rounding, not bit for bit; a piece fitted in any batch
equals the same piece fitted alone exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttrally import ball, pipeline
from ttrally.ball import (
    K_BOUNDS,
    K_TOL,
    StokesSegment,
    fit_drag,
    fit_drags,
    golden_section,
    stokes_positions,
)
from ttrally.camera import project_many
from ttrally.core import Vec3
from ttrally.errors import BehindCamera, OutOfRange
from ttrally.synth import generate_scene, tilt_camera


def _oracle_golden_section(f, lo, hi, tol=K_TOL):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    if h <= tol:
        return (a + b) / 2.0
    n = int(math.ceil(math.log(tol / h) / math.log(inv_phi)))
    c = a + inv_phi2 * h
    d = a + inv_phi * h
    yc, yd = f(c), f(d)
    for _ in range(n - 1):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= inv_phi
            c = a + inv_phi2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= inv_phi
            d = a + inv_phi * h
            yd = f(d)
    return (a + d) / 2.0 if yc < yd else (c + b) / 2.0


def _oracle_objective(b0, bT, T, sample_times, sample_pixels, camera):
    def objective(k):
        seg = StokesSegment(b0=b0, bT=bT, T=T, k=k)
        proj = project_many(camera, stokes_positions(seg, sample_times))
        return float(np.sum((proj - sample_pixels) ** 2))

    return objective


def _oracle_fit_drag(b0, bT, T, sample_times, sample_pixels, camera):
    sample_times = np.asarray(sample_times, dtype=float)
    sample_pixels = np.asarray(sample_pixels, dtype=float)
    objective = _oracle_objective(b0, bT, T, sample_times, sample_pixels, camera)
    lo, hi = K_BOUNDS
    probes = np.geomspace(lo, hi, 7)
    probe_vals = [objective(k) for k in probes]
    if max(probe_vals) - min(probe_vals) < 1e-12:
        return ball.DragFit(k=lo, reproj_error=probe_vals[0], boundary_warning=True)
    i = int(np.argmin(probe_vals))
    blo = probes[max(0, i - 1)]
    bhi = probes[min(len(probes) - 1, i + 1)]
    k_star = _oracle_golden_section(objective, blo, bhi)
    err = objective(k_star)
    warn = bool(i == 0 and abs(k_star - lo) < 10 * K_TOL) or bool(
        i == len(probes) - 1 and abs(k_star - hi) < 10 * K_TOL
    )
    return ball.DragFit(k=k_star, reproj_error=err, boundary_warning=warn)


CAMERA = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 8e-4)


def _random_piece(rng):
    """Anchors over the table, 2-60 samples of a planted flight, 0-2 px noise."""
    b0 = Vec3(*rng.uniform([-1.6, -0.8, 0.76], [1.6, 0.8, 1.5]))
    bT = Vec3(*rng.uniform([-1.6, -0.8, 0.76], [1.6, 0.8, 1.5]))
    T = float(rng.uniform(0.05, 0.5))
    ts = np.sort(rng.uniform(0.0, T, int(rng.integers(2, 61))))
    seg = StokesSegment(b0=b0, bT=bT, T=T, k=float(10 ** rng.uniform(-2.5, 0.6)))
    px = project_many(CAMERA, stokes_positions(seg, ts))
    px = px + rng.normal(0.0, rng.uniform(0.0, 2.0), px.shape)
    return b0, bT, T, ts, px


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_batch_equals_each_piece_alone_and_the_scalar_oracle(seed, n):
    rng = np.random.default_rng(seed)
    pieces = [_random_piece(rng) for _ in range(n)]
    order = rng.permutation(n)
    batch = fit_drags([pieces[i] for i in order], CAMERA)
    for fit, i in zip(batch, order):
        assert fit == fit_drag(*pieces[i], CAMERA)
        oracle = _oracle_fit_drag(*pieces[i], CAMERA)
        # The two objectives differ by rounding, so where one is flat to
        # rounding over more than K_TOL (short, noisy pieces) the searches can
        # part there; the batch's k must then be as good by the oracle's own
        # objective.
        objective = _oracle_objective(*pieces[i], CAMERA)
        assert abs(fit.k - oracle.k) <= K_TOL or (
            objective(fit.k) - oracle.reproj_error <= 1e-10 * oracle.reproj_error
        )
        assert abs(fit.reproj_error - oracle.reproj_error) <= 1e-8 * oracle.reproj_error
        assert fit.boundary_warning == oracle.boundary_warning


def test_flat_and_empty_pieces_keep_the_scalar_fallback():
    # A stationary target gives no drag information; no samples give none either.
    b = Vec3(0.0, 0.0, 1.0)
    ts = np.array([0.0, 0.2])
    flat = (b, b, 0.2, ts, project_many(CAMERA, np.array([b.as_array()] * 2)))
    empty = (b, Vec3(1.0, 0.0, 1.0), 0.3, np.zeros(0), np.zeros((0, 2)))
    piece = _random_piece(np.random.default_rng(3))
    fits = fit_drags([flat, piece, empty], CAMERA)
    oracles = [_oracle_fit_drag(*p, CAMERA) for p in (flat, piece, empty)]
    assert fits[0] == oracles[0] and fits[0].boundary_warning
    assert fits[2] == oracles[2] == ball.DragFit(K_BOUNDS[0], 0.0, True)
    assert fits[1] == fit_drag(*piece, CAMERA)


def test_fit_drags_error_contract():
    piece = _random_piece(np.random.default_rng(1))
    b0, bT, T, ts, px = piece
    assert fit_drags([], CAMERA) == []
    behind = (Vec3(0.0, -9.0, 1.0), bT, T, np.array([0.0, T]), px[:2])  # starts behind the camera
    with pytest.raises(BehindCamera):
        fit_drags([piece, behind], CAMERA)
    for bad_T in (0.0, -0.1):
        with pytest.raises(ValueError):
            fit_drags([piece, (b0, bT, bad_T, ts[:0], px[:0])], CAMERA)
    for late in (T + 1e-9, -1e-9):
        with pytest.raises(OutOfRange):
            fit_drags([piece, (b0, bT, T, np.append(ts, late), np.vstack([px, px[-1]]))], CAMERA)


def test_lockstep_golden_section_equals_each_bracket_alone():
    centers = np.array([-1.0, 0.3, 2.5, 0.0])
    lo = centers - np.array([0.5, 4.0, 1e-3, 1e-9])  # the last is narrower than K_TOL
    hi = centers + np.array([2.0, 0.1, 3.0, 1e-9])
    batch = golden_section(lambda x: (x - centers) ** 2, lo, hi)
    for i, c in enumerate(centers):
        alone = _oracle_golden_section(lambda x: (x - c) ** 2, lo[i], hi[i])
        assert batch[i] == alone


# 100 points: 60 and 120 fps, 3-6 hits, 0-2 px of pixel noise.
SCENES = [(60.0 if i % 2 == 0 else 120.0, 3 + (i // 2) % 4, (i % 5) / 2) for i in range(100)]


def _oracle_fit_drags(pieces, camera):
    return [_oracle_fit_drag(*piece, camera) for piece in pieces]


@pytest.mark.parametrize("chunk", range(4))
def test_reconstruction_matches_the_scalar_fit(chunk):
    for i in range(chunk, len(SCENES), 4):
        fps, n_hits, noise = SCENES[i]
        track, _, _ = generate_scene(
            np.random.default_rng([9, i]), fps=fps, n_hits=n_hits, noise_px=noise
        )
        _, point = pipeline.reconstruct_point(track)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ball, "fit_drags", _oracle_fit_drags)
            _, oracle = pipeline.reconstruct_point(track)
        assert [h.frame for h in point.hits] == [h.frame for h in oracle.hits]
        assert [b.frame for b in point.bounces] == [b.frame for b in oracle.bounces]
        spans = [(p.start_frame, p.end_frame) for p in point.pieces]
        assert spans == [(p.start_frame, p.end_frame) for p in oracle.pieces]
        warnings = [p.drag.boundary_warning for p in point.pieces]
        assert warnings == [p.drag.boundary_warning for p in oracle.pieces]
        assert [f.frame_index for f in point.frames] == [f.frame_index for f in oracle.frames]
        for f, g in zip(point.frames, oracle.frames):
            assert np.abs(f.ball.as_array() - g.ball.as_array()).max() <= 1e-7
