import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

import scalar_bounces
from scalar_bounces import B, fit_parabola
from scalar_flight import stokes_position as oracle_position
from ttrally.ball import (
    BallTrack2D,
    Chains,
    GRAVITY,
    SMOOTH_WINDOW,
    StokesSegment,
    _local_minima,
    _window_sse,
    bounce_candidates,
    detect_hits,
    fit_drag,
    golden_section,
    select_bounce,
    select_bounces,
    smooth,
    stokes_position,
    stokes_positions,
)
from ttrally.core import Vec3
from ttrally.errors import NoBounceFound, OutOfRange
from ttrally.synth import tilt_camera

coord = st.floats(-3.0, 3.0)


def _segment(b0=(0.0, 0.0, 1.0), bT=(2.0, 0.5, 0.9), T=0.4, k=0.3):
    return StokesSegment(b0=Vec3(*b0), bT=Vec3(*bT), T=T, k=k)


def test_segment_validation():
    with pytest.raises(ValueError):
        _segment(T=0.0)
    with pytest.raises(ValueError):
        _segment(k=-0.1)


@settings(max_examples=60)
@given(coord, coord, coord, coord, coord, coord,
       st.floats(0.05, 1.5), st.floats(1e-3, 5.0))
def test_stokes_endpoint_identity(x0, y0, z0, x1, y1, z1, T, k):
    seg = StokesSegment(b0=Vec3(x0, y0, z0), bT=Vec3(x1, y1, z1), T=T, k=k)
    assert (stokes_position(seg, 0.0) - seg.b0).norm() < 1e-12
    assert (stokes_position(seg, T) - seg.bT).norm() < 1e-12


def test_stokes_small_k_limit_is_drag_free():
    b0, bT, T = Vec3(-1.0, 0.2, 1.1), Vec3(1.5, -0.4, 0.9), 0.5
    seg = StokesSegment(b0=b0, bT=bT, T=T, k=1e-8)
    for t in np.linspace(0.0, T, 11):
        u = t / T
        # Drag-free ballistic interpolation through the same endpoints.
        drag_free = b0 + (bT - b0) * u + Vec3(0, 0, 0.5 * GRAVITY * t * (T - t))
        assert (stokes_position(seg, t) - drag_free).norm() < 1e-6


def test_stokes_velocity_matches_finite_difference():
    seg = _segment()
    chain = Chains.through(np.zeros(1), np.array([[seg.b0.as_array(), seg.bT.as_array()]]),
                           np.array([[seg.T]]), np.array([[seg.k]]))
    eps = 1e-7
    ts = np.array([0.05, 0.2, 0.35])
    v = chain.velocities(ts)[0]
    fd = (chain.positions(ts + eps)[0] - chain.positions(ts - eps)[0]) * (1.0 / (2 * eps))
    assert np.all(np.linalg.norm(v - fd, axis=1) < 1e-5)


def test_stokes_out_of_range():
    seg = _segment()
    with pytest.raises(OutOfRange):
        stokes_position(seg, -0.01)
    with pytest.raises(OutOfRange):
        stokes_position(seg, seg.T + 0.01)


def test_stokes_positions_vectorized():
    seg = _segment()
    ts = np.linspace(0, seg.T, 9)
    batch = stokes_positions(seg, ts)
    for row, t in zip(batch, ts):
        assert np.allclose(row, stokes_position(seg, t).as_array(), atol=1e-12)


def test_stokes_positions_equal_the_scalar_oracle_bitwise():
    # Drag from nearly none to the top of K_BOUNDS; times span [0, T] with both ends.
    rng = np.random.default_rng(11)
    for _ in range(300):
        seg = StokesSegment(b0=Vec3(*rng.uniform(-3, 3, 3).tolist()),
                            bT=Vec3(*rng.uniform(-3, 3, 3).tolist()),
                            T=float(rng.uniform(0.01, 1.5)), k=float(10 ** rng.uniform(-9, 0.7)))
        ts = np.concatenate([[0.0, seg.T], rng.uniform(0.0, seg.T, 20)])
        want = np.array([oracle_position(seg, t).as_array() for t in ts.tolist()]).tobytes()
        assert stokes_positions(seg, ts).tobytes() == want
        assert np.array([stokes_position(seg, t).as_array() for t in ts.tolist()]).tobytes() == want


def test_smooth_is_centered_average():
    x = np.array([1.0, 2.0, 6.0, 2.0, 1.0, 0.0, 4.0])
    sm = smooth(x)
    assert sm[3] == pytest.approx((2.0 + 6.0 + 2.0 + 1.0 + 0.0) / 5)
    assert len(sm) == len(x)


def _smooth_loop(values):
    """The per-sample moving average ``smooth`` replaced: one np.mean per window."""
    half = SMOOTH_WINDOW // 2
    out = np.empty(len(values), dtype=float)
    for i in range(len(values)):
        out[i] = np.mean(values[max(0, i - half):min(len(values), i + half + 1)])
    return out


def _minima_loop(values):
    return [i for i in range(1, len(values) - 1)
            if values[i] < values[i - 1] and values[i] <= values[i + 1]]


SERIES = st.lists(st.floats(-1e12, 1e12), max_size=12)


@given(SERIES)
def test_smooth_matches_the_windowed_mean(values):
    x = np.array(values, dtype=float)
    assert smooth(x).tolist() == _smooth_loop(x).tolist()


@given(st.one_of(SERIES, st.lists(st.integers(0, 3).map(float), max_size=12)))
def test_local_minima_match_the_loop(values):
    assert _local_minima(np.array(values, dtype=float)).tolist() == _minima_loop(values)


def _sse(frames, vs):
    """A window's squared error as the oracle's tuple totals sum it."""
    return fit_parabola(frames.astype(float), vs)[1] * len(frames)


def test_window_sse_matches_polyfit():
    rng = np.random.default_rng(0)
    frames = np.sort(rng.choice(200, 12, replace=False)) + 40
    vs = 3e-3 * frames**2 - 2.0 * frames + 500.0 + rng.normal(0, 0.5, 12)
    track = BallTrack2D(frames, np.column_stack([frames, vs]))
    lo, hi = np.array([frames[0]]), np.array([frames[-1]])
    (sse,) = _window_sse(track, lo, hi, np.array([0]), np.array([12]))
    want = _sse(frames, vs)
    assert want > 1.0
    assert abs(sse - want) <= B * (1 + want)


def test_window_sse_scores_each_window_alone():
    # Three windows in one call: three samples (an exact fit), a partial
    # window, and every sample; each SSE is its window's own fit's residual.
    rng = np.random.default_rng(1)
    frames = np.cumsum(rng.integers(1, 4, 30))
    vs = rng.uniform(0.0, 540.0, 30)
    track = BallTrack2D(frames, np.column_stack([frames, vs]))
    start, size = np.array([4, 10, 0]), np.array([3, 11, 30])
    lo, hi = frames[start], frames[start + size - 1]
    got = _window_sse(track, lo, hi, start, size)
    for sse, i, m in zip(got, start, size):
        want = _sse(frames[i:i + m], vs[i:i + m])
        assert abs(sse - want) <= B * (1 + want)


def _vee_track(bounce_frame, n=21, slope=5.0):
    frames = np.arange(n)
    v = slope * np.abs(frames - bounce_frame).astype(float)
    u = 10.0 * frames.astype(float)
    return BallTrack2D(frames, np.column_stack([u, v]))


def test_select_bounce_matches_brute_force_on_vee():
    # The vee's bottom is frame 8; the exhaustive oracle splits there too.
    track = _vee_track(8)
    frame, total = select_bounce(track, 0, 20, list(range(2, 19)))
    (want,), want_total = scalar_bounces.select_bounces(track, 0, 20, list(range(2, 19)), 1)
    assert frame == want == 8
    assert abs(total - want_total) <= B * (1 + want_total)


def test_select_bounce_tie_breaks_earliest():
    # Mirror-symmetric about frame 8: split totals tie in symmetric pairs, and
    # both the implementation and the oracle settle on the same frame.
    frames = np.arange(17)
    v = np.abs((frames - 8.0) ** 2 - 16.0)
    track = BallTrack2D(frames, np.column_stack([10.0 * frames, v]))
    frame, total = select_bounce(track, 0, 16, list(range(2, 15)))
    (want,), want_total = scalar_bounces.select_bounces(track, 0, 16, list(range(2, 15)), 1)
    assert frame == want == 8
    assert abs(total - want_total) <= B * (1 + want_total)


def test_select_bounce_no_candidates():
    with pytest.raises(NoBounceFound):
        select_bounce(_vee_track(8), 0, 20, [])


def test_select_serve_bounces_matches_double_vee():
    frames = np.arange(25)
    v = np.minimum(np.abs(frames - 7) * 4.0, np.abs(frames - 16) * 4.0)
    track = BallTrack2D(frames, np.column_stack([frames.astype(float), v]))
    (a, b), total = select_bounces(track, 0, 24, [7, 16], 2)
    assert (a, b) == (7, 16)


def test_bounce_candidates_finds_vee_bottom():
    track = _vee_track(9)
    cands = bounce_candidates(track, 0, 20)
    assert 9 in cands
    assert all(2 <= c <= 18 for c in cands)


def test_detect_hits_finds_planted_minima():
    n = 80
    frames = np.arange(n)
    ball = np.column_stack([5.0 * frames, np.full(n, 200.0)])
    hit_frames = [10, 45, 75]
    rackets = np.empty((n, 2, 2))
    for f in frames:
        for player, own_hits in ((0, hit_frames[::2]), (1, hit_frames[1::2])):
            d = min(abs(int(f) - h) for h in own_hits)
            offset = min(20.0 + 18.0 * d, 300.0) if d else 0.0
            rackets[f, player] = (ball[f, 0] + offset, ball[f, 1])
    # Distances hit 0 at the planted frames, but only within tau elsewhere.
    track = BallTrack2D(frames, ball)
    hits = detect_hits(track, rackets)
    assert [(h.frame, h.player) for h in hits] == [(10, 0), (45, 1), (75, 0)]


def test_detect_hits_min_gap_suppression():
    n = 40
    frames = np.arange(n)
    ball = np.column_stack([5.0 * frames, np.full(n, 200.0)])
    rackets = np.empty((n, 2, 2))
    for f in frames:
        d0 = abs(int(f) - 20)
        d1 = abs(int(f) - 26)
        rackets[f, 0] = (ball[f, 0] + 5.0 + 10.0 * d0, ball[f, 1])
        rackets[f, 1] = (ball[f, 0] + 2.0 + 10.0 * d1, ball[f, 1])
    track = BallTrack2D(frames, ball)
    hits = detect_hits(track, rackets)
    # Two minima 6 frames apart: only the deeper one (player 1) survives.
    assert [(h.frame, h.player) for h in hits] == [(26, 1)]


@settings(max_examples=30)
@given(st.floats(-3, 3), st.floats(0.5, 4.0))
def test_golden_section_matches_scipy(center, width):
    f = lambda x: (x - center) ** 2 + 1.0
    lo, hi = center - width, center + width / 2
    (ours,) = golden_section(f, np.array([lo]), np.array([hi]))
    oracle = minimize_scalar(f, bounds=(lo, hi), method="bounded").x
    assert abs(ours - oracle) < 1e-5


def _fit_drag_setup(k_true=0.27, noise=0.0, seed=0):
    cam = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 8e-4)
    seg = _segment(b0=(-1.3, -0.2, 1.1), bT=(1.2, 0.3, 0.95), T=0.45, k=k_true)
    ts = np.linspace(0.0, seg.T, 28)
    from ttrally.camera import project_many

    px = project_many(cam, stokes_positions(seg, ts))
    if noise:
        px = px + np.random.default_rng(seed).normal(0, noise, px.shape)
    return seg, ts, px, cam


def test_fit_drag_recovers_planted_k():
    seg, ts, px, cam = _fit_drag_setup(k_true=0.27)
    fit = fit_drag(seg.b0, seg.bT, seg.T, ts, px, cam)
    assert abs(fit.k - 0.27) < 1e-3
    assert not fit.boundary_warning
    assert fit.reproj_error < 1e-6


def test_fit_drag_matches_grid_oracle():
    seg, ts, px, cam = _fit_drag_setup(k_true=0.8, noise=0.5)
    fit = fit_drag(seg.b0, seg.bT, seg.T, ts, px, cam)

    def objective(k):
        trial = StokesSegment(b0=seg.b0, bT=seg.bT, T=seg.T, k=k)
        from ttrally.camera import project_many

        proj = project_many(cam, stokes_positions(trial, ts))
        return float(np.sum((proj - px) ** 2))

    grid = np.arange(1e-3, 5.0, 1e-4)
    k_oracle = grid[int(np.argmin([objective(k) for k in grid]))]
    assert abs(fit.k - k_oracle) <= 2e-4


def test_fit_drag_flat_objective_warns():
    # A stationary target gives no drag information at all.
    cam = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 0.0)
    b = Vec3(0.0, 0.0, 1.0)
    seg = StokesSegment(b0=b, bT=b, T=0.2, k=0.1)
    ts = np.array([0.0, seg.T])
    from ttrally.camera import project_many

    px = project_many(cam, stokes_positions(seg, ts))
    fit = fit_drag(b, b, seg.T, ts, px, cam)
    assert fit.boundary_warning
