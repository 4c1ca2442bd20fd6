import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from golden import TRUTH_TIMES
from scalar_flight import chain_segments, chains_of, construct_return_shot, trajectory_of
from track_columns import corrupt_track
from ttrally import anticipate
from ttrally.ball import Chains, StokesSegment, stokes_position, stokes_positions
from ttrally.camera import project_many
from ttrally.control import HORIZONS
from ttrally.core import RACKET_HAND_JOINT, TableGeometry, Vec3
from ttrally.errors import AssumptionViolation
from ttrally.synth import (
    BOUNCE_CLEARANCE,
    CONTEXT_TIMES,
    balls_at,
    check_camera_assumptions,
    emit_synthetic_track,
    generate_exchanges,
    generate_rally,
    generate_scene,
    return_shots,
    sample_camera,
    tilt_camera,
)

TABLE = TableGeometry()


def test_rally_anchors_are_frame_snapped_and_continuous():
    rally = generate_rally(np.random.default_rng(1), n_hits=4)
    # Pieces tile the frame range and agree at shared anchors.
    assert rally.pieces[0][0] == rally.frames[0]
    assert rally.pieces[-1][1] == rally.frames[-1]
    for (s0, e0, seg0), (s1, e1, seg1) in zip(rally.pieces, rally.pieces[1:]):
        assert e0 == s1
        assert (seg0.bT - seg1.b0).norm() < 1e-12


def test_rally_hits_touch_the_racket_hand():
    rally = generate_rally(np.random.default_rng(2), n_hits=5)
    for frame, player, pos in rally.hits:
        i = int(frame - rally.frames[0])
        assert np.allclose(rally.joints[i, player, RACKET_HAND_JOINT], pos.as_array(), atol=1e-9)
        # The ball is exactly at the hand at the hit frame.
        assert np.allclose(rally.ball[i], pos.as_array(), atol=1e-9)


def test_rally_bounces_on_the_table_surface():
    rally = generate_rally(np.random.default_rng(3), n_hits=4)
    assert len(rally.bounces) == len(rally.hits)  # serve adds the extra one
    for frame, pos in rally.bounces:
        assert pos.z == pytest.approx(TABLE.height_z)
        assert abs(pos.x) <= TABLE.half_length
        i = int(frame - rally.frames[0])
        assert np.allclose(rally.ball[i], pos.as_array(), atol=1e-9)


def test_rally_hit_spacing_supports_detection():
    for seed in range(5):
        rally = generate_rally(np.random.default_rng(seed), n_hits=5)
        hit_frames = [f for f, _, _ in rally.hits]
        assert min(b - a for a, b in zip(hit_frames, hit_frames[1:])) >= 18


def test_rally_joint_convention():
    rally = generate_rally(np.random.default_rng(4), n_hits=3)
    joints = rally.joints[10, 0]
    assert len(joints) == 4
    # The racket hand is the joint that meets the ball at its player's hit.
    frame, player, pos = rally.hits[0]
    hand = rally.joints[frame - rally.frames[0], player, RACKET_HAND_JOINT]
    assert np.allclose(hand, pos.as_array(), atol=1e-9)
    # Ankles close the list and sit on the floor.
    assert joints[-2, 2] == 0.0 and joints[-1, 2] == 0.0


def test_check_camera_assumptions_rejects_offset_camera():
    cam = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 5e-4)
    check_camera_assumptions(cam)  # fine
    bad = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 0.2)
    with pytest.raises(AssumptionViolation):
        check_camera_assumptions(bad)


def test_check_camera_assumptions_rejects_x_translation():
    cam = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 0.0)
    shifted = cam
    shifted.extrinsics.t[0] += 0.5
    with pytest.raises(AssumptionViolation):
        check_camera_assumptions(shifted)


def test_emit_noiseless_track_projects_truth_exactly():
    rng = np.random.default_rng(5)
    track, rally, cam = generate_scene(rng, noise_px=0.0, n_hits=3)
    for i in range(len(track.frames)):
        want = project_many(cam, rally.ball[i : i + 1])[0]
        assert np.allclose(track.ball[i], want, atol=1e-12)
        kp = project_many(
            cam, np.array([p.as_array() for p in TABLE.surface_keypoints()])
        )
        assert np.allclose(track.keypoints[i], kp, atol=1e-12)
        # Camera-frame joints pass through exactly.
        r, t = cam.extrinsics.r, cam.extrinsics.t
        for player in (0, 1):
            for j_cam, j_world in zip(track.joints[i, player], rally.joints[i, player]):
                assert np.allclose(j_cam, r @ j_world + t, atol=1e-12)


def test_emit_noisy_track_perturbs_pixels_only():
    rng = np.random.default_rng(6)
    rally = generate_rally(np.random.default_rng(7), n_hits=3)
    cam = sample_camera(np.random.default_rng(8))
    clean = emit_synthetic_track(rally, cam, 0.0, rng)
    noisy = emit_synthetic_track(rally, cam, 1.0, np.random.default_rng(9))
    db = [
        math.hypot(a[0] - b[0], a[1] - b[1])
        for a, b in zip(clean.ball.tolist(), noisy.ball.tolist())
    ]
    assert 0.1 < np.mean(db) < 5.0
    assert clean.joints.tobytes() == noisy.joints.tobytes()  # 3D joints carry no pixel noise


def test_corrupt_track_drops_joints():
    rng = np.random.default_rng(10)
    track, _, _ = generate_scene(rng, noise_px=0.0, n_hits=3)
    broken = corrupt_track(track, np.random.default_rng(0), drop_prob=0.5)
    dropped = int(np.isnan(broken.joints[:, 0]).all(axis=(1, 2)).sum())
    assert 0 < dropped < len(broken.frames)
    assert np.isnan(broken.joints).any()
    # The original is untouched.
    assert not np.isnan(track.joints).any()


def _chain(anchors, durations, ks, t0=0.0):
    """One chain through ``anchors`` as a one-row batch."""
    return Chains.through(np.array([t0]), np.array([[a.as_array() for a in anchors]]),
                          np.array([durations], dtype=float), np.array([ks], dtype=float))


def _shot(hit, x_bounce, y_cross, z_cross, speed, k1, k2):
    """One return shot as a one-row batch, and its crossing time."""
    shot = (np.array([x], dtype=float) for x in (x_bounce, y_cross, z_cross, speed, k1, k2))
    chains, t_cross = return_shots(np.array([hit.as_array()]), *shot)
    return chains, float(t_cross[0])


def test_chain_segments_positions_and_crossing():
    anchors = [Vec3(2.0, 0.0, 1.0), Vec3(0.0, 0.1, 0.76), Vec3(-2.0, 0.2, 1.0)]
    chain = _chain(anchors, [0.2, 0.25], [0.2, 0.3])
    at = chain.positions([0.0, 0.2, 0.45, 0.46])[0]
    for got, want in zip(at, anchors):
        assert np.linalg.norm(got - want.as_array()) < 1e-12
    # Extrapolation beyond the support is continuous.
    assert np.linalg.norm(at[3] - at[2]) < 0.5


def test_construct_return_shot_passes_through_crossing():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        hit = Vec3(1.5, float(rng.uniform(-0.5, 0.5)), 1.1)
        y_cross = float(rng.uniform(-0.9, 0.9))
        z_cross = float(rng.uniform(0.95, 1.15))
        chain, t_cross = _shot(hit, -0.7, y_cross, z_cross, 11.0, 0.2, 0.2)
        p = chain.positions([t_cross])[0, 0]
        assert p[0] == pytest.approx(-TABLE.half_length, abs=1e-9)
        assert p[1] == pytest.approx(y_cross, abs=1e-9)
        assert p[2] == pytest.approx(z_cross, abs=1e-9)
        # One bounce on the ego half, on the surface.
        bounce = chain.bT[0, 0]
        assert bounce[2] == pytest.approx(TABLE.height_z)
        assert -TABLE.half_length < bounce[0] < 0


HIT = st.builds(Vec3, st.floats(0.5, 2.0), st.floats(-0.8, 0.8), st.floats(0.9, 1.3))
SHOT = dict(
    y_cross=st.floats(-1.05, 1.05),
    z_cross=st.floats(0.8, 1.4),
    speed=st.floats(3.0, 25.0),
    k1=st.floats(0.02, 1.0),
    k2=st.floats(0.02, 1.0),
)


CLEARANCE = 1e-3  # m; a bounce closer to the plane must climb to z_cross in ~no time


@given(hit=HIT, frac=st.floats(0.0, 1.0), **SHOT)
def test_construct_return_shot_crosses_at_the_asked_point(hit, frac, y_cross, z_cross,
                                                         speed, k1, k2):
    lo, hi = -TABLE.half_length + CLEARANCE, hit.x - CLEARANCE
    x_bounce = lo + frac * (hi - lo)
    chain, t_cross = _shot(hit, x_bounce, y_cross, z_cross, speed, k1, k2)
    p = chain.positions([t_cross])[0, 0]
    assert np.linalg.norm(p - [-TABLE.half_length, y_cross, z_cross]) < 1e-9


@given(hit=HIT, beyond=st.floats(0.0, 3.0), past_plane=st.booleans(), **SHOT)
def test_construct_return_shot_rejects_bounce_outside_the_span(hit, beyond, past_plane,
                                                               y_cross, z_cross, speed, k1, k2):
    # A bounce at or beyond the ego plane, or at or behind the hitter.
    x_bounce = -TABLE.half_length - beyond if past_plane else hit.x + beyond
    with pytest.raises(ValueError):
        _shot(hit, x_bounce, y_cross, z_cross, speed, k1, k2)


PLANE = -TABLE.half_length


@given(hit=HIT, x_bounce=st.floats(PLANE, PLANE + BOUNCE_CLEARANCE, exclude_min=True,
                                   exclude_max=True), **SHOT)
def test_construct_return_shot_rejects_bounce_inside_the_clearance(hit, x_bounce, y_cross,
                                                                   z_cross, speed, k1, k2):
    # Closer to the plane the end-height solve divides by a vanishing
    # crossing fraction: 1.8e-4 m off at 4.8e-14 m, ZeroDivisionError nearer.
    assert BOUNCE_CLEARANCE == 1e-3
    with pytest.raises(ValueError):
        _shot(hit, x_bounce, y_cross, z_cross, speed, k1, k2)


def test_return_shots_match_construct_return_shot():
    rng = np.random.default_rng(3)
    n = 40
    hit = np.column_stack([rng.uniform(0.5, 2.0, n), rng.uniform(-0.8, 0.8, n),
                           rng.uniform(0.9, 1.3, n)])
    shot = [rng.uniform(-1.3, -0.1, n), rng.uniform(-1.0, 1.0, n), rng.uniform(0.8, 1.4, n),
            rng.uniform(3.0, 25.0, n), rng.uniform(0.02, 1.0, n), rng.uniform(0.02, 1.0, n)]
    chains, t_cross = return_shots(hit, *shot)
    times = np.linspace(-0.2, 1.2, 15)
    positions = chains.positions(times)
    for i in range(n):
        traj, t = construct_return_shot(TABLE, Vec3(*hit[i]), *(float(a[i]) for a in shot))
        assert t == t_cross[i]
        want = np.array([traj.position(float(s)).as_array() for s in times])
        assert want.tobytes() == positions[i].tobytes()


def test_chains_check_their_pieces():
    chains = _chain([Vec3(2.0, 0.0, 1.0), Vec3(0.0, 0.1, 0.76), Vec3(-2.0, 0.2, 1.0)],
                    [0.2, 0.25], [0.2, 0.3])
    names = ("starts", "b0", "bT", "T", "k")
    for field, bad in (("T", 0.0), ("T", -0.1), ("k", 0.0), ("k", -1.0)):
        arrays = {name: getattr(chains, name).copy() for name in names}
        arrays[field][0, 1] = bad
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            Chains(**arrays)


def test_chains_rows_sample_as_the_batch():
    chains, _ = return_shots(np.array([[1.5, 0.1, 1.0], [1.6, -0.2, 1.1], [1.7, 0.3, 0.95]]),
                             np.full(3, -0.7), np.array([0.2, -0.4, 0.6]), np.full(3, 1.0),
                             np.full(3, 11.0), np.full(3, 0.2), np.full(3, 0.25))
    times = np.linspace(-0.1, 0.5, 7)
    again = chains[[2, 1, 0]]
    assert chains.positions(times)[::-1].tobytes() == again.positions(times).tobytes()
    assert chains[1:2].positions(times)[0].tobytes() == chains.positions(times)[1].tobytes()


# Random two-piece chains: anchors, piece durations and drags, start time.
# Pieces last at least 0.05 s, so speeds stay below ~150 m/s.
ANCHOR = st.builds(Vec3, st.floats(-2.5, 2.5), st.floats(-1.0, 1.0), st.floats(0.0, 2.0))
CHAIN = st.tuples(st.lists(ANCHOR, min_size=3, max_size=3),
                  st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2),
                  st.lists(st.floats(1e-3, 5.0), min_size=2, max_size=2),
                  st.floats(-1.0, 1.0))


def _oracle_times(traj, inside, outside):
    """Both tails, the ends, the join and 1e-13 s either side, and points inside."""
    t0, join, t_end = traj.starts[0], traj.starts[1], traj.t_end
    times = [t0 - outside, t0, join - 1e-13, join, join + 1e-13, t_end, t_end + outside]
    return times + [t0 + u * (t_end - t0) for u in inside]


@given(chain=CHAIN, inside=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       outside=st.floats(1e-9, 2.0))
def test_chain_positions_equal_trajectory_position_bitwise(chain, inside, outside):
    traj = chain_segments(*chain)
    times = _oracle_times(traj, inside, outside)
    got = chains_of(traj).positions(times)[0]
    want = np.array([traj.position(t).as_array() for t in times])
    assert got.tobytes() == want.tobytes()


@given(chain=CHAIN, inside=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       outside=st.floats(1e-9, 2.0))
def test_chain_velocities_equal_stokes_velocity_bitwise(chain, inside, outside):
    traj = chain_segments(*chain)
    times = _oracle_times(traj, inside, outside)
    got = chains_of(traj).velocities(times)[0]
    want = np.array([traj.velocity(t).as_array() for t in times])
    assert got.tobytes() == want.tobytes()


@st.composite
def _chain_batch(draw):
    """1-4 chains of 1-3 pieces each (one count per batch), as a batch."""
    n, pieces = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    anchors = [[draw(ANCHOR).as_array() for _ in range(pieces + 1)] for _ in range(n)]
    durations, ks = ([draw(st.lists(st.floats(lo, hi), min_size=pieces, max_size=pieces))
                      for _ in range(n)] for lo, hi in ((0.05, 1.0), (1e-3, 5.0)))
    t0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return Chains.through(np.array(t0), np.array(anchors), np.array(durations), np.array(ks))


def _batch_times(traj, kind, offsets, fractions):
    """Times of one chain: both tails or either alone (t_end included),
    inside only, or every piece start +-1e-13 and t_end."""
    t0, t_end = traj.starts[0], traj.t_end
    before, after = [t0 - o for o in offsets], [t_end] + [t_end + o for o in offsets]
    return {
        "before": before + before[:1],
        "after": after,
        "tails": before[::2] + after[1::2] + [t_end],
        "inside": [t0 + u * (t_end - t0) for u in fractions],
        "edges": [t + d for t in traj.starts for d in (-1e-13, 0.0, 1e-13)] + [t_end],
    }[kind]


def _closed_form(traj, t):
    """``stokes_positions`` at the clamped local time of t's piece inside the
    chain; the tail formula (the oracle's ``position``) outside it."""
    if t < traj.starts[0] or t >= traj.t_end:
        return traj.position(t).as_array()
    i, local = traj._locate(t)
    return stokes_positions(traj.pieces[i], [min(max(local, 0.0), traj.pieces[i].T)])[0]


@given(chains=_chain_batch(), kind=st.sampled_from(["before", "after", "tails", "inside", "edges"]),
       offsets=st.lists(st.floats(1e-9, 2.0), min_size=4, max_size=4),
       fractions=st.lists(st.floats(0.0, 0.99), min_size=5, max_size=5))
def test_chain_batch_positions_equal_each_row_and_the_closed_form_bitwise(chains, kind, offsets,
                                                                          fractions):
    trajs = [trajectory_of(chains, i) for i in range(len(chains.T))]
    times = np.array([_batch_times(traj, kind, offsets, fractions) for traj in trajs])
    inside = (times >= chains.starts[:, :1]) & (times < np.array([[tr.t_end] for tr in trajs]))
    if kind in ("before", "after", "tails"):
        assert not inside.any()  # an empty gather
    elif kind == "inside":
        assert inside.all()
    # (n, m) times, each row its own; then (m,) times, row 0's for every chain.
    for batch_times, row_times in ((times, times), (times[0], [times[0]] * len(trajs))):
        got, velocities = chains.positions(batch_times), chains.velocities(batch_times)
        for i, (traj, ts) in enumerate(zip(trajs, row_times)):
            want = np.array([_closed_form(traj, t) for t in ts.tolist()])
            assert got[i].tobytes() == want.tobytes()
            assert chains[i:i + 1].positions(ts)[0].tobytes() == want.tobytes()
            want = np.array([traj.velocity(t).as_array() for t in ts.tolist()])
            assert velocities[i].tobytes() == want.tobytes()
            assert chains[i:i + 1].velocities(ts)[0].tobytes() == want.tobytes()


def test_forecast_chunk_positions_and_velocities_equal_the_scalar_oracle_bitwise():
    # One full forecast pass's chains (64 exchanges x 5 members), long enough that
    # the port runs its lanes as ufuncs: at the horizons for every chain, then
    # on a per-row grid that mixes both tails, piece insides and each join
    # +-1e-13 s in one call.
    shots = []

    def spy(*args):
        shots.append(return_shots(*args))
        return shots[-1]

    with mock.patch.object(anticipate, "return_shots", spy):
        anticipate.forecast_ensemble(anticipate.physics_baseline_ensemble(1, 5),
                                     generate_exchanges(1, 64), HORIZONS, 0.0)
    (chains, _), = shots
    trajs = [trajectory_of(chains, i) for i in range(len(chains.T))]
    assert len(trajs) == 320
    grid = np.array([[tr.starts[0] - 0.3, tr.starts[0], *(tr.starts[0] + u * tr.pieces[0].T
                                                          for u in (0.25, 0.5)),
                      *(tr.starts[1] + d for d in (-1e-13, 0.0, 1e-13)),
                      tr.starts[1] + 0.5 * tr.pieces[1].T, tr.t_end, tr.t_end + 0.2]
                     for tr in trajs])
    for times, row_times in ((np.array(HORIZONS), [HORIZONS] * len(trajs)), (grid, grid)):
        positions, velocities = chains.positions(times), chains.velocities(times)
        for i, (traj, ts) in enumerate(zip(trajs, row_times)):
            ts = np.asarray(ts).tolist()
            want = np.array([_closed_form(traj, t) for t in ts])
            assert positions[i].tobytes() == want.tobytes()
            want = np.array([traj.velocity(t).as_array() for t in ts])
            assert velocities[i].tobytes() == want.tobytes()


@given(chain=CHAIN)
def test_chain_position_is_continuous_at_the_join(chain):
    anchors, durations, ks, t0 = chain
    chains = _chain(anchors, durations, ks, t0)
    join = float(chains.starts[0, 1])
    left, right = chains.positions([join - 1e-13, join + 1e-13])[0]
    assert np.linalg.norm(right - left) <= 1e-10


EPS = np.finfo(float).eps


@given(anchors=st.lists(ANCHOR, min_size=3, max_size=4), data=st.data())
def test_pieces_pass_through_their_anchors_down_to_tiny_drag(anchors, data):
    # k down to 1e-9 1/s, where g/k is about 1e10 m/s^2 * s: the gravity
    # term (g/k)(T frac - t) is exactly 0 at both ends of a piece.
    n = len(anchors) - 1
    durations = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    ks = [10.0 ** e for e in data.draw(st.lists(st.floats(-9.0, 0.7), min_size=n,
                                                max_size=n))]

    for a, b, T, k in zip(anchors, anchors[1:], durations, ks):
        seg = StokesSegment(b0=a, bT=b, T=T, k=k)
        assert stokes_position(seg, 0.0) == a
        # a + (b - a) * 1 rounds twice: within 2 eps of the larger anchor, per axis.
        bound = 2 * EPS * np.maximum(np.abs(a.as_array()), np.abs(b.as_array()))
        assert np.all(np.abs(stokes_position(seg, T).as_array() - b.as_array()) <= bound)

    chains = _chain(anchors, durations, ks)
    starts = chains.starts[0].tolist()
    t_end = starts[-1] + durations[-1]
    at = chains.positions(starts + [t_end])[0]
    assert np.all(at[0] == anchors[0].as_array())
    for got, joint in zip(at[1:-1], anchors[1:-1]):  # each join starts a piece
        assert np.all(got == joint.as_array())
    assert np.all(at[-1] == anchors[-1].as_array())  # the chain end, exactly


def test_generate_exchange_consistency():
    exchanges = generate_exchanges(1, 1)
    ex = exchanges[0]
    assert np.all(ex.context_times < 0)
    assert len(ex.context) == len(ex.context_times)
    # Context ball positions follow the incoming trajectory.
    incoming = exchanges.incoming.positions(ex.context_times)[0]
    for f, want in zip(ex.context, incoming):
        assert np.linalg.norm(f.ball_world.as_array() - want) < 1e-9
    # Incoming ends exactly at the opponent's contact point.
    assert np.linalg.norm(exchanges.incoming.positions([0.0])[0, 0]
                          - exchanges.incoming.bT[0, -1]) < 1e-9
    t_cross, p_cross = float(exchanges.crossing_time[0]), exchanges.crossing_pos[0]
    assert np.linalg.norm(ex.truth_at(t_cross).as_array() - p_cross) < 1e-12
    assert p_cross[0] == pytest.approx(-TABLE.half_length, abs=1e-9)
    # The crossing velocity is the return's, at the crossing time.
    v = exchanges.outgoing.velocities([t_cross])[0, 0]
    assert v.tolist() == exchanges.crossing_vel[0].tolist()


def test_exchange_rows_and_slices():
    exchanges = generate_exchanges(3, 10, id_offset=100)
    assert len(exchanges) == 10 and [ex.exchange_id for ex in exchanges] == list(range(100, 110))
    assert exchanges[-1].exchange_id == 109 and exchanges[np.int64(2)].exchange_id == 102
    with pytest.raises(IndexError):
        exchanges[10]
    part = exchanges[2:5]
    assert part.ids.tolist() == [102, 103, 104] and len(part.incoming.T) == 3
    assert part[1].context == exchanges[3].context
    assert part[1].truth_at(0.2) == exchanges[3].truth_at(0.2)
    assert len(generate_exchanges(3, 0)) == 0 and len(exchanges[:0]) == 0
    # Every 10th row view of the exchange digest's batch, bit for bit against
    # the balls_at rows that digest hashes.
    batch = generate_exchanges(7, 200)
    context, truth = balls_at(batch, CONTEXT_TIMES), balls_at(batch, TRUTH_TIMES)
    for i in range(0, 200, 10):
        ex = batch[i]
        got = [f.ball_world for f in ex.context] + [ex.truth_at(t) for t in TRUTH_TIMES]
        want = [context[i], truth[i]]
        assert np.array([p.as_array() for p in got]).tobytes() == np.concatenate(want).tobytes()


def test_generate_exchanges_match_the_scalar_flights():
    # Every exchange's flights, truth and crossing through the scalar oracle.
    exchanges = generate_exchanges(5, 20)
    for i, ex in enumerate(exchanges):
        incoming = trajectory_of(exchanges.incoming, i)
        outgoing = trajectory_of(exchanges.outgoing, i)
        for t, f in zip(ex.context_times.tolist(), ex.context):
            assert f.ball_world == incoming.position(t)
        t_cross = float(exchanges.crossing_time[i])
        assert outgoing.position(t_cross) == Vec3.from_array(exchanges.crossing_pos[i])
        assert outgoing.velocity(t_cross) == Vec3.from_array(exchanges.crossing_vel[i])
        for t in (-0.3, -0.02, 0.0, 0.1, 0.25, 0.6):
            want = outgoing.position(t) if t >= 0 else incoming.position(t)
            assert ex.truth_at(t) == want


def test_generate_exchanges_deterministic():
    a = generate_exchanges(42, 5)
    b = generate_exchanges(42, 5)
    assert a.crossing_pos.tobytes() == b.crossing_pos.tobytes()
    assert a.crossing_time.tobytes() == b.crossing_time.tobytes()
