import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ttrally.ball import stokes_position
from ttrally.camera import project, project_many
from ttrally.core import RACKET_HAND_JOINT, TableGeometry, Vec3
from ttrally.errors import AssumptionViolation
from ttrally.synth import (
    BOUNCE_CLEARANCE,
    Chains,
    chain_segments,
    check_camera_assumptions,
    construct_return_shot,
    corrupt_track,
    emit_synthetic_track,
    generate_exchange,
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
        assert np.allclose(rally.hands[player][i], pos.as_array(), atol=1e-9)
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
    joints = rally.joints(0, 10)
    assert len(joints) == 4
    hand = rally.hands[0][10]
    assert joints[RACKET_HAND_JOINT] == Vec3(*hand)
    # Ankles close the list and sit on the floor.
    assert joints[-2].z == 0.0 and joints[-1].z == 0.0


def test_check_camera_assumptions_rejects_offset_camera():
    cam = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 5e-4)
    check_camera_assumptions(cam, TABLE)  # fine
    bad = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 0.2)
    with pytest.raises(AssumptionViolation):
        check_camera_assumptions(bad, TABLE)


def test_check_camera_assumptions_rejects_x_translation():
    cam = tilt_camera(1000.0, 480.0, 300.0, -7.5, 2.2, 0.0)
    shifted = cam
    shifted.extrinsics.t[0] += 0.5
    with pytest.raises(AssumptionViolation):
        check_camera_assumptions(shifted, TABLE)


def test_emit_noiseless_track_projects_truth_exactly():
    rng = np.random.default_rng(5)
    track, rally, cam = generate_scene(rng, noise_px=0.0, n_hits=3)
    for i, frame in enumerate(track.frames):
        want = project_many(cam, rally.ball[i : i + 1])[0]
        assert np.allclose(frame.ball_px, want, atol=1e-12)
        kp = project_many(
            cam, np.array([p.as_array() for p in TABLE.surface_keypoints()])
        )
        assert np.allclose(frame.table_keypoints, kp, atol=1e-12)
        # Camera-frame joints pass through exactly.
        r, t = cam.extrinsics.r, cam.extrinsics.t
        for player in (0, 1):
            for j_cam, j_world in zip(
                frame.player_joints_cam[player], rally.joints(player, i)
            ):
                assert np.allclose(
                    j_cam.as_array(), r @ j_world.as_array() + t, atol=1e-12
                )


def test_emit_noisy_track_perturbs_pixels_only():
    rng = np.random.default_rng(6)
    rally = generate_rally(np.random.default_rng(7), n_hits=3)
    cam = sample_camera(np.random.default_rng(8))
    clean = emit_synthetic_track(rally, cam, 0.0, rng)
    noisy = emit_synthetic_track(rally, cam, 1.0, np.random.default_rng(9))
    db = [
        math.hypot(a.ball_px[0] - b.ball_px[0], a.ball_px[1] - b.ball_px[1])
        for a, b in zip(clean.frames, noisy.frames)
    ]
    assert 0.1 < np.mean(db) < 5.0
    for a, b in zip(clean.frames, noisy.frames):
        for p in (0, 1):
            for ja, jb in zip(a.player_joints_cam[p], b.player_joints_cam[p]):
                assert ja == jb  # 3D joints carry no pixel noise


def test_corrupt_track_drops_joints():
    rng = np.random.default_rng(10)
    track, _, _ = generate_scene(rng, noise_px=0.0, n_hits=3)
    broken = corrupt_track(track, np.random.default_rng(0), drop_prob=0.5)
    dropped = sum(f.player_joints_cam[0] is None for f in broken.frames)
    assert 0 < dropped < len(broken.frames)
    assert not all(f.is_complete() for f in broken.frames)
    # The original is untouched.
    assert all(f.player_joints_cam[0] is not None for f in track.frames)


def test_chain_segments_positions_and_crossing():
    anchors = [Vec3(2.0, 0.0, 1.0), Vec3(0.0, 0.1, 0.76), Vec3(-2.0, 0.2, 1.0)]
    traj = chain_segments(anchors, [0.2, 0.25], [0.2, 0.3])
    assert (traj.position(0.0) - anchors[0]).norm() < 1e-12
    assert (traj.position(0.2) - anchors[1]).norm() < 1e-12
    assert (traj.position(0.45) - anchors[2]).norm() < 1e-12
    # Extrapolation beyond the support is continuous.
    near, past = traj.position(0.45), traj.position(0.46)
    assert (past - near).norm() < 0.5


def test_construct_return_shot_passes_through_crossing():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        hit = Vec3(1.5, float(rng.uniform(-0.5, 0.5)), 1.1)
        y_cross = float(rng.uniform(-0.9, 0.9))
        z_cross = float(rng.uniform(0.95, 1.15))
        traj, t_cross = construct_return_shot(
            TABLE, hit, -0.7, y_cross, z_cross, 11.0, 0.2, 0.2
        )
        p = traj.position(t_cross)
        assert p.x == pytest.approx(-TABLE.half_length, abs=1e-9)
        assert p.y == pytest.approx(y_cross, abs=1e-9)
        assert p.z == pytest.approx(z_cross, abs=1e-9)
        # One bounce on the ego half, on the surface.
        bounce = traj.pieces[0].bT
        assert bounce.z == pytest.approx(TABLE.height_z)
        assert -TABLE.half_length < bounce.x < 0


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
    traj, t_cross = construct_return_shot(TABLE, hit, x_bounce, y_cross, z_cross, speed, k1, k2)
    p = traj.position(t_cross)
    assert (p - Vec3(-TABLE.half_length, y_cross, z_cross)).norm() < 1e-9


@given(hit=HIT, beyond=st.floats(0.0, 3.0), past_plane=st.booleans(), **SHOT)
def test_construct_return_shot_rejects_bounce_outside_the_span(hit, beyond, past_plane,
                                                               y_cross, z_cross, speed, k1, k2):
    # A bounce at or beyond the ego plane, or at or behind the hitter.
    x_bounce = -TABLE.half_length - beyond if past_plane else hit.x + beyond
    with pytest.raises(ValueError):
        construct_return_shot(TABLE, hit, x_bounce, y_cross, z_cross, speed, k1, k2)


PLANE = -TABLE.half_length


@given(hit=HIT, x_bounce=st.floats(PLANE, PLANE + BOUNCE_CLEARANCE, exclude_min=True,
                                   exclude_max=True), **SHOT)
def test_construct_return_shot_rejects_bounce_inside_the_clearance(hit, x_bounce, y_cross,
                                                                   z_cross, speed, k1, k2):
    # Closer to the plane the end-height solve divides by a vanishing
    # crossing fraction: 1.8e-4 m off at 4.8e-14 m, ZeroDivisionError nearer.
    assert BOUNCE_CLEARANCE == 1e-3
    with pytest.raises(ValueError):
        construct_return_shot(TABLE, hit, x_bounce, y_cross, z_cross, speed, k1, k2)


def test_return_shots_match_construct_return_shot():
    rng = np.random.default_rng(3)
    n = 40
    hit = np.column_stack([rng.uniform(0.5, 2.0, n), rng.uniform(-0.8, 0.8, n),
                           rng.uniform(0.9, 1.3, n)])
    shot = [rng.uniform(-1.3, -0.1, n), rng.uniform(-1.0, 1.0, n), rng.uniform(0.8, 1.4, n),
            rng.uniform(3.0, 25.0, n), rng.uniform(0.02, 1.0, n), rng.uniform(0.02, 1.0, n)]
    chains, t_cross = return_shots(np.full(n, TABLE.half_length), np.full(n, TABLE.height_z),
                                   hit, *shot)
    times = np.linspace(-0.2, 1.2, 15)
    positions = chains.positions(times)
    for i in range(n):
        traj, t = construct_return_shot(TABLE, Vec3(*hit[i]), *(float(a[i]) for a in shot))
        assert t == t_cross[i]
        want = np.array([traj.position(float(s)).as_array() for s in times])
        assert want.tobytes() == positions[i].tobytes()


def test_chains_check_their_pieces():
    traj = chain_segments([Vec3(2.0, 0.0, 1.0), Vec3(0.0, 0.1, 0.76), Vec3(-2.0, 0.2, 1.0)],
                          [0.2, 0.25], [0.2, 0.3])
    chains = Chains.of([traj])
    names = ("starts", "b0", "bT", "T", "k", "g")
    for field, bad in (("T", 0.0), ("T", -0.1), ("k", 0.0), ("k", -1.0)):
        arrays = {name: getattr(chains, name).copy() for name in names}
        arrays[field][0, 1] = bad
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            Chains(**arrays)


# Random two-piece chains: anchors, piece durations and drags, start time.
# Pieces last at least 0.05 s, so speeds stay below ~150 m/s.
ANCHOR = st.builds(Vec3, st.floats(-2.5, 2.5), st.floats(-1.0, 1.0), st.floats(0.0, 2.0))
CHAIN = st.tuples(st.lists(ANCHOR, min_size=3, max_size=3),
                  st.lists(st.floats(0.05, 1.0), min_size=2, max_size=2),
                  st.lists(st.floats(1e-3, 5.0), min_size=2, max_size=2),
                  st.floats(-1.0, 1.0))


@given(chain=CHAIN, inside=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       outside=st.floats(1e-9, 2.0))
def test_chain_positions_equal_trajectory_position_bitwise(chain, inside, outside):
    anchors, durations, ks, t0 = chain
    traj = chain_segments(anchors, durations, ks, t0=t0)
    join, t_end = traj.starts[1], traj.t_end
    times = [t0 - outside, t0, join - 1e-13, join, join + 1e-13, t_end, t_end + outside]
    times += [t0 + u * (t_end - t0) for u in inside]
    got = Chains.of([traj]).positions(times)[0]
    want = np.array([traj.position(t).as_array() for t in times])
    assert got.tobytes() == want.tobytes()


@given(chain=CHAIN)
def test_chain_position_is_continuous_at_the_join(chain):
    anchors, durations, ks, t0 = chain
    traj = chain_segments(anchors, durations, ks, t0=t0)
    join = traj.starts[1]
    left, right = Chains.of([traj]).positions([join - 1e-13, join + 1e-13])[0]
    assert np.linalg.norm(right - left) <= 1e-10


def test_generate_exchange_consistency():
    ex = generate_exchange(np.random.default_rng(1), 0)
    assert np.all(ex.context_times < 0)
    assert len(ex.context) == len(ex.context_times)
    # Context ball positions follow the incoming trajectory.
    for t, f in zip(ex.context_times, ex.context):
        assert (f.ball_world - ex.incoming.position(float(t))).norm() < 1e-9
    # Incoming ends exactly at the opponent's contact point.
    assert (ex.incoming.position(0.0) - ex.hit_pos).norm() < 1e-9
    assert (ex.truth_at(ex.crossing_time) - ex.crossing_pos).norm() < 1e-12
    assert ex.crossing_pos.x == pytest.approx(-TABLE.half_length, abs=1e-9)


def test_generate_exchanges_deterministic():
    a = generate_exchanges(42, 5)
    b = generate_exchanges(42, 5)
    for ea, eb in zip(a, b):
        assert (ea.crossing_pos - eb.crossing_pos).norm() == 0.0
        assert ea.crossing_time == eb.crossing_time
