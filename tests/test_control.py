import functools
import math
import sys
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.spatial.transform import Rotation, Slerp

import scalar_episode
from scalar_episode import (DragFlight, NoFeasibleTime, angle, as_regions, clamp, contains_box,
                            select_preposition, select_target_time)
from ttrally import anticipate, control, synth
from ttrally.anticipate import FORECAST_SAMPLES, ContextWindow, Region, build_regions, split_regions
from ttrally.ball import GRAVITY, Chains
from ttrally.control import (
    HORIZONS,
    LANDING_T_MAX,
    RETURN_DRAG_K,
    Box,
    RacketPose,
    SimParams,
    aim_point,
    landing_after_reflection,
    prepare_anticipation,
    racket_reflect,
    run_experiment,
    run_strategy,
    solve_target_pose,
    step_robot,
    write_results,
)
from ttrally.core import TableGeometry, Vec3
from ttrally.errors import EmptyDataset, Infeasible, NoContact
from ttrally.synth import MAX_LEAD_TIME, ExchangeSample, context_mask, generate_exchanges

TABLE = TableGeometry()
WORKSPACE = Box(Vec3(-2.8, -1.4, 0.5), Vec3(-1.2, 1.4, 1.8))
NARROW = Box(Vec3(-1.9, -0.05, 1.0), Vec3(-1.45, 0.05, 1.1))  # the central pose, no crossing

unit = st.floats(-1.0, 1.0)


def _ones(exchanges):
    """Each exchange of a batch as a one-exchange batch."""
    return [exchanges[i:i + 1] for i in range(len(exchanges))]


def _window(ex, lead_time):
    """The ContextWindow of a forecast issued lead_time before ex's hit."""
    keep = context_mask(lead_time)
    return ContextWindow(ex.context_times[keep], [f for f, k in zip(ex.context, keep) if k])


def _region(lo, hi, horizon=0.2):
    return Region(horizon=horizon, lo=Vec3(*lo), hi=Vec3(*hi))


def test_box_contains_and_clamp():
    box = Box(Vec3(0, 0, 0), Vec3(1, 2, 3))
    assert box.contains(Vec3(0.5, 1.0, 1.5))
    assert not box.contains(Vec3(1.5, 1.0, 1.5))
    assert contains_box(box, Vec3(0.1, 0.1, 0.1), Vec3(0.9, 1.9, 2.9))
    assert not contains_box(box, Vec3(0.1, 0.1, 0.1), Vec3(1.1, 1.9, 2.9))
    clamped = clamp(box, Vec3(-1.0, 5.0, 1.5))
    assert clamped == Vec3(0.0, 2.0, 1.5)


@settings(max_examples=80)
@given(unit, unit, unit, unit, unit, unit)
def test_racket_reflect_conserves_speed(vx, vy, vz, nx, ny, nz):
    v = Vec3(vx * 10, vy * 10, vz * 10)
    n = np.array([nx + 1.5, ny, nz])  # biased toward +x, nonzero
    vn = float(v.as_array() @ (n / np.linalg.norm(n)))
    if vn >= 0:
        with pytest.raises(NoContact):
            racket_reflect(v, n)
    else:
        out = racket_reflect(v, n)
        assert abs(out.norm() - v.norm()) < 1e-12


def test_racket_reflect_head_on_reverses():
    out = racket_reflect(Vec3(-5.0, 0.0, 0.0), np.array([1.0, 0.0, 0.0]))
    assert (out - Vec3(5.0, 0.0, 0.0)).norm() < 1e-12


def test_select_target_time_prefers_earliest_feasible():
    # Feasible means inside the workspace: however far a region is from the
    # central pose, the earliest one inside is taken.
    outside = _region((-3.5, -0.1, 0.95), (-2.9, 0.1, 1.05), horizon=0.05)
    far = _region((-2.8, -1.4, 0.5), (-2.7, -1.3, 0.6), horizon=0.2)
    later = _region((-1.6, -0.1, 0.95), (-1.4, 0.1, 1.05), horizon=0.4)
    assert select_target_time([later, far, outside], WORKSPACE).horizon == 0.2
    with pytest.raises(NoFeasibleTime):
        select_target_time([outside], WORKSPACE)


def test_select_preposition_blend_endpoints():
    region = _region((-2.0, -0.4, 0.9), (-1.6, 0.4, 1.3))
    central = Vec3(-1.5, 0.0, 1.05)
    # lam = 0 commits to the centroid; lam = 1 clamps the central pose into
    # the region box (central x is outside it).
    assert (select_preposition(region, central, 0.0, WORKSPACE)
            - (region.lo + region.hi) * 0.5).norm() < 1e-12
    at_central = select_preposition(region, central, 1.0, WORKSPACE)
    assert at_central == Vec3(-1.6, 0.0, 1.05)
    mid = select_preposition(region, central, 0.5, WORKSPACE)
    assert region.lo.y <= mid.y <= region.hi.y
    assert WORKSPACE.contains(mid)


@settings(max_examples=300)
@given(st.tuples(st.floats(-2.7, -1.3), st.floats(-1.3, 1.3), st.floats(0.6, 1.7)),
       st.tuples(st.floats(-3.2, -0.8), st.floats(-1.8, 1.8), st.floats(0.1, 2.2)),
       st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_lam_one_is_the_central_pose_clamped(central, lo, size):
    # The central pose lies strictly inside the workspace, as SimParams requires.
    central = Vec3(*central)
    region = _region(lo, tuple(a + s for a, s in zip(lo, size)))
    got = select_preposition(region, central, 1.0, WORKSPACE)
    assert got == clamp(WORKSPACE, clamp(Box(region.lo, region.hi), central))
    assert (got == central) == all(a <= c <= b for a, c, b in zip(region.lo, central, region.hi))


def test_step_robot_limits_speed_and_turn():
    pose = RacketPose(Vec3(-1.5, 0.0, 1.0), control.IDENTITY)
    half = math.radians(90.0) / 2  # 90 degrees about z
    target = RacketPose(Vec3(-1.5, 1.0, 1.0), (0.0, 0.0, math.sin(half), math.cos(half)))
    dt, v_max, omega_max = 0.01, 2.0, math.radians(720.0)
    stepped = step_robot(pose, target, dt, v_max, omega_max, WORKSPACE)
    assert (stepped.position - pose.position).norm() <= v_max * dt + 1e-12
    assert angle(pose, stepped) <= omega_max * dt + 1e-12
    # Converges onto the target and stays put once there.
    for _ in range(200):
        pose = step_robot(pose, target, dt, v_max, omega_max, WORKSPACE)
    assert (pose.position - target.position).norm() < 1e-9
    assert angle(pose, target) < 1e-9
    again = step_robot(pose, target, dt, v_max, omega_max, WORKSPACE)
    assert (again.position - pose.position).norm() < 1e-12


def test_step_robot_respects_workspace():
    pose = RacketPose(Vec3(-1.3, 1.3, 1.7))
    target = RacketPose(Vec3(0.0, 3.0, 3.0))  # outside the box
    for _ in range(500):
        pose = step_robot(pose, target, 0.01, 2.0, math.radians(720), WORKSPACE)
        assert WORKSPACE.contains(pose.position)


# scipy's Rotation and Slerp are the oracle for the closed-form quaternions.
AT = Vec3(-1.5, 0.0, 1.0)  # a position inside WORKSPACE; these tests turn only
rotations = st.tuples(unit, unit, unit, unit).filter(
    lambda q: sum(c * c for c in q) > 1e-2).map(Rotation.from_quat)


@st.composite
def rotation_pairs(draw):
    """Two rotations: independent, or the second a turn of 1e-9..3 rad from the first."""
    a = draw(rotations)
    if draw(st.booleans()):
        return a, draw(rotations)
    axis = np.array(draw(st.tuples(unit, unit, unit).filter(lambda v: np.dot(v, v) > 1e-2)))
    angle = 10 ** draw(st.floats(-9.0, 0.5))
    return a, a * Rotation.from_rotvec(axis / np.linalg.norm(axis) * angle)


def _pose(rotation):
    return RacketPose(AT, tuple(rotation.as_quat()))


@settings(max_examples=300)
@given(rotation_pairs(), st.floats(-6.0, 0.5))
def test_step_robot_turn_matches_scipy_slerp(pair, log_turn):
    a, b = pair
    max_turn = 10 ** log_turn
    stepped = step_robot(_pose(a), _pose(b), 1.0, 2.0, max_turn, WORKSPACE)
    got = Rotation.from_quat(stepped.orientation)
    angle = (a.inv() * b).magnitude()
    want = b
    if not (angle < 1e-12 or angle <= max_turn):
        want = Slerp([0.0, 1.0], Rotation.concatenate([a, b]))([max_turn / angle])[0]
    assert (got.inv() * want).magnitude() <= 1e-12


@settings(max_examples=300)
@given(rotation_pairs())
def test_relative_angle_and_normal_match_scipy(pair):
    a, b = pair
    assert abs(angle(_pose(a), _pose(b)) - (a.inv() * b).magnitude()) <= 1e-12
    assert np.abs(_pose(a).normal() - a.apply([1.0, 0.0, 0.0])).max() <= 1e-12


@given(rotations)
def test_relative_angle_of_an_identical_orientation_is_exactly_zero(a):
    pose = _pose(a)
    assert angle(pose, pose) == 0.0
    assert angle(pose, _pose(a)) == 0.0


def test_turning_steps_keep_the_quaternion_unit():
    rng = np.random.default_rng(4)
    pose, turning, worst = RacketPose(AT), 0, 0.0
    for i in range(10_000):
        if i % 100 == 0:  # a fresh target further than 100 steps of 0.1 degrees
            target = RacketPose(AT, tuple(Rotation.random(rng=rng).as_quat()))
        pose = step_robot(pose, target, 0.01, 2.0, math.radians(10.0), WORKSPACE)
        turning += pose.orientation != target.orientation
        worst = max(worst, abs(math.sqrt(sum(c * c for c in pose.orientation)) - 1.0))
    assert turning == 10_000
    assert worst <= 1e-15


def _pose_angles(hit, v_in):
    """The normal's pitch and yaw, (phi, psi), as solve_target_pose derives them."""
    target = aim_point(TABLE)
    dx, dy = target.x - hit.x, target.y - hit.y
    s2 = v_in.norm() ** 2
    drop = hit.z - TABLE.height_z
    disc = s2 * s2 - GRAVITY * (GRAVITY * (dx * dx + dy * dy) - 2.0 * s2 * drop)
    v_out = [GRAVITY * dx, GRAVITY * dy, s2 - math.sqrt(disc)]
    scale = math.sqrt(s2) / math.sqrt(sum(c * c for c in v_out))
    dv = [c * scale - w for c, w in zip(v_out, v_in)]
    nx, ny, nz = (c / math.sqrt(sum(c * c for c in dv)) for c in dv)
    return math.asin(nz), math.atan2(ny, nx)


@settings(max_examples=300)
@given(st.floats(-0.7, 0.7), st.floats(0.8, 1.4), st.floats(-12.0, -2.0),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_solve_target_pose_quaternion_is_scipys_euler_bitwise(y, z, vx, vy, vz):
    hit, v_in = Vec3(-TABLE.half_length, y, z), Vec3(vx, vy, vz)
    try:
        pose = solve_target_pose(hit, v_in, TABLE)
    except Infeasible:
        return
    phi, psi = _pose_angles(hit, v_in)
    want = Rotation.from_euler("yz", [-phi, psi]).as_quat()
    assert np.array(pose.orientation).tobytes() == want.tobytes()


def test_drag_flight_matches_ode_oracle():
    # The landing against an ODE solve of the same drag law, stopped where
    # the flight first descends through each plane.
    p0, v0 = (-1.37, 0.2, 1.1), (6.0, -1.0, 2.0)

    def rhs(t, s):
        return [s[3], s[4], s[5],
                -0.12 * s[3], -0.12 * s[4], -GRAVITY - 0.12 * s[5]]

    for plane in (1.05, 0.9, TABLE.height_z):
        def descends(t, s):
            return s[2] - plane

        descends.terminal, descends.direction = True, -1
        sol = solve_ivp(rhs, (0, LANDING_T_MAX), [*p0, *v0], events=descends,
                        rtol=1e-10, atol=1e-12)
        (want,) = sol.y_events[0]
        assert np.allclose(control._landing(p0, v0, plane), want[:2], atol=1e-7)


def _heights(p0, v0, ts):
    """Flight height at times ts, from the drag law in numpy (an oracle, not bitwise)."""
    k = RETURN_DRAG_K
    return p0[2] - GRAVITY / k * ts + (v0[2] + GRAVITY / k) * -np.expm1(-k * ts) / k


def _landing_time(p0, v0, landing):
    """The time of a landing, read off the axis the flight crosses faster:
    x = x0 + vx * (1 - exp(-k t)) / k."""
    axis = int(abs(v0[1]) > abs(v0[0]))
    decay = (landing[axis] - p0[axis]) / v0[axis]
    return -math.log1p(-RETURN_DRAG_K * decay) / RETURN_DRAG_K


def test_drag_flight_landing_crosses_plane():
    p0, v0 = (0.0, 0.0, 1.2), (5.0, 0.0, 1.0)
    landing = control._landing(p0, v0, 0.76)
    t_land = _landing_time(p0, v0, landing)
    assert landing[1] == 0.0
    assert _heights(p0, v0, t_land) == pytest.approx(0.76, abs=1e-9)
    assert _heights(p0, v0, t_land - 1e-4) > 0.76
    # Starting below the plane yields no landing.
    assert control._landing((0.0, 0.0, 0.5), (5.0, 0.0, -1.0), 0.76) is None


FLIGHT = dict(
    p0=st.tuples(st.floats(-1.5, 1.5), st.floats(-0.8, 0.8), st.floats(0.77, 3.0)),
    v0=st.tuples(st.floats(-20.0, 20.0), st.floats(-5.0, 5.0), st.floats(-10.0, 40.0)),
)


@settings(max_examples=200)
@given(**FLIGHT)
def test_drag_flight_landing_matches_a_dense_grid_root(p0, v0):
    plane = TABLE.height_z
    grid = np.linspace(0.0, LANDING_T_MAX, 20_001)
    below = np.flatnonzero(_heights(p0, v0, grid) <= plane)
    landing = control._landing(p0, v0, plane)
    if len(below) == 0:
        # Still above the plane at LANDING_T_MAX: no landing in the searched window.
        assert landing is None
        return
    assert landing is not None
    # The landing lies on the flight between the grid's last time above the
    # plane and its first at or below it.
    ends = grid[[max(below[0] - 1, 0), below[0]]] + [-1e-9, 1e-9]
    decay = -np.expm1(-RETURN_DRAG_K * ends) / RETURN_DRAG_K
    for axis in (0, 1):
        xs = p0[axis] + v0[axis] * decay
        assert xs.min() - 1e-9 <= landing[axis] <= xs.max() + 1e-9
    if max(abs(v0[0]), abs(v0[1])) >= 1.0:  # fast enough across to read its time
        t_land = _landing_time(p0, v0, landing)
        assert ends[0] <= t_land <= ends[1]
        assert _heights(p0, v0, t_land) == pytest.approx(plane, abs=1e-9)


@settings(max_examples=300)
@given(**FLIGHT)
def test_drag_flight_landing_equals_the_episode_oracle(p0, v0):
    # Bit for bit against DragFlight, the landing search the float one replaced.
    got = control._landing(p0, v0, TABLE.height_z)
    flight = DragFlight(Vec3(*p0), Vec3(*v0)).landing(TABLE.height_z)
    assert got == (None if flight is None else (flight[1].x, flight[1].y))


def test_landing_after_reflection_is_ballistic():
    hit, v = Vec3(-1.37, 0.1, 1.1), Vec3(5.0, 0.5, 1.0)
    t_c, xy = landing_after_reflection(hit, v, TABLE.height_z)
    z = hit.z + v.z * t_c - 0.5 * GRAVITY * t_c**2
    assert z == pytest.approx(TABLE.height_z, abs=1e-9)
    assert np.allclose(xy, [hit.x + v.x * t_c, hit.y + v.y * t_c])
    # Downward shot from table height cannot land on the plane.
    assert landing_after_reflection(Vec3(0, 0, 0.76), Vec3(1, 0, -20.0), 0.76 + 2.0) is None


def test_solve_target_pose_forward_sim_within_5cm():
    rng = np.random.default_rng(1)
    for _ in range(10):
        hit = Vec3(-TABLE.half_length, float(rng.uniform(-0.6, 0.6)),
                   float(rng.uniform(0.95, 1.15)))
        v_in = Vec3(float(rng.uniform(-9.0, -5.0)),
                    float(rng.uniform(-1.0, 1.0)),
                    float(rng.uniform(-2.0, 0.5)))
        pose = solve_target_pose(hit, v_in, TABLE)
        v_out = racket_reflect(v_in, pose.normal())
        t_c, xy = landing_after_reflection(hit, v_out, TABLE.height_z)
        target = np.array([TABLE.half_length / 2.0, 0.0])
        assert np.linalg.norm(xy - target) < 0.05


def _low_arc_launch(hit, speed, target):
    """Drag-free launch at this speed landing on the target, by root search.

    The lowest elevation whose landing range reaches the target's distance
    is the low arc.
    """
    dxy = np.array([target.x - hit.x, target.y - hit.y])
    d = np.linalg.norm(dxy)
    u = dxy / d

    def launch(theta):
        return Vec3(*(speed * math.cos(theta) * u), speed * math.sin(theta))

    def overshoot(theta):
        _, xy = landing_after_reflection(hit, launch(theta), TABLE.height_z)
        return np.linalg.norm(xy - [hit.x, hit.y]) - d

    grid = np.linspace(-1.5, 1.5, 301)
    i = next(i for i, t in enumerate(grid) if overshoot(t) >= 0)
    return launch(brentq(overshoot, grid[i - 1], grid[i], xtol=1e-15))


def test_solve_target_pose_normal_and_landing_on_sim_crossings():
    # Sim crossing velocities have large y/z components, where a racket built
    # from the wrong Euler order tilts its normal off the solved direction.
    target = aim_point(TABLE)
    exchanges = generate_exchanges(7, 60)
    for p, v in zip(exchanges.crossing_pos.tolist(), exchanges.crossing_vel.tolist()):
        hit, v_in = Vec3(*p), Vec3(*v)
        pose = solve_target_pose(hit, v_in, TABLE, target)
        dv = (_low_arc_launch(hit, v_in.norm(), target) - v_in).as_array()
        assert np.linalg.norm(pose.normal() - dv / np.linalg.norm(dv)) < 1e-9
        v_out = racket_reflect(v_in, pose.normal())
        _, xy = landing_after_reflection(hit, v_out, TABLE.height_z)
        assert np.linalg.norm(xy - [target.x, target.y]) < 1e-6


def test_solve_target_pose_infeasible_when_ball_recedes():
    with pytest.raises(Infeasible):
        solve_target_pose(Vec3(-1.37, 0.0, 1.0), Vec3(20.0, 0.0, 0.0), TABLE)


def test_solve_target_pose_infeasible_when_target_out_of_range():
    far = Vec3(TABLE.half_length / 2.0 + 10.0, 0.0, TABLE.height_z)
    with pytest.raises(Infeasible, match="range"):
        solve_target_pose(Vec3(-1.37, 0.0, 1.0), Vec3(-2.0, 0.0, 0.0), TABLE, far)


def test_solve_target_pose_infeasible_beyond_angle_limits():
    # A ball crossing sideways needs a normal yawed about 67 degrees.
    with pytest.raises(Infeasible, match="angle"):
        solve_target_pose(Vec3(-1.37, 0.0, 1.0), Vec3(6.0, -6.0, 0.0), TABLE)


def test_sim_params_validates_central_pose():
    with pytest.raises(ValueError):
        SimParams(central=Vec3(5.0, 0.0, 1.0))
    assert control._AIM == Vec3(TABLE.half_length / 2.0, 0.0, TABLE.height_z)


@pytest.mark.parametrize("field, value", [
    *((name, v) for name in ("dt", "v_max", "omega_max")
      for v in (0.0, -1.0, math.inf, math.nan)),
    *(("lead_time", v) for v in (-0.01, MAX_LEAD_TIME + 1e-9, math.inf, math.nan)),
    *(("lam", v) for v in (-0.1, 1.1, math.nan)),
    *(("alpha", v) for v in (0.0, 1.0, -0.5, math.nan)),
])
def test_sim_params_rejects_values_the_cli_rejects(field, value):
    # dt = 0 never advanced an episode's clock, NaN dt or lead time ran no
    # step, a negative v_max drove the racket away from its target, and a
    # NaN omega_max raised from scipy mid-episode.
    with pytest.raises(ValueError, match=field):
        SimParams(**{field: value})


def test_sim_params_accept_the_ends_of_the_cli_ranges():
    for ok in (dict(lead_time=0.0), dict(lead_time=MAX_LEAD_TIME), dict(lam=0.0),
               dict(lam=1.0), dict(alpha=0.5), dict(dt=1e-3)):
        SimParams(**ok)


@pytest.fixture(scope="module")
def sim_setup():
    params = SimParams()
    exchanges = generate_exchanges(99, 30)
    predictors, calib = prepare_anticipation(99, params, n_cal=150)
    return params, exchanges, predictors, calib


def test_run_episode_oracle_mostly_returns(sim_setup):
    params, exchanges, _, _ = sim_setup
    results = [run_strategy(one, "oracle", params)[1][0] for one in _ones(exchanges)]
    rate = np.mean([r.returned for r in results])
    assert rate > 0.8
    for r in results:
        assert r.strategy == "oracle"
        assert not r.fallback
        if r.returned:
            assert r.contacted and r.return_deviation is not None


def test_run_episode_rejects_unknown_strategy(sim_setup):
    params, exchanges, _, _ = sim_setup
    with pytest.raises(ValueError):
        run_strategy(exchanges[:1], "psychic", params)
    with pytest.raises(ValueError):
        run_strategy(exchanges[:1], "anticipatory", params)  # missing calibration


def test_strategy_aggregate_and_ordering(sim_setup):
    params, exchanges, predictors, calib = sim_setup
    base, _ = run_strategy(exchanges, "baseline", params)
    antic, _ = run_strategy(exchanges, "anticipatory", params, predictors, calib)
    orac, _ = run_strategy(exchanges, "oracle", params)
    assert base.n_episodes == antic.n_episodes == orac.n_episodes == len(exchanges)
    # Small-sample sanity: anticipation should not hurt, oracle tops out.
    assert orac.return_rate >= antic.return_rate >= base.return_rate
    assert antic.mean_position_error <= base.mean_position_error + 1e-9
    assert antic.n_fallback < len(exchanges)


def test_write_results_format(sim_setup, tmp_path):
    params, exchanges, _, _ = sim_setup
    row, _ = run_strategy(exchanges[:5], "baseline", params)
    path = tmp_path / "results.tsv"
    write_results(str(path), [row], seed=99)
    lines = path.read_text().splitlines()
    assert lines[0] == "results-v1 seed=99"
    assert lines[1].startswith("strategy\tlambda\tlead_time")
    fields = lines[2].split("\t")
    assert fields[0] == "baseline"
    assert int(fields[4]) == 5
    assert 0.0 <= float(fields[5]) <= 1.0


def test_run_experiment_recalibrates_one_split_per_lead_time(monkeypatch):
    from ttrally import control

    generated = []

    def counting(seed, n, **kwargs):
        generated.append(seed)
        return generate_exchanges(seed, n, **kwargs)

    monkeypatch.setattr(control, "generate_exchanges", counting)
    base = SimParams()
    rows = run_experiment(5, n_episodes=4, base_params=base, n_cal=60)
    assert generated == [5, 5 + 17]  # the episodes and one calibration split
    exchanges = generate_exchanges(5, 4)
    for lead_time in (0.1, 0.4):
        p = replace(base, lead_time=lead_time)
        predictors, calib = prepare_anticipation(5, p, n_cal=60)
        fresh = run_strategy(exchanges, "anticipatory", p, predictors, calib)[0]
        assert fresh in [r for r in rows if r.lead_time == lead_time]


def test_pre_hit_targets_ignore_the_true_crossing(monkeypatch):
    # Before the opponent's hit the robot may act only on the context: moving
    # the true crossing must leave every position target it is sent while
    # t < 0 as it was. (Only the oracle turns before the hit.)
    params = SimParams()
    predictors, calib = prepare_anticipation(11, params, n_cal=60)
    pre_hit = round(params.lead_time / params.dt)  # the steps that start before the hit
    targets = []  # the position target of the row's one lane at each step, in order
    move = control._move
    monkeypatch.setattr(control, "_move", lambda pos, target, *rest:
                        targets.append(tuple(target[:, 0])) or move(pos, target, *rest))

    def pre_hit_targets(one, strategy):
        targets.clear()
        _, (result,) = run_strategy(one, strategy, params, predictors, calib)
        return targets[:pre_hit], result.fallback

    anticipated = 0
    for one in _ones(generate_exchanges(11, 20)):
        moved = replace(one, crossing_pos=one.crossing_pos + [0.0, 0.05, -0.04],
                        crossing_vel=one.crossing_vel + [0.4, -0.6, 0.5])
        for strategy in ("baseline", "anticipatory"):
            try:
                before, fallback = pre_hit_targets(one, strategy)
                after, _ = pre_hit_targets(moved, strategy)
            except Infeasible:
                continue
            assert len(before) == pre_hit and before == after
            anticipated += strategy == "anticipatory" and not fallback
    assert anticipated > 0


def test_an_exchange_pre_positions_toward_its_earliest_region_in_the_workspace(monkeypatch):
    # Seed 7 at lead 0.1 and alpha 0.05: every exchange has a region inside
    # the workspace, but the earliest one's farthest corner from the central
    # pose lies beyond v_max * (horizon + lead_time). Reach does not matter:
    # no exchange falls back, and the first target each lane is sent is the
    # clamped blend toward that region.
    params = SimParams(lead_time=0.1, alpha=0.05)
    predictors, calib = prepare_anticipation(7, params)
    exchanges = generate_exchanges(7, 500)
    sent = []
    move = control._move
    monkeypatch.setattr(control, "_move", lambda pos, target, *rest:
                        sent.append(target.copy()) or move(pos, target, *rest))
    _, results = run_strategy(exchanges, "anticipatory", params, predictors, calib)
    regions = as_regions(*split_regions(predictors, calib, exchanges, HORIZONS, params.lead_time),
                         HORIZONS)
    central = params.central.as_array()
    for e, (result, rows) in enumerate(zip(results, regions, strict=True)):
        region = select_target_time(rows, params.workspace)
        far = np.maximum(np.abs(region.lo.as_array() - central),
                         np.abs(region.hi.as_array() - central))
        assert np.linalg.norm(far) > params.v_max * (region.horizon + params.lead_time)
        assert not result.fallback
        assert Vec3(*sent[0][:, e].tolist()) == select_preposition(
            region, params.central, params.lam, params.workspace)


def _axis(lo, hi):
    """Coordinates inside and outside [lo, hi], on and beside its BOX_TOL edges."""
    tol = control.BOX_TOL
    return st.one_of(st.floats(lo - 0.2, hi + 0.2),
                     st.sampled_from([lo - 2 * tol, lo - tol, lo, hi, hi + tol, hi + 2 * tol]))


@settings(max_examples=300)
@given(data=st.data(), n=st.integers(1, 4), n_h=st.integers(1, 6), lam=st.floats(0.0, 1.0))
def test_dropping_the_horizons_whose_mean_is_outside_changes_no_preposition(data, n, n_h, lam):
    # A region mean -/+ q * sigma holds its mean for any q in [0, inf] and
    # sigma >= SIGMA_FLOOR, so a horizon at which every exchange's mean lies
    # outside the workspace is never read: dropping it, or every horizon,
    # leaves each target and fallback as it was, bit for bit.
    ws = WORKSPACE
    point = st.tuples(_axis(ws.lo.x, ws.hi.x), _axis(ws.lo.y, ws.hi.y), _axis(ws.lo.z, ws.hi.z))
    mean = np.array(data.draw(st.lists(point, min_size=n * n_h, max_size=n * n_h)))
    floor = anticipate.SIGMA_FLOOR
    sigma = data.draw(st.lists(st.one_of(st.just(floor), st.floats(floor, 0.5)),
                               min_size=3 * n * n_h, max_size=3 * n * n_h))
    q = data.draw(st.lists(st.one_of(st.floats(0.0, 3.0), st.just(math.inf)),
                           min_size=3 * n_h, max_size=3 * n_h))
    mean = mean.reshape(n, n_h, 3)
    half = np.reshape(q, (n_h, 3)) * np.reshape(sigma, (n, n_h, 3))  # as anticipate._bounds
    lo, hi = mean - half, mean + half
    keep = [j for j in range(n_h) if any(ws.contains(Vec3(*m)) for m in mean[:, j].tolist())]
    params = SimParams(lam=lam)
    want = control._prepositions((lo, hi), params)
    got = control._prepositions((lo[:, keep], hi[:, keep]), params)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_no_horizon_to_read_sends_every_exchange_to_the_central_pose():
    params = SimParams(central=Vec3(-1.6, 0.1, 1.0))
    none = np.empty((3, 0, 3))
    target, fallback = control._prepositions((none, none), params)
    assert target.tobytes() == np.tile(params.central.as_array()[:, None], 3).tobytes()
    assert fallback.tolist() == [True] * 3


@pytest.mark.parametrize("lead_time", [0.1, 0.4])
def test_infinite_quantiles_leave_every_anticipatory_lane_at_the_baseline(lead_time):
    # With alpha below 1 / (n_cal + 1) every conformal quantile is infinite,
    # so no region lies inside the workspace: every anticipatory lane falls
    # back to the central pose and runs exactly as the baseline's.
    params = SimParams(alpha=0.01, lead_time=lead_time)
    predictors, calib = prepare_anticipation(7, params, n_cal=20)
    assert all(math.isinf(q) for q in calib.quantiles.values())
    exchanges = generate_exchanges(7, 40)
    _, antic = run_strategy(exchanges, "anticipatory", params, predictors, calib)
    _, base = run_strategy(exchanges, "baseline", params)
    assert all(r.fallback for r in antic)
    assert repr([replace(r, strategy="baseline", fallback=False) for r in antic]) == repr(base)


def test_a_row_builds_poses_for_its_outcomes_only(monkeypatch):
    # Episodes step as array lanes and grade on floats: a row builds 4
    # RacketPose and Vec3 objects per episode for its ideal pose (the
    # arguments, aim point and result of solve_target_pose) and 2 per contact
    # (racket_reflect's velocity in and out), 5.6-6.0 per episode whatever its
    # number of steps. One pose per step would make about 140 per episode at
    # dt = 0.01.
    exchanges = generate_exchanges(5, 20)
    built = Counter()
    for cls in (RacketPose, Vec3):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__, **kwargs:
                            built.update([type(self)]) or _init(self, *args, **kwargs))
    for dt in (0.01, 0.0025):  # 0.0025 takes four times as many steps
        params = SimParams(dt=dt)
        predictors, calib = prepare_anticipation(5, params, n_cal=60)
        for strategy in control.STRATEGIES:
            built.clear()
            _, results = run_strategy(exchanges, strategy, params, predictors, calib)
            assert any(r.contacted for r in results)
            assert sum(built.values()) <= 6 * len(exchanges), (dt, strategy, built)


def test_an_empty_row_or_experiment_raises_empty_dataset():
    with pytest.raises(EmptyDataset):
        run_strategy(generate_exchanges(5, 0), "baseline", SimParams())
    with pytest.raises(EmptyDataset):
        run_experiment(5, n_episodes=0, n_cal=60)


ROW_PASS = FORECAST_SAMPLES // (5 * len(HORIZONS))  # exchanges per pass of 5 members


@pytest.fixture(scope="module")
def row_exchanges():
    return generate_exchanges(23, 3 * ROW_PASS + 5)


@pytest.mark.parametrize("lead_time", [0.1, 0.2, 0.4])
@pytest.mark.parametrize("n", [1, ROW_PASS - 1, ROW_PASS + 1, 3 * ROW_PASS + 5])
def test_row_regions_equal_the_single_context_regions(sim_setup, row_exchanges, n, lead_time):
    _, _, predictors, calib = sim_setup
    exchanges = row_exchanges[:n]
    lo, hi = split_regions(predictors, calib, exchanges, HORIZONS, lead_time)
    assert lo.shape == hi.shape == (n, len(HORIZONS), 3)
    for ex, row_lo, row_hi in zip(exchanges, lo, hi):
        want = build_regions(predictors, calib, _window(ex, lead_time), HORIZONS)
        assert [region.horizon for region in want] == list(HORIZONS)
        for got, corner in ((row_lo, "lo"), (row_hi, "hi")):
            assert got.tobytes() == np.array([getattr(region, corner).as_array()
                                              for region in want]).tobytes()


@pytest.mark.parametrize("lead_time", [0.0, 0.1, 0.4])
def test_row_ball_equals_each_exchanges_own_truth(row_exchanges, lead_time):
    params = SimParams(lead_time=lead_time)
    exchanges = row_exchanges[:12]
    s = round(lead_time / params.dt)
    times, balls, ends = control._step_balls(exchanges, s, params.dt)
    assert times[s] == 0.0  # the hit
    for ex, t_cross, got, end in zip(exchanges, exchanges.crossing_time.tolist(), balls,
                                     ends, strict=True):
        own = []  # the clock one episode of its own would step: (i - s) * dt
        while not own or own[-1] < t_cross + 0.15:
            own.append((len(own) - s) * params.dt)
        assert times[:len(own)].tolist() == own and end == len(own)
        assert got[:end].tobytes() == np.array([ex.truth_at(t).as_array()
                                                for t in own]).tobytes()
    assert len(set(ends.tolist())) > 1  # the exchanges read prefixes of different lengths


@pytest.mark.parametrize("strategy", control.STRATEGIES)
def test_a_row_equals_its_episodes_one_at_a_time(sim_setup, strategy):
    params, exchanges, predictors, calib = sim_setup
    _, results = run_strategy(exchanges, strategy, params, predictors, calib)
    assert results == [run_strategy(one, strategy, params, predictors, calib)[1][0]
                       for one in _ones(exchanges)]


@functools.cache
def _baseline_episodes(lead_time):
    return run_strategy(generate_exchanges(7, 200), "baseline", SimParams(lead_time=lead_time))[1]


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, MAX_LEAD_TIME))
@example(0.1)
@example(0.205)
def test_the_baseline_is_the_same_at_every_lead_time(lead_time):
    # The baseline waits at the central pose until the hit, and every clock
    # puts the hit on a step at t = 0, so no lead time, a multiple of dt or
    # not, moves an episode. (A clock accumulated from -lead_time by adding
    # dt missed 0 at lead 0.1 and reacted a step late: 140 returns, not 151.)
    got = _baseline_episodes(lead_time)
    assert sum(r.returned for r in got) == 151
    assert got == _baseline_episodes(0.0)


def test_a_row_starts_at_the_first_step_at_or_after_its_lead_time(monkeypatch):
    # 0.205 s is no multiple of dt: beside a row at 0.4 s, on one clock, the
    # row's oracle lanes stay at the central pose until the step after its
    # first, whose time is the first step time at or after -0.205 s.
    params, n = SimParams(), 4
    rows = [("oracle", replace(params, lead_time=lt), None) for lt in (0.4, 0.205)]
    clock, before = [], []
    step_balls, move = control._step_balls, control._move
    monkeypatch.setattr(control, "_step_balls", lambda *args: clock.append(
        step_balls(*args)) or clock[-1])
    monkeypatch.setattr(control, "_move", lambda pos, *rest: before.append(
        pos.copy()) or move(pos, *rest))
    control._episodes(generate_exchanges(7, n), rows)
    times = clock[0][0]
    for r, lead_time in enumerate((0.4, 0.205)):
        lanes = np.stack(before)[:, :, r * n:(r + 1) * n]
        moved = (lanes != params.central.as_array()[:, None]).any(axis=(1, 2))
        assert moved.any()
        first = int(np.argmax(moved)) - 1  # the step the row starts at: it moves on the next
        assert -lead_time <= times[first] < -lead_time + params.dt
    assert times[first] == -0.2 and times[40] == 0.0


def _readable(seed, exchanges, params):
    """The horizons at which some exchange's ensemble mean, forecast at some
    lead time of an experiment, lies inside the workspace: scalar tests."""
    predictors = anticipate.physics_baseline_ensemble(seed)
    means = [anticipate.forecast_ensemble(predictors, exchanges, HORIZONS, lead_time)[0]
             for lead_time in control.LEAD_TIMES]
    return [h for j, h in enumerate(HORIZONS)
            if any(params.workspace.contains(Vec3(*m[j])) for mean in means for m in mean.tolist())]


def test_an_experiment_forecasts_once_per_row_and_shares_its_grids_and_poses(monkeypatch):
    batched, truth_rows, cal_truth, solved, engine = [], [], [], [], []
    ensemble, positions, solve = anticipate._ensemble, Chains.positions, control.solve_target_pose
    episodes, balls_at = control._episodes, anticipate.balls_at
    readable = _readable(5, generate_exchanges(5, 6), SimParams())
    assert 0 < len(readable) < len(HORIZONS)

    def counting(predictors, hit, root_y, horizons):
        batched.append((len(hit), horizons.tolist()))
        return ensemble(predictors, hit, root_y, horizons)

    def tracing(self, t):
        caller = sys._getframe(1)  # balls_at, called from control
        if (caller.f_code is synth.balls_at.__code__
                and caller.f_back.f_globals["__name__"] == control.__name__):
            truth_rows.append(len(self.T))
        return positions(self, t)

    def unused(*args, **kwargs):
        raise AssertionError("called once per episode")

    monkeypatch.setattr(anticipate, "_ensemble", counting)
    monkeypatch.setattr(anticipate, "balls_at", lambda exchanges, times: cal_truth.append(
        (len(exchanges), list(times))) or balls_at(exchanges, times))
    monkeypatch.setattr(Chains, "positions", tracing)
    monkeypatch.setattr(anticipate, "_context_arrays", unused)
    monkeypatch.setattr(ExchangeSample, "truth_at", unused)
    monkeypatch.setattr(control, "solve_target_pose", lambda *a: solved.append(a) or solve(*a))
    monkeypatch.setattr(control, "_episodes", lambda exchanges, rows:
                        engine.append(len(rows)) or episodes(exchanges, rows))
    rows = run_experiment(5, n_episodes=6, n_cal=60)
    assert len(rows) == 8
    # The episodes at each lead time, at every horizon; then the calibration
    # split at each lead time (the two after the base rerun only the
    # ensemble), at the readable horizons alone, as is its one truth.
    assert [n for n, _ in batched] == [6, 6, 6, 60, 60, 60]
    assert [h for _, h in batched] == [list(HORIZONS)] * 3 + [readable] * 3
    assert cal_truth == [(60, readable)]
    # One lane set for all 8 rows, one ball sample on its one clock for
    # every lead time (an outgoing and an incoming side) and one ideal pose
    # per episode.
    assert engine == [8]
    assert truth_rows == [6] * 2
    assert len(solved) == 6


SHORT = Box(Vec3(-2.2, -1.0, 0.6), Vec3(-1.3, 1.0, 1.6))  # seed 5 reads 4 horizons, not 7


@pytest.mark.parametrize("seed, central, workspace", [
    pytest.param(5, None, WORKSPACE, id="5-None"),
    pytest.param(8, "mean_crossing", WORKSPACE, id="8-mean_crossing"),
    pytest.param(5, None, SHORT, id="5-None-short"),
    pytest.param(11, None, NARROW, id="11-None-narrow")])
def test_experiment_rows_equal_independent_strategy_rows(seed, central, workspace):
    # The one lane set changes no row: each equals a run_strategy call of its
    # own, on a calibration at its lead time and at every horizon. A base
    # central pose at the mean crossing is the rest pose, and leaves no
    # rest-pose row. The experiment calibrates only at the horizons some
    # episode's mean reaches the workspace at: fewer in a small workspace,
    # and none in NARROW (which holds seed 11's rest pose), where every
    # anticipatory lane falls back and no calibration forecast runs.
    n = 6
    exchanges = generate_exchanges(seed, n)
    rest = Vec3(-1.5, float(np.mean(exchanges.crossing_pos[:, 1])),
                float(np.mean(exchanges.crossing_pos[:, 2])))
    base = SimParams(workspace=workspace)
    base = base if central is None else replace(base, central=rest)
    readable = _readable(seed, exchanges, base)
    sizes, ensemble = [], anticipate._ensemble
    with mock.patch.object(anticipate, "_ensemble", lambda predictors, hit, *args: sizes.append(
            len(hit)) or ensemble(predictors, hit, *args)):
        rows = run_experiment(seed, n_episodes=n, base_params=base, n_cal=60)
    assert sizes == [n] * 3 + [60] * 3 * bool(readable)
    assert (len(readable) < len(_readable(seed, exchanges, SimParams()))) == (workspace != WORKSPACE)
    if workspace == NARROW:
        assert not readable
        assert all(r.n_fallback == n for r in rows if r.strategy == "anticipatory")
    anticipation = prepare_anticipation(seed, base, n_cal=60)
    want = [run_strategy(exchanges, s, base, *anticipation)[0] for s in control.STRATEGIES]
    want += [run_strategy(exchanges, "anticipatory", replace(base, lam=lam), *anticipation)[0]
             for lam in (0.0, 0.5)]
    for lead_time in (0.1, 0.4):
        p = replace(base, lead_time=lead_time)
        want.append(run_strategy(exchanges, "anticipatory", p,
                                 *prepare_anticipation(seed, p, n_cal=60))[0])
    if central is None:
        want.append(run_strategy(exchanges, "anticipatory", replace(base, central=rest),
                                 *anticipation)[0])
    assert len(rows) == (8 if central is None else 7)
    assert repr(rows) == repr(want)  # repr: a row without returns holds a NaN deviation


def test_a_rest_pose_outside_the_workspace_is_clamped_into_it():
    # Seed 5's mean crossing lies outside NARROW; its rest-pose row pre-positions
    # from the nearest pose inside, not from a central pose SimParams refuses.
    exchanges = generate_exchanges(5, 6)
    mean_crossing = Vec3(-1.5, float(np.mean(exchanges.crossing_pos[:, 1])),
                         float(np.mean(exchanges.crossing_pos[:, 2])))
    assert not NARROW.contains(mean_crossing)
    rows = run_experiment(5, 6, SimParams(workspace=NARROW), n_cal=60)
    assert len(rows) == 8
    rest = rows[-1].central
    assert NARROW.contains(rest)
    assert rest == clamp(NARROW, mean_crossing)


# The lane engine against the scalar episodes of tests/scalar_episode.py.

@functools.cache
def _calibration(lead_time):
    return prepare_anticipation(11, SimParams(lead_time=lead_time), n_cal=60)


def _snapped(exchanges, params):
    """The exchanges with each crossing time moved onto its nearest step time
    k * dt, the time every lane's clock gives the k-th step after the hit."""
    k = np.round(exchanges.crossing_time / params.dt).astype(int)
    return replace(exchanges, crossing_time=k * params.dt)


def _never_reflects(v, normal):
    raise NoContact("the racket never reflects")


def _lanes_against_scalar(exchanges, rows, reflect=racket_reflect):
    """Run ``rows`` as one lane set and each row on the scalar episodes, both
    with ``reflect`` as the racket, assert that both give the same results and
    rows, and return the lanes'. Each row's regions are those of a
    calibration at its lead time."""
    rows = [(strategy, p, split_regions(*_calibration(p.lead_time), exchanges, HORIZONS,
                                        p.lead_time)) for strategy, p in rows]
    with (mock.patch.object(control, "racket_reflect", reflect),
          mock.patch.object(scalar_episode, "racket_reflect", reflect)):
        got = control._episodes(exchanges, rows)
        for (strategy, p, regions), results in zip(rows, got, strict=True):
            want_row, want = scalar_episode.row(exchanges, strategy, p,
                                                as_regions(*regions, HORIZONS))
            assert repr(results) == repr(want)
            assert repr(control._aggregate(results, strategy, p)) == repr(want_row)
    return got


def _rows_of(params, lams=(), centrals=(), lead_times=()):
    """The strategy rows, lam rows and (strategy, rest pose) rows of one lane
    set; row k at lead time lead_times[k] when they are given."""
    rows = ([(s, params) for s in control.STRATEGIES]
            + [("anticipatory", replace(params, lam=lam)) for lam in lams]
            + [(s, replace(params, central=c)) for s, c in centrals])
    if lead_times:
        rows = [(s, replace(p, lead_time=lt)) for (s, p), lt in zip(rows, lead_times)]
    return rows


fractions = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))


@settings(max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 5), dt=st.sampled_from([0.01, 0.0025]),
       lead_times=st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.205, 0.4]), min_size=7,
                           max_size=7),
       narrow=st.booleans(), snap=st.booleans(), reflects=st.booleans(),
       lams=st.lists(st.floats(0.0, 1.0), max_size=2),
       centrals=st.lists(st.tuples(st.sampled_from(control.STRATEGIES), fractions), max_size=2),
       turn_deg=st.sampled_from([720.0, 30.0]))
def test_lanes_equal_the_scalar_episodes(seed, n, dt, lead_times, narrow, snap, reflects, lams,
                                         centrals, turn_deg):
    # Each row takes its own lead time, so one lane set mixes the steps its
    # rows start at (0.205 s is no multiple of dt = 0.01). At
    # 30 deg/s the racket is still turning at most contacts (5-21 deg from
    # IDENTITY to the ideal orientation, about 0.25 s after the hit).
    workspace = NARROW if narrow else WORKSPACE
    params = SimParams(workspace=workspace, dt=dt, lead_time=lead_times[0],
                       omega_max=math.radians(turn_deg))
    lo, hi = (workspace.lo.as_array(), workspace.hi.as_array())
    rests = [(s, Vec3(*(lo + np.array(f) * (hi - lo)).tolist())) for s, f in centrals]
    exchanges = generate_exchanges(seed, n)
    if snap:
        exchanges = _snapped(exchanges, params)
    try:
        for p, v in zip(exchanges.crossing_pos.tolist(), exchanges.crossing_vel.tolist()):
            solve_target_pose(Vec3(*p), Vec3(*v), TABLE)
    except Infeasible:
        return
    _lanes_against_scalar(exchanges, _rows_of(params, lams, rests, lead_times),
                          racket_reflect if reflects else _never_reflects)


@pytest.mark.parametrize("dt", [0.01, 0.0025])
def test_lanes_cover_fallbacks_misses_and_crossings_on_a_step(dt):
    # The cases the lanes must get right beside a plain contact: an
    # anticipatory fallback, a lane without contact (the narrow workspace
    # reaches no crossing), a step the workspace clamp moves, a contact step
    # whose racket does not reflect, and a crossing exactly on a step time,
    # where the later of two qualifying steps gives the crossing pose.
    seen = Counter()
    unbounded = (-math.inf,) * 3, (math.inf,) * 3

    def clamp_counting(*args, step=scalar_episode.step):
        out = step(*args)
        seen["clamp"] += out[0] != step(*args[:-2], *unbounded)[0]
        return out

    def never_reflects(v, normal):
        seen["non-reflecting racket called"] += 1
        _never_reflects(v, normal)

    for lead_time, workspace, reflect in ((0.0, WORKSPACE, racket_reflect),
                                          (0.4, NARROW, racket_reflect),
                                          (0.1, WORKSPACE, never_reflects)):
        params = SimParams(workspace=workspace, dt=dt, lead_time=lead_time,
                           omega_max=math.radians(30.0))
        exchanges = _snapped(generate_exchanges(12, 12), params)
        rows = _rows_of(params, (0.0, 1.0), [("baseline", Vec3(-1.6, 0.02, 1.08))])
        with mock.patch.object(scalar_episode, "step", clamp_counting):
            got = _lanes_against_scalar(exchanges, rows, reflect)
        times, _, _ = control._step_balls(exchanges, round(lead_time / dt), dt)
        ct = exchanges.crossing_time[:, None]
        twice = ((times[1:] - dt <= ct) & (ct <= times[1:])).sum(axis=1) == 2
        for results in got:
            seen["fallback"] += sum(r.fallback for r in results)
            seen["no contact"] += sum(not r.contacted for r in results)
            seen["crossing read on a step"] += sum(not r.contacted and two
                                                   for r, two in zip(results, twice))
        seen["contact"] += sum(r.contacted for results in got for r in results)
    assert min(seen.values()) > 0 and len(seen) == 6, seen


def test_skipped_contact_tests_are_beyond_the_racket():
    # A step's contact test is skipped where the ball's segment lies beyond
    # the workspace's largest x by more than the racket radius. Sampling each
    # skipped segment densely bounds its distance to the workspace box from
    # below (distance is 1-Lipschitz along the segment).
    skipped = total = 0
    for lead_time, workspace in ((0.0, WORKSPACE), (0.4, NARROW)):
        params = SimParams(workspace=workspace, lead_time=lead_time)
        balls = control._step_balls(generate_exchanges(13, 20), round(lead_time / params.dt),
                                    params.dt)[1]
        possible = control._contact_possible(balls, workspace.hi.x)
        e, i = np.nonzero(~possible)
        a, b = balls[e, i], balls[e, i + 1]
        s = np.linspace(0.0, 1.0, 65)[:, None, None]
        points = a + s * (b - a)
        inside = np.clip(points, workspace.lo.as_array(), workspace.hi.as_array())
        gap = (np.linalg.norm(points - inside, axis=2).min(axis=0)
               - np.linalg.norm(b - a, axis=1) / 128)
        assert (gap > control.RACKET_RADIUS).all()
        skipped, total = skipped + len(e), total + possible.size
    assert skipped > total / 2  # the bound skips most tests


def test_an_experiment_grades_each_distinct_contact_once(monkeypatch):
    # Over seeds 11-18 the rows of an experiment make 1,233 contacts at 181
    # distinct (exchange, step, orientation) keys whose racket reflects the
    # ball (a landing depends on no racket position), and the landing search
    # runs once per key. Rows at different lead times share one clock, so
    # they share keys. Grading every contact afresh, each row in a lane set
    # of its own (where no two lanes share an exchange), gives the same rows.
    landings, contacts = [], Counter()
    landing, aggregate, episodes = control._landing, control._aggregate, control._episodes
    monkeypatch.setattr(control, "_landing", lambda *args: landings.append(1) or landing(*args))
    monkeypatch.setattr(control, "_aggregate", lambda results, *rest: contacts.update(
        contacted=sum(r.contacted for r in results)) or aggregate(results, *rest))
    rows = [run_experiment(seed, 20, n_cal=600) for seed in range(11, 19)]
    assert (len(landings), contacts["contacted"]) == (181, 1233)

    monkeypatch.setattr(control, "_episodes", lambda exchanges, rows:
                        [episodes(exchanges, [row])[0] for row in rows])
    landings.clear()
    assert repr([run_experiment(seed, 20, n_cal=600) for seed in range(11, 19)]) == repr(rows)
    assert len(landings) > 1000
