import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.spatial.transform import Rotation

from ttrally.anticipate import Region
from ttrally.ball import GRAVITY
from ttrally.control import (
    Box,
    DragFlight,
    RacketPose,
    SimParams,
    farthest_corner_distance,
    landing_after_reflection,
    prepare_anticipation,
    racket_reflect,
    reachable_covers,
    run_episode,
    run_strategy,
    select_preposition,
    select_target_time,
    solve_target_pose,
    step_robot,
    write_results,
)
from ttrally.core import TableGeometry, Vec3
from ttrally.errors import Infeasible, NoContact, NoFeasibleTime
from ttrally.synth import generate_exchanges

TABLE = TableGeometry()
WORKSPACE = Box(Vec3(-2.8, -1.4, 0.5), Vec3(-1.2, 1.4, 1.8))

unit = st.floats(-1.0, 1.0)


def _region(lo, hi, horizon=0.2):
    return Region(horizon=horizon, lo=Vec3(*lo), hi=Vec3(*hi),
                  mean=(Vec3(*lo) + Vec3(*hi)) * 0.5)


def test_box_contains_and_clamp():
    box = Box(Vec3(0, 0, 0), Vec3(1, 2, 3))
    assert box.contains(Vec3(0.5, 1.0, 1.5))
    assert not box.contains(Vec3(1.5, 1.0, 1.5))
    assert box.contains_box(Vec3(0.1, 0.1, 0.1), Vec3(0.9, 1.9, 2.9))
    assert not box.contains_box(Vec3(0.1, 0.1, 0.1), Vec3(1.1, 1.9, 2.9))
    clamped = box.clamp(Vec3(-1.0, 5.0, 1.5))
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


def test_farthest_corner_distance_matches_corner_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        lo = rng.uniform(-2, 0, 3)
        hi = lo + rng.uniform(0.1, 1.5, 3)
        p = Vec3(*rng.uniform(-3, 3, 3))
        region = _region(lo, hi)
        corners = [
            np.array([x, y, z])
            for x in (lo[0], hi[0])
            for y in (lo[1], hi[1])
            for z in (lo[2], hi[2])
        ]
        oracle = max(np.linalg.norm(c - p.as_array()) for c in corners)
        assert farthest_corner_distance(region, p) == pytest.approx(oracle)


def test_reachable_covers_rules():
    region = _region((-2.0, -0.2, 0.9), (-1.8, 0.2, 1.1))
    p = Vec3(-1.5, 0.0, 1.0)
    far = farthest_corner_distance(region, p)
    assert reachable_covers(region, p, WORKSPACE, v_max=2.0,
                            available_time=far / 2.0 + 1e-9)
    assert not reachable_covers(region, p, WORKSPACE, v_max=2.0,
                                available_time=far / 2.0 - 1e-6)
    assert not reachable_covers(region, p, WORKSPACE, 2.0, -0.1)
    outside = _region((-3.5, 0, 0.9), (-3.0, 0.2, 1.1))
    assert not reachable_covers(outside, p, WORKSPACE, 2.0, 10.0)


def test_select_target_time_prefers_earliest_feasible():
    p = Vec3(-1.5, 0.0, 1.0)
    near_infeasible = _region((-2.7, -1.3, 0.6), (-1.3, 1.3, 1.7), horizon=0.05)
    feasible = _region((-1.6, -0.1, 0.95), (-1.4, 0.1, 1.05), horizon=0.2)
    later = _region((-1.6, -0.1, 0.95), (-1.4, 0.1, 1.05), horizon=0.4)
    pick = select_target_time([later, feasible, near_infeasible], p, WORKSPACE,
                              v_max=2.0, lead_time=0.1)
    assert pick.horizon == 0.2
    with pytest.raises(NoFeasibleTime):
        select_target_time([near_infeasible], p, WORKSPACE, v_max=0.01,
                           lead_time=0.0)


def test_select_preposition_blend_endpoints():
    region = _region((-2.0, -0.4, 0.9), (-1.6, 0.4, 1.3))
    central = Vec3(-1.5, 0.0, 1.05)
    # lam = 0 commits to the centroid; lam = 1 clamps the central pose into
    # the region box (central x is outside it).
    assert (select_preposition(region, central, 0.0, WORKSPACE)
            - region.center()).norm() < 1e-12
    at_central = select_preposition(region, central, 1.0, WORKSPACE)
    assert at_central == Vec3(-1.6, 0.0, 1.05)
    mid = select_preposition(region, central, 0.5, WORKSPACE)
    assert region.lo.y <= mid.y <= region.hi.y
    assert WORKSPACE.contains(mid)


def test_step_robot_limits_speed_and_turn():
    pose = RacketPose(Vec3(-1.5, 0.0, 1.0), Rotation.identity())
    target = RacketPose(Vec3(-1.5, 1.0, 1.0),
                        Rotation.from_euler("z", 90, degrees=True))
    dt, v_max, omega_max = 0.01, 2.0, math.radians(720.0)
    stepped = step_robot(pose, target, dt, v_max, omega_max, WORKSPACE)
    assert (stepped.position - pose.position).norm() <= v_max * dt + 1e-12
    assert pose.angle_to(stepped) <= omega_max * dt + 1e-12
    # Converges onto the target and stays put once there.
    for _ in range(200):
        pose = step_robot(pose, target, dt, v_max, omega_max, WORKSPACE)
    assert (pose.position - target.position).norm() < 1e-9
    assert pose.angle_to(target) < 1e-9
    again = step_robot(pose, target, dt, v_max, omega_max, WORKSPACE)
    assert (again.position - pose.position).norm() < 1e-12


def test_step_robot_respects_workspace():
    pose = RacketPose(Vec3(-1.3, 1.3, 1.7))
    target = RacketPose(Vec3(0.0, 3.0, 3.0))  # outside the box
    for _ in range(500):
        pose = step_robot(pose, target, 0.01, 2.0, math.radians(720), WORKSPACE)
        assert WORKSPACE.contains(pose.position)


def test_drag_flight_matches_ode_oracle():
    flight = DragFlight(Vec3(-1.37, 0.2, 1.1), Vec3(6.0, -1.0, 2.0), k=0.12)

    def rhs(t, s):
        return [s[3], s[4], s[5],
                -0.12 * s[3], -0.12 * s[4], -GRAVITY - 0.12 * s[5]]

    sol = solve_ivp(rhs, (0, 0.8), [-1.37, 0.2, 1.1, 6.0, -1.0, 2.0],
                    dense_output=True, rtol=1e-10, atol=1e-12)
    for t in (0.1, 0.4, 0.8):
        want = sol.sol(t)[:3]
        assert np.allclose(flight.position(t).as_array(), want, atol=1e-7)


def test_drag_flight_landing_crosses_plane():
    flight = DragFlight(Vec3(0.0, 0.0, 1.2), Vec3(5.0, 0.0, 1.0), k=0.12)
    t_land, p_land = flight.landing(0.76)
    assert p_land.z == pytest.approx(0.76, abs=1e-9)
    assert flight.position(t_land - 1e-4).z > 0.76
    # Starting below the plane yields no landing.
    below = DragFlight(Vec3(0.0, 0.0, 0.5), Vec3(5.0, 0.0, -1.0), k=0.12)
    assert below.landing(0.76) is None


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
    target = SimParams().aim_target()
    for ex in generate_exchanges(7, 60):
        hit, v_in = ex.crossing_pos, ex.crossing_vel
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
    p = SimParams()
    assert p.aim_target() == Vec3(TABLE.half_length / 2.0, 0.0, TABLE.height_z)
    q = SimParams(target=Vec3(1.0, 0.2, 0.8))
    assert q.aim_target() == Vec3(1.0, 0.2, 0.8)


@pytest.fixture(scope="module")
def sim_setup():
    params = SimParams()
    exchanges = generate_exchanges(99, 30)
    predictors, calib = prepare_anticipation(99, params, n_cal=150)
    return params, exchanges, predictors, calib


def test_run_episode_oracle_mostly_returns(sim_setup):
    params, exchanges, _, _ = sim_setup
    results = [run_episode(ex, "oracle", params) for ex in exchanges]
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
        run_episode(exchanges[0], "psychic", params)
    with pytest.raises(ValueError):
        run_episode(exchanges[0], "anticipatory", params)  # missing calibration


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
