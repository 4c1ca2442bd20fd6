"""Simulated robot returner driven by anticipated ball regions.

The robot is a racket disc moving inside a safe workspace box behind the ego
hitting plane. Strategies differ only in what the robot does before the
opponent's hit: a reactive baseline waits at a central pose, the anticipatory
strategy pre-positions toward the conformal prediction region, and an oracle
pre-positions on the ground-truth interception pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.spatial.transform import Rotation, Slerp

from .anticipate import (
    ConformalCalibration,
    ContextWindow,
    Predictor,
    Region,
    build_regions,
    calibrate_ensemble,
    physics_baseline_ensemble,
)
from .ball import GRAVITY
from .core import TableGeometry, Vec3
from .errors import Infeasible, NoContact, NoFeasibleTime
from .pipeline import (RESULTS_COLUMNS, RESULTS_HEADER, RESULTS_ROW, format_record,
                       write_lines)
from .synth import ExchangeSample, generate_exchanges


# ---------------------------------------------------------------------------
# workspace and poses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned workspace box."""

    lo: Vec3
    hi: Vec3

    def contains(self, p: Vec3, tol: float = 1e-9) -> bool:
        return (
            self.lo.x - tol <= p.x <= self.hi.x + tol
            and self.lo.y - tol <= p.y <= self.hi.y + tol
            and self.lo.z - tol <= p.z <= self.hi.z + tol
        )

    def contains_box(self, lo: Vec3, hi: Vec3) -> bool:
        return self.contains(lo) and self.contains(hi)

    def clamp(self, p: Vec3) -> Vec3:
        a = np.clip(p.as_array(), self.lo.as_array(), self.hi.as_array())
        return Vec3.from_array(a)


REFERENCE_NORMAL = np.array([1.0, 0.0, 0.0])  # racket faces +x at identity
MAX_RACKET_ANGLE_DEG = 60.0  # yaw and pitch limit of the racket normal


@dataclass
class RacketPose:
    position: Vec3
    orientation: Rotation = field(default_factory=Rotation.identity)

    def normal(self) -> np.ndarray:
        return self.orientation.apply(REFERENCE_NORMAL)

    def angle_to(self, other: "RacketPose") -> float:
        """Relative orientation angle in radians."""
        rel = self.orientation.inv() * other.orientation
        return float(rel.magnitude())


def farthest_corner_distance(region: Region, p: Vec3) -> float:
    lo, hi = region.lo.as_array(), region.hi.as_array()
    q = p.as_array()
    d = np.maximum(np.abs(lo - q), np.abs(hi - q))
    return float(np.linalg.norm(d))


def reachable_covers(
    region: Region, p: Vec3, workspace: Box, v_max: float, available_time: float
) -> bool:
    """Can a robot at p cover the whole region within the available time?

    True when the region sits inside the workspace and its farthest corner is
    within the ball of radius v_max * available_time around p.
    """
    if available_time < 0:
        return False
    if not workspace.contains_box(region.lo, region.hi):
        return False
    return farthest_corner_distance(region, p) <= v_max * available_time


def select_target_time(
    regions: Sequence[Region],
    p: Vec3,
    workspace: Box,
    v_max: float,
    lead_time: float,
) -> Region:
    """Earliest-horizon region the robot can fully cover.

    The time available to reach a region at horizon h is h + lead_time (the
    forecast is issued lead_time before the hit). Raises NoFeasibleTime when
    no horizon qualifies.
    """
    for region in sorted(regions, key=lambda r: r.horizon):
        if reachable_covers(region, p, workspace, v_max, region.horizon + lead_time):
            return region
    raise NoFeasibleTime("no coverable prediction region")


def select_preposition(
    region: Region, central: Vec3, lam: float, workspace: Box
) -> Vec3:
    """Blend the region centroid with the central pose, then clamp.

    lam = 1 reproduces the reactive central pose; lam = 0 commits fully to
    the prediction. The result is clamped into the region box and workspace.
    """
    blend = central * lam + region.center() * (1.0 - lam)
    box = Box(lo=region.lo, hi=region.hi)
    return workspace.clamp(box.clamp(blend))


# ---------------------------------------------------------------------------
# contact models
# ---------------------------------------------------------------------------


def racket_reflect(v: Vec3, normal: np.ndarray) -> Vec3:
    """Lossless mirror reflection of the ball velocity about the racket normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    vn = float(v.as_array() @ n)
    if vn >= 0:
        raise NoContact("ball not approaching the racket face")
    out = v.as_array() - 2.0 * vn * n
    return Vec3.from_array(out)


@dataclass
class DragFlight:
    """Free flight with gravity and linear drag from an initial state."""

    p0: Vec3
    v0: Vec3
    k: float = 0.12

    def position(self, t: float) -> Vec3:
        k = self.k
        v_term = np.array([0.0, 0.0, -GRAVITY / k])
        decay = -math.expm1(-k * t) / k
        p = self.p0.as_array() + v_term * t + (self.v0.as_array() - v_term) * decay
        return Vec3.from_array(p)

    def landing(self, z_plane: float, t_max: float = 5.0) -> Optional[tuple[float, Vec3]]:
        """First time the flight descends through z = z_plane, if any."""

        def f(t: float) -> float:
            return self.position(t).z - z_plane

        if f(0.0) <= 0:
            return None
        hi = 0.05
        while hi < t_max and f(hi) > 0:
            hi *= 2.0
        if f(hi) > 0:
            return None
        t_land = float(brentq(f, 1e-9, hi))
        return t_land, self.position(t_land)


# ---------------------------------------------------------------------------
# target pose
# ---------------------------------------------------------------------------


def landing_after_reflection(
    hit: Vec3, v_out: Vec3, z_table: float
) -> Optional[tuple[float, np.ndarray]]:
    """Ballistic landing (time, xy) of the reflected ball on the table plane."""
    vz = v_out.z
    disc = vz * vz + 2.0 * GRAVITY * (hit.z - z_table)
    if disc < 0:
        return None
    t_c = (vz + math.sqrt(disc)) / GRAVITY
    if t_c <= 0:
        return None
    xy = np.array([hit.x + v_out.x * t_c, hit.y + v_out.y * t_c])
    return t_c, xy


def solve_target_pose(
    hit: Vec3,
    v_in: Vec3,
    table: TableGeometry,
    target: Optional[Vec3] = None,
) -> RacketPose:
    """Racket orientation at the interception point that lands on a target.

    Mirror reflection keeps the ball's speed s, so the outgoing velocity is
    the low-arc drag-free launch at speed s from the hit (above the table)
    to the target on the table plane, and the racket normal is parallel to
    v_out - v_in. Raises Infeasible when the target is out of range at this
    speed, when no face turned toward the ball reflects it there, or when
    the normal's yaw or pitch leaves the +-MAX_RACKET_ANGLE_DEG box.
    """
    if target is None:
        target = Vec3(table.half_length / 2.0, 0.0, table.height_z)
    dx, dy = target.x - hit.x, target.y - hit.y
    s2 = v_in.norm() ** 2
    drop = hit.z - table.height_z
    disc = s2 * s2 - GRAVITY * (GRAVITY * (dx * dx + dy * dy) - 2.0 * s2 * drop)
    if disc < 0:
        raise Infeasible("target out of range at the incoming speed")
    # Low arc: tan(elevation) = (s^2 - sqrt(disc)) / (g * horizontal distance).
    v_out = np.array([GRAVITY * dx, GRAVITY * dy, s2 - math.sqrt(disc)])
    v_out *= math.sqrt(s2) / np.linalg.norm(v_out)
    dv = v_out - v_in.as_array()
    if float(v_in.as_array() @ dv) >= 0:
        raise Infeasible("no racket face turned toward the ball reflects it there")
    n = dv / np.linalg.norm(dv)
    psi, phi = math.atan2(n[1], n[0]), math.asin(n[2])
    lim = math.radians(MAX_RACKET_ANGLE_DEG)
    if abs(psi) > lim or abs(phi) > lim:
        raise Infeasible("racket normal outside the angle limits")
    return RacketPose(position=hit, orientation=Rotation.from_euler("yz", [-phi, psi]))


# ---------------------------------------------------------------------------
# robot stepping
# ---------------------------------------------------------------------------


def step_robot(
    pose: RacketPose,
    target: RacketPose,
    dt: float,
    v_max: float,
    omega_max: float,
    workspace: Box,
) -> RacketPose:
    """Move toward a target pose with speed and turn-rate limits."""
    delta = target.position - pose.position
    dist = delta.norm()
    step = min(dist, v_max * dt)
    new_pos = pose.position if dist < 1e-12 else pose.position + delta * (step / dist)
    new_pos = workspace.clamp(new_pos)

    angle = pose.angle_to(target)
    max_turn = omega_max * dt
    if angle < 1e-12 or angle <= max_turn:
        new_rot = target.orientation
    else:
        slerp = Slerp(
            [0.0, 1.0], Rotation.concatenate([pose.orientation, target.orientation])
        )
        new_rot = slerp([max_turn / angle])[0]
    return RacketPose(position=new_pos, orientation=new_rot)


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

STRATEGIES = ("baseline", "anticipatory", "oracle")


@dataclass
class SimParams:
    table: TableGeometry = field(default_factory=TableGeometry)
    workspace: Box = field(
        default_factory=lambda: Box(Vec3(-2.8, -1.4, 0.5), Vec3(-1.2, 1.4, 1.8))
    )
    central: Vec3 = Vec3(-1.5, 0.0, 1.05)
    v_max: float = 2.0
    omega_max: float = math.radians(720.0)
    racket_radius: float = 0.085
    dt: float = 0.01
    lam: float = 0.1
    lead_time: float = 0.2  # anticipation available this long before the hit
    alpha: float = 0.15
    horizons: tuple[float, ...] = tuple(
        round(0.025 * i, 6) for i in range(2, 25)
    )
    return_drag_k: float = 0.12
    target: Optional[Vec3] = None  # defaults to table-half center

    def __post_init__(self):
        if not self.workspace.contains(self.central):
            raise ValueError("central pose outside the workspace")

    def aim_target(self) -> Vec3:
        if self.target is not None:
            return self.target
        return Vec3(self.table.half_length / 2.0, 0.0, self.table.height_z)


@dataclass
class EpisodeResult:
    exchange_id: int
    strategy: str
    contacted: bool
    returned: bool
    return_deviation: Optional[float]  # m from the aim point, if contacted
    position_error: float  # m from the ideal pose at interception time
    orientation_error: float  # rad from the ideal pose at interception time
    fallback: bool  # anticipation found no coverable region


def _interception_pose(ex: ExchangeSample, params: SimParams) -> RacketPose:
    return solve_target_pose(
        ex.crossing_pos, ex.crossing_vel, params.table, params.aim_target()
    )


def _preposition_target(
    ex: ExchangeSample,
    params: SimParams,
    predictors: Sequence[Predictor],
    calib: ConformalCalibration,
) -> tuple[Optional[Vec3], bool]:
    times, frames = ex.context_until(-params.lead_time)
    ctx = ContextWindow(times=times, frames=frames)
    regions = build_regions(predictors, calib, ctx, list(params.horizons))
    try:
        region = select_target_time(
            regions, params.central, params.workspace, params.v_max, params.lead_time
        )
    except NoFeasibleTime:
        return None, True
    return select_preposition(region, params.central, params.lam, params.workspace), False


def run_episode(
    ex: ExchangeSample,
    strategy: str,
    params: SimParams,
    predictors: Optional[Sequence[Predictor]] = None,
    calib: Optional[ConformalCalibration] = None,
) -> EpisodeResult:
    """Simulate one exchange for one strategy.

    Time 0 is the opponent's hit; the robot is live from -lead_time. After
    the hit every strategy tracks the ideal interception pose (reactive
    perception of the actual shot); they differ in where they stand at the
    hit.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    ideal = _interception_pose(ex, params)

    fallback = False
    pre_target: Optional[RacketPose] = None
    if strategy == "oracle":
        pre_target = ideal
    elif strategy == "anticipatory":
        if predictors is None or calib is None:
            raise ValueError("anticipatory strategy needs predictors and calibration")
        p_star, fallback = _preposition_target(ex, params, predictors, calib)
        if p_star is not None:
            pre_target = RacketPose(position=p_star, orientation=ideal.orientation)

    pose = RacketPose(position=params.central, orientation=Rotation.identity())
    dt = params.dt
    t = -params.lead_time
    t_stop = ex.crossing_time + 0.15
    contacted = False
    contact_time = None
    v_after: Optional[Vec3] = None
    contact_pos: Optional[Vec3] = None
    pose_at_crossing = pose

    while t < t_stop:
        target = ideal if t >= 0 else (pre_target or RacketPose(params.central))
        prev_ball = ex.truth_at(t)
        t += dt
        pose = step_robot(
            pose, target, dt, params.v_max, params.omega_max, params.workspace
        )
        ball = ex.truth_at(t)
        if t - dt <= ex.crossing_time <= t:
            pose_at_crossing = pose
        if t > 0 and not contacted:
            d = _point_segment_distance(
                pose.position.as_array(), prev_ball.as_array(), ball.as_array()
            )
            if d <= params.racket_radius:
                v_in = ex.outgoing.velocity(t)
                try:
                    v_after = racket_reflect(v_in, pose.normal())
                except NoContact:
                    break
                contacted = True
                contact_time = t
                contact_pos = ball
                break

    returned = False
    deviation: Optional[float] = None
    if contacted and v_after is not None and contact_pos is not None:
        flight = DragFlight(contact_pos, v_after, k=params.return_drag_k)
        land = flight.landing(params.table.height_z)
        if land is not None:
            t_land, p_land = land
            deviation = float(
                math.hypot(
                    p_land.x - params.aim_target().x, p_land.y - params.aim_target().y
                )
            )
            returned = (
                v_after.x > 0
                and 0.0 <= p_land.x <= params.table.half_length
                and abs(p_land.y) <= params.table.half_width
            )

    ref = pose if contacted else pose_at_crossing
    pos_err = (ref.position - ideal.position).norm()
    ang_err = ref.angle_to(ideal)
    return EpisodeResult(
        exchange_id=ex.exchange_id,
        strategy=strategy,
        contacted=contacted,
        returned=returned,
        return_deviation=deviation,
        position_error=pos_err,
        orientation_error=ang_err,
        fallback=fallback,
    )


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return float(np.linalg.norm(p - a))
    u = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + u * ab)))


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRow:
    strategy: str
    lam: float
    lead_time: float
    central: Vec3
    n_episodes: int
    return_rate: float
    mean_deviation: float
    mean_position_error: float
    mean_orientation_error_deg: float
    n_fallback: int


def _aggregate(
    results: list[EpisodeResult], strategy: str, params: SimParams
) -> ExperimentRow:
    devs = [r.return_deviation for r in results if r.return_deviation is not None]
    return ExperimentRow(
        strategy=strategy,
        lam=params.lam,
        lead_time=params.lead_time,
        central=params.central,
        n_episodes=len(results),
        return_rate=sum(r.returned for r in results) / len(results),
        mean_deviation=float(np.mean(devs)) if devs else float("nan"),
        mean_position_error=float(np.mean([r.position_error for r in results])),
        mean_orientation_error_deg=float(
            np.degrees(np.mean([r.orientation_error for r in results]))
        ),
        n_fallback=sum(r.fallback for r in results),
    )


def run_strategy(
    exchanges: Sequence[ExchangeSample],
    strategy: str,
    params: SimParams,
    predictors: Optional[Sequence[Predictor]] = None,
    calib: Optional[ConformalCalibration] = None,
) -> tuple[ExperimentRow, list[EpisodeResult]]:
    results = [run_episode(ex, strategy, params, predictors, calib) for ex in exchanges]
    return _aggregate(results, strategy, params), results


def prepare_anticipation(
    seed: int,
    params: SimParams,
    n_cal: int = 600,
    k_members: int = 5,
    cal_id_offset: int = 1_000_000,
) -> tuple[list[Predictor], ConformalCalibration]:
    """Ensemble plus conformal calibration matched to the deployment lead time."""
    predictors = physics_baseline_ensemble(seed, k_members, params.table)
    cal = generate_exchanges(seed + 17, n_cal, id_offset=cal_id_offset)
    calib = calibrate_ensemble(
        predictors, cal, list(params.horizons), params.alpha, params.lead_time
    )
    return predictors, calib


def run_experiment(
    seed: int,
    n_episodes: int = 500,
    base_params: SimParams = SimParams(),
    lams: Sequence[float] = (0.0, 0.1, 0.5),
    lead_times: Sequence[float] = (0.1, 0.2, 0.4),
    centrals: Optional[Sequence[Vec3]] = None,
    n_cal: int = 600,
) -> list[ExperimentRow]:
    """Strategy comparison plus sweeps over blending, lead time, and rest pose.

    The baseline and oracle rows are computed once per configuration axis;
    the anticipatory strategy is recalibrated per lead time (its residual
    distribution depends on how early the forecast is issued).
    """
    exchanges = generate_exchanges(seed, n_episodes)
    rows: list[ExperimentRow] = []

    # Strategy comparison at the base configuration.
    predictors, calib = prepare_anticipation(seed, base_params, n_cal)
    rows.append(run_strategy(exchanges, "baseline", base_params)[0])
    rows.append(
        run_strategy(exchanges, "anticipatory", base_params, predictors, calib)[0]
    )
    rows.append(run_strategy(exchanges, "oracle", base_params)[0])

    for lam in lams:
        if lam == base_params.lam:
            continue
        p = replace(base_params, lam=lam)
        rows.append(run_strategy(exchanges, "anticipatory", p, predictors, calib)[0])

    for lt in lead_times:
        if lt == base_params.lead_time:
            continue
        p = replace(base_params, lead_time=lt)
        preds_lt, calib_lt = prepare_anticipation(seed, p, n_cal)
        rows.append(run_strategy(exchanges, "anticipatory", p, preds_lt, calib_lt)[0])

    if centrals is None:
        mean_hit_y = float(np.mean([ex.crossing_pos.y for ex in exchanges]))
        mean_hit_z = float(np.mean([ex.crossing_pos.z for ex in exchanges]))
        centrals = [Vec3(-1.5, mean_hit_y, mean_hit_z)]
    for c in centrals:
        if (c - base_params.central).norm() < 1e-12:
            continue
        p = replace(base_params, central=c)
        rows.append(run_strategy(exchanges, "anticipatory", p, predictors, calib)[0])
    return rows


def write_results(path: str, rows: Sequence[ExperimentRow], seed: int) -> None:
    write_lines(path, [format_record(RESULTS_HEADER, seed), RESULTS_COLUMNS] + [
        format_record(
            RESULTS_ROW, r.strategy, r.lam, r.lead_time, r.central, r.n_episodes,
            r.return_rate, r.mean_deviation, r.mean_position_error,
            r.mean_orientation_error_deg, r.n_fallback,
        )
        for r in rows
    ])
