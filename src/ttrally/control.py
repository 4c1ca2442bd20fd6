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
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .anticipate import (
    ConformalCalibration,
    Region,
    ShotPredictor,
    calibrate_ensemble,
    forecast_ensemble,
    forecast_split,
    physics_baseline_ensemble,
    split_regions,
)
from .ball import GRAVITY
from .core import TableGeometry, Vec3
from .errors import EmptyDataset, Infeasible, NoContact, NoFeasibleTime
from .pipeline import (RESULTS_COLUMNS, RESULTS_HEADER, RESULTS_ROW, format_record,
                       write_lines)
from .synth import MAX_LEAD_TIME, Exchanges, balls_at, generate_exchanges


# ---------------------------------------------------------------------------
# workspace and poses
# ---------------------------------------------------------------------------


BOX_TOL = 1e-9  # m a point may lie outside a Box and still count as inside
LANDING_T_MAX = 5.0  # s of return flight searched for a landing
CAL_ID_OFFSET = 1_000_000  # first calibration exchange id, above every episode's
RACKET_RADIUS = 0.085  # m, racket disc radius: contact when the ball passes this close
RETURN_DRAG_K = 0.12  # 1/s, linear drag of the returned ball's flight
HORIZONS = tuple(round(0.025 * i, 6) for i in range(2, 25))  # s after the opponent's hit


@dataclass(frozen=True)
class Box:
    """Axis-aligned workspace box."""

    lo: Vec3
    hi: Vec3

    def contains(self, p: Vec3) -> bool:
        return (
            self.lo.x - BOX_TOL <= p.x <= self.hi.x + BOX_TOL
            and self.lo.y - BOX_TOL <= p.y <= self.hi.y + BOX_TOL
            and self.lo.z - BOX_TOL <= p.z <= self.hi.z + BOX_TOL
        )

    def contains_box(self, lo: Vec3, hi: Vec3) -> bool:
        return self.contains(lo) and self.contains(hi)

    def clamp(self, p: Vec3) -> Vec3:
        lo, hi = self.lo, self.hi
        return Vec3(min(max(p.x, lo.x), hi.x), min(max(p.y, lo.y), hi.y),
                    min(max(p.z, lo.z), hi.z))


MAX_RACKET_ANGLE_DEG = 60.0  # yaw and pitch limit of the racket normal

# Unit quaternions are (x, y, z, w) tuples, scipy's order. The closed forms below
# keep scipy's arithmetic order, so they equal its rotations bit for bit; the turn
# is Shoemake's slerp ("Animating rotation with quaternion curves", 1985).
Quat = tuple[float, float, float, float]
IDENTITY: Quat = (0.0, 0.0, 0.0, 1.0)  # the racket faces +x


def _compose(p: Quat, q: Quat) -> Quat:
    """Normalised product p * q: pw q + qw p + p x q, then divided by its norm."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    x = pw * qx + qw * px + (py * qz - pz * qy)
    y = pw * qy + qw * py + (pz * qx - px * qz)
    z = pw * qz + qw * pz + (px * qy - py * qx)
    w = pw * qw - px * qx - py * qy - pz * qz
    n = math.sqrt(x * x + y * y + z * z + w * w)
    return (x / n, y / n, z / n, w / n)


def _relative(p: Quat, q: Quat) -> Quat:  # p^-1 * q: exactly the identity when q is p
    return _compose((-p[0], -p[1], -p[2], p[3]), q)


def _magnitude(q: Quat) -> float:
    x, y, z, w = q
    return 2.0 * math.atan2(math.sqrt(x * x + y * y + z * z), abs(w))


def _partial_turn(rel: Quat, a: float, frac: float) -> Quat:
    """frac of rel (of angle a) on the shorter arc: its rotation vector (w >= 0) times
    frac, with the small-angle series of scipy's as_rotvec and from_rotvec."""
    x, y, z, _ = rel if rel[3] >= 0 else tuple(-c for c in rel)
    s = 2 + a * a / 12 + 7 * (a * a) * (a * a) / 2880 if a <= 1e-3 else a / math.sin(a / 2)
    vx, vy, vz = s * x * frac, s * y * frac, s * z * frac
    b = math.sqrt(vx * vx + vy * vy + vz * vz)
    c = 0.5 - b * b / 48 + (b * b) * (b * b) / 3840 if b <= 1e-3 else math.sin(b / 2) / b
    return (c * vx, c * vy, c * vz, math.cos(b / 2))


@dataclass
class RacketPose:
    position: Vec3
    orientation: Quat = IDENTITY

    def normal(self) -> np.ndarray:
        x, y, z, w = self.orientation
        return np.array([x * x - y * y - z * z + w * w, 2 * (x * y + z * w),
                         2 * (x * z - y * w)])

    def angle_to(self, other: "RacketPose") -> float:
        """Relative orientation angle in radians."""
        return _magnitude(_relative(self.orientation, other.orientation))


def farthest_corner_distance(region: Region, p: Vec3) -> float:
    """Norm of the per-axis farthest offsets, summed in float order, not by BLAS."""
    lo, hi = region.lo, region.hi
    dx = max(abs(lo.x - p.x), abs(hi.x - p.x))
    dy = max(abs(lo.y - p.y), abs(hi.y - p.y))
    dz = max(abs(lo.z - p.z), abs(hi.z - p.z))
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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
    """Blend the region centroid with the central pose, then clamp it into
    the region box and then into the workspace.

    lam = 0 commits fully to the prediction. lam = 1 takes the central pose,
    clamped like any blend: it is the reactive central pose only when the
    region box contains it.
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

    def position(self, t: float) -> Vec3:
        k = RETURN_DRAG_K
        vt = -GRAVITY / k  # terminal velocity, along z
        decay = -math.expm1(-k * t) / k
        p, v = self.p0, self.v0
        return Vec3(p.x + v.x * decay, p.y + v.y * decay, p.z + vt * t + (v.z - vt) * decay)

    def landing(self, z_plane: float) -> Optional[tuple[float, Vec3]]:
        """First time, up to LANDING_T_MAX, the flight descends through z = z_plane."""

        def f(t: float) -> float:
            return self.position(t).z - z_plane

        if f(0.0) <= 0:
            return None
        hi = 0.05
        while hi < LANDING_T_MAX and f(hi) > 0:
            hi = min(2.0 * hi, LANDING_T_MAX)
        if f(hi) > 0:
            return None
        t_land = float(brentq(f, 1e-9, hi))
        return t_land, self.position(t_land)


# ---------------------------------------------------------------------------
# target pose
# ---------------------------------------------------------------------------


def aim_point(table: TableGeometry) -> Vec3:
    """Where every return is aimed: the centre of the opponent's table half."""
    return Vec3(table.half_length / 2.0, 0.0, table.height_z)


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
    """Racket orientation at the interception point that lands on a target
    (by default the aim point).

    Mirror reflection keeps the ball's speed s, so the outgoing velocity is
    the low-arc drag-free launch at speed s from the hit (above the table)
    to the target on the table plane, and the racket normal is parallel to
    v_out - v_in. Raises Infeasible when the target is out of range at this
    speed, when no face turned toward the ball reflects it there, or when
    the normal's yaw or pitch leaves the +-MAX_RACKET_ANGLE_DEG box.
    """
    if target is None:
        target = aim_point(table)
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
    # from_euler("yz", [-phi, psi]), the z turn after the y turn; the zero terms
    # of scipy's compose make a zero component +0.0.
    sy, cy, sz, cz = math.sin(-phi / 2), math.cos(-phi / 2), math.sin(psi / 2), math.cos(psi / 2)
    return RacketPose(hit, (0.0 - sz * sy, cz * sy + 0.0, cy * sz + 0.0, cz * cy))


# ---------------------------------------------------------------------------
# robot stepping
# ---------------------------------------------------------------------------


Position = tuple[float, float, float]
_xyz = attrgetter("x", "y", "z")  # a Vec3 as a Position


def _step(p: Position, q: Quat, target_p: Position, target_q: Quat, step: float,
          max_turn: float, lo: Position, hi: Position) -> tuple[Position, Quat]:
    """One step on floats: a straight move of at most ``step`` toward
    target_p and a slerp of at most ``max_turn`` toward target_q, then the
    position clamped into the box [lo, hi]."""
    x, y, z = p
    dx, dy, dz = target_p[0] - x, target_p[1] - y, target_p[2] - z
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist >= 1e-12:
        s = min(dist, step) / dist
        x, y, z = x + dx * s, y + dy * s, z + dz * s
    if q != target_q:  # else the relative turn is exactly the identity, of angle 0
        rel = _relative(q, target_q)
        angle = _magnitude(rel)
        if angle >= 1e-12 and angle > max_turn:
            target_q = _compose(q, _partial_turn(rel, angle, max_turn / angle))
    return ((min(max(x, lo[0]), hi[0]), min(max(y, lo[1]), hi[1]), min(max(z, lo[2]), hi[2])),
            target_q)


def step_robot(pose: RacketPose, target: RacketPose, dt: float, v_max: float,
               omega_max: float, workspace: Box) -> RacketPose:
    """Move toward a target pose with speed and turn-rate limits: a straight
    step of at most v_max * dt and a slerp of at most omega_max * dt, kept
    inside the workspace. The one-pose form of the episodes' ``_step``."""
    p, q = _step(_xyz(pose.position), pose.orientation, _xyz(target.position),
                 target.orientation, v_max * dt, omega_max * dt, _xyz(workspace.lo),
                 _xyz(workspace.hi))
    return RacketPose(Vec3(*p), q)


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
    dt: float = 0.01
    lam: float = 0.1
    lead_time: float = 0.2  # anticipation available this long before the hit
    alpha: float = 0.15

    def __post_init__(self):
        if not self.workspace.contains(self.central):
            raise ValueError("central pose outside the workspace")
        # The ranges the simulate command accepts; a NaN fails every test.
        for name in ("v_max", "omega_max", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0.0 <= self.lead_time <= MAX_LEAD_TIME:
            raise ValueError(f"lead_time must be in [0, {MAX_LEAD_TIME!r}], "
                             f"got {self.lead_time!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must be in [0, 1], got {self.lam!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha!r}")


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


def _step_balls(
    exchanges: Exchanges, params: SimParams
) -> tuple[list[float], list[list[list[float]]]]:
    """The robot's step times and each exchange's ball at them.

    The times are accumulated as the robot's clock, from -lead_time until one
    reaches the last exchange's crossing_time + 0.15. Exchange i's balls
    stop at the first time that reaches its own crossing_time + 0.15.
    """
    stops = (exchanges.crossing_time + 0.15).tolist()
    last = max(stops)
    times = [-params.lead_time]
    while times[-1] < last:
        times.append(times[-1] + params.dt)
    ends = (np.searchsorted(times, stops) + 1).tolist()
    balls = balls_at(exchanges, times).tolist()
    return times, [rows[:end] for rows, end in zip(balls, ends)]


def _approach(ideal: RacketPose, crossing_time: float, strategy: str, params: SimParams,
              regions: Optional[Sequence[Region]], times: list[float],
              balls: list[list[float]]) -> tuple:
    """Step one episode on floats, toward ``ideal`` after the hit, until its
    ball passes within RACKET_RADIUS of the racket or ``balls``, the ball at
    each of the first len(balls) step ``times``, run out. Returns the
    fallback flag, the last pose and the pose at ``crossing_time`` as
    (position, quaternion) tuples, and the contact's step (0 for none)."""
    fallback, idle = False, (_xyz(params.central), IDENTITY)
    if strategy == "oracle":
        idle = _xyz(ideal.position), ideal.orientation
    elif strategy == "anticipatory":
        try:
            region = select_target_time(regions, params.central, params.workspace,
                                        params.v_max, params.lead_time)
        except NoFeasibleTime:
            fallback = True
        else:  # the true crossing is unknown before the hit
            idle = _xyz(select_preposition(region, params.central, params.lam,
                                           params.workspace)), IDENTITY

    track = _xyz(ideal.position), ideal.orientation  # every target after the hit
    lo, hi, dt = _xyz(params.workspace.lo), _xyz(params.workspace.hi), params.dt
    step, max_turn = params.v_max * dt, params.omega_max * dt
    p, q = crossing = _xyz(params.central), IDENTITY
    for i in range(1, len(balls)):
        t = times[i]
        target_p, target_q = track if times[i - 1] >= 0 else idle
        p, q = _step(p, q, target_p, target_q, step, max_turn, lo, hi)
        if t - dt <= crossing_time <= t:
            crossing = p, q
        if t > 0 and _point_segment_distance(p, balls[i - 1], balls[i]) <= RACKET_RADIUS:
            return fallback, (p, q), crossing, i
    return fallback, (p, q), crossing, 0


def _outcome(exchange_id: int, strategy: str, params: SimParams, ideal: RacketPose,
             run: tuple, ball: Sequence[float], v_in: Optional[Sequence[float]]) -> EpisodeResult:
    """Grade one ``_approach`` run; ``ball`` and ``v_in`` are the ball's
    position and velocity at its contact step (``v_in`` None without one)."""
    fallback, (p, q), crossing, _ = run
    pose = RacketPose(Vec3(*p), q)
    contacted = returned = False
    deviation: Optional[float] = None
    if v_in is not None:
        try:
            v_after = racket_reflect(Vec3(*v_in), pose.normal())
        except NoContact:
            pass
        else:
            contacted = True
            land = DragFlight(Vec3(*ball), v_after).landing(params.table.height_z)
            if land is not None:
                _, p_land = land
                aim = aim_point(params.table)
                deviation = float(math.hypot(p_land.x - aim.x, p_land.y - aim.y))
                returned = (v_after.x > 0 and 0.0 <= p_land.x <= params.table.half_length
                            and abs(p_land.y) <= params.table.half_width)
    ref = pose if contacted else RacketPose(Vec3(*crossing[0]), crossing[1])
    return EpisodeResult(exchange_id, strategy, contacted, returned, deviation,
                         (ref.position - ideal.position).norm(), ref.angle_to(ideal), fallback)


def _point_segment_distance(p: Position, a: Sequence[float], b: Sequence[float]) -> float:
    px, py, pz = p
    ax, ay, az = a
    ex, ey, ez = b[0] - ax, b[1] - ay, b[2] - az
    denom = ex * ex + ey * ey + ez * ez
    dot = (px - ax) * ex + (py - ay) * ey + (pz - az) * ez
    u = min(max(dot / denom, 0.0), 1.0) if denom >= 1e-18 else 0.0
    dx, dy, dz = px - (ax + u * ex), py - (ay + u * ey), pz - (az + u * ez)
    return math.sqrt(dx * dx + dy * dy + dz * dz)


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
    exchanges: Exchanges,
    strategy: str,
    params: SimParams,
    predictors: Optional[Sequence[ShotPredictor]] = None,
    calib: Optional[ConformalCalibration] = None,
    regions: Optional[Sequence[Sequence[Region]]] = None,
) -> tuple[ExperimentRow, list[EpisodeResult]]:
    """One row over the exchanges; ``regions``, if given, are each one's at
    params.lead_time, else one batched forecast makes them all.

    Time 0 of an episode is the opponent's hit; the robot is live from
    -lead_time. After the hit every strategy tracks the ideal interception
    pose (reactive perception of the actual shot); they differ in where they
    stand at the hit.
    """
    if not exchanges:
        raise EmptyDataset("no exchanges")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "anticipatory" and regions is None:
        if predictors is None or calib is None:
            raise ValueError("anticipatory strategy needs predictors and calibration")
        regions = split_regions(predictors, calib, exchanges, HORIZONS, params.lead_time)
    return _row(exchanges, strategy, params, regions, *_step_balls(exchanges, params),
                _ideal_poses(exchanges, params.table))


def _ideal_poses(exchanges: Exchanges, table: TableGeometry) -> list[RacketPose]:
    """Each exchange's ideal interception pose, on its crossing."""
    return [solve_target_pose(Vec3(*p), Vec3(*v), table) for p, v in
            zip(exchanges.crossing_pos.tolist(), exchanges.crossing_vel.tolist())]


def _row(exchanges: Exchanges, strategy: str, params: SimParams, regions: Optional[list],
         times: list, balls: list, ideals: list) -> tuple[ExperimentRow, list[EpisodeResult]]:
    """``run_strategy``'s row on the exchanges' ``_step_balls`` and ``_ideal_poses``."""
    regions = regions or [None] * len(exchanges)
    runs = [_approach(ideal, t, strategy, params, r, times, b)
            for ideal, t, r, b in zip(ideals, exchanges.crossing_time.tolist(), regions, balls,
                                      strict=True)]
    # One velocity call for every row: each row's at its contact step, or
    # at step 0, unread, without one.
    v_in = exchanges.outgoing.velocities([[times[run[-1]]] for run in runs])[:, 0].tolist()
    results = [_outcome(i, strategy, params, ideal, run, b[run[-1]], v if run[-1] else None)
               for i, ideal, run, b, v in zip(exchanges.ids.tolist(), ideals, runs, balls, v_in)]
    return _aggregate(results, strategy, params), results


def _anticipation_inputs(
    seed: int, table: TableGeometry, n_cal: int
) -> tuple[list[ShotPredictor], Exchanges]:
    """The ensemble and its calibration split."""
    predictors = physics_baseline_ensemble(seed, table=table)
    return predictors, generate_exchanges(seed + 17, n_cal, id_offset=CAL_ID_OFFSET)


def prepare_anticipation(
    seed: int,
    params: SimParams,
    n_cal: int = 600,
) -> tuple[list[ShotPredictor], ConformalCalibration]:
    """Ensemble plus conformal calibration matched to the deployment lead time."""
    predictors, cal = _anticipation_inputs(seed, params.table, n_cal)
    forecast = forecast_split(predictors, cal, HORIZONS, params.lead_time)
    return predictors, calibrate_ensemble(forecast, params.alpha)


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
    distribution depends on how early the forecast is issued) on the same
    ensemble and calibration split, whose truth is taken once. Every row shares
    the episodes' ideal poses; the rows at one lead time share one step grid,
    its ball sample and one batched forecast of each exchange's regions.
    """
    if n_episodes < 1:
        raise EmptyDataset(f"need at least one episode, got {n_episodes}")
    exchanges = generate_exchanges(seed, n_episodes)

    # Strategy comparison at the base configuration.
    predictors, cal = _anticipation_inputs(seed, base_params.table, n_cal)
    forecast = forecast_split(predictors, cal, HORIZONS, base_params.lead_time)
    calib = calibrate_ensemble(forecast, base_params.alpha)
    regions = split_regions(predictors, calib, exchanges, HORIZONS, base_params.lead_time)
    grid, ideals = _step_balls(exchanges, base_params), _ideal_poses(exchanges, base_params.table)
    rows = [_row(exchanges, s, base_params, regions, *grid, ideals)[0] for s in STRATEGIES]
    rows += [_row(exchanges, "anticipatory", replace(base_params, lam=lam), regions, *grid,
                  ideals)[0] for lam in lams if lam != base_params.lam]

    if centrals is None:
        mean_hit_y = float(np.mean(exchanges.crossing_pos[:, 1]))
        mean_hit_z = float(np.mean(exchanges.crossing_pos[:, 2]))
        centrals = [Vec3(-1.5, mean_hit_y, mean_hit_z)]
    # The rest-pose rows, listed last, run first: one step grid is alive at a time.
    rest = [_row(exchanges, "anticipatory", replace(base_params, central=c), regions, *grid,
                 ideals)[0] for c in centrals if not (c - base_params.central).norm() < 1e-12]
    del grid

    for lt in lead_times:
        if lt == base_params.lead_time:
            continue
        p = replace(base_params, lead_time=lt)
        # Only the forecast depends on the lead time; the split's truth is reused.
        mean, sigma = forecast_ensemble(predictors, cal, HORIZONS, lt)
        calib_lt = calibrate_ensemble(replace(forecast, mean=mean, sigma=sigma), p.alpha)
        regions_lt = split_regions(predictors, calib_lt, exchanges, HORIZONS, lt)
        rows.append(_row(exchanges, "anticipatory", p, regions_lt, *_step_balls(exchanges, p),
                         ideals)[0])
    return rows + rest


def write_results(path: str, rows: Sequence[ExperimentRow], seed: int) -> None:
    write_lines(path, [format_record(RESULTS_HEADER, seed), RESULTS_COLUMNS] + [
        format_record(
            RESULTS_ROW, r.strategy, r.lam, r.lead_time, r.central, r.n_episodes,
            r.return_rate, r.mean_deviation, r.mean_position_error,
            r.mean_orientation_error_deg, r.n_fallback,
        )
        for r in rows
    ])
