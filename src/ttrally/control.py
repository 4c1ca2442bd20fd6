"""Simulated robot returner driven by anticipated ball regions.

The robot is a racket disc moving inside a safe workspace box behind the ego
hitting plane. Strategies differ only in what the robot does before the
opponent's hit: a reactive baseline waits at a central pose, the anticipatory
strategy pre-positions toward the conformal prediction region, and an oracle
pre-positions on the ground-truth interception pose.

Episodes run as array lanes. A lane is one row's episode of one exchange
(a row being a strategy with its lam, rest pose and lead time); the rows
that share a lead time share a step grid, so their lanes step together.
Per exchange, every row shares the ideal interception pose and one turn
sequence toward it; per grid, the ball sample and the steps at which a
contact is possible at all; per contact (exchange, time and pose), one
grading of the return.
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
    ShotPredictor,
    calibrate_ensemble,
    forecast_ensemble,
    forecast_split,
    physics_baseline_ensemble,
    split_regions,
)
from .ball import GRAVITY
from .core import TableGeometry, Vec3
from .errors import EmptyDataset, Infeasible, NoContact
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


def _column(v: Vec3) -> np.ndarray:
    """v as a (3, 1) column, against (3, lanes) positions."""
    return np.array([_xyz(v)]).T


def _move(pos: np.ndarray, target: np.ndarray, step: float, lo: np.ndarray,
          hi: np.ndarray) -> np.ndarray:
    """Positions (3, lanes) after a straight move of at most ``step`` toward
    ``target``, clamped into [lo, hi]. Each lane takes a scalar step's float
    operations, ``min(dist, step) / dist`` and no move under 1e-12 m."""
    d = target - pos
    dd = d * d
    dist = np.sqrt(dd[0] + dd[1] + dd[2])
    new = d * np.divide(np.minimum(dist, step), dist, out=np.zeros(dist.shape),
                        where=dist >= 1e-12)
    new += pos
    return np.minimum(np.maximum(new, lo, out=new), hi, out=new)


def _turn(q: Quat, target: Quat, max_turn: float) -> Quat:
    """A slerp of at most ``max_turn`` from q toward target; target itself
    once it is within reach."""
    if q != target:  # else the relative turn is exactly the identity, of angle 0
        rel = _relative(q, target)
        angle = _magnitude(rel)
        if angle >= 1e-12 and angle > max_turn:
            return _compose(q, _partial_turn(rel, angle, max_turn / angle))
    return target


def step_robot(pose: RacketPose, target: RacketPose, dt: float, v_max: float,
               omega_max: float, workspace: Box) -> RacketPose:
    """Move toward a target pose with speed and turn-rate limits: a straight
    step of at most v_max * dt and a slerp of at most omega_max * dt, kept
    inside the workspace. The episode engine's step on one lane, plus one turn."""
    p = _move(_column(pose.position), _column(target.position), v_max * dt,
              _column(workspace.lo), _column(workspace.hi))
    return RacketPose(Vec3(*p[:, 0].tolist()),
                      _turn(pose.orientation, target.orientation, omega_max * dt))


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


def _step_balls(exchanges: Exchanges, params: SimParams) -> tuple[list[float], np.ndarray,
                                                                 np.ndarray]:
    """The robot's step times, each exchange's ball at them (n, m, 3), and
    the number of those times each exchange's episode reads (n,).

    The times are accumulated as the robot's clock, from -lead_time until one
    reaches the last exchange's crossing_time + 0.15. Exchange i's episode
    ends at the first time that reaches its own crossing_time + 0.15.
    """
    stops = (exchanges.crossing_time + 0.15).tolist()
    last = max(stops)
    times = [-params.lead_time]
    while times[-1] < last:
        times.append(times[-1] + params.dt)
    return times, balls_at(exchanges, times), np.searchsorted(times, stops) + 1


def _ideal_poses(exchanges: Exchanges, table: TableGeometry) -> list[RacketPose]:
    """Each exchange's ideal interception pose, on its crossing."""
    return [solve_target_pose(Vec3(*p), Vec3(*v), table) for p, v in
            zip(exchanges.crossing_pos.tolist(), exchanges.crossing_vel.tolist())]


def _prepositions(regions: tuple[np.ndarray, np.ndarray],
                  params: SimParams) -> tuple[np.ndarray, np.ndarray]:
    """The anticipatory pre-hit target (3, n) of every exchange of the
    region corners ``regions`` (lo, hi), each (n, len(HORIZONS), 3), and
    whether it fell back to the central pose (n,).

    Each exchange takes its earliest horizon whose region lies inside the
    workspace (BOX_TOL) and whose farthest corner from the central pose is
    within v_max * (horizon + lead_time); the target is the blend
    central * lam + centroid * (1 - lam), clamped into that region and then
    into the workspace. With no such horizon it is the central pose. lam = 1
    is the central pose only when the region box contains it.
    """
    lo, hi = regions
    n, ws = len(lo), params.workspace
    ws_lo, ws_hi = np.array(_xyz(ws.lo)), np.array(_xyz(ws.hi))
    inside = ((ws_lo - BOX_TOL <= lo) & (lo <= ws_hi + BOX_TOL)
              & (ws_lo - BOX_TOL <= hi) & (hi <= ws_hi + BOX_TOL)).all(axis=2)
    central = np.array(_xyz(params.central))
    far = np.maximum(np.abs(lo - central), np.abs(hi - central))
    reach = params.v_max * (np.array(HORIZONS) + params.lead_time)
    ff = far * far
    covers = inside & (np.sqrt(ff[..., 0] + ff[..., 1] + ff[..., 2]) <= reach)
    first, rows = covers.argmax(axis=1), np.arange(n)
    fallback = ~covers[rows, first]
    box_lo, box_hi = lo[rows, first], hi[rows, first]
    with np.errstate(invalid="ignore"):  # a fallback's unread region may be unbounded
        blend = central * params.lam + ((box_lo + box_hi) * 0.5) * (1.0 - params.lam)
    target = np.minimum(np.maximum(np.minimum(np.maximum(blend, box_lo), box_hi), ws_lo), ws_hi)
    return np.where(fallback[:, None], central, target).T, fallback


def _contact_possible(balls: np.ndarray, x_max: float) -> np.ndarray:
    """(n, m - 1): whether the ball's segment into step i (column i - 1) can
    pass within RACKET_RADIUS of a racket at x <= x_max, the workspace's
    largest x; a segment wholly beyond x_max + RACKET_RADIUS cannot."""
    bx = balls[:, :, 0]
    return np.minimum(bx[:, :-1], bx[:, 1:]) <= x_max + RACKET_RADIUS + 1e-9


def _segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance (lanes,) from each point p to its segment a-b, all (3, lanes),
    in the float order of the scalar point-segment test."""
    e = b - a
    ee, we = e * e, (p - a) * e
    denom = ee[0] + ee[1] + ee[2]
    u = np.divide(we[0] + we[1] + we[2], denom, out=np.zeros(denom.shape),
                  where=denom >= 1e-18)
    d = p - (a + np.minimum(np.maximum(u, 0.0), 1.0) * e)
    dd = d * d
    return np.sqrt(dd[0] + dd[1] + dd[2])


def _turns(target: Quat, max_turn: float, n: int) -> list[Quat]:
    """The racket's orientation after 0, 1, ... turns from IDENTITY toward
    target: at most n entries, ending at target itself once it is reached."""
    seq = [IDENTITY]
    while len(seq) < n and seq[-1] is not target:
        seq.append(_turn(seq[-1], target, max_turn))
    return seq


def _pose_errors(pose: RacketPose, ideal: RacketPose) -> tuple[float, float]:
    """Position and orientation error of a pose from the ideal one."""
    return (pose.position - ideal.position).norm(), pose.angle_to(ideal)


def _grade(p: Position, q: Quat, ball: Sequence[float], v_in: Sequence[float],
           ideal: RacketPose, table: TableGeometry) -> Optional[tuple]:
    """The outcome fields of a contact by the pose (p, q) with the ball at
    ``ball`` moving at ``v_in``: contacted, returned, deviation and the pose
    errors; None when the ball is not moving into the racket face."""
    pose = RacketPose(Vec3(*p), q)
    try:
        v_after = racket_reflect(Vec3(*v_in), pose.normal())
    except NoContact:
        return None
    returned, deviation = False, None
    land = DragFlight(Vec3(*ball), v_after).landing(table.height_z)
    if land is not None:
        _, p_land = land
        aim = aim_point(table)
        deviation = float(math.hypot(p_land.x - aim.x, p_land.y - aim.y))
        returned = (v_after.x > 0 and 0.0 <= p_land.x <= table.half_length
                    and abs(p_land.y) <= table.half_width)
    return True, returned, deviation, *_pose_errors(pose, ideal)


def _episodes(exchanges: Exchanges, rows: Sequence[tuple[str, SimParams]],
              regions: Optional[tuple[np.ndarray, np.ndarray]], grid: tuple,
              ideals: list[RacketPose], graded: dict) -> list[list[EpisodeResult]]:
    """Every row's episodes on one step grid, stepped together as lanes.

    Lane r * n + e is row r's episode of exchange e; the rows share the grid
    (``_step_balls``), and so the lead time, and differ only in strategy,
    lam and central pose. Positions are a (3, lanes) array stepped toward
    each lane's pre-hit target until the first step after the hit, then
    toward its exchange's ideal position. A lane's pose freezes at its
    contact, and its contact test ends at its exchange's last step; its pose
    at the crossing is the last one stepped, up to the contact, at a time t
    with t - dt <= crossing_time <= t. The orientation never depends on the
    position: it is an index into the exchange's one turn sequence from
    IDENTITY toward the ideal, which the oracle starts at step 1 and the
    other strategies at the first step after the hit. The contact test runs
    only on steps where a ball segment comes within RACKET_RADIUS of the
    workspace's x range, and ``graded`` holds the outcome of each distinct
    contact (exchange, time and pose) across calls.
    """
    times, balls, ends = grid
    params = rows[0][1]
    n, n_rows, dt = len(exchanges), len(rows), params.dt
    ex = np.tile(np.arange(n), n_rows)  # each lane's exchange
    lo, hi = _column(params.workspace.lo), _column(params.workspace.hi)
    ideal = np.array([_xyz(pose.position) for pose in ideals]).T  # (3, n)
    idle, fallback = [], []
    for strategy, p in rows:
        if strategy == "anticipatory":
            target, fell_back = _prepositions(regions, p)
        else:
            target = ideal if strategy == "oracle" else np.tile(_column(p.central), n)
            fell_back = np.zeros(n, bool)
        idle.append(target)
        fallback += fell_back.tolist()
    idle, track = np.concatenate(idle, axis=1), np.tile(ideal, n_rows)
    pos = np.repeat(np.array([_xyz(p.central) for _, p in rows]).T, n, axis=1)

    t, end = np.array(times), ends[ex]
    ct = exchanges.crossing_time[:, None]
    ran = np.arange(1, len(times)) < ends[:, None]  # (n, m - 1): the steps of each episode
    # Step i is column i - 1: the lanes that record a crossing pose there, and
    # the steps where some exchange's ball comes within reach of the workspace.
    steps, crossing = np.nonzero((ran & (t[1:] - dt <= ct) & (ct <= t[1:])).T)
    crossing = crossing[:, None] + n * np.arange(n_rows)
    crossers = {int(c) + 1: crossing[steps == c].ravel() for c in np.unique(steps)}
    tests = set((np.flatnonzero((ran & _contact_possible(balls, hi[0, 0])).any(axis=0)
                                & (t[1:] > 0)) + 1).tolist())
    cross, cross_at = pos.copy(), np.zeros(len(ex), int)
    contact, live = np.zeros(len(ex), int), np.ones(len(ex), bool)
    size, last = params.v_max * dt, len(times) - 1
    for i in range(1, len(times)):
        np.copyto(pos, _move(pos, track if times[i - 1] >= 0 else idle, size, lo, hi),
                  where=live)
        if i in crossers:
            lanes = crossers[i][live[crossers[i]]]
            cross[:, lanes], cross_at[lanes] = pos[:, lanes], i
        if i in tests:
            hit = live & (i < end) & (_segment_distance(pos, balls[ex, i - 1].T, balls[ex, i].T)
                                      <= RACKET_RADIUS)
            if hit.any():
                contact[hit], live[hit] = i, False
                last = end[live].max(initial=1) - 1  # the last step a lane still takes
        if i >= last:
            break

    hit_step = next((i for i, t_i in enumerate(times) if t_i >= 0), len(times))
    seqs = [_turns(pose.orientation, params.omega_max * dt, len(times)) for pose in ideals]
    v_in = exchanges.outgoing.velocities(t[contact.reshape(n_rows, n).T]).tolist()
    ids, contact, cross_at = exchanges.ids.tolist(), contact.tolist(), cross_at.tolist()
    pos, cross = pos.T.tolist(), cross.T.tolist()
    results = []
    for r, (strategy, p) in enumerate(rows):
        first = 0 if strategy == "oracle" else hit_step  # its first turn is step first + 1
        out = []
        for e in range(n):
            lane, seq, grade = r * n + e, seqs[e], None
            c = contact[lane]
            if c:
                q = seq[min(max(c - first, 0), len(seq) - 1)]
                key = (e, times[c], *pos[lane], q)
                if key not in graded:
                    graded[key] = _grade(pos[lane], q, balls[e, c].tolist(), v_in[e][r],
                                         ideals[e], p.table)
                grade = graded[key]
            if grade is None:
                q = seq[min(max(cross_at[lane] - first, 0), len(seq) - 1)]
                grade = (False, False, None,
                         *_pose_errors(RacketPose(Vec3(*cross[lane]), q), ideals[e]))
            out.append(EpisodeResult(ids[e], strategy, *grade, fallback[lane]))
        results.append(out)
    return results


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
    regions: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> tuple[ExperimentRow, list[EpisodeResult]]:
    """One row over the exchanges: the episode engine with one lane per
    exchange. ``regions``, if given, are the region corners (lo, hi), each
    (n, len(HORIZONS), 3), at params.lead_time; else one batched forecast
    makes them.

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
    (results,) = _episodes(exchanges, [(strategy, params)], regions,
                           _step_balls(exchanges, params), _ideal_poses(exchanges, params.table),
                           {})
    return _aggregate(results, strategy, params), results


def _rows(exchanges: Exchanges, rows: list[tuple[str, SimParams]], *shared) -> list[ExperimentRow]:
    """The rows of one step grid, their episodes stepped together by ``_episodes``."""
    return [_aggregate(results, strategy, p)
            for (strategy, p), results in zip(rows, _episodes(exchanges, rows, *shared))]


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
    ensemble and calibration split, whose truth is taken once. Per exchange,
    every row shares its ideal pose and each distinct contact is graded
    once. Per lead time, the rows share one step grid, its ball sample and
    one batched forecast of each exchange's regions, and their episodes run
    as one set of lanes (row x exchange): the strategy, lam and rest-pose
    rows at the base lead time, one row at each other lead time.
    """
    if n_episodes < 1:
        raise EmptyDataset(f"need at least one episode, got {n_episodes}")
    exchanges = generate_exchanges(seed, n_episodes)

    # Strategy comparison at the base configuration.
    predictors, cal = _anticipation_inputs(seed, base_params.table, n_cal)
    forecast = forecast_split(predictors, cal, HORIZONS, base_params.lead_time)
    calib = calibrate_ensemble(forecast, base_params.alpha)
    regions = split_regions(predictors, calib, exchanges, HORIZONS, base_params.lead_time)
    ideals, graded = _ideal_poses(exchanges, base_params.table), {}
    base = [(s, base_params) for s in STRATEGIES]
    base += [("anticipatory", replace(base_params, lam=lam)) for lam in lams
             if lam != base_params.lam]
    if centrals is None:
        mean_hit_y = float(np.mean(exchanges.crossing_pos[:, 1]))
        mean_hit_z = float(np.mean(exchanges.crossing_pos[:, 2]))
        centrals = [Vec3(-1.5, mean_hit_y, mean_hit_z)]
    # The rest-pose rows, listed last, step with the base rows on their grid.
    rest = [("anticipatory", replace(base_params, central=c)) for c in centrals
            if not (c - base_params.central).norm() < 1e-12]
    rows = _rows(exchanges, base + rest, regions, _step_balls(exchanges, base_params), ideals,
                 graded)
    rows, rest_rows = rows[:len(base)], rows[len(base):]

    for lt in lead_times:
        if lt == base_params.lead_time:
            continue
        p = replace(base_params, lead_time=lt)
        # Only the forecast depends on the lead time; the split's truth is reused.
        mean, sigma = forecast_ensemble(predictors, cal, HORIZONS, lt)
        calib_lt = calibrate_ensemble(replace(forecast, mean=mean, sigma=sigma), p.alpha)
        regions_lt = split_regions(predictors, calib_lt, exchanges, HORIZONS, lt)
        rows += _rows(exchanges, [("anticipatory", p)], regions_lt, _step_balls(exchanges, p),
                      ideals, graded)
    return rows + rest_rows


def write_results(path: str, rows: Sequence[ExperimentRow], seed: int) -> None:
    write_lines(path, [format_record(RESULTS_HEADER, seed), RESULTS_COLUMNS] + [
        format_record(
            RESULTS_ROW, r.strategy, r.lam, r.lead_time, r.central, r.n_episodes,
            r.return_rate, r.mean_deviation, r.mean_position_error,
            r.mean_orientation_error_deg, r.n_fallback,
        )
        for r in rows
    ])
