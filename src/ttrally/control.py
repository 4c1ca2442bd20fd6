"""Simulated robot returner driven by anticipated ball regions.

The robot is a racket disc moving inside a safe workspace box behind the ego
hitting plane. Strategies differ only in what the robot does before the
opponent's hit: a reactive baseline waits at a central pose, the anticipatory
strategy pre-positions toward the conformal prediction region, and an oracle
pre-positions on the ground-truth interception pose.

Episodes run as array lanes. A lane is one row's episode of one exchange
(a row being a strategy with its lam, rest pose and lead time), and every
lane of an experiment steps together on one clock of whole steps: the
opponent's hit is a step, at exactly t = 0, and a row of lead time L starts
at the first step time at or after -L. Per exchange, every row shares one
ball sample, the ideal interception pose, one turn sequence toward it and
the steps at which a contact is possible at all; per contact (exchange, step
and orientation), one grading of the return.
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
    _bounds,
    calibrate_ensemble,
    forecast_ensemble,
    forecast_split,
    physics_baseline_ensemble,
    split_regions,
)
from .ball import GRAVITY, _expm1
from .camera import _quaternion
from .core import TableGeometry, Vec3
from .errors import EmptyDataset, Infeasible, NoContact
from .pipeline import (RESULTS_COLUMNS, RESULTS_HEADER, RESULTS_ROW, format_record,
                       write_lines)
from .synth import MAX_LEAD_TIME, TABLE, Exchanges, balls_at, generate_exchanges


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
    return _quaternion(s * x * frac, s * y * frac, s * z * frac)


def _normal(q: Quat) -> np.ndarray:
    """The racket normal of orientation q: +x turned by q."""
    x, y, z, w = q
    return np.array([x * x - y * y - z * z + w * w, 2 * (x * y + z * w), 2 * (x * z - y * w)])


@dataclass
class RacketPose:
    position: Vec3
    orientation: Quat = IDENTITY

    def normal(self) -> np.ndarray:
        return _normal(self.orientation)


# ---------------------------------------------------------------------------
# contact models
# ---------------------------------------------------------------------------


def racket_reflect(v: Vec3, normal: Sequence[float]) -> Vec3:
    """Lossless mirror reflection of the ball velocity about the racket normal.
    Its norm and dot are float sums in x, y, z order, which no BLAS kernel
    reorders."""
    nx, ny, nz = map(float, normal)
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    vn = v.x * nx + v.y * ny + v.z * nz
    if vn >= 0:
        raise NoContact("ball not approaching the racket face")
    return Vec3(v.x - 2.0 * vn * nx, v.y - 2.0 * vn * ny, v.z - 2.0 * vn * nz)


def _landing(p: Sequence[float], v: Sequence[float],
             z_plane: float) -> Optional[tuple[float, float]]:
    """Where (x, y) a ball launched from p at velocity v, under gravity and
    RETURN_DRAG_K's linear drag, first descends through z = z_plane; None
    when it starts at or below the plane or is still above it at
    LANDING_T_MAX."""
    (px, py, pz), (vx, vy, vz) = p, v
    k = RETURN_DRAG_K
    vt = -GRAVITY / k  # terminal velocity, along z

    def f(t: float) -> float:
        decay = -_expm1(-k * t) / k
        return pz + vt * t + (vz - vt) * decay - z_plane

    if f(0.0) <= 0:
        return None
    hi = 0.05
    while hi < LANDING_T_MAX and f(hi) > 0:
        hi = min(2.0 * hi, LANDING_T_MAX)
    if f(hi) > 0:
        return None
    decay = -_expm1(-k * float(brentq(f, 1e-9, hi))) / k
    return px + vx * decay, py + vy * decay


# ---------------------------------------------------------------------------
# target pose
# ---------------------------------------------------------------------------


def aim_point(table: TableGeometry) -> Vec3:
    """Where every return is aimed: the centre of the opponent's table half."""
    return Vec3(table.half_length / 2.0, 0.0, table.height_z)


_AIM = aim_point(TABLE)


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
    the normal's yaw or pitch leaves the +-MAX_RACKET_ANGLE_DEG box. Norms
    and dots are float sums in x, y, z order, as in racket_reflect.
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
    ox, oy, oz = GRAVITY * dx, GRAVITY * dy, s2 - math.sqrt(disc)
    scale = math.sqrt(s2) / math.sqrt(ox * ox + oy * oy + oz * oz)
    # The normal is parallel to dv = v_out - v_in.
    ux, uy, uz = ox * scale - v_in.x, oy * scale - v_in.y, oz * scale - v_in.z
    if v_in.x * ux + v_in.y * uy + v_in.z * uz >= 0:
        raise Infeasible("no racket face turned toward the ball reflects it there")
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    psi, phi = math.atan2(uy / norm, ux / norm), math.asin(uz / norm)
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
    workspace: Box = field(
        default_factory=lambda: Box(Vec3(-2.8, -1.4, 0.5), Vec3(-1.2, 1.4, 1.8))
    )
    central: Vec3 = Vec3(-1.5, 0.0, 1.05)
    v_max: float = 2.0
    omega_max: float = math.radians(720.0)
    dt: float = 0.01
    lam: float = 0.1
    lead_time: float = 0.2  # anticipation available this long before the hit; the robot
    # starts floor(lead_time / dt + 1e-9) steps before it, the first step time >= -lead_time
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
    fallback: bool  # anticipation found no region inside the workspace


def _step_balls(exchanges: Exchanges, hit_step: int,
                dt: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The robot's step times (m,), each exchange's ball at them (n, m, 3),
    and the number of steps each exchange's episode reads (n,).

    Step j is at (j - hit_step) * dt, so the opponent's hit is step
    hit_step, at exactly t = 0. The steps run until one reaches the last
    exchange's crossing_time + 0.15; exchange i's episode ends at the first
    that reaches its own crossing_time + 0.15.
    """
    stops = exchanges.crossing_time + 0.15
    times = np.arange(-hit_step, math.ceil(stops.max() / dt) + 2) * dt
    ends = np.searchsorted(times, stops) + 1
    times = times[:ends.max()]
    return times, balls_at(exchanges, times), ends


def _inside(p: np.ndarray, ws: Box) -> np.ndarray:  # of points (..., 3): in ws, to BOX_TOL
    lo, hi = np.array(_xyz(ws.lo)) - BOX_TOL, np.array(_xyz(ws.hi)) + BOX_TOL
    return ((lo <= p) & (p <= hi)).all(axis=-1)


def _prepositions(regions: tuple[np.ndarray, np.ndarray],
                  params: SimParams) -> tuple[np.ndarray, np.ndarray]:
    """The anticipatory pre-hit target (3, n) of every exchange of the
    region corners ``regions`` (lo, hi), each (n, n_horizons, 3) at
    increasing horizons, and whether it fell back to the central pose (n,).

    Each exchange takes its earliest horizon whose region lies inside the
    workspace (BOX_TOL); the target is the blend central * lam + centroid *
    (1 - lam), clamped into that region and then into the workspace. With
    no such horizon (an infinite conformal quantile leaves every region
    unbounded) it is the central pose. lam = 1 is the central pose only when
    the region box contains it. A region (q in [0, inf], sigma >= SIGMA_FLOOR)
    holds its mean, rounding being monotone: one whose mean lies outside is unread.
    """
    lo, hi = regions
    n, ws = len(lo), params.workspace
    central = np.array(_xyz(params.central))
    if not lo.shape[1]:  # no horizon to read
        return np.tile(central[:, None], n), np.ones(n, bool)
    ws_lo, ws_hi = np.array(_xyz(ws.lo)), np.array(_xyz(ws.hi))
    inside = _inside(lo, ws) & _inside(hi, ws)
    first, rows = inside.argmax(axis=1), np.arange(n)
    fallback = ~inside[rows, first]
    box_lo, box_hi = lo[rows, first], hi[rows, first]
    with np.errstate(invalid="ignore"):  # a fallback's unread region may be unbounded
        blend = central * params.lam + ((box_lo + box_hi) * 0.5) * (1.0 - params.lam)
    target = np.minimum(np.maximum(np.minimum(np.maximum(blend, box_lo), box_hi), ws_lo), ws_hi)
    return np.where(fallback[:, None], central, target).T, fallback


def _contact_possible(balls: np.ndarray, x_max: float) -> np.ndarray:
    """(..., m - 1) of balls (..., m, 3): whether the ball's segment into step
    i (column i - 1) can pass within RACKET_RADIUS of a racket at x <= x_max,
    the workspace's largest x; a segment wholly beyond x_max + RACKET_RADIUS
    cannot."""
    bx = balls[..., 0]
    return np.minimum(bx[..., :-1], bx[..., 1:]) <= x_max + RACKET_RADIUS + 1e-9


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


def _pose_errors(p: Position, q: Quat, ideal_p: Position, ideal_q: Quat) -> tuple[float, float]:
    """Position and orientation error of the pose (p, q) from the ideal one."""
    dx, dy, dz = p[0] - ideal_p[0], p[1] - ideal_p[1], p[2] - ideal_p[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz), _magnitude(_relative(q, ideal_q))


def _grade(q: Quat, ball: Sequence[float], v_in: Sequence[float]) -> Optional[tuple]:
    """The outcome of a contact by a racket of orientation q with the ball at
    ``ball`` moving at ``v_in``: contacted, returned and the landing's
    distance from the aim point; None when the ball is not moving into the
    racket face."""
    try:
        v_after = racket_reflect(Vec3(*v_in), _normal(q))
    except NoContact:
        return None
    land = _landing(ball, _xyz(v_after), TABLE.height_z)
    if land is None:
        return True, False, None
    x, y = land
    return (True, v_after.x > 0 and 0.0 <= x <= TABLE.half_length and abs(y) <= TABLE.half_width,
            math.hypot(x - _AIM.x, y - _AIM.y))


def _episodes(exchanges: Exchanges, rows: Sequence[tuple]) -> list[list[EpisodeResult]]:
    """Every row's episodes, stepped together as one set of lanes.

    A row is (strategy, params, regions), regions being an anticipatory
    row's region corners at its lead time. Rows differ only in strategy,
    lam, central pose and lead time. Lane r * n + e is row r's episode of
    exchange e. Every lane reads one clock (``_step_balls``): the hit is
    step s, at t = 0, s being the most steps any row starts before it, and
    a row of lead time L starts at step s - floor(L / dt + 1e-9), the first
    step time at or after -L. Positions are a (3, lanes) array stepped from
    each lane's start toward its pre-hit target (the central pose, the
    oracle's ideal pose, or the anticipatory blend toward the earliest
    region inside the workspace, ``_prepositions``) until step s, then
    toward its exchange's ideal position. A lane's pose freezes at its
    contact, and its contact test ends at its exchange's last step; its pose
    at the crossing is the last one stepped, up to the contact, at a time t
    with t - dt <= crossing_time <= t. The orientation never depends on the
    position: it is an index into the exchange's one turn sequence from
    IDENTITY toward the ideal, which the oracle starts at its first step and
    the other strategies at step s + 1. A lane's contact test runs only on
    steps after the hit where its exchange's ball segment comes within
    RACKET_RADIUS of the workspace's x range, and each distinct contact
    (exchange, step and orientation) is graded once; a lane's pose errors
    are taken from its exchange's crossing and ideal orientation.
    """
    params = rows[0][1]
    n, n_rows, dt = len(exchanges), len(rows), params.dt
    lead = [math.floor(p.lead_time / dt + 1e-9) for _, p, _ in rows]  # steps before the hit
    s = max(lead)
    times, balls, ends = _step_balls(exchanges, s, dt)
    ideal_p = exchanges.crossing_pos.tolist()
    ideal_q = [solve_target_pose(Vec3(*p), Vec3(*v), TABLE).orientation
               for p, v in zip(ideal_p, exchanges.crossing_vel.tolist())]
    begin, ex = np.repeat([s - k for k in lead], n), np.tile(np.arange(n), n_rows)  # per lane
    lo, hi = _column(params.workspace.lo), _column(params.workspace.hi)
    ideal = exchanges.crossing_pos.T  # (3, n)
    idle, fallback = [], []
    for strategy, p, regions in rows:
        if strategy == "anticipatory":
            target, fell_back = _prepositions(regions, p)
        else:
            target = ideal if strategy == "oracle" else np.tile(_column(p.central), n)
            fell_back = np.zeros(n, bool)
        idle.append(target)
        fallback += fell_back.tolist()
    aim = np.concatenate(idle, axis=1)
    pos = np.repeat(np.array([_xyz(p.central) for _, p, _ in rows]).T, n, axis=1)

    m, end = len(times), ends[ex]
    ct, t1 = exchanges.crossing_time[:, None], times[1:]
    ran = np.arange(1, m) < ends[:, None]  # (n, m - 1): the steps of each episode
    # Step i is column i - 1: the steps at which each lane records a crossing
    # pose, and those at which it is tested for contact (its ball segment
    # within reach of the workspace, after the hit, the episode still running).
    crossing = (ran & (t1 - dt <= ct) & (ct <= t1))[ex]
    steps, lanes = np.nonzero(crossing.T)
    crossers = {int(c) + 1: lanes[steps == c] for c in np.unique(steps)}
    tested = (ran & _contact_possible(balls, hi[0, 0]) & (t1 > 0))[ex]
    tests = {int(c) + 1: tested[:, c] for c in np.flatnonzero(tested.any(axis=0))}
    cross, cross_at = pos.copy(), np.zeros(len(ex), int)
    contact, live = np.zeros(len(ex), int), np.ones(len(ex), bool)
    size, last = params.v_max * dt, m - 1
    for i in range(1, m):
        if i == s + 1:
            aim = np.tile(ideal, n_rows)
        np.copyto(pos, _move(pos, aim, size, lo, hi), where=live & (begin < i))
        if i in crossers:
            lanes = crossers[i][live[crossers[i]]]
            cross[:, lanes], cross_at[lanes] = pos[:, lanes], i
        if i in tests:
            hit = live & tests[i] & (_segment_distance(pos, balls[ex, i - 1].T,
                                                       balls[ex, i].T) <= RACKET_RADIUS)
            if hit.any():
                contact[hit], live[hit] = i, False
                last = end[live].max(initial=1) - 1  # the last step a lane still takes
        if i >= last:
            break

    seqs = [_turns(q, params.omega_max * dt, m) for q in ideal_q]
    v_in = exchanges.outgoing.velocities(times[contact].reshape(n_rows, n).T).tolist()
    ids, contact, cross_at = exchanges.ids.tolist(), contact.tolist(), cross_at.tolist()
    pos, cross, graded = pos.T.tolist(), cross.T.tolist(), {}
    results = []
    for r, (strategy, p, _) in enumerate(rows):
        first = s - lead[r] if strategy == "oracle" else s  # its first turn is step first + 1
        out = []
        for e in range(n):
            lane, seq, grade = r * n + e, seqs[e], None
            c = contact[lane]
            if c:
                at, q = pos[lane], seq[min(c - first, len(seq) - 1)]
                key = (e, c, q)  # the landing does not depend on the position
                if key not in graded:
                    graded[key] = _grade(q, balls[e, c].tolist(), v_in[e][r])
                grade = graded[key]
            if grade is None:
                at, q = cross[lane], seq[min(max(cross_at[lane] - first, 0), len(seq) - 1)]
                grade = False, False, None
            out.append(EpisodeResult(ids[e], strategy, *grade,
                                     *_pose_errors(at, q, ideal_p[e], ideal_q[e]),
                                     fallback[lane]))
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
    predictors: Optional[np.ndarray] = None,
    calib: Optional[ConformalCalibration] = None,
) -> tuple[ExperimentRow, list[EpisodeResult]]:
    """One row over the exchanges: the episode engine with one lane per
    exchange. An anticipatory row's regions come from one batched forecast
    at params.lead_time.

    Time 0 of an episode is the opponent's hit, a step; the robot is live
    from the first step time at or after -lead_time. After the hit every
    strategy tracks the ideal interception pose (reactive perception of the
    actual shot); they differ in where they stand at the hit.
    """
    if not exchanges:
        raise EmptyDataset("no exchanges")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    regions = None
    if strategy == "anticipatory":
        if predictors is None or calib is None:
            raise ValueError("anticipatory strategy needs predictors and calibration")
        regions = split_regions(predictors, calib, exchanges, HORIZONS, params.lead_time)
    (results,) = _episodes(exchanges, [(strategy, params, regions)])
    return _aggregate(results, strategy, params), results


def _calibrations(seed: int, predictors: np.ndarray, horizons: Sequence[float],
                  lead_times: Sequence[float], alpha: float,
                  n_cal: int) -> list[ConformalCalibration]:
    """The ensemble's conformal calibration at ``horizons`` for each lead
    time, all on one calibration split whose truth is taken once: only the
    forecast depends on the lead time. A quantile reads no other horizon."""
    cal = generate_exchanges(seed + 17, n_cal, id_offset=CAL_ID_OFFSET)
    forecast = forecast_split(predictors, cal, horizons, lead_times[0])
    calibs = [calibrate_ensemble(forecast, alpha)]
    for lead_time in lead_times[1:]:
        mean, sigma = forecast_ensemble(predictors, cal, horizons, lead_time)
        calibs.append(calibrate_ensemble(replace(forecast, mean=mean, sigma=sigma), alpha))
    return calibs


def prepare_anticipation(
    seed: int,
    params: SimParams,
    n_cal: int = 600,
) -> tuple[np.ndarray, ConformalCalibration]:
    """Ensemble plus conformal calibration matched to the deployment lead time."""
    predictors = physics_baseline_ensemble(seed)
    (calib,) = _calibrations(seed, predictors, HORIZONS, [params.lead_time], params.alpha, n_cal)
    return predictors, calib


LAMS = (0.0, 0.1, 0.5)  # the blending sweep of an experiment
LEAD_TIMES = (0.1, 0.2, 0.4)  # s, the lead-time sweep of an experiment


def run_experiment(
    seed: int,
    n_episodes: int = 500,
    base_params: SimParams = SimParams(),
    n_cal: int = 600,
) -> list[ExperimentRow]:
    """Strategy comparison plus sweeps over blending (LAMS), lead time
    (LEAD_TIMES) and rest pose.

    The rows, in order: each strategy at the base configuration, the
    anticipatory strategy at each other lam, at each other lead time, and at
    the rest pose (-1.5, mean crossing y, mean crossing z), clamped into
    the workspace, unless that is the base central pose. The episodes are
    forecast first, once per lead time at every horizon. The anticipatory
    strategy is recalibrated per lead time (its residual distribution
    depends on how early the forecast is issued) on one split whose truth is
    taken once, at the horizons where some episode's mean at some lead time
    lies in the workspace, the only ones ``_prepositions`` reads; a quantile
    reads only its own column of scores. Every row's episodes run as one set
    of lanes (``_episodes``).
    """
    if n_episodes < 1:
        raise EmptyDataset(f"need at least one episode, got {n_episodes}")
    exchanges = generate_exchanges(seed, n_episodes)
    lead_times = [base_params.lead_time] + [lt for lt in LEAD_TIMES if lt != base_params.lead_time]
    predictors = physics_baseline_ensemble(seed)
    forecasts = [forecast_ensemble(predictors, exchanges, HORIZONS, lt) for lt in lead_times]
    cols = np.flatnonzero(np.any([_inside(m, base_params.workspace) for m, _ in forecasts], (0, 1)))
    horizons = [HORIZONS[j] for j in cols]  # the readable ones, each its own horizon_key
    regions = [(mean[:, cols],) * 2 for mean, _ in forecasts]  # empty when none is readable
    if horizons:
        calibs = _calibrations(seed, predictors, horizons, lead_times, base_params.alpha, n_cal)
        regions = [_bounds(calib, horizons, mean[:, cols], sigma[:, cols])
                   for calib, (mean, sigma) in zip(calibs, forecasts)]
    rows = [(s, base_params, regions[0]) for s in STRATEGIES]
    rows += [("anticipatory", replace(base_params, lam=lam), regions[0]) for lam in LAMS
             if lam != base_params.lam]
    rows += [("anticipatory", replace(base_params, lead_time=lt), r)
             for lt, r in zip(lead_times[1:], regions[1:])]
    ws = base_params.workspace
    mean_y, mean_z = (np.mean(exchanges.crossing_pos[:, i]) for i in (1, 2))
    rest = Vec3(*np.clip([-1.5, mean_y, mean_z], _xyz(ws.lo), _xyz(ws.hi)).tolist())
    if not (rest - base_params.central).norm() < 1e-12:
        rows.append(("anticipatory", replace(base_params, central=rest), regions[0]))
    return [_aggregate(results, strategy, p)
            for (strategy, p, _), results in zip(rows, _episodes(exchanges, rows))]


def write_results(path: str, rows: Sequence[ExperimentRow], seed: int) -> None:
    write_lines(path, [format_record(RESULTS_HEADER, seed), RESULTS_COLUMNS] + [
        format_record(
            RESULTS_ROW, r.strategy, r.lam, r.lead_time, r.central, r.n_episodes,
            r.return_rate, r.mean_deviation, r.mean_position_error,
            r.mean_orientation_error_deg, r.n_fallback,
        )
        for r in rows
    ])
