"""The per-episode returner that ``control``'s lane engine replaced: the one
reference the tests hold the episode engine to.

``approach`` steps one episode on floats with ``step`` (a straight move, a
slerp, then the workspace clamp) and tests contact with
``point_segment_distance``; ``outcome`` grades it, landing the return with
``DragFlight``; ``row`` runs one strategy row episode by episode on the grid
of ``step_balls``. The pre-hit target comes from the scalar selection:
``select_target_time`` (the earliest region inside the workspace) and
``select_preposition``. Regions are ``anticipate.Region`` lists, one per
exchange. Tests hold the engine to these bit for bit: ``test_control``'s lane tests run each row of a lane set through
``row`` too, over mixed lead times (the default 0.2 among them), step sizes,
narrow workspaces, rest poses, slow turns and a racket that never reflects,
and count the steps ``step`` clamps and the non-reflecting racket's calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from ttrally.anticipate import Region
from ttrally.ball import GRAVITY, _expm1
from ttrally.control import (IDENTITY, LANDING_T_MAX, RACKET_RADIUS, RETURN_DRAG_K, Box,
                             EpisodeResult, ExperimentRow, Quat, RacketPose, SimParams,
                             _aggregate, _compose, _magnitude, _partial_turn, _relative,
                             aim_point, racket_reflect, solve_target_pose)
from ttrally.core import Vec3
from ttrally.errors import NoContact
from ttrally.synth import TABLE, Exchanges, balls_at

Position = tuple[float, float, float]
_xyz = attrgetter("x", "y", "z")  # a Vec3 as a Position


@dataclass
class DragFlight:
    """Free flight with gravity and linear drag from an initial state."""

    p0: Vec3
    v0: Vec3

    def position(self, t: float) -> Vec3:
        k = RETURN_DRAG_K
        vt = -GRAVITY / k  # terminal velocity, along z
        decay = -_expm1(-k * t) / k
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


def angle(a: RacketPose, b: RacketPose) -> float:
    """Relative orientation angle of two poses in radians."""
    return _magnitude(_relative(a.orientation, b.orientation))


class NoFeasibleTime(Exception):
    """No horizon whose region lies inside the workspace: the episode falls back."""


def contains_box(box: Box, lo: Vec3, hi: Vec3) -> bool:
    return box.contains(lo) and box.contains(hi)


def clamp(box: Box, p: Vec3) -> Vec3:
    lo, hi = box.lo, box.hi
    return Vec3(min(max(p.x, lo.x), hi.x), min(max(p.y, lo.y), hi.y),
                min(max(p.z, lo.z), hi.z))


def select_target_time(regions: Sequence[Region], workspace: Box) -> Region:
    """The earliest-horizon region that lies inside the workspace."""
    for region in sorted(regions, key=lambda r: r.horizon):
        if contains_box(workspace, region.lo, region.hi):
            return region
    raise NoFeasibleTime("no prediction region inside the workspace")


def select_preposition(region: Region, central: Vec3, lam: float, workspace: Box) -> Vec3:
    """The blend of the central pose and the region centroid, clamped into the
    region box and then into the workspace."""
    blend = central * lam + (region.lo + region.hi) * 0.5 * (1.0 - lam)
    return clamp(workspace, clamp(Box(lo=region.lo, hi=region.hi), blend))


def step(p: Position, q: Quat, target_p: Position, target_q: Quat, step: float,
         max_turn: float, lo: Position, hi: Position) -> tuple[Position, Quat]:
    """A straight move of at most ``step`` toward target_p and a slerp of at
    most ``max_turn`` toward target_q, then the position clamped into [lo, hi]."""
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


def point_segment_distance(p: Position, a: Sequence[float], b: Sequence[float]) -> float:
    px, py, pz = p
    ax, ay, az = a
    ex, ey, ez = b[0] - ax, b[1] - ay, b[2] - az
    denom = ex * ex + ey * ey + ez * ez
    dot = (px - ax) * ex + (py - ay) * ey + (pz - az) * ez
    u = min(max(dot / denom, 0.0), 1.0) if denom >= 1e-18 else 0.0
    dx, dy, dz = px - (ax + u * ex), py - (ay + u * ey), pz - (az + u * ez)
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def step_balls(exchanges: Exchanges, params: SimParams) -> tuple[list[float], list[list]]:
    """The step times (i - s) * dt from i = 0, s being floor(lead_time / dt
    + 1e-9) (the first is the first step time at or after -lead_time, and
    step s is the hit at t = 0), until one reaches the last exchange's
    crossing_time + 0.15; and each exchange's ball at them up to the first
    time that reaches its own crossing_time + 0.15."""
    stops = (exchanges.crossing_time + 0.15).tolist()
    s, times = math.floor(params.lead_time / params.dt + 1e-9), []
    while not times or times[-1] < max(stops):
        times.append((len(times) - s) * params.dt)
    ends = (np.searchsorted(times, stops) + 1).tolist()
    balls = balls_at(exchanges, times).tolist()
    return times, [rows[:end] for rows, end in zip(balls, ends)]


def approach(ideal: RacketPose, crossing_time: float, strategy: str, params: SimParams,
             regions: Optional[Sequence[Region]], times: list[float],
             balls: list[list[float]]) -> tuple:
    """Step one episode toward ``ideal`` after the hit until its ball passes
    within RACKET_RADIUS of the racket or ``balls`` run out. Returns the
    fallback flag, the last pose and the pose at ``crossing_time`` as
    (position, quaternion) tuples, and the contact's step (0 for none)."""
    fallback, idle = False, (_xyz(params.central), IDENTITY)
    if strategy == "oracle":
        idle = _xyz(ideal.position), ideal.orientation
    elif strategy == "anticipatory":
        try:
            region = select_target_time(regions, params.workspace)
        except NoFeasibleTime:
            fallback = True
        else:
            idle = _xyz(select_preposition(region, params.central, params.lam,
                                           params.workspace)), IDENTITY

    track = _xyz(ideal.position), ideal.orientation
    lo, hi, dt = _xyz(params.workspace.lo), _xyz(params.workspace.hi), params.dt
    size, max_turn = params.v_max * dt, params.omega_max * dt
    p, q = crossing = _xyz(params.central), IDENTITY
    for i in range(1, len(balls)):
        t = times[i]
        target_p, target_q = track if times[i - 1] >= 0 else idle
        p, q = step(p, q, target_p, target_q, size, max_turn, lo, hi)
        if t - dt <= crossing_time <= t:
            crossing = p, q
        if t > 0 and point_segment_distance(p, balls[i - 1], balls[i]) <= RACKET_RADIUS:
            return fallback, (p, q), crossing, i
    return fallback, (p, q), crossing, 0


def outcome(exchange_id: int, strategy: str, params: SimParams, ideal: RacketPose, run: tuple,
            ball: Sequence[float], v_in: Optional[Sequence[float]]) -> EpisodeResult:
    """Grade one ``approach`` run; ``ball`` and ``v_in`` are the ball's
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
            land = DragFlight(Vec3(*ball), v_after).landing(TABLE.height_z)
            if land is not None:
                _, p_land = land
                aim = aim_point(TABLE)
                deviation = float(math.hypot(p_land.x - aim.x, p_land.y - aim.y))
                returned = (v_after.x > 0 and 0.0 <= p_land.x <= TABLE.half_length
                            and abs(p_land.y) <= TABLE.half_width)
    ref = pose if contacted else RacketPose(Vec3(*crossing[0]), crossing[1])
    return EpisodeResult(exchange_id, strategy, contacted, returned, deviation,
                         (ref.position - ideal.position).norm(), angle(ref, ideal), fallback)


def row(exchanges: Exchanges, strategy: str, params: SimParams,
        regions: Optional[Sequence[Sequence[Region]]] = None
        ) -> tuple[ExperimentRow, list[EpisodeResult]]:
    """One strategy row, episode by episode, on its own grid and ideal poses."""
    times, balls = step_balls(exchanges, params)
    ideals = [solve_target_pose(Vec3(*p), Vec3(*v), TABLE) for p, v in
              zip(exchanges.crossing_pos.tolist(), exchanges.crossing_vel.tolist())]
    regions = regions or [None] * len(exchanges)
    runs = [approach(ideal, t, strategy, params, r, times, b)
            for ideal, t, r, b in zip(ideals, exchanges.crossing_time.tolist(), regions, balls,
                                      strict=True)]
    v_in = exchanges.outgoing.velocities([[times[run[-1]]] for run in runs])[:, 0].tolist()
    results = [outcome(i, strategy, params, ideal, run, b[run[-1]], v if run[-1] else None)
               for i, ideal, run, b, v in zip(exchanges.ids.tolist(), ideals, runs, balls, v_in)]
    return _aggregate(results, strategy, params), results


def as_regions(lo: np.ndarray, hi: np.ndarray, horizons: Sequence[float]) -> list[list[Region]]:
    """Each exchange's Regions from corner arrays (n, len(horizons), 3)."""
    return [[Region(h, Vec3(*l), Vec3(*u))
             for h, l, u in zip(horizons, lows, highs)]
            for lows, highs in zip(lo.tolist(), hi.tolist())]
