"""The scalar flight code that ``ball.Chains`` replaced, kept as a test oracle.

``Trajectory`` evaluates one chain of ``StokesSegment`` pieces at one time
with the scalar closed form and the analytic velocity below, and
``construct_return_shot`` solves one return shot on Python floats, each
through the float form of ``ball``'s fixed-order expm1, exp and log. Tests
hold the array code to these bit for bit. One departure from the replaced
code: ``position`` at ``t_end`` itself returns the end anchor, where the
replaced code evaluated the last piece at the rounded local time
``t_end - start``, which could fall one ulp short of T.
"""

import math
from dataclasses import dataclass

import numpy as np

from ttrally.ball import GRAVITY, Chains, StokesSegment, _exp, _expm1, _log
from ttrally.core import TableGeometry, Vec3
from ttrally.errors import OutOfRange
from ttrally.synth import BOUNCE_CLEARANCE, SHOT_OVERRUN


def stokes_position(seg: StokesSegment, t: float) -> Vec3:
    """The anchored drag law at one time t in [0, T], on Python floats."""
    if t < -1e-12 or t > seg.T + 1e-12:
        raise OutOfRange(f"t={t} outside [0, {seg.T}]")
    k, T = seg.k, seg.T
    frac = -_expm1(-k * t) / -_expm1(-k * T)
    x = seg.b0.x + (seg.bT.x - seg.b0.x) * frac
    y = seg.b0.y + (seg.bT.y - seg.b0.y) * frac
    z = seg.b0.z + (seg.bT.z - seg.b0.z) * frac + (GRAVITY / k) * (T * frac - t)
    return Vec3(x, y, z)


def stokes_velocity(seg: StokesSegment, t: float) -> Vec3:
    """Analytic time derivative of the drag trajectory."""
    k, T = seg.k, seg.T
    dfrac = k * _exp(-k * t) / -_expm1(-k * T)
    gk = GRAVITY / k
    return Vec3(
        (seg.bT.x - seg.b0.x) * dfrac,
        (seg.bT.y - seg.b0.y) * dfrac,
        (seg.bT.z - seg.b0.z + gk * T) * dfrac - gk,
    )


@dataclass
class Trajectory:
    """Chained drag pieces with linear extrapolation outside the support."""

    starts: list[float]  # absolute start time of each piece
    pieces: list[StokesSegment]

    @property
    def t_end(self) -> float:
        return self.starts[-1] + self.pieces[-1].T

    def _locate(self, t: float) -> tuple[int, float]:
        for i in range(len(self.pieces) - 1, -1, -1):
            if t >= self.starts[i] - 1e-12:
                return i, t - self.starts[i]
        return 0, t - self.starts[0]

    def position(self, t: float) -> Vec3:
        if t < self.starts[0]:
            v = stokes_velocity(self.pieces[0], 0.0)
            dt = t - self.starts[0]
            return self.pieces[0].b0 + v * dt
        if t >= self.t_end:  # t_end itself lands on bT exactly
            last = self.pieces[-1]
            v = stokes_velocity(last, last.T)
            return last.bT + v * (t - self.t_end)
        i, local = self._locate(t)
        local = min(max(local, 0.0), self.pieces[i].T)
        return stokes_position(self.pieces[i], local)

    def velocity(self, t: float) -> Vec3:
        if t < self.starts[0]:
            return stokes_velocity(self.pieces[0], 0.0)
        if t > self.t_end:
            last = self.pieces[-1]
            return stokes_velocity(last, last.T)
        i, local = self._locate(t)
        local = min(max(local, 0.0), self.pieces[i].T)
        return stokes_velocity(self.pieces[i], local)


def chain_segments(
    anchors: list[Vec3], durations: list[float], ks: list[float], t0: float = 0.0
) -> Trajectory:
    starts, pieces = [], []
    t = t0
    for a, b, dur, k in zip(anchors, anchors[1:], durations, ks):
        starts.append(t)
        pieces.append(StokesSegment(b0=a, bT=b, T=dur, k=k))
        t += dur
    return Trajectory(starts=starts, pieces=pieces)


def chains_of(traj: Trajectory) -> Chains:
    """One trajectory as a one-row batch."""
    pieces = traj.pieces
    return Chains(
        starts=np.array([traj.starts], dtype=float),
        b0=np.array([[s.b0.as_array() for s in pieces]]),
        bT=np.array([[s.bT.as_array() for s in pieces]]),
        T=np.array([[s.T for s in pieces]]),
        k=np.array([[s.k for s in pieces]]),
    )


def trajectory_of(chains: Chains, row: int = 0) -> Trajectory:
    """One row of a batch as a scalar trajectory."""
    pieces = [
        StokesSegment(b0=Vec3(*b0), bT=Vec3(*bT), T=T, k=k)
        for b0, bT, T, k in zip(chains.b0[row].tolist(), chains.bT[row].tolist(),
                                chains.T[row].tolist(), chains.k[row].tolist())
    ]
    return Trajectory(starts=chains.starts[row].tolist(), pieces=pieces)


def construct_return_shot(
    table: TableGeometry,
    hit_pos: Vec3,
    x_bounce: float,
    y_cross: float,
    z_cross: float,
    speed: float,
    k1: float,
    k2: float,
) -> tuple[Trajectory, float]:
    """One return shot: hit -> bounce -> a virtual end anchor SHOT_OVERRUN m
    past the ego plane, passing through (-length/2, y_cross, z_cross).
    Returns (trajectory, crossing time)."""
    hl, h = table.half_length, table.height_z
    hx, hy, hz = hit_pos.x, hit_pos.y, hit_pos.z
    x_plane = -hl
    x_end = -hl - SHOT_OVERRUN
    if not (x_plane + BOUNCE_CLEARANCE <= x_bounce < hx):
        raise ValueError(f"x_bounce={x_bounce} outside the span")
    u_plane = (hx - x_plane) / (hx - x_end)
    y_end = hy + (y_cross - hy) / u_plane
    u_b = (hx - x_bounce) / (hx - x_end)
    y_b = hy + u_b * (y_end - hy)
    dx, dy, dz = x_bounce - hx, y_b - hy, h - hz
    l1 = math.sqrt(dx * dx + dy * dy + dz * dz)
    dx, dy, dz = x_end - x_bounce, y_end - y_b, z_cross - h
    l2 = math.sqrt(dx * dx + dy * dy + dz * dz)
    total_t = (l1 + l2) / speed
    t1 = total_t * l1 / (l1 + l2)
    t2 = total_t - t1
    denom = -_expm1(-k2 * t2)
    frac_needed = (x_plane - x_bounce) / (x_end - x_bounce)
    tc_local = -_log(1.0 - frac_needed * denom) / k2
    frac_c = -_expm1(-k2 * tc_local) / denom
    gk = GRAVITY / k2
    z_end = h - gk * t2 + (z_cross - h + gk * tc_local) / frac_c
    traj = chain_segments(
        [hit_pos, Vec3(x_bounce, y_b, h), Vec3(x_end, y_end, z_end)], [t1, t2], [k1, k2]
    )
    return traj, t1 + tc_local
