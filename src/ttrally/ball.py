"""Hit/bounce event detection and 3D ball trajectory reconstruction.

The ball between anchors (racket contact, table bounce) follows projectile
motion with linear air drag; with both endpoints pinned the trajectory is a
one-parameter family in the drag coefficient k, which is recovered by
minimizing reprojection error with a bounded golden-section search, run for
every piece of a point at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .camera import Camera, Plane, plane_points
from .core import TableGeometry, Vec3
from .errors import (
    BehindCamera,
    FitFailed,
    NoBounceFound,
    OutOfRange,
    SegmentRejected,
)

GRAVITY = 9.81  # m/s^2, magnitude

HIT_MAX_DIST_PX = 30.0  # largest raw ball-racket pixel distance at a hit
HIT_MIN_GAP = 15  # frames between two accepted hits
SMOOTH_WINDOW = 5  # samples averaged before hit and bounce minima are searched
BOUNCE_MARGIN = 2  # frames a bounce candidate keeps from either hit
NEAR_TIE_RTOL = 1e-6  # bounce screen's near-tie bound, times 1 + its least total
SCREEN_CHUNK = 1 << 14  # samples the screen gathers per pass: bounds its memory
K_BOUNDS = (1e-3, 5.0)  # drag coefficient search interval, 1/s
K_TOL = 1e-6  # golden-section tolerance on k


@dataclass
class BallTrack2D:
    """Sparse per-frame 2D ball samples; frame indices strictly increasing."""

    frames: np.ndarray  # (n,) int
    pixels: np.ndarray  # (n, 2) float

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=int)
        self.pixels = np.asarray(self.pixels, dtype=float)
        if np.any(np.diff(self.frames) <= 0):
            raise ValueError("frame indices must be strictly increasing")

    def window(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Samples with lo <= frame <= hi."""
        i, j = self.frames.searchsorted(lo, "left"), self.frames.searchsorted(hi, "right")
        return self.frames[i:j], self.pixels[i:j]


@dataclass
class HitEvent:
    frame: int
    player: int
    hand_world: Optional[Vec3] = None


@dataclass
class BounceEvent:
    frame: int
    position: Vec3


@dataclass(frozen=True)
class StokesSegment:
    """Drag-trajectory piece between two anchors, parametrized on [0, T]."""

    b0: Vec3
    bT: Vec3
    T: float
    k: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.k <= 0:
            raise ValueError("k must be positive")


def _libm(f, a) -> np.ndarray:
    """``f`` from the math module, elementwise over an array.

    numpy's SIMD expm1/exp/log may differ from libm in the last bit; libm
    keeps every evaluation of the drag law on the same bytes.
    """
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


# numpy arithmetic that would make a NaN or inf raises instead, as float
# arithmetic raises on a division by zero.
RAISE_ON_NONFINITE = dict(divide="raise", over="raise", invalid="raise")


def _anchored(b0, bT, T, k, local, span) -> np.ndarray:
    """The drag law pinned at both anchors: (..., 3) positions at ``local``.

    ``b0``, ``bT`` are (..., 3) and ``T``, ``k``, ``local`` and ``span``
    (``-expm1(-k T)``, the frac denominator) broadcast to (...). Grouping the
    gravity term as T*frac - t keeps both endpoints exact even when g/k is
    huge (small-k regime).
    """
    frac = -_libm(math.expm1, -k * local) / span
    out = b0 + (bT - b0) * frac[..., None]
    out[..., 2] += (GRAVITY / k) * (T * frac - local)
    return out


def stokes_positions(seg: StokesSegment, ts) -> np.ndarray:
    """The piece at the times ``ts`` in [0, T]; (n, 3) for ts (n,)."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < -1e-12) or np.any(ts > seg.T + 1e-12):
        raise OutOfRange(f"sample times outside [0, {seg.T}]")
    k, T = seg.k, seg.T
    with np.errstate(**RAISE_ON_NONFINITE):
        return _anchored(seg.b0.as_array(), seg.bT.as_array(), T, k, ts, -math.expm1(-k * T))


def stokes_position(seg: StokesSegment, t: float) -> Vec3:
    """One-time form of stokes_positions."""
    return Vec3(*stokes_positions(seg, [t])[0].tolist())


_CHAIN_FIELDS = ("starts", "b0", "bT", "T", "k")


@dataclass
class Chains:
    """n trajectories of P chained drag pieces each, as arrays.

    A time belongs to the last piece that starts at most 1e-12 s after it
    and is clamped to that piece; before the first piece and from the end
    of the last one on, a chain extends linearly with its end velocity.
    Each piece follows the one anchored closed form, as ``stokes_positions`` does.
    """

    starts: np.ndarray  # (n, P) absolute start time of each piece
    b0: np.ndarray  # (n, P, 3) start anchors
    bT: np.ndarray  # (n, P, 3) end anchors
    T: np.ndarray  # (n, P) durations
    k: np.ndarray  # (n, P) drag coefficients, 1/s

    def __post_init__(self):
        # StokesSegment's checks, which a NaN passes as it does there.
        if (self.T <= 0).any():
            raise ValueError("T must be positive")
        if (self.k <= 0).any():
            raise ValueError("k must be positive")

    @staticmethod
    def through(t0, anchors: np.ndarray, durations: np.ndarray, k: np.ndarray) -> "Chains":
        """n chains through ``anchors`` (n, P + 1, 3) from times ``t0`` (n,);
        piece p lasts ``durations[:, p]`` with drag ``k[:, p]``."""
        starts = np.concatenate([t0[:, None], durations[:, :-1]], axis=1).cumsum(axis=1)
        return Chains(starts, anchors[:, :-1], anchors[:, 1:], durations, k)

    @staticmethod
    def concat(parts: Sequence["Chains"]) -> "Chains":
        """The rows of ``parts``, in order, as one batch."""
        return Chains(*(np.concatenate([getattr(c, f) for c in parts]) for f in _CHAIN_FIELDS))

    def __getitem__(self, rows) -> "Chains":
        """The chains at ``rows``; a slice keeps views of these arrays. Rows
        of a checked batch skip ``__post_init__``'s second check."""
        out = object.__new__(Chains)
        for f in _CHAIN_FIELDS:  # set in __init__'s order: instances share one key table
            setattr(out, f, getattr(self, f)[rows])
        return out

    def _span(self) -> np.ndarray:
        return -_libm(math.expm1, -self.k * self.T)  # each piece's frac denominator

    def _locate(self, t: np.ndarray) -> tuple[tuple, np.ndarray, np.ndarray]:
        """The index (rows, piece) of each time's piece, that piece's
        duration, and the time local to it clamped to [0, T]; (n, m) each."""
        n, n_pieces = self.T.shape
        piece = np.zeros((n, t.shape[-1]), dtype=int)
        for p in range(1, n_pieces):
            piece[t >= (self.starts[:, p] - 1e-12)[:, None]] = p
        at = (np.arange(n)[:, None], piece)
        T = self.T[at]
        local = t - self.starts[at]
        local = np.where(0.0 > local, 0.0, local)  # max(local, 0.0)
        local = np.where(T < local, T, local)  # min(local, T)
        return at, T, local

    def _velocity(self, at, T: np.ndarray, local: np.ndarray, span: np.ndarray) -> np.ndarray:
        """Velocity of the pieces ``at`` indexes, of durations ``T``, at
        ``local``, the closed form's derivative: (n, m, 3) for local (n, m)."""
        k = self.k[at]
        dfrac = k * _libm(math.exp, -k * local) / span[at]
        gk = GRAVITY / k
        d = self.bT[at] - self.b0[at]
        v = d * dfrac[..., None]
        v[..., 2] = (d[..., 2] + gk * T) * dfrac - gk
        return v

    def positions(self, t) -> np.ndarray:
        """(n, m, 3) positions at times ``t``: (m,) for every chain, or (n, m)."""
        t = np.asarray(t, dtype=float)
        with np.errstate(**RAISE_ON_NONFINITE):
            span = self._span()
            at, T, local = self._locate(t)
            out = _anchored(self.b0[at], self.bT[at], T, self.k[at], local, span[at])

            # Linear tails before the first piece and from the chain's end on;
            # the end time itself lands on the end anchor exactly, though its
            # local time t_end - start may round below T.
            t_end = self.starts[:, -1:] + self.T[:, -1:]
            after = t >= t_end
            if after.any():
                last = (slice(None), slice(-1, None))
                v = self._velocity(last, self.T[last], self.T[last], span)
                tail = self.bT[:, -1:] + v * (t - t_end)[..., None]
                out[after] = tail[after]
            before = t < self.starts[:, :1]  # written last: it wins where both hold
            if before.any():
                first = (slice(None), slice(0, 1))
                v = self._velocity(first, self.T[first], np.zeros((len(t_end), 1)), span)
                tail = self.b0[:, :1] + v * (t - self.starts[:, :1])[..., None]
                out[before] = tail[before]
        return out

    def velocities(self, t) -> np.ndarray:
        """(n, m, 3) velocities at times ``t``, shaped as for ``positions``;
        the tails move at the velocity of the piece end they extend."""
        t = np.asarray(t, dtype=float)
        with np.errstate(**RAISE_ON_NONFINITE):
            return self._velocity(*self._locate(t), self._span())


def smooth(values: np.ndarray, window: int = SMOOTH_WINDOW) -> np.ndarray:
    """Centered moving average with edge shrinking.

    Each window is summed left to right, one shifted slice at a time, and
    divided by its count. For windows of up to 7 samples that is the
    rounding of ``np.mean``, which sums fewer than 8 values in order.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if window <= 1 or n < 2:
        return values
    half = min(window // 2, n - 1)  # a wider window holds the whole series
    total, count = np.zeros(n), np.zeros(n)
    for d in range(-half, half + 1):
        lo, hi = max(0, -d), min(n, n - d)  # the i with 0 <= i + d < n
        total[lo:hi] += values[lo + d:hi + d]
        count[lo:hi] += 1
    return total / count


def _local_minima(values: np.ndarray) -> np.ndarray:
    """Indices of strict-left / non-strict-right local minima."""
    v = np.asarray(values)
    return np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:])) + 1


def detect_hits(
    ball: BallTrack2D,
    racket_centroids: Sequence[dict[int, tuple[float, float]]],
) -> list[HitEvent]:
    """Hits are local minima of the smoothed ball-racket pixel distance.

    ``racket_centroids`` holds one frame->pixel mapping per player. Minima
    above HIT_MAX_DIST_PX pixels are ignored; of any two accepted minima
    closer than HIT_MIN_GAP frames, only the deeper one is kept.
    """
    candidates: list[tuple[float, int, int]] = []  # (distance, frame, player)
    for player, centroids in enumerate(racket_centroids):
        frames = [f for f in ball.frames if int(f) in centroids]
        if len(frames) < 3:
            continue
        pix = {int(f): p for f, p in zip(ball.frames, ball.pixels)}
        dist = np.array(
            [
                math.hypot(
                    pix[f][0] - centroids[f][0], pix[f][1] - centroids[f][1]
                )
                for f in frames
            ]
        )
        smoothed = smooth(dist)
        minima = list(_local_minima(smoothed))
        # The recording may start or end at a hit; admit boundary minima too.
        if len(smoothed) >= 2 and smoothed[0] <= smoothed[1]:
            minima.append(0)
        if len(smoothed) >= 2 and smoothed[-1] <= smoothed[-2]:
            minima.append(len(smoothed) - 1)
        for i in minima:
            # Smoothing can shift the valley; snap to the raw minimum nearby
            # and apply the contact threshold to the raw distance.
            lo, hi = max(0, i - 2), min(len(dist), i + 3)
            j = lo + int(np.argmin(dist[lo:hi]))
            if dist[j] <= HIT_MAX_DIST_PX:
                candidates.append((dist[j], frames[j], player))

    # Greedy non-maximum suppression, deepest minima first.
    accepted: list[tuple[int, int, float]] = []
    for depth, frame, player in sorted(candidates):
        if all(abs(frame - f) >= HIT_MIN_GAP for f, _, _ in accepted):
            accepted.append((frame, player, depth))
    accepted.sort()
    return [HitEvent(frame=f, player=p) for f, p, _ in accepted]


def fit_parabola(ts: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares quadratic through the samples (ts, vs); returns (coeffs, mse).

    Coefficients are highest degree first. Raises FitFailed for fewer than
    three distinct abscissae.
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if len(np.unique(ts)) < 3:
        raise FitFailed("need at least 3 distinct sample times")
    # Center for conditioning; expand back afterwards.
    t0 = ts.mean()
    a = np.vander(ts - t0, 3)
    coeffs_c, _, rank, _ = np.linalg.lstsq(a, vs, rcond=None)
    if rank < 3:
        raise FitFailed("rank-deficient parabola fit")
    c2, c1, c0 = coeffs_c
    coeffs = np.array(
        [c2, c1 - 2 * c2 * t0, c0 - c1 * t0 + c2 * t0 * t0]
    )
    resid = vs - a @ coeffs_c
    return coeffs, float(np.mean(resid**2))


def _screen(ball: BallTrack2D, knots: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Split-parabola totals of the knot tuples ``knots[rows]``, (m, n + 2)
    indices into the increasing frames ``knots``; inf where a window holds
    fewer than 3 samples or the total is NaN (a non-finite pixel).

    Each distinct window (lo, hi) is scored once (``_window_sse``), in
    passes of about SCREEN_CHUNK gathered samples.
    """
    width = len(knots)
    spans, inverse = np.unique(rows[:, :-1] * width + rows[:, 1:], return_inverse=True)
    lo, hi = knots[spans // width], knots[spans % width]
    start = ball.frames.searchsorted(lo, "left")
    size = ball.frames.searchsorted(hi, "right") - start
    sse = np.full(len(spans), np.inf)
    usable = np.flatnonzero(size >= 3)
    if len(usable):
        passes = np.flatnonzero(np.diff(np.cumsum(size[usable]) // SCREEN_CHUNK)) + 1
        for w in np.split(usable, passes):
            sse[w] = _window_sse(ball, lo[w], hi[w], start[w], size[w])
    totals = sse[inverse.reshape(len(rows), -1)].sum(axis=1)
    return np.where(np.isnan(totals), np.inf, totals)


def _window_sse(ball: BallTrack2D, lo, hi, start, size) -> np.ndarray:
    """Parabola SSEs of the windows [lo, hi], each ``size`` >= 3 samples of
    ``ball`` from index ``start``. Times are centered on and scaled by each
    window's half-span, all 3x3 normal equations are solved in one batched
    call, and each SSE is summed from the direct residuals."""
    begin = np.cumsum(size) - size
    take = np.arange(size.sum()) + np.repeat(start - begin, size)
    t = (ball.frames[take] - np.repeat((lo + hi) / 2.0, size)) / np.repeat((hi - lo) / 2.0, size)
    v = ball.pixels[take, 1]
    t2 = t * t
    moments = np.add.reduceat(
        np.column_stack([np.ones_like(t), t, t2, t2 * t, t2 * t2, v, t * v, t2 * v]),
        begin,
        axis=0,
    )
    s0, s1, s2, s3, s4, b0, b1, b2 = moments.T
    normal = np.stack([s4, s3, s2, s3, s2, s1, s2, s1, s0], axis=-1).reshape(-1, 3, 3)
    coef = np.linalg.solve(normal, np.stack([b2, b1, b0], axis=-1)[..., None])
    c2, c1, c0 = np.repeat(coef[..., 0], size, axis=0).T
    resid = v - ((c2 * t + c1) * t + c0)
    return np.add.reduceat(resid * resid, begin)


def _exact_total(ball: BallTrack2D, knots: Sequence[int]) -> Optional[float]:
    """The left-to-right sum of the knot windows' fit_parabola SSEs; None
    when fit_parabola turns a window down."""
    total = 0.0
    for lo, hi in zip(knots, knots[1:]):
        frames, pixels = ball.window(lo, hi)
        try:
            _, mse = fit_parabola(frames.astype(float), pixels[:, 1])
        except FitFailed:
            return None
        total += mse * len(frames)
    return total


def select_bounces(
    ball: BallTrack2D, h1: int, h2: int, candidates: Sequence[int], n: int
) -> tuple[tuple[int, ...], float]:
    """Pick the n ordered bounce frames minimizing the split-parabola total.

    The knots (h1, *bounces, h2) split the track into n + 1 windows, and the
    total is the left-to-right sum of each window's fit_parabola squared
    error; a bounce frame belongs to both windows it joins, and a window with
    fewer than 3 samples makes its tuple unusable. Ties break toward the
    earliest tuple in ``itertools.combinations`` order of the sorted distinct
    candidates inside (h1, h2).

    The search runs in two steps. The screen (``_screen``) scores every
    tuple in array passes. The confirm step re-scores with fit_parabola
    only the tuples whose screened total lies within NEAR_TIE_RTOL * (1 +
    least screened total) of the least one, and returns the first of them
    with the least exact total.

    Why the bound holds: both scores are the same least-squares SSE rounded
    two ways. The screen fits on centered times scaled to [-1, 1], where the
    normal equations are well conditioned, and sums its own squared
    residuals (the shortcut sum(v**2) - b.c would cancel), so it differs
    from the exact total by rounding alone: at most 5e-14 * (1 + total) over
    the 1,400 searches of 400 generated points at 30-120 fps and 0-3 px of
    noise. While each tuple's two scores differ by less than half the bound,
    the exact minimizer lies inside the near-tie set, so the result, total
    included, is the exhaustive search's to the bit. A tuple whose window
    fit_parabola turns down is dropped and the near-tie set is drawn again.
    """
    inside = sorted(set(c for c in candidates if h1 < c < h2))
    knots = np.array([h1, *inside, h2])
    last = len(knots) - 1
    picks = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(1, last), n)), int)
    rows = np.zeros((len(picks) // n, n + 2), dtype=int)  # knot indices of each tuple
    rows[:, 1:-1] = picks.reshape(-1, n)
    rows[:, -1] = last
    screened = _screen(ball, knots, rows) if len(rows) else np.empty(0)
    while np.isfinite(screened).any():
        least = screened.min()
        best: Optional[tuple[float, tuple[int, ...]]] = None
        for i in np.flatnonzero(screened <= least + NEAR_TIE_RTOL * (1.0 + least)):
            tuple_knots = knots[rows[i]].tolist()
            total = _exact_total(ball, tuple_knots)
            if total is None:  # a window fit_parabola turns down
                screened[i] = np.inf
            elif best is None or total < best[0]:
                best = (total, tuple(tuple_knots[1:-1]))
        if best is not None:
            return best[1], best[0]
    raise NoBounceFound(f"no usable {n}-bounce split of ({h1}, {h2})")


def select_bounce(
    ball: BallTrack2D, h1: int, h2: int, candidates: Sequence[int]
) -> tuple[int, float]:
    """One-bounce form of select_bounces: (frame, total)."""
    (frame,), total = select_bounces(ball, h1, h2, candidates, 1)
    return frame, total


def bounce_candidates(ball: BallTrack2D, h1: int, h2: int) -> list[int]:
    """Local minima of the image-vertical ball position in (h1, h2).

    Minima of both the smoothed and the raw signal are collected: smoothing
    suppresses noise spikes but can erase a shallow bounce entirely (a flat
    serve arc dips only a fraction of a pixel). Each minimum contributes
    itself and its two neighboring frames (smoothing can shift the apparent
    minimum by a frame; the split-fit selection picks the best of the
    cluster). BOUNCE_MARGIN keeps at least three samples on each side of a
    candidate.
    """
    frames, pixels = ball.window(h1, h2)
    if len(frames) < 2 * BOUNCE_MARGIN + 3:
        return []
    vs = smooth(pixels[:, 1])
    minima = set(_local_minima(vs)) | set(_local_minima(pixels[:, 1]))
    out: set[int] = set()
    for i in minima:
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(frames):
                f = int(frames[j])
                if h1 + BOUNCE_MARGIN <= f <= h2 - BOUNCE_MARGIN:
                    out.add(f)
    return sorted(out)


def golden_section(f, lo, hi, tol: float = K_TOL):
    """Minimize unimodal functions on the brackets [lo, hi], all in lockstep.

    ``lo`` and ``hi`` are equal-length arrays, or scalars for one bracket
    (the result is then a float), and ``f`` maps one abscissa per bracket to
    one value per bracket. Each bracket runs its own iteration count with the
    scalar update applied elementwise, so it ends where a search of it alone
    would. A bracket past its count stops moving; ``f`` is then handed a
    point it already saw there, and that value is not used.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a = np.array(lo, dtype=float, ndmin=1)
    b = np.array(hi, dtype=float, ndmin=1)
    h = b - a
    # Update steps after the first two evaluations; -1: narrower than tol.
    steps = np.array(
        [math.ceil(math.log(tol / w) / math.log(inv_phi)) - 1 if w > tol else -1 for w in h]
    )
    c = a + inv_phi2 * h
    d = a + inv_phi * h
    yc, yd = f(c), f(d)
    for step in range(steps.max()):
        move = steps > step
        left = move & (yc < yd)
        right = move & ~(yc < yd)
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        c, d = np.where(right, d, c), np.where(left, c, d)
        yc, yd = np.where(right, yd, yc), np.where(left, yc, yd)
        h = np.where(move, h * inv_phi, h)
        c = np.where(left, a + inv_phi2 * h, c)
        d = np.where(right, a + inv_phi * h, d)
        y = f(np.where(left, c, d))
        yc = np.where(left, y, yc)
        yd = np.where(right, y, yd)
    x = np.where(yc < yd, (a + d) / 2.0, (c + b) / 2.0)
    x = np.where(steps < 0, (a + b) / 2.0, x)
    return x if np.ndim(lo) else float(x[0])


@dataclass
class DragFit:
    k: float
    reproj_error: float  # summed squared pixel error at the fitted k
    boundary_warning: bool = False


def _reprojection(pieces, camera: Camera):
    """Each piece's summed squared pixel error as a function of its k.

    With both anchors fixed, a sample at time t lies at
    b0 + frac·(bT − b0) + c·ẑ, with frac = expm1(−kt) / expm1(−kT) and
    c = (g/k)(T·frac − t). Its homogeneous projection is therefore
    A + frac·B + c·C for three columns fixed per sample. Each column holds
    the u and v numerators of the pixel residual, with the observed pixel
    folded in (u − u_obs = num_u / depth), and the depth. Samples of all
    pieces lie end to end; every step is elementwise and each piece is summed
    over its own samples, so a piece's error does not depend on the rest of
    the batch. Every piece needs at least one sample.
    """
    counts = [len(p[3]) for p in pieces]
    row = np.repeat(np.arange(len(pieces)), counts)
    starts = np.cumsum([0] + counts[:-1])
    T = np.array([p[2] for p in pieces], dtype=float)
    ts = np.concatenate([p[3] for p in pieces])
    px = np.concatenate([p[4] for p in pieces])
    b0 = np.array([p[0].as_array() for p in pieces])
    delta = np.array([p[1].as_array() for p in pieces]) - b0
    r, intr = camera.extrinsics.r, camera.intrinsics
    du, dv = intr.cx - px[:, 0], intr.cy - px[:, 1]

    def rotate(p):  # elementwise, so no BLAS kernel varies with the batch size
        return p[:, :1] * r[:, 0] + p[:, 1:2] * r[:, 1] + p[:, 2:] * r[:, 2]

    (au, av, az), (bu, bv, bz), (cu, cv, cz) = [
        (intr.fx * cam[:, 0] + du * cam[:, 2], -intr.fy * cam[:, 1] + dv * cam[:, 2], cam[:, 2])
        for cam in (
            (rotate(b0) + camera.extrinsics.t)[row],
            rotate(delta)[row],
            np.broadcast_to(r[:, 2], (len(ts), 3)),
        )
    ]
    t_row = T[row]

    def sse(k: np.ndarray) -> np.ndarray:
        frac = np.expm1(-k[row] * ts) / np.expm1(-k * T)[row]
        c = (GRAVITY / k)[row] * (t_row * frac - ts)
        depth = az + frac * bz + c * cz
        if np.any(depth <= 0):
            raise BehindCamera("point(s) with non-positive depth")
        eu = (au + frac * bu + c * cu) / depth
        ev = (av + frac * bv + c * cv) / depth
        return np.add.reduceat(eu * eu + ev * ev, starts)

    return sse


def fit_drags(pieces, camera: Camera) -> list[DragFit]:
    """Recover the drag coefficient of every piece in one batched search.

    Each piece is ``(b0, bT, T, sample_times, sample_pixels)``. Endpoints are
    fixed; the only free parameter is k, probed at 7 geometric steps of
    K_BOUNDS and then refined by golden section on the bracket around the
    best probe, every piece in lockstep. A flat objective (uninformative
    samples) falls back to the lower bound with a warning flag. A piece's
    fit is the same, bit for bit, in any batch.
    """
    lo, hi = K_BOUNDS
    pieces = [
        (b0, bT, T, np.asarray(ts, dtype=float), np.asarray(px, dtype=float))
        for b0, bT, T, ts, px in pieces
    ]
    for _, _, T, ts, _ in pieces:
        if T <= 0:
            raise ValueError("T must be positive")
        if np.any(ts < -1e-12) or np.any(ts > T + 1e-12):
            raise OutOfRange("sample times outside [0, T]")
    # A piece without samples has a flat (zero) objective.
    fits = [DragFit(k=lo, reproj_error=0.0, boundary_warning=True) for _ in pieces]
    live = [i for i, p in enumerate(pieces) if len(p[3])]
    if not live:
        return fits
    objective = _reprojection([pieces[i] for i in live], camera)
    probes = np.geomspace(lo, hi, 7)
    probe_vals = np.array([objective(np.full(len(live), k)) for k in probes])
    flat = probe_vals.max(axis=0) - probe_vals.min(axis=0) < 1e-12
    for i in np.flatnonzero(flat):
        fits[live[i]] = DragFit(k=lo, reproj_error=float(probe_vals[0, i]), boundary_warning=True)

    search = np.flatnonzero(~flat)
    if len(search) == 0:
        return fits
    if len(search) < len(live):
        objective = _reprojection([pieces[live[i]] for i in search], camera)
    # Narrow to the bracket around the best probe before golden section.
    best = probe_vals[:, search].argmin(axis=0)
    last = len(probes) - 1
    k_star = golden_section(
        objective, probes[np.maximum(best - 1, 0)], probes[np.minimum(best + 1, last)]
    )
    err = objective(k_star)
    warn = ((best == 0) & (np.abs(k_star - lo) < 10 * K_TOL)) | (
        (best == last) & (np.abs(k_star - hi) < 10 * K_TOL)
    )
    for i, k, e, w in zip(search, k_star, err, warn):
        fits[live[i]] = DragFit(k=float(k), reproj_error=float(e), boundary_warning=bool(w))
    return fits


def fit_drag(
    b0: Vec3,
    bT: Vec3,
    T: float,
    sample_times: np.ndarray,
    sample_pixels: np.ndarray,
    camera: Camera,
) -> DragFit:
    """One-piece form of fit_drags."""
    return fit_drags([(b0, bT, T, sample_times, sample_pixels)], camera)[0]


@dataclass
class ReconstructedPiece:
    """One fitted Stokes piece with its absolute frame support."""

    start_frame: int
    end_frame: int
    segment: StokesSegment
    drag: DragFit
    parabola_mse: float  # summed two-parabola bounce-selection error for the pair


@dataclass
class TrajectoryReconstruction:
    pieces: list[ReconstructedPiece] = field(default_factory=list)
    bounces: list[BounceEvent] = field(default_factory=list)

    def ball_by_frame(self, fps: float) -> dict[int, Vec3]:
        """The ball at every frame a piece spans, one stokes_positions call
        per piece; a frame two pieces share belongs to the earlier one."""
        balls: dict[int, Vec3] = {}
        for piece in reversed(self.pieces):
            frames = range(piece.start_frame, piece.end_frame + 1)
            local = np.minimum(np.arange(len(frames)) / fps, piece.segment.T)
            for frame, xyz in zip(frames, stokes_positions(piece.segment, local).tolist()):
                balls[frame] = Vec3(*xyz)
        return balls


def reconstruct_trajectory(
    ball: BallTrack2D,
    hits: Sequence[HitEvent],
    camera: Camera,
    table: TableGeometry,
    fps: float,
    mse_threshold: Optional[float] = None,
) -> TrajectoryReconstruction:
    """Anchor and fit drag pieces for every consecutive hit pair.

    Hit anchors use the hitter's racket-hand position (``hand_world`` must be
    filled in); bounce anchors come from inverse projection onto the table
    plane. The first hit pair is the serve (two bounces, three pieces).
    Raises SegmentRejected when the
    bounce-selection MSE exceeds ``mse_threshold``. Every hit pair's bounces
    are selected before any piece is fitted, and all pieces of the point are
    fitted in one fit_drags call.
    """
    if len(hits) < 2:
        raise NoBounceFound("need at least two hits")
    table_plane = Plane("z", table.height_z)
    pix = {int(f): p for f, p in zip(ball.frames, ball.pixels)}

    pairs = []  # per hit pair: (knot sets, anchors, pieces by (f0, f1), total)
    for pair_index, (hit1, hit2) in enumerate(zip(hits, hits[1:])):
        h1, h2 = hit1.frame, hit2.frame
        if hit1.hand_world is None or hit2.hand_world is None:
            raise ValueError("hit events need hand_world anchors")
        candidates = bounce_candidates(ball, h1, h2)
        bounce_frames, total = select_bounces(
            ball, h1, h2, candidates, 2 if pair_index == 0 else 1
        )
        if mse_threshold is not None and total > mse_threshold:
            raise SegmentRejected(
                f"bounce-fit MSE {total:.3g} above threshold {mse_threshold:.3g}"
            )

        # The pixel-parabola split is robust but only frame-accurate; refine
        # each bounce over its immediate neighbors by total drag reprojection.
        # Every frame tried is a ball sample and the selected frames are one
        # of the ordered combos, so a best placement always exists. Each
        # anchor and each (f0, f1) piece is computed once per hit pair.
        options = [
            [
                f
                for f in (b, b - 1, b + 1)
                if h1 + BOUNCE_MARGIN <= f <= h2 - BOUNCE_MARGIN and f in pix
            ]
            for b in bounce_frames
        ]
        knot_sets = [
            (h1, *combo, h2)
            for combo in itertools.product(*options)
            if all(a < b for a, b in zip(combo, combo[1:]))
        ]
        # One ray cast over every bounce option, in first-seen order, so the
        # first ray that misses the table raises.
        interior = list(dict.fromkeys(f for knots in knot_sets for f in knots[1:-1]))
        on_table = plane_points(camera, [pix[f] for f in interior], table_plane)
        anchors = {h1: hit1.hand_world, h2: hit2.hand_world}
        anchors.update((f, Vec3(*p)) for f, p in zip(interior, on_table.tolist()))
        pieces: dict[tuple[int, int], tuple] = {}
        for knots in knot_sets:
            for f0, f1 in zip(knots, knots[1:]):
                if (f0, f1) not in pieces:
                    frames, pixels = ball.window(f0, f1)
                    pieces[f0, f1] = (
                        anchors[f0], anchors[f1], (f1 - f0) / fps, (frames - f0) / fps, pixels,
                    )
        pairs.append((knot_sets, anchors, pieces, total))

    drags = iter(fit_drags([p for _, _, pieces, _ in pairs for p in pieces.values()], camera))
    recon = TrajectoryReconstruction()
    for knot_sets, anchors, pieces, total in pairs:
        fits = {span: next(drags) for span in pieces}
        knots = min(
            knot_sets,
            key=lambda ks: sum(fits[piece].reproj_error for piece in zip(ks, ks[1:])),
        )
        for f0, f1 in zip(knots, knots[1:]):
            drag = fits[f0, f1]
            seg = StokesSegment(b0=anchors[f0], bT=anchors[f1], T=(f1 - f0) / fps, k=drag.k)
            recon.pieces.append(ReconstructedPiece(f0, f1, seg, drag, parabola_mse=total))
        recon.bounces.extend(BounceEvent(frame=f, position=anchors[f]) for f in knots[1:-1])
    return recon
