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
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .camera import Camera, plane_points
from .core import TableGeometry, Vec3
from .errors import BehindCamera, NoBounceFound, OutOfRange, SegmentRejected

GRAVITY = 9.81  # m/s^2, magnitude

HIT_MAX_DIST_PX = 30.0  # largest raw ball-racket pixel distance at a hit
HIT_MIN_GAP = 15  # frames between two accepted hits
SMOOTH_WINDOW = 5  # samples averaged before hit and bounce minima are searched
BOUNCE_MARGIN = 2  # frames a bounce candidate keeps from either hit
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


# ---------------------------------------------------------------------------
# expm1, exp and log in one fixed order of IEEE operations
# ---------------------------------------------------------------------------
#
# fdlibm's algorithms (Sun Microsystems, 1993: s_expm1.c, e_exp.c and e_log.c,
# the base of glibc's), on the domain the drag law feeds them: x <= 0 for
# expm1 and exp, (0, 1] for log. Every step is one + - * / rounded to nearest,
# or an exact frexp/ldexp, with nothing fused, so the bytes are the same on
# every CPU and libm. Each function takes a float or an array. An array of up
# to _FLOAT_LANES elements runs element by element on Python floats, below a
# ufunc call's fixed cost; a longer one runs its primary-range lanes as ufuncs
# through the same primary body and each other lane as a float. IEEE rounding
# makes the two modes agree bit for bit.

_FLOAT_LANES = 32  # longest array evaluated element by element on floats


def _high_word(hi: int) -> float:
    """The double with high 32 bits ``hi`` and low bits zero. fdlibm branches
    on a positive x's high word: ``hx >= hi`` is ``x >= _high_word(hi)``."""
    return struct.unpack("<d", struct.pack("<Q", hi << 32))[0]


def _lanes(x: np.ndarray, scalar, primary, lo: float, hi: float) -> np.ndarray:
    """``scalar`` elementwise over ``x``, ``primary`` being its branch for
    lo < x < hi. Up to _FLOAT_LANES elements run on floats, through ``primary``
    when all are in range. A longer array runs ``primary`` as ufuncs on the
    lanes in range and ``scalar`` on each other lane, so no lane meets
    arithmetic outside its own branch."""
    if x.size <= _FLOAT_LANES:
        xs = x.ravel().tolist()
        f = primary if xs and lo < min(xs) and max(xs) < hi else scalar
        return np.fromiter(map(f, xs), float, len(xs)).reshape(x.shape)
    fast = (lo < x) & (x < hi)
    if fast.all():
        return primary(x)
    out = np.empty(x.shape)
    out[fast] = primary(x[fast])
    slow = ~fast
    out[slow] = [scalar(v) for v in x[slow].tolist()]
    return out


_LN2_HI = 6.93147180369123816490e-01  # 0x3fe62e42 fee00000
_LN2_LO = 1.90821492927058770002e-10  # 0x3dea39ef 35793c76
_INVLN2 = 1.44269504088896338700e+00  # 0x3ff71547 652b82fe
_HALF_LN2 = _high_word(0x3fd62e43)  # |x| from here on leaves the primary range, 0.5 ln 2

_Q1 = -3.33333333333331316428e-02  # 0xbfa11111 111110f4
_Q2 = 1.58730158725481460165e-03  # 0x3f5a01a0 19fe5585
_Q3 = -7.93650757867487942473e-05  # 0xbf14ce19 9eaadbb7
_Q4 = 4.00821782732936239552e-06  # 0x3ed0cfca 86e65239
_Q5 = -2.01099218183624371326e-07  # 0xbe8afdb7 6e09c32d
_EXPM1_FLOOR = _high_word(0x4043687a)  # from -56 ln 2 down, expm1 rounds to -1


def _expm1_kernel(r):
    """fdlibm's expm1 kernel on the primary range: (r*r/2, its correction e)."""
    hfx = 0.5 * r
    hxs = r * hfx
    r1 = 1.0 + hxs * (_Q1 + hxs * (_Q2 + hxs * (_Q3 + hxs * (_Q4 + hxs * _Q5))))
    t = 3.0 - r1 * hfx
    return hxs, hxs * ((r1 - t) / (6.0 - r * t))


def _expm1_primary(x):
    # _expm1_kernel inline: on floats, a call per element costs a quarter of
    # the arithmetic, and expm1 is most of the drag law's evaluations.
    hfx = 0.5 * x
    hxs = x * hfx
    r1 = 1.0 + hxs * (_Q1 + hxs * (_Q2 + hxs * (_Q3 + hxs * (_Q4 + hxs * _Q5))))
    t = 3.0 - r1 * hfx
    e = hxs * ((r1 - t) / (6.0 - x * t))
    return x - (x * e - hxs)  # x itself below 2**-54, as fdlibm's shortcut


def _expm1(x):
    """expm1(x) for x <= 0, a float or an array; within 1 ulp."""
    if isinstance(x, np.ndarray):
        return _lanes(x, _expm1, _expm1_primary, -_HALF_LN2, math.inf)
    if not x <= -_HALF_LN2:
        return _expm1_primary(x)
    if x <= -_EXPM1_FLOOR:
        return -1.0
    # x = k ln2 + r with |r| <= 0.5 ln 2 and k <= -1; c corrects r's rounding.
    k = int(_INVLN2 * x - 0.5)  # truncated toward zero, as C converts
    hi = x - k * _LN2_HI  # exact
    lo = k * _LN2_LO
    r = hi - lo
    c = (hi - r) - lo
    hxs, e = _expm1_kernel(r)
    e = r * (e - c) - c
    e -= hxs
    if k == -1:
        return 0.5 * (r - e) - 0.5
    return math.ldexp(1.0 - (e - r), k) - 1.0


_P1 = 1.66666666666666019037e-01  # 0x3fc55555 5555553e
_P2 = -2.77777777770155933842e-03  # 0xbf66c16c 16bebd93
_P3 = 6.61375632143793436117e-05  # 0x3f11566a af25de2c
_P4 = -1.65339022054652515390e-06  # 0xbebbbd41 c5d26bf1
_P5 = 4.13813679705723846039e-08  # 0x3e663769 72bea4d0
_EXP_TINY = _high_word(0x3e300000)  # 2**-28: exp(x) below it in |x| is 1 + x
_EXP_UNDERFLOW = -7.45133219101941108420e+02  # 0xc0874910 d52d3051: exp below it is 0


def _exp_kernel(r):
    t = r * r
    return r - t * (_P1 + t * (_P2 + t * (_P3 + t * (_P4 + t * _P5))))


def _exp_primary(x):
    c = _exp_kernel(x)
    return 1.0 - ((x * c) / (c - 2.0) - x)


def _exp_near(x):
    """exp's branches for |x| below 0.5 ln 2: 1 + x if tiny, else the primary one."""
    if isinstance(x, np.ndarray):
        return np.where(x > -_EXP_TINY, 1.0 + x, _exp_primary(x))
    return 1.0 + x if x > -_EXP_TINY else _exp_primary(x)


def _exp(x):
    """exp(x) for x <= 0, a float or an array; within 1 ulp."""
    if isinstance(x, np.ndarray):
        return _lanes(x, _exp, _exp_near, -_HALF_LN2, math.inf)
    if not x <= -_HALF_LN2:
        return _exp_near(x)
    if x < _EXP_UNDERFLOW:
        return 0.0
    k = int(_INVLN2 * x - 0.5)
    hi = x - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    c = _exp_kernel(r)
    return math.ldexp(1.0 - ((lo - (r * c) / (2.0 - c)) - hi), k)  # rounds once if subnormal


_LG1 = 6.666666666666735130e-01  # 0x3fe55555 55555593
_LG2 = 3.999999999940941908e-01  # 0x3fd99999 9997fa04
_LG3 = 2.857142874366239149e-01  # 0x3fd24924 94229359
_LG4 = 2.222219843214978396e-01  # 0x3fcc71c5 1d8e78af
_LG5 = 1.818357216161805012e-01  # 0x3fc74664 96cb03de
_LG6 = 1.531383769920937332e-01  # 0x3fc39a09 d078c69f
_LG7 = 1.479819860511658591e-01  # 0x3fc2f112 df3e5244
# fdlibm's x = 2**k * y, y in [sqrt(2)/2, sqrt(2)), branches on y's high word:
_LOG_HALF_SQRT2 = _high_word(0x3fe6a09c)  # a frexp fraction below it is doubled
_LOG_NEAR_ONE = _high_word(0x3feffffe)  # from here to _LOG_PAST_ONE, |y - 1| < 2**-20
_LOG_PAST_ONE = _high_word(0x3ff00001)
_LOG_LOW = _high_word(0x3fe6b852)  # y below it, or from _LOG_HIGH on, takes the long form
_LOG_HIGH = _high_word(0x3ff6147a)
_LOG_ABOVE = math.nextafter(_LOG_LOW, 0.0)  # log's primary range: above it, below _LOG_NEAR_ONE


def _log_kernel(f):
    """fdlibm's log kernel on f = y - 1: (s = f / (2 + f), R)."""
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (_LG2 + w * (_LG4 + w * _LG6))
    t2 = z * (_LG1 + w * (_LG3 + w * (_LG5 + w * _LG7)))
    return s, t2 + t1


def _log_primary(x):
    f = x - 1.0
    s, R = _log_kernel(f)
    return f - s * (f - R)


def _log(x):
    """log(x) for x in (0, 1], a float or an array; within 1 ulp."""
    if isinstance(x, np.ndarray):
        return _lanes(x, _log, _log_primary, _LOG_ABOVE, _LOG_NEAR_ONE)
    if not (x < _LOG_LOW or x >= _LOG_NEAR_ONE):
        return _log_primary(x)
    if x <= 0.0:
        raise ValueError("math domain error")
    y, k = math.frexp(x)
    if y < _LOG_HALF_SQRT2:
        y, k = 2.0 * y, k - 1
    f = y - 1.0
    dk = float(k)
    # fdlibm's forms for k == 0 and for f == 0 round as these do.
    if _LOG_NEAR_ONE <= y < _LOG_PAST_ONE:  # |f| < 2**-20
        R = f * f * (0.5 - 0.33333333333333333 * f)
        return dk * _LN2_HI - ((R - dk * _LN2_LO) - f)
    s, R = _log_kernel(f)
    if y < _LOG_LOW or y >= _LOG_HIGH:
        hfsq = 0.5 * f * f
        return dk * _LN2_HI - ((hfsq - (s * (hfsq + R) + dk * _LN2_LO)) - f)
    return dk * _LN2_HI - ((s * (f - R) - dk * _LN2_LO) - f)


# numpy arithmetic that would make a NaN or inf raises instead, as float
# arithmetic raises on a division by zero.
RAISE_ON_NONFINITE = dict(divide="raise", over="raise", invalid="raise")


def _anchored(b0, bT, T, k, local, span) -> list:
    """The drag law pinned at both anchors: the [x, y, z] positions at ``local``.

    ``b0`` and ``bT`` hold each axis's anchor, and ``T``, ``k``, ``local``,
    ``span`` (``-expm1(-k T)``, the frac denominator) and every anchor are
    floats or broadcast (N,) columns. Grouping the gravity term as T*frac - t
    keeps both endpoints exact even when g/k is huge (small-k regime).
    """
    frac = -_expm1(-k * local) / span
    (x0, y0, z0), (x1, y1, z1) = b0, bT
    return [x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac,
            z0 + (z1 - z0) * frac + (GRAVITY / k) * (T * frac - local)]


def _slope(b0, bT, T, k, local, span) -> list:
    """The drag law's time derivative on ``_anchored``'s arguments: the [vx, vy, vz] velocities."""
    dfrac = k * _exp(-k * local) / span
    gk = GRAVITY / k
    (x0, y0, z0), (x1, y1, z1) = b0, bT
    return [(x1 - x0) * dfrac, (y1 - y0) * dfrac, (z1 - z0 + gk * T) * dfrac - gk]


def stokes_positions(seg: StokesSegment, ts) -> np.ndarray:
    """The piece at the times ``ts`` in [0, T]; (n, 3) for ts (n,)."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < -1e-12) or np.any(ts > seg.T + 1e-12):
        raise OutOfRange(f"sample times outside [0, {seg.T}]")
    k, T = seg.k, seg.T
    with np.errstate(**RAISE_ON_NONFINITE):
        return np.array(_anchored(tuple(seg.b0), tuple(seg.bT), T, k, ts, -_expm1(-k * T))).T.copy()


def stokes_position(seg: StokesSegment, t: float) -> Vec3:
    """One-time form of stokes_positions."""
    return Vec3(*stokes_positions(seg, [t])[0].tolist())


_CHAIN_FIELDS = ("starts", "b0", "bT", "T", "k", "_span")


@dataclass
class Chains:
    """n trajectories of P chained drag pieces each, as arrays.

    A time belongs to the last piece that starts at most 1e-12 s after it
    and is clamped to that piece; before the first piece and from the end
    of the last one on, a chain extends linearly with its end velocity.
    Each piece follows the one anchored closed form, as ``stokes_positions`` does.
    ``positions`` evaluates the law only at times inside a chain, each tail only at its own,
    per axis on (N,) columns gathered and written at flat indices.
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
        self._span = -_expm1(-self.k * self.T)  # each piece's frac denominator, once a batch

    @staticmethod
    def through(t0, anchors: np.ndarray, durations: np.ndarray, k: np.ndarray) -> "Chains":
        """n chains through ``anchors`` (n, P + 1, 3) from times ``t0`` (n,);
        piece p lasts ``durations[:, p]`` with drag ``k[:, p]``."""
        starts = np.concatenate([t0[:, None], durations[:, :-1]], axis=1).cumsum(axis=1)
        # Contiguous copies: the flat gathers (_gather) index their memory.
        return Chains(starts, np.ascontiguousarray(anchors[:, :-1]),
                      np.ascontiguousarray(anchors[:, 1:]), durations, k)

    def __getitem__(self, rows) -> "Chains":
        """The chains at ``rows``; a slice keeps views of these arrays. Rows
        of a checked batch skip ``__post_init__``'s second check."""
        out = object.__new__(Chains)
        for f in _CHAIN_FIELDS:  # set in __init__'s order: instances share one key table
            setattr(out, f, getattr(self, f)[rows])
        return out

    def _times(self, t) -> np.ndarray:
        """Times ``t``, (m,) for every chain or (n, m), as an (n, m) array."""
        times = np.empty((len(self.T), np.shape(t)[-1]))
        times[:] = t
        return times

    def _gather(self, at: np.ndarray) -> tuple[tuple, tuple, np.ndarray, np.ndarray]:
        """The start and end anchors, each as [x, y, z] columns, k and span
        of the pieces at the flat indices ``at`` (row * P + piece)."""
        x = at * 3
        y, z = x + 1, x + 2
        b0, bT = self.b0.reshape(-1), self.bT.reshape(-1)
        return ((b0.take(x), b0.take(y), b0.take(z)), (bT.take(x), bT.take(y), bT.take(z)),
                self.k.reshape(-1).take(at), self._span.reshape(-1).take(at))

    @staticmethod
    def _put(out: np.ndarray, i: np.ndarray, columns: list) -> None:
        """Write the [x, y, z] ``columns`` to the (n, m, 3) ``out`` at the flat
        sample indices ``i`` (row * m + time)."""
        flat, i = out.reshape(-1), i * 3
        for column in columns:
            flat[i] = column
            i += 1

    def _locate(self, rows, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat index (row * P + piece) of each time's piece in chain ``rows``
        (both (N,)), its duration, and the time local to it clamped to [0, T]."""
        P = self.T.shape[1]
        at = rows * P
        starts = self.starts.reshape(-1)
        piece = np.zeros(len(t), dtype=int)
        for p in range(1, P):
            piece[t >= starts.take(at + p) - 1e-12] = p
        at += piece
        T = self.T.reshape(-1).take(at)
        local = t - starts.take(at)
        local = np.where(0.0 > local, 0.0, local)  # max(local, 0.0)
        local = np.where(T < local, T, local)  # min(local, T)
        return at, T, local

    def positions(self, t) -> np.ndarray:
        """(n, m, 3) positions at times ``t``: (m,) for every chain, or (n, m)."""
        n, P = self.T.shape
        t = self._times(t)
        m = t.shape[1]
        out = np.empty(t.shape + (3,))
        with np.errstate(**RAISE_ON_NONFINITE):
            t0, t_end = self.starts[:, 0], self.starts[:, -1] + self.T[:, -1]
            before, after = t < t0[:, None], t >= t_end[:, None]
            flat_t = t.reshape(-1)
            i = np.flatnonzero(~(before | after))
            at, T, local = self._locate(i // m, flat_t.take(i))
            b0, bT, k, span = self._gather(at)
            self._put(out, i, _anchored(b0, bT, T, k, local, span))

            # Linear tails at their piece end's velocity; before, written last, wins where
            # both hold. t_end lands on the end anchor though t_end - start may round below T.
            for tail, p, anchor, t_p, local in ((after, P - 1, self.bT, t_end, self.T[:, -1]),
                                                (before, 0, self.b0, t0, np.zeros(n))):
                i = np.flatnonzero(tail)
                if len(i):
                    rows = i // m
                    v = _slope(self.b0[:, p].T, self.bT[:, p].T, self.T[:, p], self.k[:, p],
                               local, self._span[:, p])
                    dt = flat_t.take(i) - t_p.take(rows)
                    self._put(out, i, [b.take(rows) + u.take(rows) * dt
                                       for b, u in zip(anchor[:, p].T, v)])
        return out

    def velocities(self, t) -> np.ndarray:
        """(n, m, 3) velocities at times ``t``, shaped as for ``positions``;
        the tails move at the velocity of the piece end they extend."""
        t = self._times(t)
        rows = np.arange(len(t)).repeat(t.shape[1])
        with np.errstate(**RAISE_ON_NONFINITE):
            at, T, local = self._locate(rows, t.reshape(-1))
            b0, bT, k, span = self._gather(at)
            v = _slope(b0, bT, T, k, local, span)
        return np.stack(v, axis=-1).reshape(t.shape + (3,))


def smooth(values: np.ndarray) -> np.ndarray:
    """Centered moving average over SMOOTH_WINDOW samples, with edge shrinking.

    Each window is summed left to right, one shifted slice at a time, and
    divided by its count. That is the rounding of ``np.mean``, which sums
    fewer than 8 values in order.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 2:
        return values
    half = min(SMOOTH_WINDOW // 2, n - 1)  # a wider window holds the whole series
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


def detect_hits(ball: BallTrack2D, rackets: np.ndarray) -> list[HitEvent]:
    """Hits are local minima of the smoothed ball-racket pixel distance.

    ``rackets`` (n, 2, 2) holds both players' racket centroids at the n ball
    samples, NaN where a racket was not seen. Minima above HIT_MAX_DIST_PX
    pixels are ignored; of any two accepted minima closer than HIT_MIN_GAP
    frames, only the deeper one is kept.
    """
    candidates: list[tuple[float, int, int]] = []  # (distance, frame, player)
    for player in (0, 1):
        seen = ~np.isnan(rackets[:, player]).any(axis=1)
        if seen.sum() < 3:
            continue
        frames = ball.frames[seen].tolist()
        gap = (ball.pixels[seen] - rackets[seen, player]).T.tolist()
        dist = np.array(list(map(math.hypot, *gap)))
        with np.errstate(over="ignore"):  # huge distances: above HIT_MAX_DIST_PX below
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


def select_bounces(
    ball: BallTrack2D, h1: int, h2: int, candidates: Sequence[int], n: int
) -> tuple[tuple[int, ...], float]:
    """Pick the n ordered bounce frames minimizing the split-parabola total.

    The knots (h1, *bounces, h2) split the track into n + 1 windows, and the
    total is the sum of each window's parabola squared error (``_screen``,
    every tuple scored in array passes); a bounce frame belongs to both
    windows it joins, and a window with fewer than 3 samples, or a NaN
    total, makes its tuple unusable. Ties break toward the earliest tuple in
    ``itertools.combinations`` order of the sorted distinct candidates
    inside (h1, h2).
    """
    inside = sorted(set(c for c in candidates if h1 < c < h2))
    knots = np.array([h1, *inside, h2])
    last = len(knots) - 1
    picks = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(1, last), n)), int)
    rows = np.zeros((len(picks) // n, n + 2), dtype=int)  # knot indices of each tuple
    rows[:, 1:-1] = picks.reshape(-1, n)
    rows[:, -1] = last
    screened = _screen(ball, knots, rows) if len(rows) else np.empty(0)
    if not np.isfinite(screened).any():
        raise NoBounceFound(f"no usable {n}-bounce split of ({h1}, {h2})")
    best = int(np.argmin(screened))
    return tuple(knots[rows[best, 1:-1]].tolist()), float(screened[best])


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


def golden_section(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimize unimodal functions on the brackets [lo, hi] to K_TOL, all in lockstep.

    ``lo`` and ``hi`` are equal-length arrays, and ``f`` maps one abscissa
    per bracket to one value per bracket. Each bracket runs its own iteration
    count with the scalar update applied elementwise, so it ends where a
    search of it alone would. A bracket past its count stops moving; ``f`` is
    then handed a point it already saw there, and that value is not used.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    h = b - a
    # Update steps after the first two evaluations; -1: narrower than K_TOL.
    steps = np.array(
        [math.ceil(math.log(K_TOL / w) / math.log(inv_phi)) - 1 if w > K_TOL else -1 for w in h]
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
    return np.where(steps < 0, (a + b) / 2.0, x)


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
        # numpy's SIMD expm1, at a seventh of _expm1's cost here, is the last
        # drag-law evaluation whose bytes (the written reproj) follow the CPU.
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
    parabola_mse: float  # px^2: the pair's bounce-selection SSE over its 2 or 3 parabola windows


@dataclass
class TrajectoryReconstruction:
    pieces: list[ReconstructedPiece] = field(default_factory=list)
    bounces: list[BounceEvent] = field(default_factory=list)

    def ball_by_frame(self, fps: float) -> tuple[np.ndarray, np.ndarray]:
        """Every frame a piece spans (k,), in order, and the ball at each
        (k, 3), one stokes_positions call per piece; a frame two pieces
        share belongs to the earlier one."""
        spans = [np.arange(p.start_frame, p.end_frame + 1) for p in self.pieces]
        balls = [stokes_positions(p.segment, np.minimum((span - p.start_frame) / fps, p.segment.T))
                 for p, span in zip(self.pieces, spans)]
        frames, first = np.unique(np.concatenate(spans), return_index=True)
        return frames, np.concatenate(balls)[first]


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
    Raises SegmentRejected when a pair's bounce-selection error, the summed
    squared pixel error (px^2) of its 2 or 3 parabola windows, not a mean,
    exceeds ``mse_threshold``. Every hit pair's bounces are selected before
    any piece is fitted, and all pieces of the point are fitted in one
    fit_drags call.
    """
    if len(hits) < 2:
        raise NoBounceFound("need at least two hits")
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
        on_table = plane_points(camera, [pix[f] for f in interior], table.height_z)
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
