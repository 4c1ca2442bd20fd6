"""The exhaustive bounce search, one least-squares fit per window.

``fit_parabola`` fits a window's samples with ``np.linalg.lstsq`` on centered
times, and ``split_totals`` scores every candidate tuple by the left-to-right
sum of its windows' squared errors. ``ball.select_bounces`` once returned
``select_bounces`` below bit for bit. It now scores every tuple in batched
array passes (``ball._screen``), whose totals differ from these by rounding
alone; the tests hold it to this oracle within a stated bound.
"""

import itertools

import numpy as np

from ttrally.errors import NoBounceFound

# How far the screen's total may lie from this search's, relative to 1 + this
# search's total: about twice the largest gap measured, 5.2e-14 over the
# 1,763 searches of test_bounce_search.searches().
B = 1e-13


class FitFailed(Exception):
    """Fewer than three distinct sample times, or a rank-deficient fit."""


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
    coeffs = np.array([c2, c1 - 2 * c2 * t0, c0 - c1 * t0 + c2 * t0 * t0])
    resid = vs - a @ coeffs_c
    return coeffs, float(np.mean(resid**2))


def split_totals(track, h1: int, h2: int, candidates, n: int) -> dict[tuple, float]:
    """Every usable n-tuple of the sorted distinct candidates inside (h1, h2),
    in ``itertools.combinations`` order, with the left-to-right sum of its
    windows' squared errors. A window fit_parabola turns down leaves its
    tuple out; each window is fitted once."""
    sse: dict[tuple[int, int], float | None] = {}
    totals = {}
    for bounces in itertools.combinations(sorted(set(c for c in candidates if h1 < c < h2)), n):
        knots = (h1, *bounces, h2)
        total = 0.0
        for window in zip(knots, knots[1:]):
            if window not in sse:
                frames, pixels = track.window(*window)
                try:
                    sse[window] = fit_parabola(frames.astype(float), pixels[:, 1])[1] * len(frames)
                except FitFailed:
                    sse[window] = None
            if sse[window] is None:
                break
            total += sse[window]
        else:
            totals[bounces] = total
    return totals


def select_bounces(track, h1: int, h2: int, candidates, n: int) -> tuple[tuple, float]:
    """The first tuple with the least exhaustive total, and that total."""
    totals = split_totals(track, h1, h2, candidates, n)
    if not totals:
        raise NoBounceFound(f"no usable {n}-bounce split of ({h1}, {h2})")
    best = min(totals, key=totals.get)
    return best, totals[best]
