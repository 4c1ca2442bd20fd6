"""Trajectory anticipation with split conformal uncertainty.

An ensemble of predictors forecasts the ball position at fixed horizons after
the opponent's hit. Calibration residuals — absolute errors normalized by the
ensemble spread — yield per-axis conformal quantiles; at test time the
interval [mean +/- q * sigma] per axis covers the truth with the requested
marginal rate, and the product box covers jointly at 1 - 3*alpha.

A split is one ``synth.Exchanges`` batch: its forecast, truth, calibration,
coverage and bias read the batch's columns. The forecast and its truth run
in passes of at most FORECAST_SAMPLES samples each, so a pass holds more
exchanges the fewer members and horizons each one has; ``build_regions``
forecasts one ``ContextWindow`` with the same model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import AXES, Frame3D, Vec3
from .errors import (
    EnsembleTooSmall,
    InputMismatch,
    NoCalibration,
    ParseError,
    SplitLeakage,
)
from .pipeline import (CONFORMAL_HEADER, CONFORMAL_ROW, body_lines, format_record,
                       parse_record, read_header, read_lines, write_lines)
from .ball import RAISE_ON_NONFINITE
from .synth import (CONTEXT_TIMES, SHOT_AIM_GAIN, SHOT_SPEED_CLIP, SHOT_SPEED_MEAN,
                    SHOT_Y_LIMIT, TABLE, Exchanges, balls_at, context_mask, generate_exchanges,
                    return_shots)

SIGMA_FLOOR = 1e-6
# Samples per forecast pass: the (exchanges x members x horizons) arrays of a
# whole split would raise peak memory, and a pass of a few rows pays numpy's
# fixed cost per call. 64 exchanges x 5 members x 23 horizons.
FORECAST_SAMPLES = 7_360
EXTREME_Y = 0.75  # m: a return crossing the ego plane beyond +-this is an extreme shot


def horizon_key(h: float) -> float:
    """Canonical float key for a horizon (guards repr drift like 0.30000004)."""
    return round(float(h), 6)


STUDY_HORIZONS = tuple(horizon_key(h) for h in np.arange(0.05, 0.601, 0.05))  # s after the hit


# ---------------------------------------------------------------------------
# context and ensemble
# ---------------------------------------------------------------------------


@dataclass
class ContextWindow:
    """Observed 3D frames strictly before the opponent's hit.

    ``times`` are relative to the hit (negative, increasing); the last entry
    is the lead time at which the forecast is issued.
    """

    times: np.ndarray
    frames: list[Frame3D]

    def __post_init__(self):
        if len(self.times) != len(self.frames):
            raise InputMismatch("times and frames length differ")
        if len(self.frames) < 2:
            raise InputMismatch("context needs at least two frames")

    def opponent_root_y(self) -> float:
        return self.frames[-1].opponent_joints_world[0].y


def _hit_estimate(p0: np.ndarray, p1: np.ndarray, t0, t1) -> np.ndarray:
    """The hit (n, 3), extrapolated linearly from the last two ball frames
    (n, 3) at times t0, t1 to t = 0; the times are (n,), or one time each
    that every row shares."""
    lead = np.reshape(-t1, (-1, 1))
    with np.errstate(**RAISE_ON_NONFINITE):
        v = (p1 - p0) * np.reshape(1.0 / (t1 - t0), (-1, 1))
        return p1 + v * lead


def _context_arrays(contexts: Sequence[ContextWindow]) -> tuple[np.ndarray, np.ndarray]:
    """What the ensemble reads of each context, as arrays: the hit estimate
    (n, 3) and the opponent's root y (n,)."""
    p0 = np.array([(b.x, b.y, b.z) for b in (c.frames[-2].ball_world for c in contexts)])
    p1 = np.array([(b.x, b.y, b.z) for b in (c.frames[-1].ball_world for c in contexts)])
    t0 = np.array([c.times[-2] for c in contexts], dtype=float)
    t1 = np.array([c.times[-1] for c in contexts], dtype=float)
    root_y = np.array([c.opponent_root_y() for c in contexts], dtype=float)
    return _hit_estimate(p0, p1, t0, t1), root_y


def _exchange_arrays(exchanges: Exchanges, lead_time: float) -> tuple[np.ndarray, np.ndarray]:
    """_context_arrays of every exchange's context frames up to -lead_time
    (``context_mask``), from the incoming ball at the last two of them: no
    frame is built. Context times increase, so the frames a lead time keeps
    are a prefix."""
    last = int(context_mask(lead_time).sum()) - 1
    if last < 1:
        raise InputMismatch("context needs at least two frames")
    times = CONTEXT_TIMES[last - 1:last + 1]
    balls = exchanges.incoming.positions(times)
    return _hit_estimate(balls[:, 0], balls[:, 1], *times), exchanges.opp_root_y


# A member shifts the shot model by 0.0 + sd * z in aim y, speed, bounce x,
# crossing height and drag, with these sds.
MEMBER_SD = (0.10, 0.6, 0.15, 0.05, 0.04)


def physics_baseline_ensemble(seed: int, k_members: int = 5) -> np.ndarray:
    """The member table (k_members, 5), row i taking its z from
    ``default_rng([seed, i])`` in MEMBER_SD's order. Every member replays
    the exchange's shot model (the opponent aims where they stand) with its
    row's shifts, a spread that reflects genuine shot variability."""
    if k_members < 2:
        raise EnsembleTooSmall(f"need >= 2 members, got {k_members}")
    z = [np.random.default_rng([seed, i]).standard_normal(len(MEMBER_SD)) for i in range(k_members)]
    return 0.0 + np.multiply(MEMBER_SD, z)


def _ensemble(
    predictors: np.ndarray, hit: np.ndarray, root_y: np.ndarray, horizons: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Every member's shot from every hit estimate (n, 3) and opponent root
    y (n,), sampled at ``horizons``.

    Returns the mean and floored population std across members, each
    (n, n_horizons, 3).
    """
    if len(predictors) < 2:
        raise EnsembleTooSmall("spread needs >= 2 members")
    n, k = len(hit), len(predictors)
    # Row i * k + j of every array below is exchange i's shot by member j.
    d_aim, d_speed, d_bounce_x, d_z_cross, d_k = np.tile(predictors, (n, 1)).T
    y_cross = np.clip(SHOT_AIM_GAIN * np.repeat(root_y, k) + d_aim, -SHOT_Y_LIMIT, SHOT_Y_LIMIT)
    speed = np.minimum(np.maximum(SHOT_SPEED_MEAN + d_speed, SHOT_SPEED_CLIP[0]),
                       SHOT_SPEED_CLIP[1])
    drag = np.maximum(0.19 + d_k, 0.02)
    chains, _ = return_shots(np.repeat(hit, k, axis=0), -0.675 + d_bounce_x, y_cross,
                             1.05 + d_z_cross, speed, drag, drag)
    preds = chains.positions(horizons).reshape(n, k, len(horizons), 3)
    mean = preds.mean(axis=1)  # std's own mean: sum over members / k
    return mean, np.maximum(preds.std(axis=1, mean=mean[:, None]), SIGMA_FLOOR)


@dataclass
class SplitForecast:
    """One ensemble forecast per exchange of a split.

    ``mean``, ``sigma`` and ``truth`` have shape (n_exchanges, n_horizons, 3);
    every conformal statistic is a reduction over them.
    """

    exchanges: Exchanges
    horizons: list[float]
    mean: np.ndarray
    sigma: np.ndarray
    truth: np.ndarray


def _chunks(n: int, per_row: int) -> list[slice]:
    """The rows of n exchanges of ``per_row`` samples each, in passes of at
    most FORECAST_SAMPLES samples and at least one row (a row of no samples
    counts as one)."""
    step = max(1, FORECAST_SAMPLES // max(1, per_row))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def forecast_ensemble(
    predictors: np.ndarray,
    exchanges: Exchanges,
    horizons: Sequence[float],
    lead_time: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The ensemble mean and sigma, each (n_exchanges, n_horizons, 3), of a
    forecast issued ``lead_time`` before each hit (0 keeps the full context)."""
    hs = np.asarray(horizons, dtype=float)
    hit, root_y = _exchange_arrays(exchanges, lead_time)
    mean, sigma = (np.empty((len(exchanges), len(hs), 3)) for _ in range(2))
    for rows in _chunks(len(exchanges), len(predictors) * len(hs)):
        mean[rows], sigma[rows] = _ensemble(predictors, hit[rows], root_y[rows], hs)
    return mean, sigma


def forecast_split(
    predictors: np.ndarray,
    exchanges: Exchanges,
    horizons: Sequence[float],
    lead_time: float = 0.0,
) -> SplitForecast:
    """Forecast every exchange once, ``lead_time`` before the hit, and take
    its truth at the same horizons."""
    horizons = list(horizons)
    mean, sigma = forecast_ensemble(predictors, exchanges, horizons, lead_time)
    truth = np.empty_like(mean)
    for rows in _chunks(len(exchanges), len(horizons)):
        truth[rows] = balls_at(exchanges[rows], horizons)
    return SplitForecast(exchanges, horizons, mean, sigma, truth)


# ---------------------------------------------------------------------------
# conformal calibration
# ---------------------------------------------------------------------------


def conformal_quantile(residuals: Sequence[float], alpha: float) -> float:
    """Finite-sample quantile: the ceil((n+1)(1-alpha))-th smallest residual.

    Returns +inf when the rank exceeds n (too few calibration points for the
    requested coverage).
    """
    n = len(residuals)
    if n == 0:
        raise NoCalibration("no residuals")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    rank = math.ceil((n + 1) * (1.0 - alpha))
    if rank > n:
        return float("inf")
    return float(np.sort(np.asarray(residuals, dtype=float))[rank - 1])


@dataclass
class ConformalCalibration:
    """Per-(axis, horizon) quantiles with the residual sets that produced them."""

    alpha: float
    quantiles: dict[tuple[str, float], float] = field(default_factory=dict)
    n_samples: dict[tuple[str, float], int] = field(default_factory=dict)
    calibration_ids: set[int] = field(default_factory=set)


@dataclass
class Region:
    """Axis-aligned prediction box [mean - q*sigma, mean + q*sigma]."""

    horizon: float
    lo: Vec3
    hi: Vec3


def calibrate_ensemble(forecast: SplitForecast, alpha: float) -> ConformalCalibration:
    """Fit per-axis conformal quantiles on a held-out split's forecast."""
    scores = np.abs(forecast.truth - forecast.mean) / forecast.sigma
    calib = ConformalCalibration(alpha=alpha)
    calib.calibration_ids = set(forecast.exchanges.ids.tolist())
    for i, ax in enumerate(AXES):
        for j, h in enumerate(forecast.horizons):
            calib.quantiles[(ax, horizon_key(h))] = conformal_quantile(scores[:, j, i], alpha)
            calib.n_samples[(ax, horizon_key(h))] = len(scores)
    return calib


def _bounds(
    calib: ConformalCalibration, keys: Sequence[float], mean: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Region corners mean -/+ q * sigma at horizon ``keys``; mean and sigma end in (n_h, 3)."""
    try:
        table = [[calib.quantiles[ax, key] for ax in AXES] for key in keys]
    except KeyError as missing:
        raise NoCalibration(f"no quantile for {missing.args[0]}") from None
    half = np.array(table) * sigma
    return mean - half, mean + half


def build_regions(
    predictors: np.ndarray,
    calib: ConformalCalibration,
    ctx: ContextWindow,
    horizons: Sequence[float],
) -> list[Region]:
    keys = [horizon_key(h) for h in horizons]
    (mean,), (sigma,) = _ensemble(predictors, *_context_arrays([ctx]),
                                  np.asarray(horizons, dtype=float))
    lo, hi = _bounds(calib, keys, mean, sigma)
    return [Region(horizon=key, lo=Vec3(*l), hi=Vec3(*u))
            for key, l, u in zip(keys, lo.tolist(), hi.tolist())]


def split_regions(
    predictors: np.ndarray,
    calib: ConformalCalibration,
    exchanges: Exchanges,
    horizons: Sequence[float],
    lead_time: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The region corners (lo, hi), each (n_exchanges, n_horizons, 3), of
    build_regions on every exchange's context up to -lead_time, from one
    forecast_ensemble of the split: no frame is built."""
    mean, sigma = forecast_ensemble(predictors, exchanges, horizons, lead_time)
    return _bounds(calib, [horizon_key(h) for h in horizons], mean, sigma)


def check_split(calib: ConformalCalibration, test_exchanges: Exchanges) -> None:
    overlap = calib.calibration_ids & set(test_exchanges.ids.tolist())
    if overlap:
        raise SplitLeakage(f"{len(overlap)} exchanges in both splits")


@dataclass
class CoverageReport:
    per_axis: dict[tuple[str, float], float]
    joint: dict[float, float]


def evaluate_coverage(calib: ConformalCalibration, forecast: SplitForecast) -> CoverageReport:
    """Empirical per-axis and joint coverage of conformal regions."""
    check_split(calib, forecast.exchanges)
    if not forecast.exchanges:
        raise InputMismatch("empty test split")
    keys = [horizon_key(h) for h in forecast.horizons]
    lo, hi = _bounds(calib, keys, forecast.mean, forecast.sigma)
    inside = (lo <= forecast.truth) & (forecast.truth <= hi)
    axis_hits, joint_hits = inside.sum(axis=0), inside.all(axis=2).sum(axis=0)
    n = len(forecast.exchanges)
    return CoverageReport(
        per_axis={(ax, k): int(axis_hits[j, i]) / n
                  for i, ax in enumerate(AXES) for j, k in enumerate(keys)},
        joint={k: int(joint_hits[j]) / n for j, k in enumerate(keys)},
    )


def width_vs_horizon(calib: ConformalCalibration, forecast: SplitForecast) -> dict[float, float]:
    """Mean region width (averaged over axes and exchanges) per horizon."""
    keys = [horizon_key(h) for h in forecast.horizons]
    lo, hi = _bounds(calib, keys, forecast.mean, forecast.sigma)
    widths = np.mean(2.0 * ((hi - lo) * 0.5), axis=2)
    # np.mean of each horizon's column sums it pairwise, as it summed the
    # per-exchange lists; widths.mean(axis=0) would sum sequentially.
    return {key: float(np.mean(col)) for key, col in zip(keys, widths.T)}


# ---------------------------------------------------------------------------
# directional bias of extreme shots
# ---------------------------------------------------------------------------


@dataclass
class BiasReport:
    n_extreme: int
    n_correct_side: int

    @property
    def fraction_correct(self) -> float:
        return self.n_correct_side / self.n_extreme if self.n_extreme else float("nan")


def extreme_hit_bias(calib: ConformalCalibration, forecast: SplitForecast) -> BiasReport:
    """Do prediction regions lean toward the side extreme shots favor?

    An exchange is extreme when the shot crosses the ego hitting plane with
    |y| > EXTREME_Y. Its region — taken at the grid horizon nearest the
    crossing time, the earlier one on a tie — counts as correct-side biased
    when it excludes at least a third of the y half-range on the wrong side
    and excludes strictly more of the wrong side than of the correct one.
    """
    hw = TABLE.half_width
    keys = np.array([horizon_key(h) for h in forecast.horizons])
    by_horizon = np.argsort(keys, kind="stable")
    t_cross, y = forecast.exchanges.crossing_time, forecast.exchanges.crossing_pos[:, 1]
    nearest = by_horizon[np.argmin(np.abs(keys[by_horizon] - t_cross[:, None]), axis=1)]
    lo, hi = _bounds(calib, keys.tolist(), forecast.mean, forecast.sigma)
    rows = np.arange(len(y))
    lo_y, hi_y = lo[rows, nearest, 1], hi[rows, nearest, 1]
    # Excluded share of each y half-range [0, hw] and [-hw, 0].
    right_excluded = 1.0 - np.maximum(0.0, np.minimum(hi_y, hw) - np.maximum(lo_y, 0.0)) / hw
    left_excluded = 1.0 - np.maximum(0.0, np.minimum(hi_y, 0.0) - np.maximum(lo_y, -hw)) / hw
    favored_right = y > 0
    wrong_excluded = np.where(favored_right, left_excluded, right_excluded)
    correct_excluded = np.where(favored_right, right_excluded, left_excluded)
    extreme = np.abs(y) > EXTREME_Y
    correct = extreme & (wrong_excluded > correct_excluded) & (wrong_excluded >= 1.0 / 3.0)
    return BiasReport(n_extreme=int(extreme.sum()), n_correct_side=int(correct.sum()))


# ---------------------------------------------------------------------------
# calibration file round trip
# ---------------------------------------------------------------------------


def write_calibration(path: str, calib: ConformalCalibration, seed: Optional[int] = None):
    write_lines(path, [format_record(CONFORMAL_HEADER, calib.alpha, seed)] + [
        format_record(CONFORMAL_ROW, *key, q, calib.n_samples.get(key, 0))
        for key, q in sorted(calib.quantiles.items())
    ])


def read_calibration(path: str) -> ConformalCalibration:
    lines = read_lines(path)
    calib = ConformalCalibration(alpha=read_header(lines, CONFORMAL_HEADER)["alpha"])
    for lineno, line in body_lines(lines):
        r = parse_record(CONFORMAL_ROW, line, lineno)
        key = (r["axis"], horizon_key(r["horizon"]))
        if key in calib.quantiles:
            raise ParseError(lineno, f"duplicate row for {key}")
        calib.quantiles[key] = r["q"]
        calib.n_samples[key] = r["n"]
    return calib


# ---------------------------------------------------------------------------
# end-to-end study driver
# ---------------------------------------------------------------------------


@dataclass
class StudyResult:
    coverage: CoverageReport
    widths: dict[float, float]
    bias: BiasReport
    calib: ConformalCalibration


def run_conformal_study(
    seed: int,
    n_cal: int = 2500,
    n_test: int = 1000,
    k_members: int = 5,
    alpha: float = 0.1,
) -> StudyResult:
    """Calibrate on one split, evaluate coverage/width/bias on a disjoint
    one, at STUDY_HORIZONS, each forecast issued at the hit (lead time 0)."""
    cal = generate_exchanges(seed, n_cal, id_offset=0)
    test = generate_exchanges(seed + 1, n_test, id_offset=n_cal)
    predictors = physics_baseline_ensemble(seed, k_members)
    calib = calibrate_ensemble(forecast_split(predictors, cal, STUDY_HORIZONS), alpha)
    forecast = forecast_split(predictors, test, STUDY_HORIZONS)
    return StudyResult(
        coverage=evaluate_coverage(calib, forecast),
        widths=width_vs_horizon(calib, forecast),
        bias=extreme_hit_bias(calib, forecast),
        calib=calib,
    )
