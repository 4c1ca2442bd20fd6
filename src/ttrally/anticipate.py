"""Trajectory anticipation with split conformal uncertainty.

An ensemble of predictors forecasts the ball position at fixed horizons after
the opponent's hit. Calibration residuals — absolute errors normalized by the
ensemble spread — yield per-axis conformal quantiles; at test time the
interval [mean +/- q * sigma] per axis covers the truth with the requested
marginal rate, and the product box covers jointly at 1 - 3*alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import AXES, Frame3D, TableGeometry, Vec3
from .errors import (
    EnsembleTooSmall,
    InputMismatch,
    NoCalibration,
    ParseError,
    SplitLeakage,
)
from .pipeline import (CONFORMAL_HEADER, CONFORMAL_ROW, body_lines, format_record,
                       parse_record, read_header, read_lines, write_lines)
from .synth import ExchangeSample, construct_return_shot

SIGMA_FLOOR = 1e-6


def horizon_key(h: float) -> float:
    """Canonical float key for a horizon (guards repr drift like 0.30000004)."""
    return round(float(h), 6)


def default_horizons() -> list[float]:
    return [horizon_key(h) for h in np.arange(0.05, 0.601, 0.05)]


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

    @property
    def lead_time(self) -> float:
        return -float(self.times[-1])

    def opponent_root_y(self) -> float:
        return self.frames[-1].opponent_joints_world[0].y

    def estimate_hit(self) -> tuple[Vec3, float]:
        """Extrapolate the incoming ball to the hit instant (t = 0)."""
        p1 = self.frames[-1].ball_world
        p0 = self.frames[-2].ball_world
        dt = float(self.times[-1] - self.times[-2])
        v = (p1 - p0) * (1.0 / dt)
        return p1 + v * self.lead_time, self.lead_time


Predictor = Callable[[ContextWindow, float], Vec3]


@dataclass
class EnsembleOutput:
    horizon: float
    mean: Vec3
    sigma: Vec3  # population std across members, floored


@dataclass
class MemberParams:
    """Deterministic per-member perturbations of the shot model."""

    d_aim: float
    d_speed: float
    d_bounce_x: float
    d_z_cross: float
    d_k: float


def _member_params(seed: int, index: int, scale: float = 1.0) -> MemberParams:
    rng = np.random.default_rng([seed, index])
    return MemberParams(
        d_aim=float(rng.normal(0.0, 0.10 * scale)),
        d_speed=float(rng.normal(0.0, 0.6 * scale)),
        d_bounce_x=float(rng.normal(0.0, 0.15 * scale)),
        d_z_cross=float(rng.normal(0.0, 0.05 * scale)),
        d_k=float(rng.normal(0.0, 0.04 * scale)),
    )


class ShotPredictor:
    """Physics predictor: infer intent from the context, replay the shot model.

    The opponent is assumed to aim where they stand (gain 0.9 on root y); the
    member's perturbations shift aim, speed, bounce depth, crossing height,
    and drag, producing a spread that reflects genuine shot variability.
    """

    def __init__(self, params: MemberParams, table: TableGeometry = TableGeometry()):
        self.params = params
        self.table = table

    def trajectory(self, ctx: ContextWindow):
        params = self.params
        hit_pos, _ = ctx.estimate_hit()
        y_r = ctx.opponent_root_y()
        y_cross = float(np.clip(0.9 * y_r + params.d_aim, -1.05, 1.05))
        traj, _ = construct_return_shot(
            self.table,
            hit_pos,
            x_bounce=-0.675 + params.d_bounce_x,
            y_cross=y_cross,
            z_cross=1.05 + params.d_z_cross,
            speed=float(np.clip(12.0 + params.d_speed, 7.5, 16.5)),
            k1=max(0.19 + params.d_k, 0.02),
            k2=max(0.19 + params.d_k, 0.02),
        )
        return traj

    def __call__(self, ctx: ContextWindow, horizon: float) -> Vec3:
        return self.trajectory(ctx).position(horizon)


def physics_baseline_ensemble(
    seed: int,
    k_members: int = 5,
    table: TableGeometry = TableGeometry(),
    scale: float = 1.0,
) -> list[Predictor]:
    if k_members < 2:
        raise EnsembleTooSmall(f"need >= 2 members, got {k_members}")
    return [
        ShotPredictor(_member_params(seed, i, scale), table) for i in range(k_members)
    ]


def _member_predictions(
    predictors: Sequence[Predictor], ctx: ContextWindow, horizons: Sequence[float]
) -> np.ndarray:
    """Member forecasts, shape (n_horizons, k_members, 3).

    Predictors exposing a ``trajectory(ctx)`` method are evaluated once per
    context and sampled at every horizon.
    """
    cols = []
    for p in predictors:
        traj_fn = getattr(p, "trajectory", None)
        if traj_fn is not None:
            traj = traj_fn(ctx)
            cols.append([traj.position(h).as_array() for h in horizons])
        else:
            cols.append([p(ctx, h).as_array() for h in horizons])
    return np.array(cols).transpose(1, 0, 2)


def ensemble_curve(
    predictors: Sequence[Predictor], ctx: ContextWindow, horizons: Sequence[float]
) -> list[EnsembleOutput]:
    """Mean and floored population std per axis, one output per horizon."""
    if len(predictors) < 2:
        raise EnsembleTooSmall("spread needs >= 2 members")
    preds = _member_predictions(predictors, ctx, horizons)
    means = preds.mean(axis=1)
    sigmas = np.maximum(preds.std(axis=1), SIGMA_FLOOR)
    return [
        EnsembleOutput(
            horizon=horizon_key(h),
            mean=Vec3.from_array(m),
            sigma=Vec3.from_array(s),
        )
        for h, m, s in zip(horizons, means, sigmas)
    ]


def residual(truth: float, mean: float, sigma: float) -> float:
    """Normalized nonconformity score |truth - mean| / sigma."""
    return abs(truth - mean) / max(sigma, SIGMA_FLOOR)


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

    def quantile(self, axis: str, horizon: float) -> float:
        key = (axis, horizon_key(horizon))
        if key not in self.quantiles:
            raise NoCalibration(f"no quantile for {key}")
        return self.quantiles[key]


@dataclass
class Region:
    """Axis-aligned prediction box [mean - q*sigma, mean + q*sigma]."""

    horizon: float
    lo: Vec3
    hi: Vec3
    mean: Vec3

    def contains(self, p: Vec3) -> bool:
        return (
            self.lo.x <= p.x <= self.hi.x
            and self.lo.y <= p.y <= self.hi.y
            and self.lo.z <= p.z <= self.hi.z
        )

    def center(self) -> Vec3:
        return (self.lo + self.hi) * 0.5

    def half_widths(self) -> Vec3:
        return (self.hi - self.lo) * 0.5


def calibrate_ensemble(
    predictors: Sequence[Predictor],
    exchanges: Sequence[ExchangeSample],
    horizons: Sequence[float],
    alpha: float,
    lead_time: float = 0.0,
) -> ConformalCalibration:
    """Fit per-axis conformal quantiles on held-out exchanges.

    ``lead_time`` truncates each context so forecasts are issued that far
    before the hit (0 keeps the full context).
    """
    residuals: dict[tuple[str, float], list[float]] = {
        (ax, horizon_key(h)): [] for ax in AXES for h in horizons
    }
    for ex in exchanges:
        ctx = _context_for(ex, lead_time)
        for h, out in zip(horizons, ensemble_curve(predictors, ctx, horizons)):
            truth = ex.truth_at(h).as_array()
            mean, sigma = out.mean.as_array(), out.sigma.as_array()
            for i, ax in enumerate(AXES):
                residuals[(ax, out.horizon)].append(
                    residual(truth[i], mean[i], sigma[i])
                )
    calib = ConformalCalibration(alpha=alpha)
    calib.calibration_ids = {ex.exchange_id for ex in exchanges}
    for key, res in residuals.items():
        calib.quantiles[key] = conformal_quantile(res, alpha)
        calib.n_samples[key] = len(res)
    return calib


def _context_for(ex: ExchangeSample, lead_time: float) -> ContextWindow:
    if lead_time <= 0:
        return ContextWindow(times=ex.context_times, frames=list(ex.context))
    times, frames = ex.context_until(-lead_time)
    return ContextWindow(times=times, frames=frames)


def build_regions(
    predictors: Sequence[Predictor],
    calib: ConformalCalibration,
    ctx: ContextWindow,
    horizons: Sequence[float],
) -> list[Region]:
    regions = []
    for h, out in zip(horizons, ensemble_curve(predictors, ctx, horizons)):
        mean, sigma = out.mean.as_array(), out.sigma.as_array()
        q = np.array([calib.quantile(ax, h) for ax in AXES])
        half = q * sigma
        regions.append(
            Region(
                horizon=out.horizon,
                lo=Vec3.from_array(mean - half),
                hi=Vec3.from_array(mean + half),
                mean=out.mean,
            )
        )
    return regions


def build_region(
    predictors: Sequence[Predictor],
    calib: ConformalCalibration,
    ctx: ContextWindow,
    horizon: float,
) -> Region:
    return build_regions(predictors, calib, ctx, [horizon])[0]


def check_split(
    calib: ConformalCalibration, test_exchanges: Sequence[ExchangeSample]
) -> None:
    overlap = calib.calibration_ids & {ex.exchange_id for ex in test_exchanges}
    if overlap:
        raise SplitLeakage(f"{len(overlap)} exchanges in both splits")


@dataclass
class CoverageReport:
    per_axis: dict[tuple[str, float], float]
    joint: dict[float, float]
    n_test: int

    def axis_rate(self, axis: str, horizon: float) -> float:
        return self.per_axis[(axis, horizon_key(horizon))]


def evaluate_coverage(
    predictors: Sequence[Predictor],
    calib: ConformalCalibration,
    test_exchanges: Sequence[ExchangeSample],
    horizons: Sequence[float],
    lead_time: float = 0.0,
) -> CoverageReport:
    """Empirical per-axis and joint coverage of conformal regions."""
    check_split(calib, test_exchanges)
    if not test_exchanges:
        raise InputMismatch("empty test split")
    hits: dict[tuple[str, float], int] = {
        (ax, horizon_key(h)): 0 for ax in AXES for h in horizons
    }
    joint_hits: dict[float, int] = {horizon_key(h): 0 for h in horizons}
    for ex in test_exchanges:
        ctx = _context_for(ex, lead_time)
        for h, region in zip(
            horizons, build_regions(predictors, calib, ctx, horizons)
        ):
            t = ex.truth_at(h).as_array()
            lo, hi = region.lo.as_array(), region.hi.as_array()
            inside = (lo <= t) & (t <= hi)
            for i, ax in enumerate(AXES):
                hits[(ax, region.horizon)] += int(inside[i])
            joint_hits[region.horizon] += int(inside.all())
    n = len(test_exchanges)
    return CoverageReport(
        per_axis={k: v / n for k, v in hits.items()},
        joint={k: v / n for k, v in joint_hits.items()},
        n_test=n,
    )


def width_vs_horizon(
    predictors: Sequence[Predictor],
    calib: ConformalCalibration,
    exchanges: Sequence[ExchangeSample],
    horizons: Sequence[float],
    lead_time: float = 0.0,
) -> dict[float, float]:
    """Mean region width (averaged over axes and exchanges) per horizon."""
    widths: dict[float, list[float]] = {horizon_key(h): [] for h in horizons}
    for ex in exchanges:
        ctx = _context_for(ex, lead_time)
        for region in build_regions(predictors, calib, ctx, horizons):
            hw = region.half_widths().as_array()
            widths[region.horizon].append(float(np.mean(2.0 * hw)))
    return {k: float(np.mean(v)) for k, v in widths.items()}


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


def extreme_hit_bias(
    predictors: Sequence[Predictor],
    calib: ConformalCalibration,
    exchanges: Sequence[ExchangeSample],
    horizons: Sequence[float],
    extreme_y: float = 0.75,
    lead_time: float = 0.0,
    table: TableGeometry = TableGeometry(),
) -> BiasReport:
    """Do prediction regions lean toward the side extreme shots favor?

    An exchange is extreme when the shot crosses the ego hitting plane with
    |y| > ``extreme_y``. Its region — taken at the grid horizon nearest the
    crossing time — counts as correct-side biased when it excludes at least a
    third of the y half-range on the wrong side and excludes strictly more of
    the wrong side than of the correct one.
    """
    hw = table.half_width
    hs = sorted(horizon_key(h) for h in horizons)
    n_extreme = n_correct = 0
    for ex in exchanges:
        if abs(ex.crossing_pos.y) <= extreme_y:
            continue
        n_extreme += 1
        ctx = _context_for(ex, lead_time)
        horizon = min(hs, key=lambda h: abs(h - ex.crossing_time))
        region = build_region(predictors, calib, ctx, horizon)
        # Excluded share of each y half-range [0, hw] and [-hw, 0].
        right_covered = max(0.0, min(region.hi.y, hw) - max(region.lo.y, 0.0))
        left_covered = max(0.0, min(region.hi.y, 0.0) - max(region.lo.y, -hw))
        right_excluded = 1.0 - right_covered / hw
        left_excluded = 1.0 - left_covered / hw
        favored_right = ex.crossing_pos.y > 0
        wrong_excluded = left_excluded if favored_right else right_excluded
        correct_excluded = right_excluded if favored_right else left_excluded
        if wrong_excluded > correct_excluded and wrong_excluded >= 1.0 / 3.0:
            n_correct += 1
    return BiasReport(n_extreme=n_extreme, n_correct_side=n_correct)


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
    horizons: Optional[Sequence[float]] = None,
    lead_time: float = 0.0,
) -> StudyResult:
    """Calibrate on one split, evaluate coverage/width/bias on a disjoint one."""
    from .synth import generate_exchanges

    horizons = list(horizons) if horizons is not None else default_horizons()
    cal = generate_exchanges(seed, n_cal, id_offset=0)
    test = generate_exchanges(seed + 1, n_test, id_offset=n_cal)
    predictors = physics_baseline_ensemble(seed, k_members)
    calib = calibrate_ensemble(predictors, cal, horizons, alpha, lead_time)
    coverage = evaluate_coverage(predictors, calib, test, horizons, lead_time)
    widths = width_vs_horizon(predictors, calib, test, horizons, lead_time)
    bias = extreme_hit_bias(predictors, calib, test, horizons, lead_time=lead_time)
    return StudyResult(coverage=coverage, widths=widths, bias=bias, calib=calib)
