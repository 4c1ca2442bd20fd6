import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ttrally.anticipate import (
    ContextWindow,
    ConformalCalibration,
    build_region,
    build_regions,
    calibrate_ensemble,
    check_split,
    conformal_quantile,
    default_horizons,
    ensemble_curve,
    evaluate_coverage,
    extreme_hit_bias,
    horizon_key,
    physics_baseline_ensemble,
    read_calibration,
    residual,
    width_vs_horizon,
    write_calibration,
)
from ttrally.core import Frame3D, Vec3
from ttrally.errors import (
    EnsembleTooSmall,
    InputMismatch,
    NoCalibration,
    ParseError,
    SplitLeakage,
)
from ttrally.synth import generate_exchanges

HORIZONS = [0.1, 0.2, 0.3, 0.4]


def _frame(ball, opp_y=0.4, index=0):
    return Frame3D(
        frame_index=index,
        ball_world=ball,
        opponent_joints_world=[
            Vec3(2.2, opp_y, 0.95),
            Vec3(2.0, opp_y + 0.1, 1.1),
            Vec3(2.2, opp_y - 0.1, 0.0),
            Vec3(2.2, opp_y + 0.1, 0.0),
        ],
        ego_root_world=Vec3(-2.2, 0.0, 0.95),
    )


def _linear_context(n=6, dt=0.05, v=Vec3(3.0, 0.5, -0.2)):
    times = np.array([-(n - i) * dt for i in range(n)])
    p_hit = Vec3(1.8, 0.3, 1.0)
    frames = [_frame(p_hit + v * float(t), index=i) for i, t in enumerate(times)]
    return ContextWindow(times=times, frames=frames), p_hit


def test_context_requires_matching_lengths():
    with pytest.raises(InputMismatch):
        ContextWindow(times=np.array([-0.1]), frames=[])
    with pytest.raises(InputMismatch):
        ContextWindow(times=np.array([-0.1]), frames=[_frame(Vec3(0, 0, 1.0))])


def test_estimate_hit_exact_on_linear_motion():
    ctx, p_hit = _linear_context()
    est, lead = ctx.estimate_hit()
    assert (est - p_hit).norm() < 1e-12
    assert lead == pytest.approx(0.05)


def test_opponent_root_y_reads_last_frame():
    ctx, _ = _linear_context()
    assert ctx.opponent_root_y() == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# conformal quantile
# ---------------------------------------------------------------------------


def _oracle_quantile(res, alpha):
    n = len(res)
    rank = math.ceil((n + 1) * (1 - alpha))
    if rank > n:
        return float("inf")
    return sorted(res)[rank - 1]


@settings(max_examples=100)
@given(
    st.lists(st.floats(0, 100), min_size=1, max_size=60),
    st.sampled_from([0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5]),
)
def test_conformal_quantile_matches_sort_oracle(res, alpha):
    assert conformal_quantile(res, alpha) == _oracle_quantile(res, alpha)


def test_conformal_quantile_sentinel_and_errors():
    # n = 3, alpha = 0.1: rank ceil(4 * 0.9) = 4 > 3 -> +inf.
    assert conformal_quantile([1.0, 2.0, 3.0], 0.1) == float("inf")
    with pytest.raises(NoCalibration):
        conformal_quantile([], 0.1)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            conformal_quantile([1.0], bad)


def test_residual_is_normalized_and_floored():
    assert residual(3.0, 1.0, 2.0) == pytest.approx(1.0)
    assert residual(1.0, 1.0, 0.0) == 0.0
    assert residual(1.0 + 1e-6, 1.0, 0.0) == pytest.approx(1.0)


def test_horizon_key_canonicalizes_repr_drift():
    assert horizon_key(0.30000000004) == 0.3
    assert horizon_key(0.1 + 0.2) == 0.3
    hs = default_horizons()
    assert hs[0] == 0.05 and hs[-1] == 0.6 and len(hs) == 12


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_ensemble_needs_two_members():
    with pytest.raises(EnsembleTooSmall):
        physics_baseline_ensemble(0, k_members=1)
    ctx, _ = _linear_context()
    with pytest.raises(EnsembleTooSmall):
        ensemble_curve(physics_baseline_ensemble(0, 2)[:1], ctx, HORIZONS)


def test_ensemble_is_deterministic_and_spread_is_floored():
    ctx, _ = _linear_context()
    preds = physics_baseline_ensemble(7, 5)
    a = ensemble_curve(preds, ctx, [0.25])[0]
    b = ensemble_curve(physics_baseline_ensemble(7, 5), ctx, [0.25])[0]
    assert (a.mean - b.mean).norm() == 0.0
    assert (a.sigma - b.sigma).norm() == 0.0
    assert min(a.sigma.x, a.sigma.y, a.sigma.z) >= 1e-6


def test_identical_members_hit_sigma_floor():
    ctx, _ = _linear_context()
    one = physics_baseline_ensemble(3, 2)[0]
    out = ensemble_curve([one, one], ctx, [0.2])[0]
    assert out.sigma.x == out.sigma.y == out.sigma.z == 1e-6


# ---------------------------------------------------------------------------
# calibration, regions, coverage
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_study():
    preds = physics_baseline_ensemble(11, 5)
    cal = generate_exchanges(11, 200, id_offset=0)
    test = generate_exchanges(12, 150, id_offset=1000)
    calib = calibrate_ensemble(preds, cal, HORIZONS, alpha=0.15)
    return preds, cal, test, calib


def test_calibration_counts_and_lookup(small_study):
    _, cal, _, calib = small_study
    for ax in ("x", "y", "z"):
        for h in HORIZONS:
            assert calib.n_samples[(ax, horizon_key(h))] == len(cal)
            assert calib.quantile(ax, h) > 0.0
    with pytest.raises(NoCalibration):
        calib.quantile("x", 0.999)


def test_region_geometry(small_study):
    preds, _, test, calib = small_study
    from ttrally.anticipate import _context_for

    ctx = _context_for(test[0], 0.0)
    regions = build_regions(preds, calib, ctx, HORIZONS)
    assert [r.horizon for r in regions] == [horizon_key(h) for h in HORIZONS]
    for r in regions:
        assert r.contains(r.center())
        assert (r.center() - (r.lo + r.hi) * 0.5).norm() < 1e-12
        hw = r.half_widths()
        assert hw.x >= 0 and hw.y >= 0 and hw.z >= 0
        assert not r.contains(r.hi + Vec3(1e-6, 0, 0))
    single = build_region(preds, calib, ctx, HORIZONS[1])
    assert (single.lo - regions[1].lo).norm() == 0.0


def test_check_split_raises_on_overlap(small_study):
    _, cal, test, calib = small_study
    check_split(calib, test)  # disjoint: fine
    with pytest.raises(SplitLeakage):
        check_split(calib, cal[:3])


def test_evaluate_coverage_guards_split(small_study):
    preds, cal, _, calib = small_study
    with pytest.raises(SplitLeakage):
        evaluate_coverage(preds, calib, cal[:3], HORIZONS)
    with pytest.raises(InputMismatch):
        evaluate_coverage(preds, calib, [], HORIZONS)


def test_small_scale_coverage(small_study):
    preds, _, test, calib = small_study
    report = evaluate_coverage(preds, calib, test, HORIZONS)
    assert report.n_test == len(test)
    for ax in ("x", "y", "z"):
        for h in HORIZONS:
            rate = report.axis_rate(ax, h)
            # Loose finite-sample band around 1 - alpha = 0.85; the tight
            # per-criterion bound is exercised at full scale elsewhere.
            assert 0.70 <= rate <= 1.0
    for h in HORIZONS:
        assert report.joint[horizon_key(h)] >= 1.0 - 3 * 0.15 - 0.10


def test_width_grows_with_horizon(small_study):
    preds, _, test, calib = small_study
    widths = width_vs_horizon(preds, calib, test, HORIZONS)
    assert widths[horizon_key(HORIZONS[-1])] > widths[horizon_key(HORIZONS[0])]


def test_extreme_hit_bias_counts(small_study):
    preds, _, test, calib = small_study
    report = extreme_hit_bias(preds, calib, test, HORIZONS)
    assert 0 < report.n_extreme < len(test)
    assert report.fraction_correct > 0.5


def test_bias_report_empty_is_nan():
    from ttrally.anticipate import BiasReport

    assert math.isnan(BiasReport(0, 0).fraction_correct)


# ---------------------------------------------------------------------------
# calibration file round trip
# ---------------------------------------------------------------------------


def test_calibration_file_round_trip(small_study, tmp_path):
    _, _, _, calib = small_study
    path = tmp_path / "a.conformal"
    write_calibration(str(path), calib, seed=11)
    loaded = read_calibration(str(path))
    assert loaded.alpha == calib.alpha
    assert loaded.quantiles == calib.quantiles
    assert loaded.n_samples == calib.n_samples
    assert "seed=11" in path.read_text().splitlines()[0]
    path2 = tmp_path / "b.conformal"
    write_calibration(str(path2), loaded, seed=11)
    assert path.read_bytes() == path2.read_bytes()


def test_read_calibration_rejects_bad_files(tmp_path):
    p = tmp_path / "x"
    p.write_text("other-header\n")
    with pytest.raises(ParseError):
        read_calibration(str(p))
    p.write_text("conformal-v1\n")
    with pytest.raises(ParseError):
        read_calibration(str(p))
    p.write_text("conformal-v1 alpha=0.1\nx\t0.1\t1.0\n")
    with pytest.raises(ParseError) as err:
        read_calibration(str(p))
    assert err.value.line_number == 2
    p.write_text("conformal-v1 alpha=0.1\nw\t0.1\t1.0\t5\n")
    with pytest.raises(ParseError):
        read_calibration(str(p))
    p.write_text("conformal-v1 alpha=0.1\nx\t0.1\toops\t5\n")
    with pytest.raises(ParseError):
        read_calibration(str(p))


def test_empty_quantile_table_round_trips(tmp_path):
    path = tmp_path / "empty.conformal"
    write_calibration(str(path), ConformalCalibration(alpha=0.2))
    loaded = read_calibration(str(path))
    assert loaded.alpha == 0.2
    assert loaded.quantiles == {}
