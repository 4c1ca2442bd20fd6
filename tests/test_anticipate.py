import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalar_flight import construct_return_shot
from ttrally.anticipate import (
    FORECAST_SAMPLES,
    STUDY_HORIZONS,
    ContextWindow,
    ConformalCalibration,
    _bounds,
    _chunks,
    _context_arrays,
    _ensemble,
    build_regions,
    calibrate_ensemble,
    check_split,
    conformal_quantile,
    evaluate_coverage,
    extreme_hit_bias,
    forecast_split,
    horizon_key,
    physics_baseline_ensemble,
    read_calibration,
    run_conformal_study,
    width_vs_horizon,
    write_calibration,
)
from ttrally.core import Frame3D, TableGeometry, Vec3
from ttrally.errors import (
    EnsembleTooSmall,
    InputMismatch,
    NoCalibration,
    SplitLeakage,
)
from ttrally import anticipate
from ttrally.control import HORIZONS as RETURNER_HORIZONS
from ttrally.synth import (SHOT_AIM_GAIN, SHOT_SPEED_CLIP, SHOT_SPEED_MEAN, SHOT_Y_LIMIT,
                           TABLE, balls_at, context_mask, generate_exchanges, return_shots)

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
    )


def _linear_context(n=6, dt=0.05, v=Vec3(3.0, 0.5, -0.2)):
    times = np.array([-(n - i) * dt for i in range(n)])
    p_hit = Vec3(1.8, 0.3, 1.0)
    frames = [_frame(p_hit + v * float(t), index=i) for i, t in enumerate(times)]
    return ContextWindow(times=times, frames=frames), p_hit


def _context_for(ex, lead_time):
    """The ContextWindow of a forecast issued lead_time before ex's hit."""
    keep = context_mask(lead_time)
    return ContextWindow(times=ex.context_times[keep],
                         frames=[f for f, k in zip(ex.context, keep) if k])


def test_context_requires_matching_lengths():
    with pytest.raises(InputMismatch):
        ContextWindow(times=np.array([-0.1]), frames=[])
    with pytest.raises(InputMismatch):
        ContextWindow(times=np.array([-0.1]), frames=[_frame(Vec3(0, 0, 1.0))])


def test_context_arrays_hit_exact_on_linear_motion():
    ctx, p_hit = _linear_context()
    hit, root_y = _context_arrays([ctx, ctx])
    assert hit.shape == (2, 3) and root_y.shape == (2,)
    assert np.abs(hit - p_hit.as_array()).max() < 1e-12
    assert root_y.tolist() == [ctx.opponent_root_y()] * 2


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


def test_horizon_key_canonicalizes_repr_drift():
    assert horizon_key(0.30000000004) == 0.3
    assert horizon_key(0.1 + 0.2) == 0.3
    hs = STUDY_HORIZONS
    assert hs[0] == 0.05 and hs[-1] == 0.6 and len(hs) == 12


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------


def test_ensemble_needs_two_members():
    with pytest.raises(EnsembleTooSmall):
        physics_baseline_ensemble(0, k_members=1)
    ctx, _ = _linear_context()
    with pytest.raises(EnsembleTooSmall):
        build_regions(physics_baseline_ensemble(0, 2)[:1], ConformalCalibration(0.1), ctx, HORIZONS)


def test_ensemble_is_deterministic_and_spread_is_floored():
    ctx, _ = _linear_context()
    preds = physics_baseline_ensemble(7, 5)
    hit, root_y = _context_arrays([ctx])
    mean_a, sigma_a = _ensemble(preds, hit, root_y, np.array([0.25]))
    mean_b, sigma_b = _ensemble(physics_baseline_ensemble(7, 5), hit, root_y, np.array([0.25]))
    assert mean_a.shape == sigma_a.shape == (1, 1, 3)
    assert np.array_equal(mean_a, mean_b)
    assert np.array_equal(sigma_a, sigma_b)
    assert sigma_a.min() >= 1e-6


def test_identical_members_hit_sigma_floor():
    ctx, _ = _linear_context()
    one = physics_baseline_ensemble(3, 2)[0]
    _, sigma = _ensemble(np.vstack([one, one]), *_context_arrays([ctx]), np.array([0.2]))
    assert sigma.tolist() == [[[1e-6, 1e-6, 1e-6]]]



# ---------------------------------------------------------------------------
# calibration, regions, coverage
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_study():
    preds = physics_baseline_ensemble(11, 5)
    cal = generate_exchanges(11, 200, id_offset=0)
    test = generate_exchanges(12, 150, id_offset=1000)
    calib = calibrate_ensemble(forecast_split(preds, cal, HORIZONS), alpha=0.15)
    return preds, cal, forecast_split(preds, test, HORIZONS), calib


def test_calibration_counts_and_lookup(small_study):
    preds, cal, test, calib = small_study
    for ax in ("x", "y", "z"):
        for h in HORIZONS:
            assert calib.n_samples[(ax, horizon_key(h))] == len(cal)
            assert calib.quantiles[(ax, horizon_key(h))] > 0.0
    ctx = _context_for(test.exchanges[0], 0.0)
    with pytest.raises(NoCalibration, match=r"no quantile for \('x', 0.999\)"):
        build_regions(preds, calib, ctx, [*HORIZONS, 0.999])


def test_region_geometry(small_study):
    preds, _, test, calib = small_study
    ctx = _context_for(test.exchanges[0], 0.0)
    regions = build_regions(preds, calib, ctx, HORIZONS)
    assert [r.horizon for r in regions] == [horizon_key(h) for h in HORIZONS]
    for r in regions:
        assert all(a < b for a, b in zip(r.lo, r.hi))
    single = build_regions(preds, calib, ctx, [HORIZONS[1]])[0]
    assert (single.lo - regions[1].lo).norm() == 0.0


def test_check_split_raises_on_overlap(small_study):
    _, cal, test, calib = small_study
    check_split(calib, test.exchanges)  # disjoint: fine
    with pytest.raises(SplitLeakage):
        check_split(calib, cal[:3])


def test_evaluate_coverage_guards_split(small_study):
    preds, cal, _, calib = small_study
    with pytest.raises(SplitLeakage):
        evaluate_coverage(calib, forecast_split(preds, cal[:3], HORIZONS))
    with pytest.raises(InputMismatch):
        evaluate_coverage(calib, forecast_split(preds, cal[:0], HORIZONS))


def test_small_scale_coverage(small_study):
    _, _, test, calib = small_study
    report = evaluate_coverage(calib, test)
    for ax in ("x", "y", "z"):
        for h in HORIZONS:
            rate = report.per_axis[(ax, horizon_key(h))]
            # Loose finite-sample band around 1 - alpha = 0.85; the tight
            # per-criterion bound is exercised at full scale elsewhere.
            assert 0.70 <= rate <= 1.0
    for h in HORIZONS:
        assert report.joint[horizon_key(h)] >= 1.0 - 3 * 0.15 - 0.10


def test_width_grows_with_horizon(small_study):
    _, _, test, calib = small_study
    widths = width_vs_horizon(calib, test)
    assert widths[horizon_key(HORIZONS[-1])] > widths[horizon_key(HORIZONS[0])]


def test_extreme_hit_bias_counts(small_study):
    _, _, test, calib = small_study
    report = extreme_hit_bias(calib, test)
    assert 0 < report.n_extreme < len(test.exchanges)
    assert report.fraction_correct > 0.5


# The per-exchange loop the forecast path replaced: one ensemble run per
# exchange and statistic, scores and bounds on Python floats, accumulated in
# per-(axis, horizon) lists. Every statistic must equal it exactly.


def _member_shot(member):
    """The shot a member row replays, on Python floats: bounce x, crossing
    height, speed and drag (its aim depends on the context)."""
    _, d_speed, d_bounce_x, d_z_cross, d_k = member.tolist()
    return (-0.675 + d_bounce_x, 1.05 + d_z_cross,
            min(max(SHOT_SPEED_MEAN + d_speed, SHOT_SPEED_CLIP[0]), SHOT_SPEED_CLIP[1]),
            max(0.19 + d_k, 0.02))


def _oracle_trajectory(member, ctx):
    """A member's shot the scalar way: Vec3 hit estimate, construct_return_shot."""
    p0, p1 = ctx.frames[-2].ball_world, ctx.frames[-1].ball_world
    lead = -float(ctx.times[-1])
    hit = p1 + (p1 - p0) * (1.0 / float(ctx.times[-1] - ctx.times[-2])) * lead
    y_cross = float(np.clip(SHOT_AIM_GAIN * ctx.frames[-1].opponent_joints_world[0].y
                            + float(member[0]), -SHOT_Y_LIMIT, SHOT_Y_LIMIT))
    x_bounce, z_cross, speed, k = _member_shot(member)
    traj, _ = construct_return_shot(TABLE, hit, x_bounce, y_cross, z_cross, speed, k, k)
    return traj


def _oracle_curve(preds, ex, horizons, lead_time):
    ctx = _context_for(ex, lead_time)
    trajs = [_oracle_trajectory(p, ctx) for p in preds]
    members = np.array([[t.position(h).as_array() for h in horizons] for t in trajs])
    members = members.transpose(1, 0, 2)  # (n_horizons, k_members, 3)
    return list(zip(members.mean(axis=1), np.maximum(members.std(axis=1), 1e-6)))


def _oracle_box(calib, mean, sigma, h):
    half = np.array([calib.quantiles[(ax, horizon_key(h))] for ax in "xyz"]) * sigma
    return [float(v) for v in mean - half], [float(v) for v in mean + half]


def _oracle_study(preds, cal, test, horizons, alpha, lead_time, extreme_y):
    scores = {(ax, horizon_key(h)): [] for ax in "xyz" for h in horizons}
    for ex in cal:
        for h, (mean, sigma) in zip(horizons, _oracle_curve(preds, ex, horizons, lead_time)):
            truth = ex.truth_at(h).as_array()
            for i, ax in enumerate("xyz"):
                scores[(ax, horizon_key(h))].append(
                    abs(float(truth[i]) - float(mean[i])) / max(float(sigma[i]), 1e-6))
    calib = ConformalCalibration(alpha=alpha)
    for key, res in scores.items():
        calib.quantiles[key] = _oracle_quantile(res, alpha)
        calib.n_samples[key] = len(res)

    hits = dict.fromkeys(scores, 0)
    joint = {horizon_key(h): 0 for h in horizons}
    widths = {horizon_key(h): [] for h in horizons}
    for ex in test:
        for h, (mean, sigma) in zip(horizons, _oracle_curve(preds, ex, horizons, lead_time)):
            lo, hi = _oracle_box(calib, mean, sigma, h)
            t = ex.truth_at(h)
            inside = [lo[0] <= t.x <= hi[0], lo[1] <= t.y <= hi[1], lo[2] <= t.z <= hi[2]]
            for i, ax in enumerate("xyz"):
                hits[(ax, horizon_key(h))] += inside[i]
            joint[horizon_key(h)] += all(inside)
            half = (Vec3(*hi) - Vec3(*lo)) * 0.5
            widths[horizon_key(h)].append(float(np.mean(2.0 * half.as_array())))

    hs = sorted(horizon_key(h) for h in horizons)
    hw = TableGeometry().half_width
    n_extreme = n_correct = 0
    for ex, t_cross, (_, y_cross, _) in zip(test, test.crossing_time.tolist(),
                                            test.crossing_pos.tolist()):
        if abs(y_cross) <= extreme_y:
            continue
        n_extreme += 1
        h = min(hs, key=lambda h: abs(h - t_cross))
        (mean, sigma), = _oracle_curve(preds, ex, [h], lead_time)
        lo, hi = _oracle_box(calib, mean, sigma, h)
        right = 1.0 - max(0.0, min(hi[1], hw) - max(lo[1], 0.0)) / hw
        left = 1.0 - max(0.0, min(hi[1], 0.0) - max(lo[1], -hw)) / hw
        wrong, correct = (left, right) if y_cross > 0 else (right, left)
        n_correct += wrong > correct and wrong >= 1.0 / 3.0
    n = len(test)
    return (calib, {k: v / n for k, v in hits.items()}, {k: v / n for k, v in joint.items()},
            {k: float(np.mean(v)) for k, v in widths.items()}, (n_extreme, n_correct))


@pytest.mark.parametrize("lead_time", [0.0, 0.1])
def test_forecast_path_equals_per_exchange_oracle(small_study, lead_time, monkeypatch):
    preds, cal, test, _ = small_study
    horizons = list(STUDY_HORIZONS)
    calib = calibrate_ensemble(forecast_split(preds, cal, horizons, lead_time), alpha=0.15)
    forecast = forecast_split(preds, test.exchanges, horizons, lead_time)
    coverage = evaluate_coverage(calib, forecast)
    monkeypatch.setattr(anticipate, "EXTREME_Y", 0.5)  # more extreme shots to compare
    bias = extreme_hit_bias(calib, forecast)
    o_calib, o_axis, o_joint, o_widths, o_bias = _oracle_study(
        preds, cal, test.exchanges, horizons, 0.15, lead_time, extreme_y=0.5)
    assert calib.quantiles == o_calib.quantiles
    assert calib.n_samples == o_calib.n_samples
    assert coverage.per_axis == o_axis
    assert coverage.joint == o_joint
    assert width_vs_horizon(calib, forecast) == o_widths
    assert (bias.n_extreme, bias.n_correct_side) == o_bias
    assert bias.n_extreme > 10


def test_single_context_regions_equal_the_split_bounds(small_study):
    preds, _, test, calib = small_study
    lo, hi = _bounds(calib, test.horizons, test.mean, test.sigma)
    inside = dict.fromkeys(HORIZONS, 0)
    for i, ex in enumerate(test.exchanges):
        regions = build_regions(preds, calib, _context_for(ex, 0.0), HORIZONS)
        for j, (h, region) in enumerate(zip(HORIZONS, regions)):
            assert region.lo.as_array().tobytes() == lo[i, j].tobytes()
            assert region.hi.as_array().tobytes() == hi[i, j].tobytes()
            inside[h] += all(a <= t <= b for a, t, b in zip(region.lo, ex.truth_at(h), region.hi))
    online = {horizon_key(h): v / len(test.exchanges) for h, v in inside.items()}
    assert online == evaluate_coverage(calib, test).joint


def test_study_runs_the_ensemble_once_per_exchange(monkeypatch):
    entered, batched = [], []
    exchange_arrays, ensemble = anticipate._exchange_arrays, anticipate._ensemble

    def tagging(exchanges, lead_time):
        entered.extend(exchanges.ids.tolist())
        return exchange_arrays(exchanges, lead_time)

    def counting(predictors, hit, root_y, horizons):
        batched.append(len(hit))
        return ensemble(predictors, hit, root_y, horizons)

    monkeypatch.setattr(anticipate, "_exchange_arrays", tagging)
    monkeypatch.setattr(anticipate, "_ensemble", counting)
    study = run_conformal_study(3, n_cal=40, n_test=30)
    assert study.bias.n_extreme > 0  # the bias stage ran
    # Every exchange of both splits enters the batch model exactly once,
    # one pass per split here (each fits in one pass).
    assert sorted(entered) == list(range(40 + 30))
    assert batched == [40, 30]


# Exchanges per pass of 5 members at the 12 study horizons, and of their truth.
STUDY_PASS = FORECAST_SAMPLES // (5 * len(STUDY_HORIZONS))
TRUTH_PASS = FORECAST_SAMPLES // len(STUDY_HORIZONS)


@pytest.fixture(scope="module")
def chunked_exchanges():
    return generate_exchanges(21, 3 * TRUTH_PASS + 5)


@pytest.fixture(scope="module")
def split_oracle(chunked_exchanges):
    """The scalar curve of each chunked exchange at the study horizons, per
    lead time: every size below reads a prefix of the same rows."""
    preds = physics_baseline_ensemble(4, 5)
    return functools.cache(lambda lead_time: [
        _oracle_curve(preds, ex, STUDY_HORIZONS, lead_time)
        for ex in chunked_exchanges[:3 * STUDY_PASS + 5]])


# Sizes inside one pass (63, 65), across one boundary (197), either side of
# a pass and across three.
@pytest.mark.parametrize("lead_time", [0.0, 0.1, 0.2, 0.4])
@pytest.mark.parametrize("n", [0, 1, 63, 65, 197, STUDY_PASS - 1, STUDY_PASS + 1,
                               3 * STUDY_PASS + 5])
def test_forecast_split_equals_the_scalar_oracle_bytewise(chunked_exchanges, split_oracle, n,
                                                          lead_time):
    preds = physics_baseline_ensemble(4, 5)
    horizons = list(STUDY_HORIZONS)
    exchanges = chunked_exchanges[:n]
    forecast = forecast_split(preds, exchanges, horizons, lead_time)
    assert forecast.mean.shape == forecast.sigma.shape == forecast.truth.shape == (n, 12, 3)
    for i, (ex, curve) in enumerate(zip(exchanges, split_oracle(lead_time))):
        assert np.array([m for m, _ in curve]).tobytes() == forecast.mean[i].tobytes()
        assert np.array([s for _, s in curve]).tobytes() == forecast.sigma[i].tobytes()
        truth = np.array([ex.truth_at(h).as_array() for h in horizons])
        assert truth.tobytes() == forecast.truth[i].tobytes()


@pytest.mark.parametrize("n", [TRUTH_PASS - 1, TRUTH_PASS + 1, 3 * TRUTH_PASS + 5])
def test_truth_passes_equal_one_whole_split_sample(chunked_exchanges, monkeypatch, n):
    exchanges, sampled = chunked_exchanges[:n], []
    monkeypatch.setattr(anticipate, "balls_at", lambda rows, horizons: sampled.append(
        len(rows)) or balls_at(rows, horizons))
    forecast = forecast_split(physics_baseline_ensemble(4, 5), exchanges, STUDY_HORIZONS)
    assert sampled == [min(TRUTH_PASS, n - lo) for lo in range(0, n, TRUTH_PASS)]
    assert forecast.truth.tobytes() == balls_at(exchanges, STUDY_HORIZONS).tobytes()


def test_a_pass_holds_its_sample_budget_in_rows(chunked_exchanges, monkeypatch):
    # 5 members at the returner's 23 horizons: the all-horizon callers keep
    # 64-exchange passes.
    assert _chunks(130, 5 * len(RETURNER_HORIZONS)) == [slice(0, 64), slice(64, 128),
                                                        slice(128, 130)]
    # A returner calibration's truth, 600 exchanges at 7 horizons: one pass.
    assert _chunks(600, 7) == [slice(0, 600)]
    # A row over the budget is a pass of its own, never an empty one.
    assert _chunks(3, 400 * len(RETURNER_HORIZONS)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    # The forecast passes its members x horizons, the truth its horizons.
    ensembled, sampled = [], []
    ensemble = anticipate._ensemble
    monkeypatch.setattr(anticipate, "_ensemble", lambda predictors, hit, *args: ensembled.append(
        len(hit)) or ensemble(predictors, hit, *args))
    monkeypatch.setattr(anticipate, "balls_at", lambda rows, horizons: sampled.append(
        len(rows)) or balls_at(rows, horizons))
    forecast_split(physics_baseline_ensemble(4, 5), chunked_exchanges[:130], RETURNER_HORIZONS)
    forecast_split(physics_baseline_ensemble(4, 5), chunked_exchanges[:600],
                   RETURNER_HORIZONS[:7])
    forecast_split(physics_baseline_ensemble(4, 400), chunked_exchanges[:3], RETURNER_HORIZONS)
    assert ensembled == [64, 64, 2] + [210, 210, 180] + [1, 1, 1]
    assert sampled == [130, 600, 3]


# Members past both ends of the speed clip, below the drag floor and beyond
# the crossing-y limit, beside drawn tables.
CLIPPED = np.array([[0.3, 6.0, 0.1, 0.0, -0.3], [-0.2, -6.0, -0.1, 0.05, 0.0],
                    [1.5, 0.0, 0.0, -0.05, 0.04]])


@pytest.mark.parametrize("members", [physics_baseline_ensemble(4, 5),
                                     physics_baseline_ensemble(11, 2), CLIPPED])
def test_ensemble_equals_return_shots_one_member_at_a_time(chunked_exchanges, members):
    hit, root_y = anticipate._exchange_arrays(chunked_exchanges[:64], 0.0)
    hs = np.asarray(STUDY_HORIZONS)
    per_member = []
    for member in members:
        x_bounce, z_cross, speed, k = (np.full(len(hit), v) for v in _member_shot(member))
        y_cross = np.clip(SHOT_AIM_GAIN * root_y + float(member[0]), -SHOT_Y_LIMIT, SHOT_Y_LIMIT)
        chains, _ = return_shots(hit, x_bounce, y_cross, z_cross, speed, k, k)
        per_member.append(chains.positions(hs))
    preds = np.stack(per_member, axis=1)  # (n, k, n_horizons, 3)
    mean, sigma = _ensemble(members, hit, root_y, hs)
    assert mean.tobytes() == preds.mean(axis=1).tobytes()
    assert sigma.tobytes() == np.maximum(preds.std(axis=1), 1e-6).tobytes()


def test_truth_before_the_hit_follows_the_incoming_ball(chunked_exchanges):
    # Past a pass of 2 members at 4 horizons, and past one of their truth.
    horizons = [-0.3, -0.05, 0.0, 0.2]
    exchanges = chunked_exchanges[:FORECAST_SAMPLES // len(horizons) + 1]
    forecast = forecast_split(physics_baseline_ensemble(4, 2), exchanges, horizons)
    truth = np.array([[ex.truth_at(h).as_array() for h in horizons] for ex in exchanges])
    assert truth.tobytes() == forecast.truth.tobytes()


def test_batch_forecast_raises_the_scalar_checks(chunked_exchanges):
    preds, exchanges = physics_baseline_ensemble(4, 5), chunked_exchanges[:3]
    for members in (preds[:1], preds[:0]):
        with pytest.raises(EnsembleTooSmall):
            forecast_split(members, exchanges, HORIZONS)
    with pytest.raises(InputMismatch):  # one context frame left
        forecast_split(preds, exchanges, HORIZONS, lead_time=0.6)
    # A member bouncing 0.5 mm short of the ego plane, inside the 1 mm clearance.
    deep = np.array([[0.0, 0.0, -0.6945, 0.0, 0.0]])
    with pytest.raises(ValueError, match="x_bounce"):
        forecast_split(np.vstack([preds, deep]), exchanges, HORIZONS)
    # Two frames at one instant: the velocity estimate divides by zero.
    ctx = _context_for(exchanges[0], 0.0)
    ctx.times = ctx.times.copy()
    ctx.times[-2] = ctx.times[-1]
    with pytest.raises(FloatingPointError):
        build_regions(preds, ConformalCalibration(0.1), ctx, HORIZONS)


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


def test_empty_quantile_table_round_trips(tmp_path):
    path = tmp_path / "empty.conformal"
    write_calibration(str(path), ConformalCalibration(alpha=0.2))
    loaded = read_calibration(str(path))
    assert loaded.alpha == 0.2
    assert loaded.quantiles == {}
