"""The benchmark's workloads: closed loops over ttrally's public functions.

Each workload generates its inputs from the run's seed, runs one operation at a
time (the next starts only when the previous one returned), times only the
calls into ttrally (scaled to the reference speed by ``clock.Clock``), and
checks every output against ground truth or against the acceptance gates' own
bounds. A raised exception or a failed check counts as a failed operation;
neither stops the run. A figure that needs a successful operation is reported
as 0 when none succeeded, so a broken run still prints its result line.

Module functions are always called through their module (``pipeline.load_track``),
never imported by name, so the tracer's wrappers see the benchmark's calls.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass

import numpy as np

from ttrally import anticipate, control, core, pipeline, synth

WARMUP_INDEX = 1_000_000  # input index reserved for warm-up, outside every measured sequence
CHECK_INDEX = 2_000_000  # first input index of inputs made only for output checks
SETUP_INPUTS = 20  # rally tracks made during set-up: one full cycle of hits and noise
ALPHA = 0.1  # miscoverage level of the conformal study and of its coverage checks
K_MEMBERS = 5  # ensemble size of the study and of the single-context forecasts


@dataclass(frozen=True)
class Reported:
    """One reported figure, named in the workload's own terms."""

    name: str
    value: float
    unit: str
    detail: str
    bench: str = ""  # the BENCHMARK.json end-to-end metric it is emitted as, if any


def vec(v) -> np.ndarray:
    """A Vec3-like or array-like point as a float array."""
    if hasattr(v, "x"):
        return np.array([v.x, v.y, v.z], dtype=float)
    return np.asarray(v, dtype=float)


def tail(values: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is returned.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of {n}"
    rank = n - 10
    return s[rank - 1], f"p{100 * rank / n:.1f} of {n}"


def timings(clock, ops: list, name: str) -> list[Reported]:
    """Median and tail of the operations' scaled times, with the raw ones alongside."""
    if not ops:
        return [Reported(f"{name}.p50", 0.0, "ms", "no operation succeeded", "latency_ms.p50"),
                Reported(f"{name}.tail", 0.0, "ms", "no operation succeeded")]
    scaled = [1e3 * clock.scaled(op) for op in ops]
    raw = [1e3 * op.raw for op in ops]
    tail_ms, tail_of = tail(scaled)
    return [
        Reported(f"{name}.p50", statistics.median(scaled), "ms",
                 f"n={len(ops)}; raw {statistics.median(raw):.4g} ms", "latency_ms.p50"),
        Reported(f"{name}.tail", tail_ms, "ms", f"{tail_of}; raw {tail(raw)[0]:.4g} ms"),
    ]


def rate(clock, ops: list, count: int, name: str, what: str) -> Reported:
    """Work per second of scaled time, with the raw rate alongside."""
    if not ops:
        return Reported(name, 0.0, "1/s", "no operation succeeded", "throughput_per_s")
    scaled = sum(clock.scaled(op) for op in ops)
    raw = sum(op.raw for op in ops)
    return Reported(name, count / scaled, "1/s",
                    f"{count} {what} in {scaled:.2f} s scaled; raw {count / raw:.4g}/s",
                    "throughput_per_s")


class Workload:
    """Shared bookkeeping: operations attempted and failed, and named checks."""

    quota = 1  # items every run completes; accuracy metrics are taken over these
    cycle = 1  # items in one full mix of inputs; a run stops only after whole cycles

    def __init__(self, seed: int, workdir: str, clock) -> None:
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.timed: list = []  # every successful timed operation
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, tuple[int, int, str]] = {}  # name -> (passed, run, detail)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(what)

    def finish(self) -> None:
        """Checks that run once after the measured loop."""

    def check(self, name: str, ok: bool, detail: str) -> bool:
        """Record one evaluation of a named check; the first failure's detail sticks."""
        passed, run, shown = self.checks.get(name, (0, 0, detail))
        if passed == run:
            shown = detail
        self.checks[name] = (passed + bool(ok), run + 1, shown)
        return ok


# ---------------------------------------------------------------------------
# rally reconstruction: the `reconstruct` + `stats` command path, one point at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RallySpec:
    fps: float
    noise_px: tuple[float, float]  # stratified over five levels, ends included
    quota: int = 40  # a multiple of 20 visits every (hits, noise) pair equally
    n_check: int = 3  # noiseless points for the reconstruction-accuracy gate


class Rally(Workload):
    """load_track -> reconstruct_point -> write_reconstruction -> read_reconstruction
    -> dataset_stats, on tracks made by generate_scene during set-up."""

    WITHIN_CM = 5.0
    cycle = SETUP_INPUTS

    def __init__(self, seed: int, workdir: str, clock, spec: RallySpec) -> None:
        super().__init__(seed, workdir, clock)
        self.spec = spec
        self.quota = spec.quota
        self.inputs: list[tuple[str, dict, int]] = []
        self.sq_err = 0.0
        self.n_frames = 0
        self.n_within = 0

    def _make(self, index: int, noise_px: float, n_hits: int) -> tuple[str, dict, int]:
        rng = np.random.default_rng([self.seed, index])
        track, rally, _ = synth.generate_scene(
            rng, fps=self.spec.fps, n_hits=n_hits, noise_px=noise_px,
            video_id=f"bench-{index}", seed=self.seed,
        )
        path = os.path.join(self.workdir, f"point{index}.track")
        pipeline.write_track(track, path)
        truth = {int(f): rally.ball[i] for i, f in enumerate(rally.frames)}
        return path, truth, len(rally.hits)

    def _input(self, index: int) -> tuple[str, dict, int]:
        # Hits cycle 3..6 and noise over five levels, so every seed gets the same
        # mix of the two properties that set a point's cost.
        lo, hi = self.spec.noise_px
        return self._make(index, lo + (hi - lo) * (index % 5) / 4, 3 + index % 4)

    def _point(self, path: str, point_id: int):
        track = pipeline.load_track(path)
        recon, _ = pipeline.reconstruct_point(track, point_id=point_id)
        out = os.path.join(self.workdir, "point.recon")
        pipeline.write_reconstruction(recon, out)
        back = pipeline.read_reconstruction(out)
        points = [
            core.Point(frames=p.frame3d_for_ego(0), hits=[h.frame for h in p.hits],
                       fps=back.fps, point_id=p.point_id)
            for p in back.points
        ]
        return back, core.dataset_stats(points, back.table)

    @staticmethod
    def _errors(back, truth: dict) -> np.ndarray:
        point = back.points[0]
        return np.array([np.linalg.norm(vec(f.ball) - truth[f.frame_index]) for f in point.frames])

    def setup(self) -> None:
        self.inputs = [self._input(i) for i in range(min(SETUP_INPUTS, self.quota))]
        path, _, _ = self._make(WARMUP_INDEX, self.spec.noise_px[0], 4)
        self._point(path, WARMUP_INDEX)

    def run_item(self, k: int) -> float:
        while len(self.inputs) <= k:  # inputs beyond the set-up's, made outside the clock
            self.inputs.append(self._input(len(self.inputs)))
        path, truth, n_hits = self.inputs[k]
        self.attempted += 1
        try:
            with self.clock.op() as op:
                back, stats = self._point(path, k)
        except Exception as exc:  # a failed operation is counted, never fatal
            self.fail(f"point {k}: {exc!r}")
            return op.raw
        self.timed.append(op)
        err = self._errors(back, truth)
        got = len(back.points[0].hits)
        ok = self.check("hits_match_truth", got == n_hits, f"point {k}: {got} hits, truth {n_hits}")
        ok &= self.check("stats_finite", math.isfinite(stats.mean_speed) and len(err) > 0,
                         f"point {k}: mean_speed={stats.mean_speed!r}, {len(err)} frames")
        if not ok:
            self.fail(f"point {k}: output check failed")
        if k < self.quota:
            self.sq_err += float(np.sum(err**2))
            self.n_frames += len(err)
            self.n_within += int(np.sum(err < self.WITHIN_CM / 100.0))
        return op.raw

    def finish(self) -> None:
        sq, n = 0.0, 0
        for j in range(self.spec.n_check):
            path, truth, n_hits = self._make(CHECK_INDEX + j, 0.0, 4)
            self.attempted += 1
            try:
                back, _ = self._point(path, CHECK_INDEX + j)
            except Exception as exc:
                self.fail(f"noiseless point {j}: {exc!r}")
                continue
            err = self._errors(back, truth)
            sq += float(np.sum(err**2))
            n += len(err)
            if not self.check("hits_match_truth", len(back.points[0].hits) == n_hits,
                              f"noiseless point {j}"):
                self.fail(f"noiseless point {j}: hit count")
        rms_cm = 100 * math.sqrt(sq / n) if n else float("inf")
        if not self.check("noiseless_rms_below_2cm", rms_cm < 2.0,
                          f"{rms_cm:.4f} cm over {self.spec.n_check} points"):
            self.fail("noiseless pooled RMS >= 2 cm")

    def results(self) -> list[Reported]:
        n = max(self.n_frames, 1)
        rms_cm = 100 * math.sqrt(self.sq_err / n)
        within = self.n_within / n
        return [
            rate(self.clock, self.timed, len(self.timed), "recon.points_per_s", "points"),
            *timings(self.clock, self.timed, "recon.point_ms"),
            Reported(f"recon.within_{self.WITHIN_CM:g}cm_frac", within, "frac",
                     f"{self.n_within}/{self.n_frames} frames of the first {self.quota} points",
                     "accuracy.frac"),
            Reported("recon.err_cm", rms_cm, "cm",
                     f"pooled RMS over {self.n_frames} frames of the first {self.quota} points"),
        ]


# ---------------------------------------------------------------------------
# conformal study (`ttrally conformal`) and online single-context forecasts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalSpec:
    # The per-axis coverage gate (1 - alpha - 0.02) is a statistical test on
    # every study. Across seeds, pooled per-axis coverage averages 0.901; its
    # standard deviation is about 0.010 at the command's 2500/1000 (33 seeds)
    # and 0.0055 at 6000/4000 (20 seeds), so at 2500/1000 about one study in
    # forty falls below the gate by chance. At 8000/4000 the gate is about
    # four standard deviations below the mean. A test exchange costs about
    # 2.5 times a calibration one (three ensemble passes and phase 2), hence
    # the larger calibration split.
    n_cal: int = 8000
    n_test: int = 4000


class Conformal(Workload):
    """Phase 1: run_conformal_study. Phase 2: build_regions for one test context
    at a time with the study's calibration and horizons, as the returner does."""

    def __init__(self, seed: int, workdir: str, clock, spec: ConformalSpec) -> None:
        super().__init__(seed, workdir, clock)
        self.spec = spec
        self.studies: list = []
        self.forecasts: list = []
        self.first = None

    def _study_seed(self, k: int) -> int:
        return 10_000 * self.seed + 2 * k  # a study uses seeds s and s + 1

    def _phase2_inputs(self, k: int):
        # run_conformal_study's test split and ensemble, rebuilt from its seed;
        # the coverage-equality check below fails if the two ever diverge.
        s, spec = self._study_seed(k), self.spec
        test = synth.generate_exchanges(s + 1, spec.n_test, id_offset=spec.n_cal)
        return test, anticipate.physics_baseline_ensemble(s, K_MEMBERS)

    def setup(self) -> None:
        anticipate.run_conformal_study(
            seed=self._study_seed(WARMUP_INDEX), n_cal=100, n_test=50,
            k_members=K_MEMBERS, alpha=ALPHA)

    def _check_study(self, k: int, study) -> bool:
        a = ALPHA
        cov = study.coverage
        per_axis = {ax: statistics.fmean(v for (x, _), v in cov.per_axis.items() if x == ax)
                    for ax in ("x", "y", "z")}
        joint = statistics.fmean(cov.joint.values())
        hs = sorted(study.widths)
        axis_lo = min(per_axis.values())
        ok = self.check("axis_coverage", 1 - a - 0.02 <= axis_lo <= 1.0,
                        f"study {k}: min pooled per-axis coverage {axis_lo:.4f} >= {1 - a - 0.02:.2f}")
        ok &= self.check("joint_coverage", joint >= 1 - 3 * a,
                         f"study {k}: mean joint coverage {joint:.4f} >= {1 - 3 * a:.2f}")
        ok &= self.check("width_grows", study.widths[hs[-1]] > study.widths[hs[0]],
                         f"study {k}: {study.widths[hs[0]]:.4f} m -> {study.widths[hs[-1]]:.4f} m")
        return ok

    def run_item(self, k: int) -> float:
        spec = self.spec
        self.attempted += 1
        try:
            with self.clock.op() as op:
                study = anticipate.run_conformal_study(
                    seed=self._study_seed(k), n_cal=spec.n_cal, n_test=spec.n_test,
                    k_members=K_MEMBERS, alpha=ALPHA)
        except Exception as exc:
            self.fail(f"study {k}: {exc!r}")
            return op.raw
        busy = op.raw
        self.studies.append(op)
        self.timed.append(op)
        if not self._check_study(k, study):
            self.fail(f"study {k}: output check failed")
        if self.first is None:
            self.first = study

        test, predictors = self._phase2_inputs(k)  # made outside the clock
        horizons = sorted(study.coverage.joint)
        inside = dict.fromkeys(horizons, 0)
        for ex in test:
            ctx = anticipate.ContextWindow(times=ex.context_times, frames=list(ex.context))
            self.attempted += 1
            try:
                with self.clock.op() as op:
                    regions = anticipate.build_regions(predictors, study.calib, ctx, horizons)
            except Exception as exc:
                busy += op.raw
                self.fail(f"forecast {ex.exchange_id}: {exc!r}")
                continue
            busy += op.raw
            self.forecasts.append(op)
            self.timed.append(op)
            for h, region in zip(horizons, regions):
                truth = vec(ex.truth_at(h))
                inside[h] += bool(np.all((vec(region.lo) <= truth) & (truth <= vec(region.hi))))
        online = {h: v / len(test) for h, v in inside.items()}
        if not self.check("online_matches_study", online == study.coverage.joint,
                          f"study {k}: single-context joint coverage equals the study's"):
            self.fail(f"study {k}: single-context regions differ from the study's")
        return busy

    def results(self) -> list[Reported]:
        spec = self.spec
        s = self.first
        return [
            rate(self.clock, self.studies, len(self.studies) * (spec.n_cal + spec.n_test),
                 "conformal.exchanges_per_s", f"exchanges ({len(self.studies)} studies)"),
            *timings(self.clock, self.forecasts, "forecast.latency_ms"),
            Reported("conformal.joint_coverage_min", min(s.coverage.joint.values()) if s else 0.0,
                     "frac", f"alpha={ALPHA}, first study", "accuracy.frac"),
            Reported("conformal.width_cm", 100 * statistics.fmean(s.widths.values()) if s else 0.0,
                     "cm", "mean over horizons, first study"),
        ]


# ---------------------------------------------------------------------------
# simulated returner (`ttrally simulate`): strategy comparison plus sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnerSpec:
    n_episodes: int = 20
    n_cal: int = 600  # run_experiment's default
    # Extra base-configuration episodes, run after the measured loop, that the
    # anticipatory >= baseline check and the return rate pool with the first
    # experiment's; see CHECK_BLOCK.
    n_check: int = 180


# Episodes per ensemble in the returner's strategy check. Anticipatory beats
# baseline in return rate by about 0.13, but by how much depends on the seeded
# ensemble: over 200 episodes with one ensemble the gap ranged 0.035-0.185
# across ten seeds (sampling alone: about 0.027 standard deviation; the
# ensemble adds about 0.037). A fresh ensemble and calibration for every 30
# episodes averages that out, putting the gap about four standard deviations
# above zero over the 200 pooled episodes.
CHECK_BLOCK = 30


class Returner(Workload):
    """run_experiment: baseline/anticipatory/oracle rows plus the lambda,
    lead-time and rest-pose sweeps, one experiment at a time."""

    def __init__(self, seed: int, workdir: str, clock, spec: ReturnerSpec) -> None:
        super().__init__(seed, workdir, clock)
        self.spec = spec
        self.episodes = 0
        self.first = None
        self.pooled: dict[str, float] = {}  # base-configuration return rate per strategy
        self.n_pooled = 0

    def setup(self) -> None:
        control.run_experiment(seed=10_000 * self.seed + WARMUP_INDEX, n_episodes=1, n_cal=40)

    def _check_rows(self, k: int, rows) -> bool:
        n = self.spec.n_episodes
        strategies = {r.strategy for r in rows}
        lams = {r.lam for r in rows if r.strategy == "anticipatory"}
        leads = {r.lead_time for r in rows if r.strategy == "anticipatory"}
        centrals = {tuple(vec(r.central)) for r in rows}
        ok = self.check(
            "sweep_grid_complete",
            strategies == {"baseline", "anticipatory", "oracle"}
            and {0.0, 0.1, 0.5} <= lams and {0.1, 0.2, 0.4} <= leads and len(centrals) >= 2
            and all(r.n_episodes == n and 0.0 <= r.return_rate <= 1.0 for r in rows),
            f"experiment {k}: {len(rows)} rows, lams={sorted(lams)}, leads={sorted(leads)}, "
            f"{len(centrals)} rest poses",
        )
        rates = self._base_rates(rows)
        ok &= self.check(
            "oracle>=anticipatory",
            rates.get("oracle", -1) >= rates.get("anticipatory", 2),
            f"experiment {k}: b/a/o={rates.get('baseline')}/{rates.get('anticipatory')}"
            f"/{rates.get('oracle')}",
        )
        return ok

    @staticmethod
    def _base_rates(rows) -> dict[str, float]:
        """Return rate per strategy at the base configuration (each strategy's first row)."""
        rates: dict[str, float] = {}
        for r in rows:
            rates.setdefault(r.strategy, r.return_rate)
        return rates

    def run_item(self, k: int) -> float:
        try:
            with self.clock.op() as op:
                rows = control.run_experiment(seed=10_000 * self.seed + k,
                                              n_episodes=self.spec.n_episodes, n_cal=self.spec.n_cal)
        except Exception as exc:
            self.attempted += 1
            self.fail(f"experiment {k}: {exc!r}")
            return op.raw
        self.timed.append(op)
        self.attempted += len(rows)
        self.episodes += sum(r.n_episodes for r in rows)
        if not self._check_rows(k, rows):
            self.fail(f"experiment {k}: output check failed", len(rows))
        if self.first is None:
            self.first = rows
        return op.raw

    def finish(self) -> None:
        """anticipatory >= baseline at the base configuration, over the first
        experiment's episodes pooled with ``n_check`` more made from the seed,
        in blocks of CHECK_BLOCK with an ensemble and calibration each."""
        n, params = self.spec.n_check, control.SimParams()
        returned = dict.fromkeys(("baseline", "anticipatory"), 0.0)
        self.attempted += 1
        try:
            for start in range(0, n, CHECK_BLOCK):
                seed = 10_000 * self.seed + CHECK_INDEX + start
                exchanges = synth.generate_exchanges(seed, min(CHECK_BLOCK, n - start))
                predictors, calib = control.prepare_anticipation(seed, params, self.spec.n_cal)
                for s in returned:
                    forecast = (predictors, calib) if s == "anticipatory" else ()
                    row = control.run_strategy(exchanges, s, params, *forecast)[0]
                    returned[s] += row.n_episodes * row.return_rate
        except Exception as exc:
            self.fail(f"strategy comparison: {exc!r}")
            return
        first = self._base_rates(self.first or ())
        n0 = self.spec.n_episodes if {"baseline", "anticipatory"} <= first.keys() else 0
        self.n_pooled = n0 + n
        self.pooled = {s: (n0 * first.get(s, 0.0) + v) / (n0 + n) for s, v in returned.items()}
        b, a = self.pooled["baseline"], self.pooled["anticipatory"]
        if not self.check("anticipatory>=baseline", a >= b,
                          f"{n0} + {n} episodes, {-(-n // CHECK_BLOCK)} check ensembles: "
                          f"baseline {b:.4f}, anticipatory {a:.4f}"):
            self.fail("anticipatory return rate below baseline")

    def results(self) -> list[Reported]:
        base = next((r for r in self.first or () if r.strategy == "anticipatory"), None)
        n = self.spec.n_episodes
        return [
            rate(self.clock, self.timed, self.episodes, "sim.episodes_per_s", "episodes"),
            *timings(self.clock, self.timed, "sim.experiment_ms"),
            Reported("sim.return_rate", self.pooled.get("anticipatory", 0.0), "frac",
                     f"anticipatory, base configuration, {self.n_pooled} episodes: the first "
                     f"experiment's and the strategy check's", "accuracy.frac"),
            Reported("sim.deviation_cm", 100 * base.mean_deviation if base else 0.0, "cm",
                     f"anticipatory, base configuration, first {n} episodes"),
        ]


WORKLOADS = {
    "rally-60fps": (Rally, RallySpec(fps=60.0, noise_px=(0.0, 1.0), quota=100)),
    "rally-120fps": (Rally, RallySpec(fps=120.0, noise_px=(1.0, 3.0))),
    "conformal": (Conformal, ConformalSpec()),
    "returner": (Returner, ReturnerSpec()),
}
