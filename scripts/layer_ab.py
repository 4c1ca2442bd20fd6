"""In-process layer timings of two source trees, alternated in subprocesses.

    python3 scripts/layer_ab.py A_SRC B_SRC [--pairs 10] [--layers positions,...]

A_SRC and B_SRC are ``src`` directories holding a ``ttrally`` package, for
example the parent commit's and a change's. Each pair runs every layer once
per tree, each run in a fresh process with the BLAS and OpenMP pools pinned
to one thread; odd pairs run A first, even pairs B first. A run builds its
inputs, makes one warm-up call, and reports one figure: the minimum of its
timed calls, or the median for ``build_regions``. One JSON line per layer
gives each side's median and quartiles over the pairs, the median over
pairs of A / B (above 1 when B is faster) and how many pairs B won.

Layers:
  generate     synth.generate_exchanges(1, 8000), the size of a benchmark
               study's calibration split
  generate_600 synth.generate_exchanges(1, 600), the size of a returner
               experiment's calibration split
  positions    Chains.positions on one full forecast pass at
               control.HORIZONS: the 320 chains (64 exchanges x 5 members),
               7,360 samples at the 23 horizons
  truth        synth.balls_at of 600 exchanges at control.HORIZONS and at
               synth.CONTEXT_TIMES: the return's and the incoming ball's
               samples, past each chain's end and before its start
  forecast     forecast_ensemble over 600 exchanges at control.HORIZONS
  experiment   run_experiment(seed, 20 episodes, n_cal 600), seeds 11-18
  episodes     control._episodes on the rows of those eight experiments,
               captured from their calls: one figure sums each
               experiment's minimum call
  calibrations control._calibrations on the arguments of those eight
               experiments' calls, replayed as captured, summed the same way
  study        run_conformal_study at 8000/4000, alpha 0.1, 5 members
  regions_p50  build_regions, one test context at a time, over 1000
               contexts of a 2000/1000 study's test split (median call)
  reconstruct  reconstruct_point over the 20 tracks
               generate_scene(default_rng([1, i]), fps=60, n_hits=3 + i % 4,
               noise_px=i % 2), i < 20: one call reconstructs all 20
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

LAYERS = ("generate", "generate_600", "positions", "truth", "forecast", "experiment", "episodes",
          "calibrations", "study", "regions_p50", "reconstruct")


def _timed(call, reps: int) -> list[float]:
    call()  # warm-up
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        call()
        out.append(time.perf_counter() - t)
    return out


def _worker(layer: str) -> float:
    """The layer's figure in ms, from the ttrally on sys.path."""
    import numpy as np
    from ttrally import anticipate, ball, control, pipeline, synth

    predictors = anticipate.physics_baseline_ensemble(1, 5)
    if layer in ("generate", "generate_600"):
        n = 600 if layer == "generate_600" else 8000
        return min(_timed(lambda: synth.generate_exchanges(1, n), 10)) * 1e3
    if layer == "positions":
        exchanges = synth.generate_exchanges(1, 64)  # 64 x 5 x 23: one full pass
        seen, positions = [], ball.Chains.positions
        ball.Chains.positions = lambda self, t: seen.append((self, t)) or positions(self, t)
        anticipate.forecast_ensemble(predictors, exchanges, control.HORIZONS, 0.0)
        ball.Chains.positions = positions
        chains, t = seen[-1]  # the ensemble's call; the first samples each context
        return min(_timed(lambda: chains.positions(t), 60)) * 1e3
    if layer == "truth":
        exchanges = synth.generate_exchanges(1, 600)
        return min(_timed(lambda: (synth.balls_at(exchanges, control.HORIZONS),
                                   synth.balls_at(exchanges, synth.CONTEXT_TIMES)), 40)) * 1e3
    if layer == "forecast":
        exchanges = synth.generate_exchanges(1, 600)
        return min(_timed(lambda: anticipate.forecast_ensemble(
            predictors, exchanges, control.HORIZONS, 0.2), 20)) * 1e3
    if layer == "experiment":
        seeds = iter(range(10, 19))  # 10 warms up
        return min(_timed(lambda: control.run_experiment(next(seeds), 20, n_cal=600), 8)) * 1e3
    if layer in ("episodes", "calibrations"):
        name = "_" + layer
        seen, call = [], getattr(control, name)
        setattr(control, name, lambda *args: seen.append(args) or call(*args))
        for seed in range(11, 19):
            control.run_experiment(seed, 20, n_cal=600)
        setattr(control, name, call)
        return sum(min(_timed(lambda: call(*args), 10)) for args in seen) * 1e3
    if layer == "study":
        return min(_timed(lambda: anticipate.run_conformal_study(1, 8000, 4000, 5, 0.1), 3)) * 1e3
    if layer == "regions_p50":
        study = anticipate.run_conformal_study(1, 2000, 1000, 5, 0.1)
        test = synth.generate_exchanges(2, 1000, id_offset=2000)
        horizons = sorted(study.coverage.joint)
        contexts = iter([anticipate.ContextWindow(ex.context_times, list(ex.context))
                         for ex in test])
        calls = _timed(lambda: anticipate.build_regions(predictors, study.calib, next(contexts),
                                                        horizons), 999)
        return statistics.median(calls) * 1e3
    if layer == "reconstruct":
        tracks = [synth.generate_scene(np.random.default_rng([1, i]), fps=60.0, n_hits=3 + i % 4,
                                       noise_px=float(i % 2))[0] for i in range(20)]
        return min(_timed(lambda: [pipeline.reconstruct_point(t) for t in tracks], 10)) * 1e3
    raise ValueError(f"unknown layer {layer!r}")


def _run(src: str, layer: str) -> float:
    out = subprocess.run([sys.executable, __file__, "--worker", layer, src],
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_src")
    parser.add_argument("b_src")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--layers", default=",".join(LAYERS))
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:  # a_src is the layer, b_src the tree
        sys.path.insert(0, os.path.abspath(args.b_src))
        print(_worker(args.a_src))
        return
    for layer in args.layers.split(","):
        if layer not in LAYERS:
            parser.error(f"unknown layer {layer!r}")
        a, b = [], []
        for pair in range(args.pairs):
            first, second = ((args.a_src, a), (args.b_src, b))[::1 if pair % 2 == 0 else -1]
            for src, into in (first, second):
                into.append(_run(src, layer))
        ratios = [x / y for x, y in zip(a, b)]
        print(json.dumps({
            "layer": layer, "unit": "ms", "pairs": args.pairs,
            "statistic": "median call" if layer == "regions_p50" else "min call",
            "a": _summary(a), "b": _summary(b),
            "a_over_b_median": round(statistics.median(ratios), 4),
            "b_wins": f"{sum(y < x for x, y in zip(a, b))}/{args.pairs}",
            "a_runs": [round(x, 4) for x in a], "b_runs": [round(y, 4) for y in b],
        }), flush=True)


if __name__ == "__main__":
    main()
