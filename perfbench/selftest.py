#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload of ``workloads.WORKLOADS`` at a tiny size, untraced and
traced. It fails unless each run emits exactly the declared metrics with their
declared units and finite values and evaluates each of its output checks, and
unless the declared per-layer list is the one ``tracer.per_layer_spec()``
derives.
It then breaks the call each workload's operations make, so that every
measured operation raises, and requires the run to still print every declared
end-to-end metric while counting the failures and reporting correct=false.
At these sizes a statistical check may legitimately fail; its status is
printed, but only its evaluation is required.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)

CHECKS = {
    "rally-60fps": {"hits_match_truth", "stats_finite", "noiseless_rms_below_2cm"},
    "rally-120fps": {"hits_match_truth", "stats_finite", "noiseless_rms_below_2cm"},
    "conformal": {"axis_coverage", "joint_coverage", "width_grows", "online_matches_study"},
    "returner": {"sweep_grid_complete", "oracle>=anticipatory", "anticipatory>=baseline"},
}

# The call every measured operation of a workload makes: (module, function).
BREAK = {
    "rally-60fps": ("pipeline", "reconstruct_point"),
    "rally-120fps": ("pipeline", "reconstruct_point"),
    "conformal": ("anticipate", "run_conformal_study"),
    "returner": ("control", "run_experiment"),
}


def failing(cls, module, name: str):
    """A subclass of workload ``cls`` whose measured operations find
    ``module.name`` replaced by a function that raises; set-up is untouched."""

    def broken(*args, **kwargs):
        raise RuntimeError("injected failure")

    class Failing(cls):
        def run_item(self, k: int) -> float:
            real = getattr(module, name)
            setattr(module, name, broken)
            try:
                return super().run_item(k)
            finally:
                setattr(module, name, real)

    return Failing


def tiny_specs(workloads) -> dict:
    return {
        "rally-60fps": workloads.RallySpec(fps=60.0, noise_px=(0.0, 1.0), quota=2, n_check=1),
        "rally-120fps": workloads.RallySpec(fps=120.0, noise_px=(1.0, 3.0), quota=1, n_check=1),
        "conformal": workloads.ConformalSpec(n_cal=300, n_test=60),
        "returner": workloads.ReturnerSpec(n_episodes=2, n_cal=60, n_check=2),
    }


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads, tracing, _ = run.load_program()
    tiny = tiny_specs(workloads)
    problems = []
    if bench["per_layer"] != tracing.per_layer_spec():
        problems.append("BENCHMARK.json per_layer differs from tracer.per_layer_spec()")
    for name in workloads.WORKLOADS:  # rally-120fps too, which BENCHMARK.json leaves out
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            res = run.run_workload(name, run.DEFAULT_SEED, 0.01, trace, tiny[name])
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: u for k, (_, u) in res.metrics.items()}
            where = f"{name} trace={int(trace)}"
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
            bad = sorted(k for k, (v, _) in res.metrics.items() if not math.isfinite(v))
            if bad:
                problems.append(f"{where}: non-finite values {bad}")
            if res.attempted < 1:
                problems.append(f"{where}: no operation attempted")
            unevaluated = sorted(c for c in CHECKS[name] if res.checks.get(c, (0, 0, ""))[1] == 0)
            if unevaluated:
                problems.append(f"{where}: checks never evaluated: {unevaluated}")
            status = ", ".join(f"{c}={'ok' if p == r else 'FAILED'}"
                               for c, (p, r, _) in sorted(res.checks.items()))
            print(f"{where}: {len(res.metrics)} metrics, {res.attempted} ops, "
                  f"{res.failed} failed; {status}", flush=True)

        cls, spec = workloads.WORKLOADS[name]
        module, fn = BREAK[name]
        workloads.WORKLOADS[name] = (failing(cls, getattr(workloads, module), fn), spec)
        try:
            res = run.run_workload(name, run.DEFAULT_SEED, 0.01, False, tiny[name])
        finally:
            workloads.WORKLOADS[name] = (cls, spec)
        where = f"{name} with {module}.{fn} raising"
        want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        if {k: u for k, (_, u) in res.metrics.items()} != want:
            problems.append(f"{where}: emitted {sorted(res.metrics)}, declared {sorted(want)}")
        if res.correct or res.failed < 1:
            problems.append(f"{where}: correct={res.correct}, failed={res.failed}")
        if not all(math.isfinite(v) for v, _ in res.metrics.values()):
            problems.append(f"{where}: non-finite values")
        print(f"{where}: {len(res.metrics)} metrics, {res.attempted} ops, "
              f"{res.failed} failed, correct={res.correct}", flush=True)
    for p in problems:
        print("PROBLEM: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
