#!/usr/bin/env python3
"""Run one ttrally benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rally-60fps --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
``--trace 0`` measures with nothing installed and prints the end-to-end
metrics. ``--trace 1`` runs the workload's fixed quota once untraced and once
with the span tracer installed, and prints the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans of a traced run are
written to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 1
CONFIRM_SEED = 2  # second seed a performance claim must also hold on
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups


def load_program():
    """Import the workloads, which import ttrally from the checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "ttrally", "__init__.py")):
        raise SystemExit(f"error: no ttrally sources under {SRC}; run from a source checkout")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import clock as timing
    import tracer as tracing
    import workloads

    return workloads, tracing, timing


def env_stamp() -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas_threads": blas_threads(numpy),
    }


def blas_threads(numpy) -> str:
    """Thread count the loaded OpenBLAS reports, else the pinned variable's value."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (OPENBLAS_NUM_THREADS)"


def measure(work, seconds: float) -> list[float]:
    """Run items one after another; returns each item's time inside ttrally.

    The quota always runs; after it, whole cycles of ``work.cycle`` items (one
    full mix of inputs each) continue while the next cycle is expected to end
    within ``seconds`` of measured time, so every run measures the same mix.
    """
    start = time.perf_counter()
    busy = [work.run_item(k) for k in range(work.quota)]
    while (sum(busy) + work.cycle * statistics.median(busy) <= seconds
           and time.perf_counter() - start < 2 * seconds):
        busy += [work.run_item(len(busy) + j) for j in range(work.cycle)]
    return busy


class Result(NamedTuple):
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    checks: dict  # name -> (passed, evaluated, detail)
    lines: list


def _untraced(cls, seed, workdir, spec, seconds, clock):
    work = cls(seed, workdir, clock, spec)
    setups = []
    for _ in range(SETUP_REPEATS):
        with clock.op() as op:
            work.setup()
        setups.append(op)
    measure(work, seconds)
    work.finish()
    setup_s = statistics.median(clock.scaled(op) for op in setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"  {'setup_s [setup_s]':<44} {setup_s:12.4f} s     median of "
        + ", ".join(f"{clock.scaled(op):.3f}" for op in setups)
        + "; raw " + ", ".join(f"{op.raw:.3f}" for op in setups),
        f"  {'peak_rss_mb [peak_rss_mb]':<44} {metrics['peak_rss_mb'][0]:12.4f} MB",
    ]
    for r in work.results():
        if r.bench:
            metrics[r.bench] = (r.value, r.unit)
        label = f"{r.name} [{r.bench or 'unbounded'}]"
        lines.append(f"  {label:<44} {r.value:12.4f} {r.unit:<5} {r.detail}")
    return [work], metrics, lines


def _traced(cls, seed, workdir, spec, name, clock, tracing):
    # Untraced and traced copies of the same quota items alternate, so neither
    # side runs consistently warmer; their difference is the tracing overhead.
    plain, traced = cls(seed, workdir, clock, spec), cls(seed, workdir, clock, spec)
    tracer = tracing.Tracer(clock.program_time)
    plain.setup()
    with tracer:
        traced.setup()
    for k in range(plain.quota):
        for side in (plain, traced) if k % 2 == 0 else (traced, plain):
            if side is plain:
                plain.run_item(k)
            else:
                with tracer:
                    traced.run_item(k)
    plain.finish()
    metrics = tracer.metrics(*(sum(clock.scaled(op) for op in w.timed) for w in (traced, plain)))
    lines = tracer.report(metrics)
    spans_path = os.path.join(WORK, f"trace-{name}-seed{seed}.jsonl")
    tracer.write(spans_path)
    lines.append(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}")
    return [plain, traced], metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec=None) -> Result:
    workloads, tracing, timing = load_program()
    cls, default_spec = workloads.WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        with timing.Clock() as clock:
            if trace:
                runs, metrics, lines = _traced(cls, seed, workdir, spec or default_spec, name,
                                               clock, tracing)
            else:
                runs, metrics, lines = _untraced(cls, seed, workdir, spec or default_spec,
                                                 seconds, clock)
        lines.append(f"  machine speed relative to the reference: {clock.reference_speed():.3f}"
                     f" ({len(clock.kernel_s)} calibration samples)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks: dict[str, tuple[int, int, str]] = {}
    for w in runs:
        for check, (passed, run, detail) in w.checks.items():
            p0, r0, d0 = checks.get(check, (0, 0, detail))
            checks[check] = (p0 + passed, r0 + run, d0 if p0 < r0 else detail)
    for check, (passed, run, detail) in sorted(checks.items()):
        lines.append(f"  check {check}: {'ok' if passed == run else 'FAILED'} {passed}/{run} ({detail})")
    for w in runs:
        lines += [f"  error: {e}" for e in w.errors]
    failed = sum(w.failed for w in runs)
    correct = failed == 0 and bool(checks) and all(p == r for p, r, _ in checks.values())
    return Result(correct, sum(w.attempted for w in runs), failed, metrics, checks, lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rally-60fps", "rally-120fps", "conformal", "returner"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"makes every input; a claim must also hold on seed {CONFIRM_SEED}")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()

    print(f"ttrally benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env: " + json.dumps(env_stamp(), sort_keys=True))
    print("\n".join(result.lines))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
