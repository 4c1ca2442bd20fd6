"""Span tracer wrapped around ttrally's public functions from outside the package.

A wrapper replaces a function's name in every module namespace where callers
look it up, so names a module imported from another (``control.generate_exchanges``,
``pipeline.detect_hits``) are traced at the call site that uses them. Spans
(name, start, end, parent, item id) are kept in memory and written out once at
the end. Hot inner callees only count calls, so tracing costs stay small. A
target a later version of the package removes or renames is reported as absent
with zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

MODULES = ("core", "camera", "ball", "pipeline", "synth", "anticipate", "control", "cli")


@dataclass(frozen=True)
class Target:
    module: str  # module the metric is named after
    name: str
    spans: bool = True  # False: count calls only
    # Namespaces to patch. Empty: the module itself plus every other module that
    # imported the same object and is not claimed by a target of its own.
    where: tuple[str, ...] = ()


TARGETS = (
    Target("camera", "calibrate"),
    Target("camera", "position_player"),
    Target("camera", "project_many", spans=False, where=("ball",)),
    Target("ball", "detect_hits"),
    Target("ball", "bounce_candidates"),
    Target("ball", "select_bounce"),
    Target("ball", "select_serve_bounces"),
    Target("ball", "fit_drag"),
    Target("ball", "fit_parabola", spans=False, where=("ball",)),
    Target("pipeline", "load_track"),
    Target("pipeline", "calibrate_from_track"),
    Target("pipeline", "reconstruct_point"),
    Target("pipeline", "write_reconstruction"),
    Target("pipeline", "read_reconstruction"),
    Target("core", "dataset_stats"),
    Target("synth", "generate_scene"),
    Target("synth", "generate_exchanges"),
    Target("anticipate", "run_conformal_study"),
    Target("anticipate", "calibrate_ensemble"),
    Target("anticipate", "evaluate_coverage"),
    Target("anticipate", "width_vs_horizon"),
    Target("anticipate", "extreme_hit_bias"),
    Target("anticipate", "build_regions"),
    Target("anticipate", "ensemble_curve"),
    Target("anticipate", "conformal_quantile"),
    Target("control", "run_experiment"),
    Target("control", "prepare_anticipation"),
    Target("control", "run_episode"),
    Target("control", "build_regions", where=("control",)),
    Target("control", "solve_target_pose"),
    Target("control", "step_robot"),
    Target("control", "minimize", spans=False, where=("control",)),
    Target("control", "landing_after_reflection", spans=False, where=("control",)),
)


def _key(t: Target) -> str:
    return f"{t.module}.{t.name}"


def _xyz(v) -> tuple[float, ...]:
    """Coordinates of a Vec3-like or array-like point as a hashable tuple."""
    if hasattr(v, "x"):
        return (float(v.x), float(v.y), float(v.z))
    return tuple(float(c) for c in v)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _context_key(args, kwargs):
    ctx = _arg(args, kwargs, 1, "ctx")
    return (len(ctx.times), float(ctx.times[-1])) + _xyz(ctx.frames[-1].ball_world)


def _pose_key(args, kwargs):
    target = args[3] if len(args) > 3 else kwargs.get("target")
    key = _xyz(_arg(args, kwargs, 0, "hit")) + _xyz(_arg(args, kwargs, 1, "v_in"))
    return key + (_xyz(target) if target is not None else ())


def _observe_fit_drag(tr, args, kwargs, result):
    tr.counters["ball.fit_drag.boundary_warnings"] += int(bool(result.boundary_warning))


def _observe_candidates(tr, args, kwargs, result):
    tr.counters["ball.bounce_candidates.total"] += len(result)


def _observe_point(tr, args, kwargs, result):
    tr.counters["ball.fit_drag.pieces_kept"] += len(result[1].pieces)


def _observe_write_recon(tr, args, kwargs, result):
    tr.counters["pipeline.recon_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _observe_exchanges(tr, args, kwargs, result):
    tr.counters["synth.generate_exchanges.exchanges"] += len(result)


def _observe_ensemble(tr, args, kwargs, result):
    tr.distinct["anticipate.ensemble_curve"].add(_context_key(args, kwargs))


def _observe_quantile(tr, args, kwargs, result):
    tr.counters["anticipate.infinite_quantiles"] += int(math.isinf(result))


def _observe_pose(tr, args, kwargs, result):
    tr.distinct["control.solve_target_pose"].add(_pose_key(args, kwargs))


OBSERVERS = {
    "ball.fit_drag": _observe_fit_drag,
    "ball.bounce_candidates": _observe_candidates,
    "pipeline.reconstruct_point": _observe_point,
    "pipeline.write_reconstruction": _observe_write_recon,
    "synth.generate_exchanges": _observe_exchanges,
    "anticipate.ensemble_curve": _observe_ensemble,
    "anticipate.conformal_quantile": _observe_quantile,
    "control.solve_target_pose": _observe_pose,
}


def _episode_item(args, kwargs) -> str:
    ex = _arg(args, kwargs, 0, "ex")
    return f"episode:{ex.exchange_id}:{_arg(args, kwargs, 1, 'strategy')}"


ITEM_OF = {"control.run_episode": _episode_item}

# (metric, numerator, denominator, unit, better); numerator and denominator are
# metric names themselves, so every ratio is reported next to both.
RATIOS = (
    ("ball.fit_drag.useful_frac", "ball.fit_drag.pieces_kept", "ball.fit_drag.calls", "frac", "higher"),
    ("ball.bounce_candidates.mean_len", "ball.bounce_candidates.total", "ball.bounce_candidates.calls", "count", "lower"),
    ("synth.generate_exchanges.ms_per_exchange", "synth.generate_exchanges.ms", "synth.generate_exchanges.exchanges", "ms", "lower"),
    ("anticipate.ensemble_curve.unique_frac", "anticipate.ensemble_curve.unique", "anticipate.ensemble_curve.calls", "frac", "higher"),
    ("control.solve_target_pose.unique_frac", "control.solve_target_pose.unique", "control.solve_target_pose.calls", "frac", "higher"),
)

COUNTERS = (
    ("ball.fit_drag.pieces_kept", "count", "higher"),
    ("ball.fit_drag.boundary_warnings", "count", "lower"),
    ("ball.bounce_candidates.total", "count", "lower"),
    ("pipeline.recon_bytes", "bytes", "lower"),
    ("synth.generate_exchanges.exchanges", "count", "higher"),
    ("anticipate.infinite_quantiles", "count", "lower"),
)


class Tracer:
    """Installs wrappers, records spans and counts, and restores the package."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.calls: dict[str, int] = defaultdict(int)  # count-only targets
        self.counters: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self.raised: dict[tuple[str, str], int] = defaultdict(int)
        self.observer_errors = 0
        self.absent: list[str] = []
        self.item: Optional[str] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        self.absent = []
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"ttrally.{name}")
            except ImportError:
                pass
        modules["ttrally"] = importlib.import_module("ttrally")
        claimed = {(t.module, t.name) for t in TARGETS}
        for t in TARGETS:
            key = _key(t)
            home = modules.get(t.module)
            fn = getattr(home, t.name, None)
            if not callable(fn):
                self.absent.append(key)
                continue
            if t.where:
                spaces = [modules.get(m) for m in t.where]
                if any(getattr(ns, t.name, None) is not fn for ns in spaces):
                    self.absent.append(key)
                    continue
            else:
                spaces = [
                    ns
                    for m, ns in modules.items()
                    if getattr(ns, t.name, None) is fn
                    and (m == t.module or (m, t.name) not in claimed)
                ]
            wrapper = self._span_wrapper(key, fn) if t.spans else self._count_wrapper(key, fn)
            for ns in spaces:
                self._patched.append((ns, t.name, fn))
                setattr(ns, t.name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            ns, name, fn = self._patched.pop()
            setattr(ns, name, fn)

    def _count_wrapper(self, key: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, key: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        observe, item_of = OBSERVERS.get(key), ITEM_OF.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_item = self.item
            if item_of is not None:
                self.item = item_of(args, kwargs)
            rec = [key, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(key, type(exc).__name__)] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                self.item = outer_item
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, ValueError, OSError):
                    # The traced API changed shape; the call itself succeeded.
                    self.observer_errors += 1
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric by name, as (value, unit)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            a = agg[name]
            a[0] += 1
            a[1] += end - start
            a[2] += end - start - child[i]

        out: dict[str, tuple[float, str]] = {}
        for t in TARGETS:
            key = _key(t)
            if t.spans:
                calls, total, self_s = agg.get(key, (0, 0.0, 0.0))
                out[f"{key}.calls"] = (calls, "count")
                out[f"{key}.ms"] = (total * 1e3, "ms")
                out[f"{key}.self_ms"] = (self_s * 1e3, "ms")
            else:
                out[f"{key}.calls"] = (self.calls.get(key, 0), "count")
        for name, unit, _ in COUNTERS:
            out[name] = (self.counters.get(name, 0), unit)
        for key in ("anticipate.ensemble_curve", "control.solve_target_pose"):
            out[f"{key}.unique"] = (len(self.distinct.get(key, ())), "count")
        out["control.solve_target_pose.infeasible"] = (
            self.raised.get(("control.solve_target_pose", "Infeasible"), 0), "count")
        for name, num, den, unit, _ in RATIOS:
            d = out[den][0]
            out[name] = (out[num][0] / d if d else 0.0, unit)
        out["trace.traced_s"] = (traced_s, "s")
        out["trace.untraced_s"] = (untraced_s, "s")
        out["trace.overhead_frac"] = (
            (traced_s - untraced_s) / untraced_s if untraced_s > 0 else 0.0, "frac")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.absent"] = (len(self.absent), "count")
        out["trace.observer_errors"] = (self.observer_errors, "count")
        return out

    def report(self, metrics: dict[str, tuple[float, str]]) -> list[str]:
        """Human-readable lines: top self times, ratios with their parts, absences."""
        selfs = sorted(
            ((v, k[: -len(".self_ms")]) for k, (v, _) in metrics.items() if k.endswith(".self_ms")),
            reverse=True,
        )
        total = sum(v for v, _ in selfs) or 1.0
        lines = ["self time, largest first (share of all traced self time):"]
        for v, k in selfs[:8]:
            if v > 0:
                lines.append(f"  {k:<36} {v:10.1f} ms  {100 * v / total:5.1f}%"
                             f"  calls={metrics[k + '.calls'][0]}")
        for name, num, den, unit, _ in RATIOS + (
            ("trace.overhead_frac", "trace.traced_s", "trace.untraced_s", "frac", "lower"),
        ):
            lines.append(f"  {name} = {metrics[name][0]:.4g} {unit}"
                         f"  ({num}={metrics[num][0]:.6g} / {den}={metrics[den][0]:.6g})")
        if self.absent:
            lines.append("  absent (reported as 0 calls): " + ", ".join(self.absent))
        raised = ", ".join(f"{k}:{e}={n}" for (k, e), n in sorted(self.raised.items()))
        if raised:
            lines.append("  raised: " + raised)
        return lines

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def per_layer_spec() -> list[dict]:
    """The per-layer metric list BENCHMARK.json must declare, in emission order."""
    better = {"count": "lower", "ms": "lower", "bytes": "lower", "s": "lower", "frac": "lower"}
    tr = Tracer()
    names = tr.metrics(1.0, 1.0)
    override = {n: b for n, _, b in COUNTERS}
    override.update({n: b for n, _, _, _, b in RATIOS})
    override.update({"anticipate.ensemble_curve.unique": "higher",
                     "control.solve_target_pose.unique": "higher",
                     "trace.traced_s": "lower", "trace.untraced_s": "lower"})
    return [{"name": n, "unit": u, "better": override.get(n, better[u])} for n, (_, u) in names.items()]
