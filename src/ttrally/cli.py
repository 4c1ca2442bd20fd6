"""Command-line entry points.

Every command takes an explicit ``--seed`` and writes it into its output
header, so any artifact can be regenerated byte-for-byte. Exit codes: 0 on
success, 2 for bad usage or a malformed or unreadable input file, 3 when
processing fails on valid input.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import anticipate, control, pipeline, synth
from .core import Point, TableGeometry, dataset_stats
from .errors import ParseError, TTRallyError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAILURE = 3


def _emit(lines: Sequence[str], out: Optional[str]) -> None:
    """Write a report's lines to the file ``out``, or to stdout without one."""
    if out:
        pipeline.write_lines(out, lines)
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _seed_field(seed: Optional[int]) -> str:
    """A report line's ``" seed=N"`` suffix; empty for a seedless input."""
    return "" if seed is None else f" seed={seed}"


def cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed)
    track, _, _ = synth.generate_scene(
        rng,
        fps=args.fps,
        n_hits=args.hits,
        noise_px=args.noise_px,
        video_id=f"synth-{args.seed}",
        seed=args.seed,
    )
    pipeline.write_track(track, args.out)
    print(f"wrote {args.out} seed={args.seed} frames={len(track.frames)}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    track = pipeline.load_track(args.track)
    camera, rms = pipeline.calibrate_from_track(track, TableGeometry())
    _emit(pipeline.camera_lines(camera, rms, track.header.seed), args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    track = pipeline.load_track(args.track)
    recon, _ = pipeline.reconstruct_point(track, mse_threshold=args.mse_threshold)
    pipeline.write_reconstruction(recon, args.out)
    print(f"wrote {args.out}{_seed_field(recon.seed)}")
    return EXIT_OK


def cmd_stats(args) -> int:
    recon = pipeline.read_reconstruction(args.recon)
    points = [
        Point(
            frames=p.frame3d_for_ego(0),
            hits=[h.frame for h in p.hits],
            fps=recon.fps,
            point_id=p.point_id,
        )
        for p in recon.points
    ]
    stats = dataset_stats(points, recon.table)
    lines = [
        f"stats-v1{_seed_field(recon.seed)}",
        f"mean_speed={stats.mean_speed!r}",
        f"speed_p10={stats.speed_p10!r}",
        f"speed_p90={stats.speed_p90!r}",
        f"mean_inter_hit_time={stats.mean_inter_hit_time!r}",
    ]
    _emit(lines, args.out)
    return EXIT_OK


def cmd_conformal(args) -> int:
    study = anticipate.run_conformal_study(
        seed=args.seed,
        n_cal=args.n_cal,
        n_test=args.n_test,
        alpha=args.alpha,
    )
    if args.out:
        anticipate.write_calibration(args.out, study.calib, seed=args.seed)
    lines = [f"conformal-study seed={args.seed} alpha={args.alpha!r}"]
    for h in sorted(study.coverage.joint):
        lines.append(
            f"horizon={h!r} joint_coverage={study.coverage.joint[h]!r}"
            f" mean_width={study.widths[h]!r}"
        )
    lines.append(
        f"extreme_bias={study.bias.fraction_correct!r} n={study.bias.n_extreme}"
    )
    _emit(lines, None)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = control.SimParams(lam=args.lam, lead_time=args.lead_time, alpha=args.alpha)
    rows = control.run_experiment(
        seed=args.seed, n_episodes=args.episodes, base_params=params
    )
    if args.out:
        control.write_results(args.out, rows, seed=args.seed)
    for r in rows:
        print(
            f"{r.strategy} lam={r.lam!r} lead={r.lead_time!r}"
            f" central={pipeline.CENTRAL.encode([r.central])[0]}"
            f" return_rate={r.return_rate!r} deviation={r.mean_deviation!r}"
        )
    return EXIT_OK


def _checked(convert, ok, requirement: str):
    """An argparse ``type=`` that converts, then rejects values failing ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


SEED = _checked(int, lambda n: n >= 0, "must be >= 0")
ALPHA = _checked(float, lambda a: 0.0 < a < 1.0, "must be in (0, 1)")
COUNT = _checked(int, lambda n: n >= 1, "must be >= 1")
HITS = _checked(int, lambda n: n >= 2, "must be >= 2")
FPS = _checked(float, lambda f: 0.0 < f <= 1000.0, "must be in (0, 1000]")
NON_NEGATIVE = _checked(float, lambda f: 0.0 <= f < math.inf, "must be finite and >= 0")
LAM = _checked(float, lambda x: 0.0 <= x <= 1.0, "must be in [0, 1]")
LEAD_TIME = _checked(float, lambda t: 0.0 <= t <= synth.MAX_LEAD_TIME,
                     f"must be in [0, {synth.MAX_LEAD_TIME!r}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttrally", description="Monocular rally reconstruction and anticipation."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic track file")
    p.add_argument("--seed", type=SEED, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--hits", type=HITS, default=4)
    p.add_argument("--fps", type=FPS, default=60.0)
    p.add_argument("--noise-px", type=NON_NEGATIVE, default=0.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", help="calibrate the camera from a track file")
    p.add_argument("--track", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("reconstruct", help="reconstruct a rally from a track file")
    p.add_argument("--track", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mse-threshold", type=NON_NEGATIVE, default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("stats", help="dataset statistics from a reconstruction file")
    p.add_argument("--recon", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("conformal", help="calibrate and evaluate prediction regions")
    p.add_argument("--seed", type=SEED, required=True)
    p.add_argument("--alpha", type=ALPHA, default=0.1)
    p.add_argument("--n-cal", type=COUNT, default=2500)
    p.add_argument("--n-test", type=COUNT, default=1000)
    p.add_argument("--out")
    p.set_defaults(func=cmd_conformal)

    p = sub.add_parser("simulate", help="run the simulated returner experiment")
    p.add_argument("--seed", type=SEED, required=True)
    p.add_argument("--episodes", type=COUNT, default=500)
    p.add_argument("--lam", dest="lam", type=LAM, default=0.1)
    p.add_argument("--lead-time", type=LEAD_TIME, default=0.2)
    p.add_argument("--alpha", type=ALPHA, default=0.15)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TTRallyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
