"""The golden bytes against the CPU's dispatch, and against the arithmetic
they were re-pinned from.

The drag law's expm1, exp and log once ran through libm element by element,
and ``racket_reflect`` and ``solve_target_pose`` took their dots and norms
through BLAS. Both rounded as the CPU's dispatch chose. The fixed-order port
in ``ball`` and float sums replaced them, and ``golden.DIGESTS`` was
re-pinned. The first test runs ``tests/golden.py`` with glibc's and numpy's
CPU dispatch masked; the second shows that the re-pin moved values by a
bounded amount and no discrete outcome at all, its default half on
``golden.corpus`` and ``golden.points`` and its libm/BLAS half on scenes
generated anew. The last holds the bounce re-pin to the exhaustive
``fit_parabola`` search it replaced, on the corpus's loaded tracks: only the
reported totals moved.

Neither mask covers OpenBLAS's DYNAMIC_ARCH kernel choice, and the golden
bytes follow it too. On a 2-vCPU AVX-512 Xeon, whose default kernel passes,
``OPENBLAS_CORETYPE=Haswell`` fails the reconstruct, both calibration and
the library digests, and ``OPENBLAS_CORETYPE=Prescott`` the track digest as
well; the stacked ``@`` and LAPACK calls of calibration and
``project_many``'s ``@`` are the likely sites. No test here sets it.
"""

import contextlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest

import golden
import scalar_bounces
from ttrally import anticipate, ball, control, synth
from ttrally.ball import GRAVITY
from ttrally.anticipate import STUDY_HORIZONS
from ttrally.control import (HORIZONS, LEAD_TIMES, MAX_RACKET_ANGLE_DEG, RacketPose, aim_point,
                             run_experiment)
from ttrally.core import TableGeometry, Vec3
from ttrally.errors import Infeasible, NoContact
from ttrally.pipeline import reconstruct_point

ROOT = Path(__file__).resolve().parents[1]

MASKS = {
    "glibc without its FMA and AVX2 variants": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
    "numpy without its AVX-512 loops": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}
# Left out, as its bytes still follow the dispatch: the library digest. Under
# the glibc mask, camera.py's math.sin in a calibration rotation rounds one
# argument of scene 48 differently; under the numpy mask, _reprojection's
# np.expm1, the fit's objective, moves the written reproj of 41 scenes.
MOVED_BY_DISPATCH = "library"


@pytest.mark.parametrize("mask", sorted(MASKS))
def test_golden_digests_hold_under_masked_dispatch(mask):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "tests/golden.py", "--skip", MOVED_BY_DISPATCH],
                          cwd=ROOT, env={**os.environ, **MASKS[mask], "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
    got = json.loads(done.stdout)
    moved = [f"{name}: got {got.get(name)} want {want}" for name, want in golden.DIGESTS.items()
             if name != MOVED_BY_DISPATCH and got.get(name) != want]
    assert not moved, "\n".join([mask, *moved])


# ---------------------------------------------------------------------------
# the re-pin's oracle: the arithmetic before it
# ---------------------------------------------------------------------------


def _libm(f):
    """``f`` from the math module on a float, elementwise on an array."""
    def mapped(x):
        if isinstance(x, np.ndarray):
            return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
        return f(x)
    return mapped


def _blas_reflect(v: Vec3, normal) -> Vec3:
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    vn = float(v.as_array() @ n)
    if vn >= 0:
        raise NoContact("ball not approaching the racket face")
    return Vec3.from_array(v.as_array() - 2.0 * vn * n)


def _blas_target_pose(hit: Vec3, v_in: Vec3, table: TableGeometry,
                      target: Optional[Vec3] = None) -> RacketPose:
    target = aim_point(table) if target is None else target
    dx, dy = target.x - hit.x, target.y - hit.y
    s2 = v_in.norm() ** 2
    drop = hit.z - table.height_z
    disc = s2 * s2 - GRAVITY * (GRAVITY * (dx * dx + dy * dy) - 2.0 * s2 * drop)
    if disc < 0:
        raise Infeasible("target out of range at the incoming speed")
    v_out = np.array([GRAVITY * dx, GRAVITY * dy, s2 - math.sqrt(disc)])
    v_out *= math.sqrt(s2) / np.linalg.norm(v_out)
    dv = v_out - v_in.as_array()
    if float(v_in.as_array() @ dv) >= 0:
        raise Infeasible("no racket face turned toward the ball reflects it there")
    n = dv / np.linalg.norm(dv)
    psi, phi = math.atan2(n[1], n[0]), math.asin(n[2])
    lim = math.radians(MAX_RACKET_ANGLE_DEG)
    if abs(psi) > lim or abs(phi) > lim:
        raise Infeasible("racket normal outside the angle limits")
    sy, cy, sz, cz = math.sin(-phi / 2), math.cos(-phi / 2), math.sin(psi / 2), math.cos(psi / 2)
    return RacketPose(hit, (0.0 - sz * sy, cz * sy + 0.0, cy * sz + 0.0, cz * cy))


@contextlib.contextmanager
def _libm_and_blas():
    """The drag law on libm and the returner's dots and norms on BLAS."""
    with contextlib.ExitStack() as stack:
        for module, name, f in ((ball, "_expm1", math.expm1), (ball, "_exp", math.exp),
                                (synth, "_expm1", math.expm1), (synth, "_log", math.log),
                                (control, "_expm1", math.expm1)):
            stack.enter_context(mock.patch.object(module, name, _libm(f)))
        stack.enter_context(mock.patch.object(control, "racket_reflect", _blas_reflect))
        stack.enter_context(mock.patch.object(control, "solve_target_pose", _blas_target_pose))
        yield


def _cached(corpus: str, s: int) -> tuple:
    scene = golden.corpus(corpus)[s]
    return scene.truth, scene.track, golden.points(corpus)[s][0]


def _regenerated(corpus: str, s: int) -> tuple:
    track, truth, _, _ = golden.generate(corpus, s)
    return truth, track, reconstruct_point(track, point_id=s)[1]


def _outcomes(scene) -> tuple[dict, dict]:
    """(discrete outcomes, values) of the golden corpora, whose scene s
    ``scene(corpus, s)`` gives as (truth, track, point), and of the returner
    on seeds 11-18 and the simulate digest's seed 3, under the arithmetic in
    force."""
    discrete, values = {}, {}
    for corpus, (_, scenes) in golden.CORPORA.items():
        for s in range(len(scenes)):
            truth, track, point = scene(corpus, s)
            discrete[corpus, s] = ([h[0] for h in truth.hits], [b[0] for b in truth.bounces],
                                   [h.frame for h in point.hits], [b.frame for b in point.bounces])
            values[corpus, "pixels", s] = track.ball
            values[corpus, "ball", s] = point.ball
            values[corpus, "k", s] = np.array([p.drag.k for p in point.pieces])

    exchanges = synth.generate_exchanges(7, 200)
    values["exchanges", "crossing"] = np.concatenate(
        [exchanges.crossing_pos, exchanges.crossing_vel, exchanges.crossing_time[:, None]], 1)
    values["exchanges", "truth"] = synth.balls_at(exchanges, golden.TRUTH_TIMES)

    episodes, ranks = [], []
    aggregate, quantile = control._aggregate, anticipate.conformal_quantile

    def recorded_aggregate(results, strategy, params):
        episodes.append(results)
        return aggregate(results, strategy, params)

    def ranked_quantile(residuals, alpha):
        n, rank = len(residuals), math.ceil((len(residuals) + 1) * (1.0 - alpha))
        ranks.append(int(np.argsort(residuals, kind="stable")[rank - 1]) if rank <= n else None)
        return quantile(residuals, alpha)

    experiments = [(3, 8)] + [(seed, 20) for seed in range(11, 19)]
    with mock.patch.object(anticipate, "conformal_quantile", ranked_quantile):
        study = anticipate.run_conformal_study(5, 60, 40)  # the conformal digest's study
        # An experiment fits only the quantiles its regions can be read at, a
        # subset of these: every quantile of each of its lead times.
        for (seed, _), lead_time in itertools.product(experiments, LEAD_TIMES):
            control.prepare_anticipation(seed, control.SimParams(lead_time=lead_time), 600)
    with mock.patch.object(control, "_aggregate", recorded_aggregate):
        for seed, n in experiments:
            run_experiment(seed, n, n_cal=600)
    discrete["coverage"] = study.coverage.joint
    discrete["quantile ranks"] = ranks
    discrete["episodes"] = [[(r.contacted, r.returned, r.fallback) for r in row]
                            for row in episodes]
    values["returner", "episodes"] = np.array([[r.position_error, r.orientation_error,
                                    np.nan if r.return_deviation is None else r.return_deviation]
                                   for row in episodes for r in row])
    return discrete, values


# Bounds on the re-pin's largest value change, about 10x above what it
# measured: 1.1e-13 px on track pixels, 3.6e-15 m on reconstructed and true
# ball positions, 3.3e-14 on returner errors (m and rad); fitted k and the
# exchanges' crossings did not move.
TOLERANCE = {"pixels": 1e-12, "ball": 1e-13, "k": 1e-12, "crossing": 1e-13, "truth": 1e-13,
             "episodes": 1e-12}


def test_repin_keeps_every_discrete_outcome():
    discrete, values = _outcomes(_cached)
    with _libm_and_blas():
        old_discrete, old_values = _outcomes(_regenerated)
    # Every quantile: the study's horizons, then each experiment's lead times.
    assert len(discrete["quantile ranks"]) == 3 * (len(STUDY_HORIZONS)
                                                   + 9 * len(LEAD_TIMES) * len(HORIZONS))
    assert discrete == old_discrete
    worst = {}
    for key, new in values.items():
        old = old_values[key]
        assert np.array_equal(np.isnan(new), np.isnan(old))
        change = float(np.nanmax(np.abs(new - old), initial=0.0))
        worst[key[1]] = max(worst.get(key[1], 0.0), change)
    assert all(worst[kind] <= bound for kind, bound in TOLERANCE.items()), worst


# ---------------------------------------------------------------------------
# the bounce re-pin's oracle: the exhaustive fit_parabola search
# ---------------------------------------------------------------------------


def test_bounce_repin_moves_only_the_reported_totals(tmp_path):
    # The reconstruct and library digests moved when select_bounces began to
    # return the screen's total in place of the exhaustive fit_parabola one.
    # Compared: the recon-v1 records, as token lists, of every library and
    # track scene, reconstructed from its loaded track, then of seed 21.
    scenes = [(s, scene) for corpus in golden.CORPORA
              for s, scene in enumerate(golden.corpus(corpus))]
    new = ([recon for corpus in golden.CORPORA for _, recon in golden.points(corpus)]
           + [golden.seed21(tmp_path).read_bytes()])
    with mock.patch.object(ball, "select_bounces", scalar_bounces.select_bounces):
        old = [golden.reconstruct(scene.loaded, s)[1] for s, scene in scenes]
        old.append(golden.seed21(tmp_path).read_bytes())
    totals = moved = 0
    for got_bytes, want_bytes in zip(new, old, strict=True):
        got_lines, want_lines = ([line.split() for line in text.decode().splitlines()]
                                 for text in (got_bytes, want_bytes))
        assert len(got_lines) == len(want_lines)
        for got, want in zip(got_lines, want_lines):
            assert [g.partition("=")[0] for g in got] == [w.partition("=")[0] for w in want]
            for g, w in zip(got, want):
                if w.startswith("mse="):
                    g, w = float(g[4:]), float(w[4:])
                    assert abs(g - w) <= scalar_bounces.B * (1 + w)
                    totals, moved = totals + 1, moved + (g != w)
                else:
                    assert g == w
    assert totals > 700 and moved > 0
