"""The golden corpora and every golden digest, built once per process.

``DIGESTS`` holds every pinned sha256, and ``digest(name)`` recomputes one
(its group, the part before ":", at once); a re-pin edits ``DIGESTS`` alone.
``PYTHONPATH=src python tests/golden.py [--skip GROUP ...]`` prints them as
JSON. The track digest also checks that a long lens raises after drawing the
noise of the frames that fit, and the exchange digest that a shorter call
makes the same first exchanges. ``corpus(name)`` gives the library's or the
tracks' scenes and ``points(name)`` their reconstructions, with read-only
arrays, each built on its first call and refused while any ttrally function
is patched: a patched arithmetic builds its own inputs.

Array forms have since reproduced each digest's scalar origin byte for byte.
Two re-pins, each held by ``tests/test_golden_arithmetic.py`` to the
arithmetic before it with no discrete outcome moved: the drag law's libm
calls became a fixed-order port and the returner's BLAS dots float sums
(simulate, library, tracks, exchanges, experiments 12-18); ``select_bounces``
began to report its batched screen's total (reconstruct, library: only
``mse=`` moved, by at most 4.3e-14 times 1 + its value). One behaviour
re-pin: anticipatory rows stopped requiring a region the robot can cover
from the central pose in time (simulate, experiments 11-18, which also
print each row's rest pose); ``experiment:baseline-oracle`` holds the rows
that read no region, and ``test_control`` the new pre-position rule. A
second: every episode stepped on one integer clock, the hit at exactly t = 0
(simulate, baseline-oracle, experiments 11-18). ``experiment:discrete``,
pinned on the accumulated clock before it, holds every outcome of the rows
not at lead 0.1 s, and ``test_control`` that the baseline no longer depends
on the lead time.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np

from ttrally import anticipate, ball, camera, control, core, pipeline, synth
from ttrally.cli import EXIT_OK, main
from ttrally.errors import AssumptionViolation

DIGESTS = {
    # COMMANDS: sha256 of the --out file and of stdout
    "cli:conformal-out": "2bb725dbb17ebaa4f879856c5f62366b5c5a29f24290f77a6934d5f9cb2b76a4",
    "cli:conformal-stdout": "81b24a2ac5f26847899ff390f9a73476535f693c73752e6a00a565c896cd7cb6",
    "cli:simulate-out": "578141573bba6bc118230b4a93adab1a374c825074e72249bc2494534102dfef",
    "cli:simulate-stdout": "1fa60a59961e927dd79ea0d00f24d637c89c96e50717b1b9b27b67ee30aa0711",
    # the seed-21 synth track's camera-v1 stdout of calibrate, by --noise-px
    "cli:calibrate-0.0": "2d00f7d295af895ddfcbc1b79f3fd89728d4d815a5d8c0a70a048360ae1e5488",
    "cli:calibrate-1.5": "ff6bc8e4a225d5698a1b359b478c9dbef01e336fb9905d84740ccbaad0758b0a",
    # the seed-21 synth track through reconstruct, then stats
    "cli:reconstruct": "21a14b389d22ce135f279628231b89136faabcb802cbac0baccfc7b7c7b0546b",
    "cli:stats": "394f0d9fbfd07c1530ad811b43d5b6025cb6ed929351498b7aa1e57a24fbdad1",
    # the library scenes' recon-v1 bytes, one after another
    "library": "bebebe00285a1f58cae0a07903cc0c68bceba2016fec4f5a08e4513e77921da2",
    # each track scene's track-v1 bytes and next draw, then the long lens's next draw
    "tracks": "8f79dbaa15ab54dce82ae124033d5177177217a3fe6d1f59b04050e3a0d1c370",
    # _exchange_digest(generate_exchanges(7, 200))
    "exchanges": "aaddacbc714c41efa8c57497ae2826ad6026dd75fc353d72778cdca60da3b3c1",
    # repr of the baseline and oracle rows of experiments 11-18, in order: they read
    # no region, so no change to anticipation may move them
    "experiment:baseline-oracle": "aba1f0598900e459b927678c58c55b7f58a0430844fbd5250be7bfeff22bf466",
    # every episode's (contacted, returned, fallback) in the rows of experiments 11-18
    # whose lead time is not 0.1 s, pinned before the episodes took one integer clock
    "experiment:discrete": "43ed1926170ccd60f0e3ebd8381922a68199a7af41119b5cc305d011d521bca2",
    # repr(run_experiment(seed, 20, n_cal=600)), the NaN of a row without returns included
    "experiment:11": "3d743ed372f2de670b75e0b07dbf1deb7d2f8fdccae9b659053f022c53e3d99e",
    "experiment:12": "93216850558e5bee15e082ad9bf92d089b6591a79c8ed4233efd0fe9662b248d",
    "experiment:13": "1d36fb7d3a91ac11410f45c1db7c88551a0b4bfde1e21c3d48e01cb5d60b1335",
    "experiment:14": "ed9c5cad3b0f23084bdb652ae73e7c5558c672950c23eeb6e7d0576ab53adaf0",
    "experiment:15": "95f7999f090693dfd84a786e4b1e3122cd51b646cf666bd37e717837fb7f4312",
    "experiment:16": "6e00c7b66b2c9fbdae442077c43e0c419a68a2c2fe39a8e772319fb9609ca2ea",
    "experiment:17": "46dd27f87c9b711305812b934478bb533b9ba8069463a79370b921cc6e7d9f69",
    "experiment:18": "d847259ce7e7a46884236df6235504da0cf156c89e475ca9c90aab4b7792dcd9",
}
COMMANDS = {"conformal": ["conformal", "--seed", "5", "--n-cal", "60", "--n-test", "40"],
            "simulate": ["simulate", "--seed", "3", "--episodes", "8"]}
# Per corpus, the seed's first word and each scene's (fps, hits, pixel noise).
CORPORA = {"library": (7, [(60.0 if s % 2 == 0 else 120.0, 3 + (s // 2) % 4, (s % 5) / 2)
                           for s in range(60)]),
           "tracks": (11, [((30.0, 60.0, 120.0)[s % 3], 2 + s % 5, (s // 5 % 5) / 2)
                           for s in range(40)])}
TRUTH_TIMES = [0.02 * i for i in range(-30, 41)]  # -0.6 .. 0.8 s around the hit


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file(path) -> str:
    return _sha256(Path(path).read_bytes())


class Scene(NamedTuple):
    track: pipeline.TrackFile
    truth: synth.RallyTruth
    state: dict  # the generator's, after generation
    text: bytes  # the track's track-v1 bytes
    loaded: pipeline.TrackFile  # read back from text

    def rng(self) -> np.random.Generator:
        """A new generator that continues where the scene's left off."""
        rng = np.random.default_rng(0)
        rng.bit_generator.state = self.state
        return rng


def generate(corpus: str, s: int):
    """Scene ``s`` of ``corpus`` under the arithmetic in force:
    generate_scene's (track, truth, camera), then its generator."""
    seed, scenes = CORPORA[corpus]
    header = dict(video_id=f"golden-{s}", seed=s) if corpus == "tracks" else {}
    rng = np.random.default_rng([seed, s])
    return *synth.generate_scene(rng, *scenes[s], **header), rng


def reconstruct(track: pipeline.TrackFile, point_id: int):
    """The point reconstructed from ``track``, and its recon-v1 bytes."""
    recon, point = pipeline.reconstruct_point(track, point_id=point_id)
    with tempfile.TemporaryDirectory() as tmp:
        pipeline.write_reconstruction(recon, f"{tmp}/scene.recon")
        return _read_only(point), Path(tmp, "scene.recon").read_bytes()


def _read_only(record):
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return record


def _default_arithmetic(build):
    """``build``, cached by corpus name, refusing while a ttrally function is patched."""
    cached = functools.cache(build)
    default = {(m, k): v for m in (anticipate, ball, camera, control, core, pipeline, synth)
               for k, v in vars(m).items() if callable(v)}

    def checked(name: str):
        patched = [f"{m.__name__}.{k}" for (m, k), v in default.items()
                   if getattr(m, k, None) is not v]
        assert not patched, f"the corpus is built and read under the default arithmetic: {patched}"
        return cached(name)
    return functools.update_wrapper(checked, build)


@_default_arithmetic
def corpus(name: str) -> tuple[Scene, ...]:
    """Corpus ``name``'s scenes: generated, written and read back."""
    scenes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.track"
        for s in range(len(CORPORA[name][1])):
            track, truth, _, rng = generate(name, s)
            pipeline.write_track(track, str(path))
            scenes.append(Scene(_read_only(track), _read_only(truth), rng.bit_generator.state,
                                path.read_bytes(), _read_only(pipeline.load_track(str(path)))))
    return tuple(scenes)


@_default_arithmetic
def points(name: str) -> tuple[tuple[pipeline.ReconstructedPoint, bytes], ...]:
    """Corpus ``name``'s (point, recon-v1 bytes), reconstructed from each loaded track."""
    return tuple(reconstruct(scene.loaded, s) for s, scene in enumerate(corpus(name)))


def _main(argv: list[str]) -> bytes:
    """stdout of one successful CLI call."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == EXIT_OK, argv
    return out.getvalue().encode()


def seed21(tmp: Path) -> Path:
    """The seed-21 synth track through reconstruct: its recon-v1 file."""
    _main(["synth", "--seed", "21", "--out", str(tmp / "21.track")])
    _main(["reconstruct", "--track", str(tmp / "21.track"), "--out", str(tmp / "21.recon")])
    return tmp / "21.recon"


def _cli(tmp: Path) -> dict[str, str]:
    got, (out, track, stats) = {}, (str(tmp / name) for name in ("out", "track", "stats"))
    for command, argv in COMMANDS.items():
        stdout = _main(argv + ["--out", out])
        got[f"cli:{command}-out"], got[f"cli:{command}-stdout"] = _file(out), _sha256(stdout)
    for noise in ("0.0", "1.5"):
        _main(["synth", "--seed", "21", "--noise-px", noise, "--out", track])
        got[f"cli:calibrate-{noise}"] = _sha256(_main(["calibrate", "--track", track]))
    recon = seed21(tmp)
    _main(["stats", "--recon", str(recon), "--out", stats])
    return {**got, "cli:reconstruct": _file(recon), "cli:stats": _file(stats)}


def _long_lens_draw() -> float:
    """The draw after an emission that fails part-way through the rally: a
    long lens, whose first frames fit the image and a later one does not."""
    rally = synth.generate_rally(np.random.default_rng([3, 2]), n_hits=4)
    lens = synth.tilt_camera(1740.0, 480.0, 603.0, -7.5, 2.2, 5e-4)
    rng = np.random.default_rng(0)
    try:
        synth.emit_synthetic_track(rally, lens, 1.0, rng)
    except AssumptionViolation as exc:
        assert "outside the image" in str(exc), exc
    else:
        raise AssertionError("the long lens fits the image")
    after = rng.random()
    assert after != np.random.default_rng(0).random(), "no noise was drawn before the raise"
    return after


def _tracks(tmp: Path) -> dict[str, str]:
    h = hashlib.sha256()
    for scene in corpus("tracks"):
        h.update(scene.text + np.float64(scene.rng().random()).tobytes())
    h.update(np.float64(_long_lens_draw()).tobytes())
    return {"tracks": h.hexdigest()}


def _exchange_digest(exchanges: synth.Exchanges) -> str:
    """sha256 over a row per exchange: its context times and balls, root y,
    hit, crossing, and truth at TRUTH_TIMES, as float64 bytes."""
    n, times = len(exchanges), synth.CONTEXT_TIMES
    context, truth = (synth.balls_at(exchanges, at).reshape(n, 3 * len(at))
                      for at in (times, TRUTH_TIMES))
    return _sha256(np.concatenate([
        np.broadcast_to(times, (n, len(times))), exchanges.opp_root_y[:, None],
        exchanges.crossing_time[:, None], context, exchanges.incoming.bT[:, -1],
        exchanges.crossing_pos, exchanges.crossing_vel, truth], axis=1).tobytes())


def _exchanges(tmp: Path) -> dict[str, str]:
    full = synth.generate_exchanges(7, 200)
    for n in (0, 1, 65):  # a shorter call makes the same first exchanges
        assert _exchange_digest(synth.generate_exchanges(7, n)) == _exchange_digest(full[:n]), n
    return {"exchanges": _exchange_digest(full)}


def _experiments(tmp: Path) -> dict[str, str]:
    discrete, episodes = hashlib.sha256(), control._episodes

    def recording(exchanges, rows):
        results = episodes(exchanges, rows)
        for (strategy, p, _), row in zip(rows, results, strict=True):
            if p.lead_time != 0.1:
                discrete.update(repr([(strategy, p.lam, p.lead_time, r.exchange_id, r.contacted,
                                       r.returned, r.fallback) for r in row]).encode())
        return results

    with mock.patch.object(control, "_episodes", recording):
        rows = {seed: control.run_experiment(seed, 20, n_cal=600) for seed in range(11, 19)}
    regionless = [r for seed in rows for r in rows[seed] if r.strategy != "anticipatory"]
    return {"experiment:baseline-oracle": _sha256(repr(regionless).encode()),
            "experiment:discrete": discrete.hexdigest(),
            **{f"experiment:{seed}": _sha256(repr(r).encode()) for seed, r in rows.items()}}


GROUPS = {
    "cli": _cli,
    "library": lambda tmp: {"library": _sha256(b"".join(r for _, r in points("library")))},
    "tracks": _tracks, "exchanges": _exchanges,
    "experiment": _experiments,
}


@functools.cache
def _group(group: str) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return GROUPS[group](Path(tmp))


def digest(name: str) -> str:
    return _group(name.partition(":")[0])[name]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print every golden digest as JSON.")
    parser.add_argument("--skip", action="append", default=[], choices=sorted(GROUPS))
    skip = parser.parse_args().skip
    print(json.dumps({name: digest(name) for name in DIGESTS
                      if name.partition(":")[0] not in skip}, indent=1))
