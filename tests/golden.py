"""The golden corpora and every golden digest, built once per process.

``DIGESTS`` holds every pinned sha256, and ``digest(name)`` recomputes one
(its group, the part before ":", at once); a re-pin edits ``DIGESTS`` alone.
``PYTHONPATH=src python tests/golden.py [--skip GROUP ...]`` prints them as
JSON. The track digest also checks that a long lens raises after drawing the
noise of the frames that fit, and the exchange digest that a shorter call
makes the same first exchanges. ``corpus(name)`` gives the library's or the
tracks' scenes, with read-only arrays, and refuses while any ttrally
function is patched: a patched arithmetic builds its own inputs.

Array forms have since reproduced each digest's scalar origin byte for byte.
Two re-pins, each held by ``tests/test_golden_arithmetic.py`` to the
arithmetic before it with no discrete outcome moved: the drag law's libm
calls became a fixed-order port and the returner's BLAS dots float sums
(simulate, library, tracks, exchanges, experiments 12-18); ``select_bounces``
began to report its batched screen's total (reconstruct, library: only
``mse=`` moved, by at most 4.3e-14 times 1 + its value).
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ttrally import anticipate, ball, camera, control, core, pipeline, synth
from ttrally.cli import EXIT_OK, main
from ttrally.errors import AssumptionViolation

DIGESTS = {
    # COMMANDS: sha256 of the --out file and of stdout
    "cli:conformal-out": "2bb725dbb17ebaa4f879856c5f62366b5c5a29f24290f77a6934d5f9cb2b76a4",
    "cli:conformal-stdout": "81b24a2ac5f26847899ff390f9a73476535f693c73752e6a00a565c896cd7cb6",
    "cli:simulate-out": "b9adb8829ddc0ae5a42a01e270f9b8093ae7fe9c3fd756b4a4d128ce8d317080",
    "cli:simulate-stdout": "715d6428d92972d0e9289b308ca0d11bcdce7e75e9348ede110ab204f4cac278",
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
    # repr(run_experiment(seed, 20, n_cal=600)), the NaN of a row without returns included
    "experiment:11": "ee14c7fcc43ede25b262b0a48227b0ad0915f64a11c9c8152e45985851a92f9a",
    "experiment:12": "77ff3f919965b5a7435a97762fd3389848ede56ad1c489e7614cc406ea68fb1f",
    "experiment:13": "fd70915510656edca24d98e7409422755180f161741e5f9e1ea4e66e0eff8fe8",
    "experiment:14": "9fe926f73b54713d638bf3cbe8527848892248c82b741f8f1f7be924bc43eba7",
    "experiment:15": "4eae5dd9fe1e58a8c03ecb34614f1f795962179c7caf48ec1e3cd1aba7d1e578",
    "experiment:16": "d683ec4428572acde268de37d523ea7b5d24477eaee501bd867648c4b1d19ee2",
    "experiment:17": "3e0a69b6a8ee89f830314ec1a95f0f611f6961ace03f1f84a20a94c12431a721",
    "experiment:18": "9e9563213a521b3ed111cd4a160ec803f34dd2c46a4259da92038985ef65e7ca",
}
COMMANDS = {"conformal": ["conformal", "--seed", "5", "--n-cal", "60", "--n-test", "40"],
            "simulate": ["simulate", "--seed", "3", "--episodes", "8"]}
# Per corpus, the seed's first word and each scene's (fps, hits, pixel noise).
CORPORA = {
    "library": (7, [(60.0 if s % 2 == 0 else 120.0, 3 + (s // 2) % 4, (s % 5) / 2)
                    for s in range(60)]),
    "tracks": (11, [((30.0, 60.0, 120.0)[s % 3], 2 + s % 5, (s // 5 % 5) / 2)
                    for s in range(40)]),
}
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
    point: pipeline.ReconstructedPoint  # reconstructed from loaded
    recon: bytes  # its recon-v1 bytes

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


def reconstruct(track: pipeline.TrackFile, point_id: int, tmp: Path):
    """The point reconstructed from ``track``, and its recon-v1 bytes."""
    recon, point = pipeline.reconstruct_point(track, point_id=point_id)
    pipeline.write_reconstruction(recon, str(tmp / "scene.recon"))
    return point, (tmp / "scene.recon").read_bytes()


def _read_only(record):
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return record


_DEFAULT = {(m, name): value for m in (anticipate, ball, camera, control, core, pipeline, synth)
            for name, value in vars(m).items() if callable(value)}


def corpus(name: str) -> tuple[Scene, ...]:
    """Corpus ``name``'s scenes, built on the first call."""
    patched = [f"{m.__name__}.{k}" for (m, k), v in _DEFAULT.items()
               if getattr(m, k, None) is not v]
    assert not patched, f"the corpus is built and read under the default arithmetic: {patched}"
    return _corpus(name)


@functools.cache
def _corpus(name: str) -> tuple[Scene, ...]:
    scenes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.track"
        for s in range(len(CORPORA[name][1])):
            track, truth, _, rng = generate(name, s)
            pipeline.write_track(track, str(path))
            loaded = _read_only(pipeline.load_track(str(path)))
            point, recon = reconstruct(loaded, s, Path(tmp))
            scenes.append(Scene(_read_only(track), _read_only(truth), rng.bit_generator.state,
                                path.read_bytes(), loaded, _read_only(point), recon))
    return tuple(scenes)


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
        h.update(scene.text)
        h.update(np.float64(scene.rng().random()).tobytes())
    h.update(np.float64(_long_lens_draw()).tobytes())
    return {"tracks": h.hexdigest()}


def _exchange_digest(exchanges: synth.Exchanges) -> str:
    """sha256 over a row per exchange: its context times and balls, root y,
    hit, crossing, and truth at TRUTH_TIMES, as float64 bytes."""
    n, times = len(exchanges), synth.CONTEXT_TIMES

    def balls(at) -> np.ndarray:
        return synth.balls_at(exchanges, at).reshape(n, 3 * len(at))

    return _sha256(np.concatenate([
        np.broadcast_to(times, (n, len(times))), exchanges.opp_root_y[:, None],
        exchanges.crossing_time[:, None], balls(times), exchanges.incoming.bT[:, -1],
        exchanges.crossing_pos, exchanges.crossing_vel, balls(TRUTH_TIMES)], axis=1).tobytes())


def _exchanges(tmp: Path) -> dict[str, str]:
    full = synth.generate_exchanges(7, 200)
    for n in (0, 1, 65):  # a shorter call makes the same first exchanges
        assert _exchange_digest(synth.generate_exchanges(7, n)) == _exchange_digest(full[:n]), n
    return {"exchanges": _exchange_digest(full)}


GROUPS = {
    "cli": _cli,
    "library": lambda tmp: {"library": _sha256(b"".join(s.recon for s in corpus("library")))},
    "tracks": _tracks, "exchanges": _exchanges,
    "experiment": lambda tmp: {f"experiment:{seed}": _sha256(
        repr(control.run_experiment(seed, 20, n_cal=600)).encode()) for seed in range(11, 19)},
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
    json.dump({name: digest(name) for name in DIGESTS if name.partition(":")[0] not in skip},
              sys.stdout, indent=1)
    print()
