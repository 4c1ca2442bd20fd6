"""Golden bytes: CLI outputs and generated tracks and exchanges whose sha256 must not drift.

The conformal and simulate digests were computed when every exchange and
ensemble member was evaluated with scalar per-trajectory calls, and the
exchange digest when each exchange was generated one at a time that way; the
array flights (``ball.Chains``) reproduce those bytes exactly. The
reconstruction digests were computed with the batched drag fit
(``ball.fit_drags``), and the library digest with one ``position_player``
call per player and frame and record-by-record file readers. The track digest
was computed with an emission that projected and drew noise one frame at a
time, and the experiment digests when every contact was graded on ``Vec3``
and ``RacketPose`` objects. A change that alters them on purpose names the
change and why, and re-pins here.

Two re-pins so far. First, the simulate, library, track, exchange and
experiment (seeds 12-18) digests moved when the drag law's expm1, exp and
log left libm for ``ball``'s fixed-order port and ``racket_reflect`` and
``solve_target_pose`` took their dots and norms as float sums in place of
BLAS. Second, the reconstruct and library digests moved when
``select_bounces`` stopped re-scoring near ties with ``fit_parabola`` (the
exhaustive search in ``tests/scalar_bounces.py``) and began to report the
batched screen's total: only the ``mse=`` field of
``piece`` records changed, by at most 4.3e-14 times 1 + its value.
``tests/test_golden_arithmetic.py`` holds the arithmetic before each re-pin
as an oracle: no discrete outcome moved.
"""

import hashlib

import numpy as np
import pytest

from ttrally import pipeline
from ttrally.cli import EXIT_OK, main
from ttrally.control import run_experiment
from ttrally.core import Vec3
from ttrally.errors import AssumptionViolation
from ttrally.synth import (
    emit_synthetic_track,
    generate_exchanges,
    generate_rally,
    generate_scene,
    tilt_camera,
)

GOLDEN = {
    "conformal": (
        ["conformal", "--seed", "5", "--n-cal", "60", "--n-test", "40"],
        "2bb725dbb17ebaa4f879856c5f62366b5c5a29f24290f77a6934d5f9cb2b76a4",  # --out file
        "81b24a2ac5f26847899ff390f9a73476535f693c73752e6a00a565c896cd7cb6",  # stdout
    ),
    "simulate": (
        ["simulate", "--seed", "3", "--episodes", "8"],
        "b9adb8829ddc0ae5a42a01e270f9b8093ae7fe9c3fd756b4a4d128ce8d317080",
        "715d6428d92972d0e9289b308ca0d11bcdce7e75e9348ede110ab204f4cac278",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_matches_golden_hashes(command, tmp_path, capsys):
    argv, file_digest, stdout_digest = GOLDEN[command]
    out = tmp_path / f"{command}.out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == stdout_digest
    assert _sha256(out.read_bytes()) == file_digest


RECONSTRUCT = "21a14b389d22ce135f279628231b89136faabcb802cbac0baccfc7b7c7b0546b"
STATS = "394f0d9fbfd07c1530ad811b43d5b6025cb6ed929351498b7aa1e57a24fbdad1"


def test_reconstruction_matches_golden_hashes(tmp_path, capsys):
    track, recon, stats = (tmp_path / name for name in ("21.track", "21.recon", "21.stats"))
    assert main(["synth", "--seed", "21", "--out", str(track)]) == EXIT_OK
    assert main(["reconstruct", "--track", str(track), "--out", str(recon)]) == EXIT_OK
    assert main(["stats", "--recon", str(recon), "--out", str(stats)]) == EXIT_OK
    assert _sha256(recon.read_bytes()) == RECONSTRUCT
    assert _sha256(stats.read_bytes()) == STATS


CAMERAS = {
    # synth --noise-px, camera-v1 stdout of calibrate --track
    0.0: "2d00f7d295af895ddfcbc1b79f3fd89728d4d815a5d8c0a70a048360ae1e5488",
    1.5: "ff6bc8e4a225d5698a1b359b478c9dbef01e336fb9905d84740ccbaad0758b0a",
}


@pytest.mark.parametrize("noise", sorted(CAMERAS))
def test_calibration_matches_golden_hash(noise, tmp_path, capsys):
    """camera-v1 bytes of the seed-21 synth track, computed when the
    refinement's residual built a scipy Rotation per evaluation and its
    Jacobian came from scipy's finite differences."""
    track = tmp_path / "21.track"
    argv = ["synth", "--seed", "21", "--noise-px", repr(noise), "--out", str(track)]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main(["calibrate", "--track", str(track)]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == CAMERAS[noise]


LIBRARY = "bebebe00285a1f58cae0a07903cc0c68bceba2016fec4f5a08e4513e77921da2"
# 60 library scenes: 60 and 120 fps, 3-6 hits, 0-2 px of pixel noise.
SCENES = [(60.0 if s % 2 == 0 else 120.0, 3 + (s // 2) % 4, (s % 5) / 2) for s in range(60)]


def test_library_reconstructions_match_golden_hash(tmp_path):
    """sha256 over the recon-v1 bytes of every library scene, each loaded
    from its track file, reconstructed and written."""
    h = hashlib.sha256()
    track_path, recon_path = tmp_path / "scene.track", tmp_path / "scene.recon"
    for s, (fps, n_hits, noise) in enumerate(SCENES):
        track, _, _ = generate_scene(
            np.random.default_rng([7, s]), fps=fps, n_hits=n_hits, noise_px=noise
        )
        pipeline.write_track(track, str(track_path))
        recon, _ = pipeline.reconstruct_point(pipeline.load_track(str(track_path)), point_id=s)
        pipeline.write_reconstruction(recon, str(recon_path))
        h.update(recon_path.read_bytes())
    assert h.hexdigest() == LIBRARY


TRACKS = "8f79dbaa15ab54dce82ae124033d5177177217a3fe6d1f59b04050e3a0d1c370"
# 40 generated scenes: 30, 60 and 120 fps, 2-6 hits, 0-2 px of pixel noise.
TRACK_SCENES = [((30.0, 60.0, 120.0)[s % 3], 2 + s % 5, (s // 5 % 5) / 2) for s in range(40)]


def test_generated_tracks_match_golden_hash(tmp_path):
    """sha256 over the track-v1 bytes of every generated scene, each followed
    by one draw from the generator that made it, so the stream position a
    scene leaves is pinned with its bytes; then the draw that follows an
    emission that fails part-way through the rally."""
    h = hashlib.sha256()
    path = tmp_path / "scene.track"
    for s, (fps, n_hits, noise) in enumerate(TRACK_SCENES):
        rng = np.random.default_rng([11, s])
        track, _, _ = generate_scene(rng, fps=fps, n_hits=n_hits, noise_px=noise,
                                     video_id=f"golden-{s}", seed=s)
        pipeline.write_track(track, str(path))
        h.update(path.read_bytes())
        h.update(np.float64(rng.random()).tobytes())
    # A long lens: the first frames fit the image, a later one does not.
    rally = generate_rally(np.random.default_rng([3, 2]), n_hits=4)
    camera = tilt_camera(1740.0, 480.0, 603.0, -7.5, 2.2, 5e-4)
    rng = np.random.default_rng(0)
    with pytest.raises(AssumptionViolation, match="outside the image"):
        emit_synthetic_track(rally, camera, 1.0, rng)
    after = rng.random()
    assert after != np.random.default_rng(0).random()  # noise was drawn before the raise
    h.update(np.float64(after).tobytes())
    assert h.hexdigest() == TRACKS


EXCHANGES = "aaddacbc714c41efa8c57497ae2826ad6026dd75fc353d72778cdca60da3b3c1"
TRUTH_TIMES = [0.02 * i for i in range(-30, 41)]  # -0.6 .. 0.8 s around the hit


def _exchange_digest(exchanges) -> str:
    """sha256 over each exchange's context times and balls, root y, hit,
    crossing, and truth at TRUTH_TIMES, as float64 bytes."""
    h = hashlib.sha256()
    for ex, hit, root_y in zip(exchanges, exchanges.incoming.bT[:, -1].tolist(),
                               exchanges.opp_root_y.tolist()):
        points = [f.ball_world for f in ex.context]
        points += [Vec3(*hit), ex.crossing_pos, ex.crossing_vel]
        points += [ex.truth_at(t) for t in TRUTH_TIMES]
        values = [*ex.context_times, root_y, ex.crossing_time]
        values += [c for p in points for c in (p.x, p.y, p.z)]
        h.update(np.array(values, dtype=float).tobytes())
    return h.hexdigest()


def test_generated_exchanges_match_golden_hash():
    full = generate_exchanges(7, 200)
    assert _exchange_digest(full) == EXCHANGES
    for n in (0, 1, 65):  # a shorter call makes the same first exchanges
        assert _exchange_digest(generate_exchanges(7, n)) == _exchange_digest(full[:n])


EXPERIMENTS = {  # seed: sha256 of repr(run_experiment(seed, 20, n_cal=600))
    11: "ee14c7fcc43ede25b262b0a48227b0ad0915f64a11c9c8152e45985851a92f9a",
    12: "77ff3f919965b5a7435a97762fd3389848ede56ad1c489e7614cc406ea68fb1f",
    13: "fd70915510656edca24d98e7409422755180f161741e5f9e1ea4e66e0eff8fe8",
    14: "9fe926f73b54713d638bf3cbe8527848892248c82b741f8f1f7be924bc43eba7",
    15: "4eae5dd9fe1e58a8c03ecb34614f1f795962179c7caf48ec1e3cd1aba7d1e578",
    16: "d683ec4428572acde268de37d523ea7b5d24477eaee501bd867648c4b1d19ee2",
    17: "3e0a69b6a8ee89f830314ec1a95f0f611f6961ace03f1f84a20a94c12431a721",
    18: "9e9563213a521b3ed111cd4a160ec803f34dd2c46a4259da92038985ef65e7ca",
}


def test_experiments_match_golden_hashes():
    """Every row of the returner experiment on seeds 11-18, 20 episodes each:
    repr pins each float, the NaN of a row without returns included."""
    got = {seed: _sha256(repr(run_experiment(seed, 20, n_cal=600)).encode())
           for seed in EXPERIMENTS}
    assert got == EXPERIMENTS
