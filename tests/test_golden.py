"""Golden bytes: CLI outputs and generated tracks and exchanges whose sha256 must not drift.

The conformal and simulate digests were computed when every exchange and
ensemble member was evaluated with scalar per-trajectory calls, and the
exchange digest when each exchange was generated one at a time that way; the
array flights (``ball.Chains``) reproduce those bytes exactly. The
reconstruction digests were computed with the batched drag fit
(``ball.fit_drags``) and a bounce search that fitted every split window with
``fit_parabola``, and the library digest with one ``position_player`` call
per player and frame and record-by-record file readers. The track digest
was computed with an emission that projected and drew noise one frame at a
time. A change that alters them on purpose names the change and why, and
re-pins here.
"""

import hashlib

import numpy as np
import pytest

from ttrally import pipeline
from ttrally.cli import EXIT_OK, main
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
        "fd9c216dab4e915365dc3b27d0f03aae5bf2335c23e57ccdae6ff82af56596ac",
        "6b55254a7ff0710330cecb18c832e88b264a3a11e09964b2f2d0a28ef694c5b6",
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


RECONSTRUCT = "3c281f2b832dd963109a2734fe747147c5a25f58533498e52d55ce52a3ec89e5"
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


LIBRARY = "3c769b98000e7eea423acdb1bbddfacf34460adda1e78f2855f1987a9ccef07b"
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


TRACKS = "191ab2348bb67cc4ecd5c32d7c1b17f44d922e34a306fcc10b23cf5ba93c1c65"
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


EXCHANGES = "fa041510c07fbf75ef073dbb38ed83606360dbcd73e8959021cea018ba86cdad"
TRUTH_TIMES = [0.02 * i for i in range(-30, 41)]  # -0.6 .. 0.8 s around the hit


def _exchange_digest(exchanges) -> str:
    """sha256 over each exchange's context times and balls, root y, hit,
    crossing, and truth at TRUTH_TIMES, as float64 bytes."""
    h = hashlib.sha256()
    for ex in exchanges:
        points = [f.ball_world for f in ex.context]
        points += [ex.hit_pos, ex.crossing_pos, ex.crossing_vel]
        points += [ex.truth_at(t) for t in TRUTH_TIMES]
        values = [*ex.context_times, ex.opp_root_y, ex.crossing_time]
        values += [c for p in points for c in (p.x, p.y, p.z)]
        h.update(np.array(values, dtype=float).tobytes())
    return h.hexdigest()


def test_generated_exchanges_match_golden_hash():
    full = generate_exchanges(7, 200)
    assert _exchange_digest(full) == EXCHANGES
    for n in (0, 1, 65):  # a shorter call makes the same first exchanges
        assert _exchange_digest(generate_exchanges(7, n)) == _exchange_digest(full[:n])
