import numpy as np
import pytest

from ttrally import pipeline
from ttrally.core import TableGeometry
from ttrally.errors import (
    NotEnoughHits,
    ParseError,
    SchemaError,
    SegmentRejected,
    VersionError,
)
from ttrally.pipeline import (
    calibrate_from_track,
    load_track,
    read_reconstruction,
    reconstruct_point,
    write_reconstruction,
    write_track,
)
from ttrally.synth import corrupt_track, generate_scene

TABLE = TableGeometry()


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(21)
    return generate_scene(rng, noise_px=0.0, n_hits=4, seed=21)


def test_track_round_trip_is_lossless(scene, tmp_path):
    track, _, _ = scene
    path = tmp_path / "a.track"
    write_track(track, str(path))
    loaded = load_track(str(path))
    assert loaded.header == track.header
    assert len(loaded.frames) == len(track.frames)
    for a, b in zip(track.frames, loaded.frames):
        assert a.frame_index == b.frame_index
        assert a.ball_px == b.ball_px
        assert a.table_keypoints == b.table_keypoints
        assert a.base_height_px == b.base_height_px
        assert a.racket_centroids == b.racket_centroids
        assert a.player_joints_cam == b.player_joints_cam
        assert a.player_ankles_px == b.player_ankles_px
    # Writing again produces identical bytes.
    path2 = tmp_path / "b.track"
    write_track(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_track_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.track"
    path.write_text("v1 fps=60.0 w=960 h=540 noise_px=0.0\nframe=0 ball=oops\n")
    with pytest.raises(ParseError) as err:
        load_track(str(path))
    assert err.value.line_number == 2


def test_load_track_rejects_unknown_version(tmp_path):
    path = tmp_path / "v9.track"
    path.write_text("v9 fps=60.0 w=960 h=540\n")
    with pytest.raises(VersionError):
        load_track(str(path))


def test_load_track_requires_fps(tmp_path):
    path = tmp_path / "nofps.track"
    path.write_text("v1 w=960 h=540\n")
    with pytest.raises(SchemaError):
        load_track(str(path))


def test_load_track_rejects_decreasing_frames(scene, tmp_path):
    track, _, _ = scene
    path = tmp_path / "c.track"
    write_track(track, str(path))
    lines = path.read_text().splitlines()
    lines.append(lines[1])  # repeat the first frame at the end
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        load_track(str(path))


def test_calibrate_from_track_noiseless(scene):
    track, _, cam = scene
    fitted, rms = calibrate_from_track(track, TABLE)
    assert rms < 1e-6
    assert fitted.intrinsics.fx == pytest.approx(cam.intrinsics.fx, rel=1e-3)


def test_reconstruct_point_noiseless_accuracy(scene):
    track, rally, _ = scene
    recon, point = reconstruct_point(track)
    truth = {int(f): rally.ball[i] for i, f in enumerate(rally.frames)}
    errs = [
        np.linalg.norm(f.ball.as_array() - truth[f.frame_index])
        for f in point.frames
    ]
    assert np.sqrt(np.mean(np.square(errs))) < 0.02
    assert [h.frame for h in point.hits] == [f for f, _, _ in rally.hits]
    assert [b.frame for b in point.bounces] == [f for f, _ in rally.bounces]
    assert point.entity_complete
    assert recon.seed == 21


def test_reconstruct_point_recovers_drag_scale(scene):
    track, rally, _ = scene
    _, point = reconstruct_point(track)
    true_k = {s: seg.k for s, _, seg in rally.pieces}
    for piece in point.pieces:
        if piece.start_frame in true_k and not piece.drag.boundary_warning:
            assert piece.drag.k == pytest.approx(
                true_k[piece.start_frame], abs=0.15
            )


def test_reconstruct_point_needs_hits():
    rng = np.random.default_rng(5)
    track, _, _ = generate_scene(rng, noise_px=0.0, n_hits=3)
    for f in track.frames:
        f.racket_centroids = [(10.0, 10.0), (20.0, 20.0)]  # never near the ball
    with pytest.raises(NotEnoughHits):
        reconstruct_point(track)


def test_mse_threshold_rejects_noisy_segment():
    rng = np.random.default_rng(9)
    track, _, _ = generate_scene(rng, noise_px=3.0, n_hits=3)
    with pytest.raises(SegmentRejected):
        reconstruct_point(track, mse_threshold=1e-9)


def test_reconstruction_file_round_trip(scene, tmp_path):
    track, _, _ = scene
    recon, point = reconstruct_point(track)
    path = tmp_path / "a.recon"
    write_reconstruction(recon, str(path))
    loaded = read_reconstruction(str(path))
    assert loaded.fps == recon.fps
    assert loaded.seed == recon.seed
    assert np.allclose(loaded.camera.extrinsics.r, recon.camera.extrinsics.r)
    assert loaded.table == recon.table
    (lp,) = loaded.points
    assert [h.frame for h in lp.hits] == [h.frame for h in point.hits]
    assert [b.frame for b in lp.bounces] == [b.frame for b in point.bounces]
    assert len(lp.pieces) == len(point.pieces)
    for a, b in zip(lp.pieces, point.pieces):
        assert a.segment == b.segment
        assert a.drag.k == b.drag.k
    assert len(lp.frames) == len(point.frames)
    for a, b in zip(lp.frames, point.frames):
        assert a.ball == b.ball
        assert a.joints == b.joints
    # Second write is byte-identical.
    path2 = tmp_path / "b.recon"
    write_reconstruction(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_corrupted_frames_are_skipped_not_fatal(scene):
    track, _, _ = scene
    broken = corrupt_track(track, np.random.default_rng(8), drop_prob=0.1)
    _, point = reconstruct_point(broken)
    dropped = sum(f.player_joints_cam[0] is None for f in broken.frames)
    assert dropped > 0
    assert len(point.frames) <= len(track.frames) - dropped + 2
