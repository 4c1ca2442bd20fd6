import copy

import numpy as np
import pytest

import golden
import scalar_positioning as scalar
from track_columns import comparable, corrupt_track
from ttrally import core, pipeline
from ttrally.core import TableGeometry
from ttrally.errors import NoIntersection, NotEnoughHits, ParseError, SegmentRejected
from ttrally.pipeline import (
    calibrate_from_track,
    load_track,
    read_reconstruction,
    reconstruct_point,
    write_reconstruction,
    write_track,
)
from ttrally.synth import generate_scene

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
    assert comparable(loaded) == comparable(track)
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
    track.rackets[:] = [(10.0, 10.0), (20.0, 20.0)]  # never near the ball
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
    assert np.array_equal(lp.frame_index, point.frame_index)
    for column in ("ball", "roots", "joints"):
        assert np.array_equal(getattr(lp, column), getattr(point, column), equal_nan=True)
    # Second write is byte-identical.
    path2 = tmp_path / "b.recon"
    write_reconstruction(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_a_point_reads_back_as_reconstructed_without_its_widest_dropped_row(scene, tmp_path):
    # The only 5-joint row sits in a frame without player 1's ankles, which
    # the point does not keep: its joints are as wide as the rows it keeps,
    # as a read gives them back, with no all-NaN padding column.
    track = copy.deepcopy(scene[0])
    n = len(track.frames)
    track.joints = np.concatenate([track.joints, np.full((n, 2, 1, 3), np.nan)], axis=2)
    track.joints[10, 0, 4] = track.joints[10, 0, 3]
    track.ankles[10, 1] = np.nan
    recon, point = reconstruct_point(track)
    path = tmp_path / "a.recon"
    write_reconstruction(recon, str(path))
    (back,) = read_reconstruction(str(path)).points
    assert point.joints.shape == (n - 1, 2, 4, 3)
    assert comparable(back) == comparable(point)


def test_corrupted_frames_are_skipped_not_fatal(scene):
    track, _, _ = scene
    broken = corrupt_track(track, np.random.default_rng(8), drop_prob=0.1)
    _, point = reconstruct_point(broken)
    dropped = int(np.isnan(broken.joints[:, 0]).all(axis=(1, 2)).sum())
    assert dropped > 0
    assert len(point.frames) <= len(track.frames) - dropped + 2


def _bytes(vecs) -> bytes:
    return np.array([v.as_array() for v in vecs]).tobytes()


def _position_oracle_rows(camera, track, want):
    """``_position_rows`` on the frames the oracle positioned (``want``),
    checked against it bit for bit; returns how many frames that is."""
    usable = np.isin(track.frames, list(want))
    roots, joints = pipeline._position_rows(camera, track.ankles[usable], track.joints[usable])
    for r, frame in enumerate(track.frames[usable].tolist()):
        want_roots, want_joints = want[frame]
        assert roots[r].tobytes() == _bytes(want_roots)
        for p in (0, 1):
            count = len(want_joints[p])
            assert joints[r, p, :count].tobytes() == _bytes(want_joints[p])
            assert np.isnan(joints[r, p, count:]).all()
    return len(roots)


def test_stacked_positioning_matches_the_per_frame_oracle():
    # The first 40 library scenes, each scene's generator continuing into
    # joints dropped in some frames, so that not every frame is usable.
    for s, scene in enumerate(golden.corpus("library")[:40]):
        track = corrupt_track(scene.track, scene.rng(), drop_prob=0.05 * (s % 3))
        camera, _ = calibrate_from_track(track, TABLE)
        _position_oracle_rows(camera, track, scalar.positioned(camera, track))


def test_mixed_joint_counts_position_like_uniform_ones(scene, tmp_path):
    # An extra joint (index 2, after the racket hand) in some frames of some
    # players leaves every other joint where it was.
    track, _, _ = scene
    mixed = copy.deepcopy(track)
    n = len(track.frames)
    mixed.joints = np.full((n, 2, 5, 3), np.nan)
    mixed.joints[:, :, :4] = track.joints
    for p, rows, extra in ((0, np.arange(n)[::3], (0.1, 0.2, 7.0)),
                           (1, np.arange(n)[1::4], (0.3, 0.4, 7.5))):
        mixed.joints[rows, p, 2] = extra
        mixed.joints[rows, p, 3:] = track.joints[rows, p, 2:]
    path = tmp_path / "mixed.track"
    write_track(mixed, str(path))
    assert comparable(load_track(str(path))) == comparable(mixed)
    _, want = reconstruct_point(track)
    _, got = reconstruct_point(mixed)
    assert [h.hand_world for h in got.hits] == [h.hand_world for h in want.hits]
    assert np.array_equal(got.frame_index, want.frame_index)
    for column in ("ball", "roots"):
        assert np.array_equal(getattr(got, column), getattr(want, column), equal_nan=True)
    # A (frame, player) with the extra joint matches once it is taken out;
    # every other one matches as it is.
    got_count, want_count = ((~np.isnan(p.joints[..., 0])).sum(axis=2) for p in (got, want))
    extra = got_count > want_count
    assert extra.any()
    joints = np.where(extra[..., None, None], np.delete(got.joints, 2, axis=2),
                      got.joints[:, :, :4])
    assert np.array_equal(joints, want.joints, equal_nan=True)


def _miss_pixels(camera):
    """An ankle pixel whose ray runs parallel to the ground, and one above
    the horizon, whose ray meets the ground behind the camera."""
    k, r = camera.intrinsics, camera.extrinsics.r
    # At u = cx the ray's world z is r[1, 2] b + r[2, 2], with b = (cy - v) / fy.
    v = k.cy + r[2, 2] / r[1, 2] * k.fy
    return (k.cx, v), (k.cx, v + 50.0)


@pytest.mark.parametrize(
    "misses, message",
    [
        # (frame, player, which pixel): the first miss frame by frame,
        # player 0 before player 1, names the error.
        ([(10, 1, "above"), (20, 0, "parallel")], "plane intersection behind the camera"),
        ([(10, 1, "parallel"), (20, 0, "above")], "ray parallel to plane z=0.0"),
        ([(15, 0, "parallel"), (15, 1, "above")], "ray parallel to plane z=0.0"),
        ([(15, 0, "above"), (15, 1, "parallel")], "plane intersection behind the camera"),
    ],
)
def test_first_ankle_ray_missing_the_ground_raises(scene, misses, message):
    track = copy.deepcopy(scene[0])
    camera, _ = calibrate_from_track(track, TABLE)
    parallel, above = _miss_pixels(camera)
    for frame, player, which in misses:
        pixel = parallel if which == "parallel" else above
        track.ankles[frame, player] = [pixel, pixel]
    with pytest.raises(NoIntersection, match=f"^{message}$"):
        scalar.positioned(camera, track)
    with pytest.raises(NoIntersection, match=f"^{message}$"):
        reconstruct_point(track)


def _five_joint_player_1(track):
    """A copy of the track whose player 1 carries a fifth joint (a copy of
    its first ankle, at index 2) in every frame, so rows alternate between
    4 and 5 joints."""
    mixed = copy.deepcopy(track)
    mixed.joints = np.full((len(track.frames), 2, 5, 3), np.nan)
    mixed.joints[:, 0, :4] = track.joints[:, 0]
    mixed.joints[:, 1] = track.joints[:, 1, [0, 1, 2, 2, 3]]
    return mixed


def test_mixed_joint_counts_place_each_count_in_one_call(scene, monkeypatch):
    track = _five_joint_player_1(scene[0])
    camera, _ = calibrate_from_track(track, TABLE)
    calls = []
    for name in ("ground_roots", "place_joints"):
        f = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    want = scalar.positioned(camera, track)
    usable = _position_oracle_rows(camera, track, want)
    assert usable == 84  # 168 one-row calls before rows were grouped by count
    assert sorted(calls) == ["ground_roots", "place_joints", "place_joints"]


def test_first_miss_in_row_order_raises_across_joint_counts(scene):
    # The 5-joint player 1 misses first; the 4-joint player 0 misses later.
    track = _five_joint_player_1(scene[0])
    camera, _ = calibrate_from_track(track, TABLE)
    parallel, above = _miss_pixels(camera)
    track.ankles[10, 1] = [above, above]
    track.ankles[20, 0] = [parallel, parallel]
    message = "plane intersection behind the camera"
    with pytest.raises(NoIntersection, match=f"^{message}$"):
        scalar.positioned(camera, track)
    with pytest.raises(NoIntersection, match=f"^{message}$"):
        reconstruct_point(track)


def test_no_positioned_player_raises_not_enough_hits(scene):
    # No frame carries both players, so no row is positioned at all.
    track = copy.deepcopy(scene[0])
    track.joints[:, 0] = np.nan
    with pytest.raises(NotEnoughHits, match="^hit frame lacks positioned player joints$"):
        reconstruct_point(track)


@pytest.mark.parametrize("fps", [60.0, 240.0])
def test_the_rally_path_builds_no_per_frame_object(fps, tmp_path, monkeypatch):
    # load -> reconstruct -> write -> read keeps frames as columns: no row
    # view, and Vec3s only for the calibration's table points and the
    # point's hits, bounces and pieces, however many frames there are.
    track, _, _ = generate_scene(np.random.default_rng(21), fps=fps, n_hits=4, noise_px=0.5)
    track_path, recon_path = tmp_path / "a.track", tmp_path / "a.recon"
    write_track(track, str(track_path))
    counts = dict.fromkeys(("Vec3", "PointFrame"), 0)
    for cls in (core.Vec3, pipeline.PointFrame):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    recon, point = reconstruct_point(load_track(str(track_path)))
    write_reconstruction(recon, str(recon_path))
    (back,) = read_reconstruction(str(recon_path)).points
    events = len(point.hits) + len(point.bounces) + len(point.pieces)
    assert not hasattr(core, "Frame2D")
    assert counts["PointFrame"] == 0
    assert counts["Vec3"] <= 24 + 3 * events < len(point.frame_index)
    # The counters see row views, and their Vec3s, once frames are read.
    assert len(back.frames) == len(point.frame_index) == counts["PointFrame"]
