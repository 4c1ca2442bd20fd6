import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize._numdiff import approx_derivative
from scipy.spatial.transform import Rotation

import golden
import scalar_calibration
import scalar_positioning as scalar
from ttrally import camera as camera_module, pipeline
from ttrally.camera import (
    ImagePoint,
    Intrinsics,
    calibrate,
    ground_projections,
    ground_roots,
    pixel_rays,
    place_joints,
    plane_points,
    project,
    project_many,
    reprojection_rms,
)
from ttrally.core import TableGeometry, Vec3
from ttrally.errors import (
    BehindCamera,
    CalibrationDegenerate,
    CalibrationFailed,
    NoIntersection,
)
from ttrally.synth import leg_verticality, sample_camera, tilt_camera

TABLE = TableGeometry()


def _camera(tilt=8e-4, y_c=-7.5, z_c=2.2, focal=1000.0):
    return tilt_camera(focal, 480.0, 300.0, y_c, z_c, tilt)


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        Intrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0)


def test_extrinsics_center_round_trip():
    cam = _camera()
    center = cam.extrinsics.center()
    assert center == pytest.approx([0.0, -7.5, 2.2])
    assert cam.extrinsics.orthonormality_error() < 1e-12


def test_project_behind_camera_raises():
    cam = _camera()
    with pytest.raises(BehindCamera):
        project(cam, Vec3(0.0, -20.0, 1.0))


def test_project_vertical_up_is_increasing_v():
    # With the image-v axis pointing up, raising the ball raises v.
    cam = _camera()
    low = project(cam, Vec3(0.0, 0.0, 0.8))
    high = project(cam, Vec3(0.0, 0.0, 1.4))
    assert high.v > low.v
    assert high.u == pytest.approx(low.u)  # same vertical world line


@settings(max_examples=50)
@given(
    st.floats(-1.3, 1.3),
    st.floats(-0.7, 0.7),
    st.floats(0.0, 2.0),
)
def test_inverse_project_round_trip(x, y, z):
    cam = _camera()
    p = Vec3(x, y, z)
    q = project(cam, p)
    back = plane_points(cam, [[q.u, q.v]], z)[0]
    assert np.allclose(back, p.as_array(), atol=1e-9)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 960.0), st.floats(0.0, 540.0),
       st.sampled_from([0.0, TABLE.height_z]))
def test_project_inverts_inverse_project_on_the_plane(seed, u, v, z):
    cam = sample_camera(np.random.default_rng(seed))
    try:
        back = Vec3(*plane_points(cam, [[u, v]], z)[0].tolist())
    except NoIntersection:  # the ray meets the plane behind the camera, or never
        return
    assert back.z == pytest.approx(z, abs=1e-9)
    q = project(cam, back)
    assert abs(q.u - u) <= 1e-6 and abs(q.v - v) <= 1e-6


def test_inverse_project_parallel_raises():
    cam = tilt_camera(1000.0, 480.0, 300.0, -7.5, 1.0, 0.0)
    # The ray through the principal point of an untilted camera runs
    # parallel to every horizontal plane.
    with pytest.raises(NoIntersection):
        plane_points(cam, [[480.0, 300.0]], 5.0)


def test_project_many_matches_project():
    cam = _camera()
    pts = np.array([[0.1, -0.2, 0.9], [-1.0, 0.5, 1.2]])
    out = project_many(cam, pts)
    for row, p in zip(out, pts):
        q = project(cam, Vec3(*p))
        assert row == pytest.approx([q.u, q.v])


def test_pixel_ray_hits_projected_point():
    cam = _camera()
    p = Vec3(0.3, 0.2, 1.1)
    q = project(cam, p)
    origin, directions = pixel_rays(cam, [[q.u, q.v]])
    direction = directions[0] / np.linalg.norm(directions[0])
    # The world point lies on the ray.
    t = np.dot(p.as_array() - origin, direction)
    assert np.allclose(origin + t * direction, p.as_array(), atol=1e-9)


def test_vanishing_point_of_depth_edges():
    # Each far corner drops onto the line from its near corner's ground point
    # to the depth edges' vanishing point. Oracle for that point: the image
    # of a point far along +y on the depth edge.
    cam = _camera()
    kps = [project(cam, p) for p in TABLE.surface_keypoints()]
    base_h = project(cam, Vec3(0.0, -TABLE.half_width, 0.0)).v
    grounds = ground_projections(kps, base_h)
    for near, x in ((0, -TABLE.half_length), (1, TABLE.half_length)):
        g, drop = grounds[near], grounds[near + 2]
        far = project(cam, Vec3(x, 5e8, TABLE.height_z))
        v_at_far = g.v + (far.u - g.u) * (drop.v - g.v) / (drop.u - g.u)
        assert v_at_far == pytest.approx(far.v, rel=1e-7)


def test_vanishing_point_parallel_lines_raise():
    kps = [ImagePoint(0, 0), ImagePoint(0, 1), ImagePoint(1, 1), ImagePoint(1, 2)]
    message = re.escape("depth edges parallel (head-on camera)")
    with pytest.raises(CalibrationDegenerate, match=message):
        ground_projections(kps, -1.0)


def test_ground_projections_match_true_corner_feet():
    cam = _camera()
    kps = [project(cam, p) for p in TABLE.surface_keypoints()]
    base_h = project(cam, Vec3(0.0, -TABLE.half_width, 0.0)).v
    grounds = ground_projections(kps, base_h)
    truth = [project(cam, g) for g in TABLE.corner_ground_points()]
    # The construction assumes vertical legs; its model error is bounded by
    # the leg-verticality tolerance (0.1 px), not machine precision.
    for got, want in zip(grounds, truth):
        assert got.u == pytest.approx(want.u, abs=0.15)
        assert got.v == pytest.approx(want.v, abs=0.15)


def test_ground_projections_degenerate():
    kps = [ImagePoint(0, 0)] * 6
    with pytest.raises(CalibrationDegenerate):
        ground_projections(kps, -10.0)


def _correspondences(cam, noise=0.0, rng=None):
    world = TABLE.surface_keypoints() + TABLE.corner_ground_points()
    pixels = []
    for p in world:
        q = project(cam, p)
        if noise:
            q = ImagePoint(q.u + rng.normal(0, noise), q.v + rng.normal(0, noise))
        pixels.append(q)
    return list(zip(world, pixels))


def test_calibrate_noiseless_recovers_camera():
    cam = _camera()
    fitted, rms = calibrate(_correspondences(cam))
    assert rms < 1e-6
    assert fitted.intrinsics.fx == pytest.approx(cam.intrinsics.fx, rel=1e-4)
    assert fitted.intrinsics.fy == pytest.approx(cam.intrinsics.fy, rel=1e-4)
    # The fitted camera projects arbitrary scene points like the original.
    for p in [Vec3(0.3, -0.5, 1.2), Vec3(-1.2, 0.4, 0.8)]:
        a, b = project(cam, p), project(fitted, p)
        assert a.u == pytest.approx(b.u, abs=1e-3)
        assert a.v == pytest.approx(b.v, abs=1e-3)


def test_calibrate_noisy_rms_bounded():
    rng = np.random.default_rng(3)
    cam = _camera()
    fitted, rms = calibrate(_correspondences(cam, noise=1.0, rng=rng))
    assert rms <= 2.0
    assert reprojection_rms(fitted, _correspondences(cam)) <= 3.0


def test_calibrate_rejects_coplanar_points():
    cam = _camera()
    world = TABLE.surface_keypoints()
    pairs = [(p, project(cam, p)) for p in world]
    with pytest.raises(CalibrationFailed, match="coplanar"):
        calibrate(pairs)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.6, -0.8, 0.0)]
# Angles around the series switch at 1e-3, half turns and beyond.
ANGLES = st.one_of(
    st.sampled_from([0.0, 1e-3, np.nextafter(1e-3, 0.0), np.nextafter(1e-3, 1.0), np.pi,
                     np.nextafter(np.pi, 4.0), 2 * np.pi]),
    st.floats(0.0, 2e-3),
    st.floats(0.0, 50.0),
)


@settings(max_examples=500)
@given(st.one_of(st.sampled_from(AXES),
                 st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.dot(a, a) > 1e-6)),
       ANGLES, st.sampled_from([1.0, -1.0]))
def test_closed_form_rotation_equals_scipy(axis, angle, sign):
    v = sign * angle * (np.array(axis) / np.linalg.norm(axis))
    assert _same_bits(camera_module._rotations(v[None])[0], Rotation.from_rotvec(v).as_matrix())


def test_closed_form_rotations_of_a_stack_and_of_non_finite_angles():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(7, 3)) * [[1e-4], [1e-3], [0.1], [1.0], [3.0], [10.0], [0.0]]
    assert _same_bits(camera_module._rotations(v), Rotation.from_rotvec(v).as_matrix())
    bad = np.array([[np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0], [1e200, 0.0, 0.0]])
    assert np.isnan(camera_module._rotations(bad)).all()
    assert np.isnan(Rotation.from_rotvec(bad).as_matrix()).all()


WORLD = np.array([p.as_array() for p in TABLE.surface_keypoints() + TABLE.corner_ground_points()])


def _jacobian_case(seed, fx, tz):
    """World points, pixels and a parameter vector with the given fx and
    t_z, the rest from a sampled camera."""
    rng = np.random.default_rng(seed)
    cam = sample_camera(rng)
    pixels = project_many(cam, WORLD) + rng.normal(0.0, 1.0, size=(len(WORLD), 2))
    x = camera_module._pack(cam.intrinsics, cam.extrinsics)
    x[0], x[9] = fx, tz
    return WORLD, pixels, x


def _check_jacobian(world, pixels, x) -> np.ndarray:
    """The batched Jacobian against scipy's 2-point finite differences, bit
    for bit; returns the residual rows at x and its one-step neighbours."""
    def rows(p):
        return camera_module._residual_rows(p, world, pixels)

    want = approx_derivative(scalar_calibration.residual, x, method="2-point",
                             args=(world, pixels))
    assert _same_bits(camera_module._forward_jacobian(rows, x), want)
    for p in (x, x * 1.01):  # each row of a stack equals its one-row call
        stacked = rows(np.stack([p, x, p]))
        assert _same_bits(stacked[0], rows(p[None])[0]) and _same_bits(stacked[2], stacked[0])
        assert _same_bits(stacked[0], scalar_calibration.residual(p, world, pixels))
    h = np.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    stepped = np.repeat(x[None], 11, axis=0)
    stepped[np.arange(1, 11), np.arange(10)] = x + h
    return rows(stepped)


@settings(max_examples=100)
@given(st.integers(0, 2**32 - 1), st.floats(300.0, 3000.0), st.floats(5.0, 10.0))
def test_batched_jacobian_equals_scipy_finite_differences(seed, fx, tz):
    _check_jacobian(*_jacobian_case(seed, fx, tz))


@pytest.mark.parametrize("fx, unguarded", [
    (0.0, [1]),  # the centre row is guarded, the step up from it is not
    (-1e-300, []),  # the step goes down: every row is guarded
    (-1.0, []),
    (1e-9, list(range(11))),
])
def test_batched_jacobian_equals_scipy_at_the_focal_guard(fx, unguarded):
    f = _check_jacobian(*_jacobian_case(3, fx, 7.0))
    assert np.flatnonzero(~(f == 1e6).all(axis=1)).tolist() == unguarded


def test_batched_jacobian_equals_scipy_across_the_depth_guard():
    # Unrotated points 2 m up, t_z just above -2: the nearest depths sit
    # just above 1e-9, and the t_z step, away from zero, drops them below.
    world = WORLD + [0.0, 0.0, 2.0]
    pixels = np.zeros((len(world), 2))
    x = np.array([1000.0, 1000.0, 480.0, 300.0, 0.0, 0.0, 0.0, 0.1, 0.2, -2.0 + 1e-8])
    guarded = (_check_jacobian(world, pixels, x) == 1e6).all(axis=1)
    assert not guarded[0] and guarded[10]


@pytest.fixture(scope="module")
def library_correspondences():
    """The correspondences calibrate_from_track passes to calibrate for the
    golden library scenes."""
    seen, scenes = [], golden.corpus("library")  # read before patching: it refuses under a patch
    with mock.patch.object(pipeline, "calibrate", seen.append):
        for scene in scenes:
            pipeline.calibrate_from_track(scene.track, TABLE)
    return seen


def test_calibrate_equals_the_scalar_rotation_refinement(library_correspondences):
    assert len(library_correspondences) == len(golden.corpus("library"))
    for corr in library_correspondences:
        got, rms = calibrate(corr)
        want, want_rms = scalar_calibration.calibrate(corr)
        gk, wk = got.intrinsics, want.intrinsics
        assert _same_bits([gk.fx, gk.fy, gk.cx, gk.cy], [wk.fx, wk.fy, wk.cx, wk.cy])
        assert _same_bits(got.extrinsics.r, want.extrinsics.r)
        assert _same_bits(got.extrinsics.t, want.extrinsics.t)
        assert rms == want_rms


PIXELS = project_many(_camera(), WORLD)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(WORLD) - 1), st.integers(0, 1),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=20))
def test_calibrate_on_extreme_finite_pixels_fails_cleanly(edits):
    # Finite pixels anywhere up to +/-1.8e308: calibrate returns a finite
    # camera or raises CalibrationFailed, and no numpy warning escapes.
    pixels = PIXELS.copy()
    for i, j, value in edits:
        pixels[i, j] = value
    corr = [(Vec3(*p), ImagePoint(*q)) for p, q in zip(WORLD.tolist(), pixels.tolist())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fitted, rms = calibrate(corr)
        except CalibrationFailed:
            return
    k = fitted.intrinsics
    assert np.isfinite([k.fx, k.fy, k.cx, k.cy, rms]).all()
    assert np.isfinite(fitted.extrinsics.r).all() and np.isfinite(fitted.extrinsics.t).all()


def test_position_player_round_trip():
    cam = _camera()
    root = Vec3(1.9, 0.4, 0.0)
    joints_world = [
        Vec3(root.x, root.y, 0.95),
        Vec3(root.x - 0.3, root.y - 0.2, 1.1),
        Vec3(root.x - 0.08, root.y, 0.0),
        Vec3(root.x + 0.08, root.y, 0.0),
    ]
    r, t = cam.extrinsics.r, cam.extrinsics.t
    joints_cam = [Vec3.from_array(r @ j.as_array() + t) for j in joints_world]
    ankles_px = [project(cam, j).as_array() for j in joints_world[-2:]]
    got_roots = ground_roots(cam, [ankles_px])
    got_joints = place_joints(cam, got_roots, [[j.as_array() for j in joints_cam]])
    assert np.allclose(got_roots[0], root.as_array(), atol=1e-6)
    for got, want in zip(got_joints[0], joints_world):
        assert np.allclose(got, want.as_array(), atol=1e-6)


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(3, 6))
def test_stacked_positioning_matches_the_one_frame_oracle(seed, n, n_joints):
    # Ankle pixels anywhere in the image: some rays miss the ground, and the
    # stacked call must then raise for the first of them, as frame by frame.
    rng = np.random.default_rng(seed)
    cam = sample_camera(rng)
    ankles = rng.uniform(0.0, [960.0, 540.0], size=(n, 2, 2))
    joints = rng.normal(size=(n, n_joints, 3)) + [0.0, 0.0, 8.0]
    try:
        want = [
            scalar.position_player(cam, [ImagePoint(*a) for a in row], [Vec3(*j) for j in js])
            for row, js in zip(ankles.tolist(), joints.tolist())
        ]
    except NoIntersection as exc:
        with pytest.raises(NoIntersection, match=f"^{re.escape(str(exc))}$"):
            ground_roots(cam, ankles)
        return
    roots = ground_roots(cam, ankles)
    world = place_joints(cam, roots, joints)
    assert roots.tobytes() == np.array([r.as_array() for r, _ in want]).tobytes()
    assert world.tobytes() == np.array([[j.as_array() for j in js] for _, js in want]).tobytes()


def test_sample_camera_satisfies_assumptions():
    rng = np.random.default_rng(11)
    for _ in range(5):
        cam = sample_camera(rng)
        assert abs(cam.extrinsics.center()[0]) < 1e-9
        assert leg_verticality(cam) <= 0.1
