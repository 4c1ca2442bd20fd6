"""Pinhole camera model, ground projections, and 10-point calibration.

Image convention: u grows to the right, v grows upward, origin at the
bottom-left of the frame (so "below the table" means smaller v, and the
table base line sits at v = h_base under the table surface pixels). The
camera frame is the usual right-handed x-right / y-down / z-forward triad;
the v-up image axis is absorbed into the projection as v = cy - fy * Y / Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import rq
from scipy.optimize import least_squares
from scipy.spatial.transform import Rotation

from .core import ANKLE_JOINTS, Vec3
from .errors import (
    BehindCamera,
    CalibrationDegenerate,
    CalibrationFailed,
    NoIntersection,
    NoVanishingPoint,
    PlacementFailed,
)


@dataclass(frozen=True)
class ImagePoint:
    u: float
    v: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v], dtype=float)


@dataclass(frozen=True)
class Plane:
    """Axis-aligned world plane {p : p[axis] == offset}; axis in 'xyz'."""

    axis: str
    offset: float

    @property
    def index(self) -> int:
        return "xyz".index(self.axis)


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass
class Extrinsics:
    r: np.ndarray  # 3x3 rotation, world -> camera
    t: np.ndarray  # translation, camera = r @ world + t

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.t = np.asarray(self.t, dtype=float).reshape(3)

    def orthonormality_error(self) -> float:
        return float(np.abs(self.r.T @ self.r - np.eye(3)).max())

    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.r.T @ self.t


@dataclass
class Camera:
    intrinsics: Intrinsics
    extrinsics: Extrinsics


def project(camera: Camera, p: Vec3) -> ImagePoint:
    """Pinhole projection of one point: project_many's one-row call form."""
    u, v = project_many(camera, p.as_array()[None])[0]
    return ImagePoint(u, v)


def project_many(camera: Camera, pts: np.ndarray) -> np.ndarray:
    """Vectorized projection of an (n, 3) world array to (n, 2) pixels."""
    cam = pts @ camera.extrinsics.r.T + camera.extrinsics.t
    if np.any(cam[:, 2] <= 0):
        raise BehindCamera("point(s) with non-positive depth")
    k = camera.intrinsics
    return np.column_stack(
        [
            k.cx + k.fx * cam[:, 0] / cam[:, 2],
            k.cy - k.fy * cam[:, 1] / cam[:, 2],
        ]
    )


def pixel_rays(camera: Camera, pixels) -> tuple[np.ndarray, np.ndarray]:
    """World-frame origin (3,) and directions (n, 3) of the viewing rays
    through (n, 2) pixels."""
    k = camera.intrinsics
    pixels = np.asarray(pixels, dtype=float)
    dir_cam = np.column_stack([
        (pixels[:, 0] - k.cx) / k.fx, (k.cy - pixels[:, 1]) / k.fy, np.ones(len(pixels))
    ])
    return camera.extrinsics.center(), dir_cam @ camera.extrinsics.r  # rows R^T d


def plane_points(camera: Camera, pixels, plane: Plane) -> np.ndarray:
    """Intersect the viewing rays through (n, 2) pixels with an axis-aligned
    world plane: (n, 3). The first ray, in pixel order, that is parallel to
    the plane or meets it behind the camera raises NoIntersection."""
    origin, directions = pixel_rays(camera, pixels)
    i = plane.index
    denom = directions[:, i]
    parallel = np.abs(denom) < 1e-12 * np.linalg.norm(directions, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (plane.offset - origin[i]) / denom
    missed = parallel | ~(s > 0)  # a NaN s, from a huge pixel, misses too
    if missed.any():
        if parallel[np.argmax(missed)]:
            raise NoIntersection(f"ray parallel to plane {plane.axis}={plane.offset}")
        raise NoIntersection("plane intersection behind the camera")
    return origin + s[:, None] * directions


Line = tuple[ImagePoint, ImagePoint]


def _homogeneous_line(line: Line) -> np.ndarray:
    a = np.array([line[0].u, line[0].v, 1.0])
    b = np.array([line[1].u, line[1].v, 1.0])
    return np.cross(a, b)


def vanishing_point(l1: Line, l2: Line) -> ImagePoint:
    """Intersection of two image lines, each given by two points."""
    p = np.cross(_homogeneous_line(l1), _homogeneous_line(l2))
    scale = max(abs(p[0]), abs(p[1]), 1.0)
    if abs(p[2]) < 1e-9 * scale:
        raise NoVanishingPoint("lines are parallel in the image")
    return ImagePoint(p[0] / p[2], p[1] / p[2])


def ground_projections(
    keypoints: list[ImagePoint], h_base: float
) -> list[ImagePoint]:
    """Drop the four table corners to the ground line at v = h_base.

    The near corners p1, p2 drop straight down to the base line. The far
    corners p3, p4 drop down to the lines joining g1, g2 with the vanishing
    point of the table's two depth edges (p1->p3 and p2->p4).
    """
    if len(keypoints) < 4:
        raise ValueError("need the four corner keypoints")
    p1, p2, p3, p4 = keypoints[:4]

    def drop_far(p_far: ImagePoint, g_near: ImagePoint) -> ImagePoint:
        du = vp.u - g_near.u
        if abs(du) < 1e-9:
            raise CalibrationDegenerate("ground line is vertical in the image")
        v = g_near.v + (p_far.u - g_near.u) * (vp.v - g_near.v) / du
        return ImagePoint(p_far.u, v)

    # Huge keypoints overflow to non-finite points, which calibrate refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            vp = vanishing_point((p1, p3), (p2, p4))
        except NoVanishingPoint as exc:
            raise CalibrationDegenerate("depth edges parallel (head-on camera)") from exc
        g1 = ImagePoint(p1.u, h_base)
        g2 = ImagePoint(p2.u, h_base)
        return [g1, g2, drop_far(p3, g1), drop_far(p4, g2)]


def _decompose_projection(p_native: np.ndarray) -> tuple[Intrinsics, Extrinsics]:
    """Split a native-convention 3x4 projection matrix into K, R, t."""
    # Flip the v axis to the standard y-down convention before RQ.
    m = np.diag([1.0, -1.0, 1.0]) @ p_native
    a3 = m[:, :3]
    det = np.linalg.det(a3)
    if abs(det) < 1e-12:
        raise CalibrationFailed("projection matrix is singular")
    if det < 0:
        m = -m
        a3 = -a3
    k, r = rq(a3)
    signs = np.sign(np.diag(k))
    if np.any(signs == 0):
        raise CalibrationFailed("degenerate intrinsic matrix")
    k = k @ np.diag(signs)
    r = np.diag(signs) @ r
    t = np.linalg.solve(k, m[:, 3])
    k = k / k[2, 2]
    if k[0, 0] <= 0 or k[1, 1] <= 0:
        raise CalibrationFailed("non-positive focal length from decomposition")
    intr = Intrinsics(fx=k[0, 0], fy=k[1, 1], cx=k[0, 2], cy=-k[1, 2])
    return intr, Extrinsics(r=r, t=t)


def _dlt(hom: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """The DLT projection matrix of homogeneous world points (n, 4) and
    their pixels (n, 2): two rows of the linear system per point."""
    a = np.zeros((2 * len(hom), 12))
    a[0::2, 0:4] = hom
    a[1::2, 4:8] = hom
    with np.errstate(over="ignore"):  # refused below
        a[0::2, 8:12] = -pixels[:, :1] * hom
        a[1::2, 8:12] = -pixels[:, 1:] * hom
    if not np.isfinite(a).all():
        raise CalibrationFailed("calibration system overflows")
    _, s, vt = np.linalg.svd(a)
    if s[-2] < 1e-9 * s[0]:
        raise CalibrationFailed("rank-deficient calibration system")
    return vt[-1].reshape(3, 4)


def _pack(intr: Intrinsics, extr: Extrinsics) -> np.ndarray:
    rot = Rotation.from_matrix(extr.r).as_rotvec()
    return np.concatenate(
        [[intr.fx, intr.fy, intr.cx, intr.cy], rot, extr.t]
    )


def _quaternion(rx: float, ry: float, rz: float) -> tuple[float, float, float, float]:
    """The unit quaternion (x, y, z, w) of a finite rotation vector, in the
    arithmetic of scipy's ``Rotation.from_rotvec``: its small-angle series
    below 1e-3 rad, else sin(a/2)/a, and cos(a/2)."""
    angle = math.sqrt(rx * rx + ry * ry + rz * rz)
    if angle <= 1e-3:
        a2 = angle * angle
        scale = 0.5 - a2 / 48 + a2 * a2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    return scale * rx, scale * ry, scale * rz, math.cos(angle / 2)


def _rotations(rotvecs: np.ndarray) -> np.ndarray:
    """Rotation matrices (k, 3, 3) of (k, 3) rotation vectors, in the
    arithmetic of scipy's ``Rotation.from_rotvec(v).as_matrix()`` (rotation
    vector -> quaternion -> matrix, element by element through libm), so
    they equal it bit for bit. A non-finite angle gives a NaN matrix, as
    scipy's does."""
    rows = []
    for rx, ry, rz in rotvecs.tolist():
        if math.sqrt(rx * rx + ry * ry + rz * rz) == math.inf:
            rows.append((math.nan,) * 9)
            continue
        x, y, z, w = _quaternion(rx, ry, rz)
        x2, y2, z2, w2 = x * x, y * y, z * z, w * w
        xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
        rows.append((
            x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw),
            2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw),
            2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2,
        ))
    return np.array(rows, dtype=float).reshape(-1, 3, 3)


def _unpack(params: np.ndarray) -> Camera:
    fx, fy, cx, cy = params[:4]
    r = _rotations(params[None, 4:7])[0]
    return Camera(Intrinsics(fx, fy, cx, cy), Extrinsics(r, params[7:10]))


def _residual_rows(params: np.ndarray, world: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """Reprojection residuals (k, 2n) of (k, 10) parameter rows (fx, fy, cx,
    cy, rotation vector, t) over n world points and their pixels. A row
    with a non-positive focal length or a point at depth <= 1e-9 is all
    1e6. Each row equals its one-row evaluation bit for bit: the stacked
    product multiplies each row's matrix as ``world @ r.T`` does."""
    camc = world @ _rotations(params[:, 4:7]).transpose(0, 2, 1) + params[:, None, 7:10]
    depth = camc[..., 2]
    fx, fy, cx, cy = (params[:, i, None] for i in range(4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        proj = np.stack([cx + fx * camc[..., 0] / depth, cy - fy * camc[..., 1] / depth], axis=-1)
    res = (proj - pixels).reshape(len(params), -1)
    res[(fx[:, 0] <= 0) | (fy[:, 0] <= 0) | np.any(depth <= 1e-9, axis=1)] = 1e6
    return res


_SQRT_EPS = math.sqrt(np.finfo(float).eps)  # scipy's default 2-point relative step


def _forward_jacobian(rows, x: np.ndarray) -> np.ndarray:
    """scipy's default 2-point finite-difference Jacobian of ``rows(X)[i]``
    at x (``approx_derivative(..., method="2-point")`` with no bounds), bit
    for bit, from one call of ``rows`` on x and its n one-step rows."""
    h = _SQRT_EPS * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    stepped = np.repeat(x[None], len(x) + 1, axis=0)
    i = np.arange(len(x))
    stepped[i + 1, i] = x + h
    f = rows(stepped)
    return ((f[1:] - f[0]) / ((x + h) - x)[:, None]).T


def reprojection_rms(camera: Camera, correspondences) -> float:
    world = np.array([p.as_array() for p, _ in correspondences])
    pixels = np.array([q.as_array() for _, q in correspondences])
    err = project_many(camera, world) - pixels
    return float(np.sqrt(np.mean(np.sum(err**2, axis=1))))


def calibrate(correspondences: list[tuple[Vec3, ImagePoint]]) -> tuple[Camera, float]:
    """Calibrate from 3D-2D correspondences (ten points in the standard setup).

    Seeds a projection matrix with a direct linear transform, decomposes it
    into K, R, t, then refines (fx, fy, cx, cy, rotation, t) by nonlinear
    least squares with zero skew and zero distortion. The rotation is
    parametrized as an axis-angle 3-vector during refinement so R stays
    orthonormal. Returns the camera and its reprojection RMS in pixels.
    Non-finite input, or input whose linear system overflows, raises
    CalibrationFailed.
    """
    if len(correspondences) < 6:
        raise CalibrationFailed("need at least 6 correspondences")
    world = np.array([p.as_array() for p, _ in correspondences])
    pixels = np.array([q.as_array() for _, q in correspondences])
    if not (np.isfinite(world).all() and np.isfinite(pixels).all()):
        raise CalibrationFailed("non-finite calibration correspondence")

    try:
        # All points coplanar leaves the DLT under-determined.
        hom = np.hstack([world, np.ones((len(world), 1))])
        sv = np.linalg.svd(hom, compute_uv=False)
        if sv[3] < 1e-9 * sv[0]:
            raise CalibrationFailed("calibration points are coplanar")
        intr, extr = _decompose_projection(_dlt(hom, pixels))
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise CalibrationFailed(str(exc)) from exc

    def rows(params: np.ndarray) -> np.ndarray:
        return _residual_rows(params, world, pixels)

    result = least_squares(
        lambda params: rows(params[None])[0],
        _pack(intr, extr),
        jac=lambda params: _forward_jacobian(rows, params),
        method="lm",
        max_nfev=400,
    )
    if not np.all(np.isfinite(result.x)):
        raise CalibrationFailed("refinement diverged")
    camera = _unpack(result.x)
    if camera.extrinsics.orthonormality_error() > 1e-9:
        raise CalibrationFailed("rotation drifted off the orthonormal manifold")
    rms = float(np.sqrt(np.mean(result.fun**2) * 2.0))
    return camera, rms


GROUND = Plane("z", 0.0)


def ground_roots(camera: Camera, ankles_px) -> np.ndarray:
    """Roots (n, 3) of n players: the ground points under their (n, 2, 2)
    ankle pixels' midpoints. The first ray that misses the ground raises
    NoIntersection."""
    ankles = np.asarray(ankles_px, dtype=float).reshape(-1, 2, 2)
    return plane_points(camera, (ankles[:, 0] + ankles[:, 1]) / 2.0, GROUND)


def place_joints(camera: Camera, roots: np.ndarray, joints_cam) -> np.ndarray:
    """World joints (n, J, 3) of camera-frame joints (n, J, 3): rotated by the
    calibrated R (transposed, camera to world) and translated so their
    camera-frame ankle midpoint lands on the roots (n, 3). Huge joints that
    overflow to non-finite world joints raise PlacementFailed."""
    jc = np.asarray(joints_cam, dtype=float)
    root_cam = (jc[:, ANKLE_JOINTS[0]] + jc[:, ANKLE_JOINTS[1]]) / 2.0
    rt = camera.extrinsics.r.T
    world = roots[:, None] + (jc - root_cam[:, None]) @ rt.T
    if not np.isfinite(world).all():
        raise PlacementFailed("placed player joints overflow")
    return world

