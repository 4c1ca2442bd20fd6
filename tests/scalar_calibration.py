"""The camera refinement that ``camera.calibrate``'s array residual replaced,
kept as a test oracle.

``calibrate`` here builds the DLT system one point at a time, and its
residual builds a scipy ``Rotation`` and a ``Camera`` per evaluation, with
the Jacobian left to scipy's own finite differences. Tests hold the array
form to it bit for bit.
"""

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial.transform import Rotation

from ttrally.camera import Camera, Extrinsics, Intrinsics, _decompose_projection, _pack


def _dlt(world: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    n = len(world)
    a = np.zeros((2 * n, 12))
    for i in range(n):
        xh = np.append(world[i], 1.0)
        u, v = pixels[i]
        a[2 * i, 0:4] = xh
        a[2 * i, 8:12] = -u * xh
        a[2 * i + 1, 4:8] = xh
        a[2 * i + 1, 8:12] = -v * xh
    return np.linalg.svd(a)[2][-1].reshape(3, 4)


def unpack(params: np.ndarray) -> Camera:
    fx, fy, cx, cy = params[:4]
    r = Rotation.from_rotvec(params[4:7]).as_matrix()
    return Camera(Intrinsics(fx, fy, cx, cy), Extrinsics(r, params[7:10]))


def residual(params: np.ndarray, world: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    fx, fy = params[0], params[1]
    if fx <= 0 or fy <= 0:
        return np.full(2 * len(world), 1e6)
    cam = unpack(params)
    camc = world @ cam.extrinsics.r.T + cam.extrinsics.t
    depth = camc[:, 2]
    if np.any(depth <= 1e-9):
        return np.full(2 * len(world), 1e6)
    k = cam.intrinsics
    proj = np.column_stack(
        [k.cx + k.fx * camc[:, 0] / depth, k.cy - k.fy * camc[:, 1] / depth]
    )
    return (proj - pixels).ravel()


def calibrate(correspondences) -> tuple[Camera, float]:
    world = np.array([p.as_array() for p, _ in correspondences])
    pixels = np.array([q.as_array() for _, q in correspondences])
    intr, extr = _decompose_projection(_dlt(world, pixels))
    result = least_squares(residual, _pack(intr, extr), method="lm", max_nfev=400,
                           args=(world, pixels))
    return unpack(result.x), float(np.sqrt(np.mean(result.fun**2) * 2.0))
