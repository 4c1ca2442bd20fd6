"""The one-frame player positioning that the stacked ``camera.ground_roots``
and ``camera.place_joints`` replaced, kept as a test oracle.

``position_player`` places one player of one frame: one viewing ray through
the ankle-pixel midpoint, intersected with the ground, and one rotation of
that frame's joints. ``positioned`` is the per-frame loop ``reconstruct_point``
ran over a track. Tests hold the stacked code to these bit for bit.
"""

import numpy as np

from ttrally.camera import Camera, ImagePoint
from ttrally.core import ANKLE_JOINTS, Vec3
from ttrally.errors import NoIntersection


def pixel_ray(camera: Camera, q: ImagePoint) -> tuple[np.ndarray, np.ndarray]:
    k = camera.intrinsics
    dir_cam = np.array([(q.u - k.cx) / k.fx, (k.cy - q.v) / k.fy, 1.0])
    direction = camera.extrinsics.r.T @ dir_cam
    return camera.extrinsics.center(), direction


def inverse_project_to_plane(camera: Camera, q: ImagePoint, z: float) -> Vec3:
    origin, direction = pixel_ray(camera, q)
    denom = direction[2]
    if abs(denom) < 1e-12 * np.linalg.norm(direction):
        raise NoIntersection(f"ray parallel to plane z={z}")
    s = (z - origin[2]) / denom
    if s <= 0:
        raise NoIntersection("plane intersection behind the camera")
    return Vec3.from_array(origin + s * direction)


def position_player(
    camera: Camera, ankles_px: list[ImagePoint], joints_cam: list[Vec3]
) -> tuple[Vec3, list[Vec3]]:
    mid = ImagePoint(
        (ankles_px[0].u + ankles_px[1].u) / 2.0,
        (ankles_px[0].v + ankles_px[1].v) / 2.0,
    )
    root = inverse_project_to_plane(camera, mid, 0.0)
    jc = np.array([j.as_array() for j in joints_cam])
    root_cam = (jc[ANKLE_JOINTS[0]] + jc[ANKLE_JOINTS[1]]) / 2.0
    rt = camera.extrinsics.r.T
    world = root.as_array() + (jc - root_cam) @ rt.T
    return root, [Vec3.from_array(w) for w in world]


def positioned(camera: Camera, track) -> dict[int, tuple[list[Vec3], list[list[Vec3]]]]:
    """Frame index -> (roots, joints) of both players, for every frame that
    carries both; raises at the first miss, frame by frame, player 0 first.
    Reads the track's columns one frame and player at a time."""
    out = {}
    for i, frame in enumerate(track.frames.tolist()):
        roots, joints = [], []
        for p in (0, 1):
            ankles_px = track.ankles[i, p].tolist()
            joints_cam = [Vec3(*j) for j in track.joints[i, p].tolist() if not np.isnan(j[0])]
            if not joints_cam or np.isnan(ankles_px).any():
                break
            ankles = [ImagePoint(*a) for a in ankles_px]
            root, world_joints = position_player(camera, ankles, joints_cam)
            roots.append(root)
            joints.append(world_joints)
        else:
            out[frame] = (roots, joints)
    return out
