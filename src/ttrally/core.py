"""World-frame data model and dataset statistics.

World frame: origin at the table center on the floor, x along the table's
length, y along its width, z up. The table surface sits at z = height_z and
each player's hitting plane is the yz-plane at x = +/- length_x / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyDataset

# Joint list convention used throughout the package: index RACKET_HAND_JOINT
# is the racket hand, and the last two entries are the left and right ankles.
RACKET_HAND_JOINT = 1
ANKLE_JOINTS = (-2, -1)
AXES = ("x", "y", "z")


@dataclass(frozen=True)
class Vec3:
    """Point or vector in the world frame, meters."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Vec3":
        return Vec3(float(a[0]), float(a[1]), float(a[2]))

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s: float) -> "Vec3":
        return Vec3(self.x * s, self.y * s, self.z * s)

    __rmul__ = __mul__

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class TableGeometry:
    """Table dimensions and derived planes.

    Defaults follow the ITTF standard (2.74 m x 1.525 m x 0.76 m); the values
    live here so non-standard tables can be configured.
    """

    length_x: float = 2.74
    width_y: float = 1.525
    height_z: float = 0.76

    def __post_init__(self):
        if min(self.length_x, self.width_y, self.height_z) <= 0:
            raise ValueError("table dimensions must be positive")

    @property
    def half_length(self) -> float:
        return self.length_x / 2.0

    @property
    def half_width(self) -> float:
        return self.width_y / 2.0

    def surface_keypoints(self) -> list[Vec3]:
        """The six calibration keypoints on the table surface.

        Ordered corner1, corner2 (near side, -y), corner3, corner4 (far
        side, +y), then the two net midpoints (near, far).
        """
        hl, hw, h = self.half_length, self.half_width, self.height_z
        return [
            Vec3(-hl, -hw, h),
            Vec3(hl, -hw, h),
            Vec3(-hl, hw, h),
            Vec3(hl, hw, h),
            Vec3(0.0, -hw, h),
            Vec3(0.0, hw, h),
        ]

    def corner_ground_points(self) -> list[Vec3]:
        """Projections of the four table corners onto the floor (z = 0)."""
        return [Vec3(p.x, p.y, 0.0) for p in self.surface_keypoints()[:4]]


@dataclass
class Frame3D:
    """Reconstructed world-frame state for one frame of an exchange."""

    frame_index: int
    ball_world: Vec3
    opponent_joints_world: list[Vec3]


@dataclass
class Point:
    """A reconstructed rally: ordered frames plus hit times."""

    frames: list[Frame3D]
    hits: list[int]
    fps: float = 60.0
    point_id: int = 0


@dataclass
class DatasetStats:
    mean_speed: float
    speed_p10: float
    speed_p90: float
    mean_inter_hit_time: float


def _nearest_rank(sorted_values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1])


def dataset_stats(
    points: Sequence[Point], table: TableGeometry = TableGeometry()
) -> DatasetStats:
    """Speed and inter-hit timing statistics.

    Speeds are finite-difference magnitudes between consecutive frames, each
    over the time between their frame indices (a reconstruction leaves out
    frames it could not position). Points without frames are skipped.
    No statistic depends on ``table``; it stays for the callers that pass
    the reconstruction's.
    """
    if not points:
        raise EmptyDataset("no points")

    speeds: list[float] = []
    inter_hit: list[float] = []

    for point in points:
        if not point.frames:
            continue
        dt = 1.0 / point.fps
        balls = np.array([f.ball_world.as_array() for f in point.frames])
        gaps = np.diff([f.frame_index for f in point.frames])
        step = np.linalg.norm(np.diff(balls, axis=0), axis=1) / (gaps * dt)
        speeds.extend(step.tolist())
        for a, b in zip(point.hits, point.hits[1:]):
            inter_hit.append((b - a) * dt)

    if not speeds:
        raise EmptyDataset("points contain no frame pairs")
    sorted_speeds = np.sort(np.asarray(speeds))
    return DatasetStats(
        mean_speed=float(np.mean(sorted_speeds)),
        speed_p10=_nearest_rank(sorted_speeds, 10.0),
        speed_p90=_nearest_rank(sorted_speeds, 90.0),
        mean_inter_hit_time=float(np.mean(inter_hit)) if inter_hit else float("nan"),
    )
