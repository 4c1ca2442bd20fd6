"""Monocular table-tennis rally reconstruction, anticipation, and control sim."""

from .core import (
    Frame3D,
    Point,
    TableGeometry,
    Vec3,
    dataset_stats,
)
from .errors import TTRallyError

__version__ = "0.1.0"

__all__ = [
    "Frame3D",
    "Point",
    "TableGeometry",
    "TTRallyError",
    "Vec3",
    "dataset_stats",
    "__version__",
]
