"""Test fixtures for tracks and reconstructed points held as columns.

``comparable`` makes two records compare equal exactly when every field is
equal and every array column holds the same shape, dtype and bytes (NaN,
the absent-value mark, included). ``corrupt_track`` drops player 0's
joints in random frames to emulate tracking failures.
"""

import copy
import dataclasses

import numpy as np


def comparable(record) -> tuple:
    """A dataclass's field values, each array as (shape, dtype, bytes)."""
    return tuple(
        (value.shape, value.dtype.str, value.tobytes()) if isinstance(value, np.ndarray) else value
        for value in (getattr(record, f.name) for f in dataclasses.fields(record))
    )


def corrupt_track(track, rng: np.random.Generator, drop_prob: float):
    """A copy of ``track`` without player 0's joints in each frame for which
    one uniform draw, in frame order, falls below ``drop_prob``."""
    broken = copy.deepcopy(track)
    broken.joints[rng.random(len(track.frames)) < drop_prob, 0] = np.nan
    return broken
