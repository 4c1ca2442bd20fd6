import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ttrally.core import (
    Frame3D,
    Point,
    TableGeometry,
    Vec3,
    dataset_stats,
)
from ttrally.errors import EmptyDataset

finite = st.floats(-1e6, 1e6, allow_nan=False)


def test_vec3_arithmetic():
    a = Vec3(1.0, 2.0, 3.0)
    b = Vec3(-0.5, 1.0, 4.0)
    assert (a + b) == Vec3(0.5, 3.0, 7.0)
    assert (a - b) == Vec3(1.5, 1.0, -1.0)
    assert a * 2.0 == Vec3(2.0, 4.0, 6.0)
    assert 2.0 * a == a * 2.0
    assert math.isclose(Vec3(3.0, 4.0, 0.0).norm(), 5.0)


@given(finite, finite, finite)
def test_vec3_array_round_trip(x, y, z):
    v = Vec3(x, y, z)
    assert Vec3.from_array(v.as_array()) == v


def test_table_dimensions():
    t = TableGeometry()
    assert t.length_x == 2.74
    assert t.width_y == 1.525
    assert t.height_z == 0.76


def test_table_keypoints():
    t = TableGeometry()
    kps = t.surface_keypoints()
    assert len(kps) == 6
    assert all(p.z == t.height_z for p in kps)
    # Net midpoints sit on the x = 0 plane at the table edges.
    assert kps[4] == Vec3(0.0, -t.half_width, t.height_z)
    assert kps[5] == Vec3(0.0, t.half_width, t.height_z)
    grounds = t.corner_ground_points()
    assert all(g.z == 0.0 for g in grounds)
    assert [(g.x, g.y) for g in grounds] == [(p.x, p.y) for p in kps[:4]]


def test_table_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        TableGeometry(length_x=-1.0)


def _point_from_positions(positions, hits, fps=60.0):
    frames = [
        Frame3D(
            frame_index=i,
            ball_world=Vec3(*p),
            opponent_joints_world=[],
        )
        for i, p in enumerate(positions)
    ]
    return Point(frames=frames, hits=hits, fps=fps)


def test_dataset_stats_oracle():
    # Ball moves 0.1 m per frame at 60 fps -> speed 6 m/s everywhere.
    positions = [(0.1 * i - 2.0, 0.0, 1.0) for i in range(31)]
    point = _point_from_positions(positions, hits=[0, 30])
    stats = dataset_stats([point])
    assert stats.mean_speed == pytest.approx(6.0)
    assert stats.speed_p10 == pytest.approx(6.0)
    assert stats.mean_inter_hit_time == pytest.approx(0.5)


def test_dataset_stats_percentile_matches_nearest_rank_oracle():
    rng = np.random.default_rng(0)
    speeds = rng.uniform(2.0, 18.0, size=120)
    positions = np.zeros((121, 3))
    positions[:, 0] = np.concatenate([[0.0], np.cumsum(speeds / 60.0)])
    point = _point_from_positions([tuple(p) for p in positions], hits=[0, 60])
    stats = dataset_stats([point])
    s = np.sort(speeds)
    assert stats.speed_p10 == pytest.approx(s[math.ceil(0.1 * len(s)) - 1])
    assert stats.speed_p90 == pytest.approx(s[math.ceil(0.9 * len(s)) - 1])


def test_dataset_stats_divide_steps_by_the_frame_gap():
    # A reconstruction leaves out frames it could not position: the step
    # across a dropped frame spans two frame times.
    rng = np.random.default_rng(4)
    positions = np.cumsum(rng.uniform(0.05, 0.3, size=(21, 3)), axis=0).tolist()
    point = _point_from_positions(positions, hits=[0, 20], fps=50.0)
    del point.frames[7]
    stats = dataset_stats([point])
    speeds = sorted(
        math.dist(a.ball_world.as_array(), b.ball_world.as_array())
        / ((b.frame_index - a.frame_index) / 50.0)
        for a, b in zip(point.frames, point.frames[1:])
    )
    assert len(speeds) == 19
    assert stats.mean_speed == pytest.approx(sum(speeds) / len(speeds), rel=1e-12)
    assert stats.speed_p10 == pytest.approx(speeds[math.ceil(0.1 * 19) - 1], rel=1e-12)
    assert stats.speed_p90 == pytest.approx(speeds[math.ceil(0.9 * 19) - 1], rel=1e-12)


def test_dataset_stats_empty():
    with pytest.raises(EmptyDataset):
        dataset_stats([])
