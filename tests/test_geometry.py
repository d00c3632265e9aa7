import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from rotor.errors import InvalidArgument
from rotor.geometry import (convex_hull, hausdorff_distance, hull_centroid,
                            hull_diameter, point_to_hull_distance)

SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


# neither (m, 2) nor one (2,) pair; reshaped to (-1, 2), the (2, 3) array
# was the triangle (0, 0), (1, 0), (1, 1)
WRONG_SHAPES = [[[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [0.0, 0.0, 1.0, 1.0],
                [[[0.0, 0.0]]], [], [[0.0, 0.0], [1.0]]]


@pytest.mark.parametrize("bad", WRONG_SHAPES)
@pytest.mark.parametrize("call", [
    convex_hull, hull_diameter, hull_centroid,
    lambda v: point_to_hull_distance((0.5, 0.5), v),
    lambda v: point_to_hull_distance(v, SQUARE),
    lambda v: hausdorff_distance(v, SQUARE),
    lambda v: hausdorff_distance(SQUARE, v)])
def test_wrong_shapes_raise_invalid_argument(call, bad):
    with pytest.raises(InvalidArgument):
        call(bad)


def test_point_to_hull_distance_takes_one_point():
    with pytest.raises(InvalidArgument, match="one point"):
        point_to_hull_distance(SQUARE, SQUARE)
    assert point_to_hull_distance([(2.0, 0.5)], SQUARE) == 1.0
    assert hull_diameter((0.5, 0.5)) == 0.0


def test_hull_of_square_with_interior_points():
    pts = np.vstack([SQUARE, [(0.5, 0.5), (0.2, 0.8), (0.5, 0.0)]])
    hull = convex_hull(pts)
    assert sorted(map(tuple, hull)) == sorted(map(tuple, SQUARE))


def test_hull_is_counter_clockwise():
    hull = convex_hull(np.vstack([SQUARE, [(0.3, 0.3)]]))
    area2 = 0.0
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        area2 += a[0] * b[1] - b[0] * a[1]
    assert area2 > 0.0


def test_hull_degenerate_cases():
    assert convex_hull([(0.3, 0.4)]).tolist() == [[0.3, 0.4]]
    assert convex_hull([(0.3, 0.4), (0.3, 0.4)]).tolist() == [[0.3, 0.4]]
    two = convex_hull([(0.0, 0.0), (1.0, 2.0)])
    assert len(two) == 2
    collinear = convex_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.5, 0.5)])
    assert sorted(map(tuple, collinear)) == [(0.0, 0.0), (2.0, 2.0)]


def test_diameter_and_centroid():
    assert hull_diameter(convex_hull(SQUARE)) == math.sqrt(2.0)
    assert hull_diameter([(0.5, 0.5)]) == 0.0
    assert np.allclose(hull_centroid(SQUARE), (0.5, 0.5))


def test_point_distances():
    hull = convex_hull(SQUARE)
    assert point_to_hull_distance((0.5, 0.5), hull) == 0.0
    assert point_to_hull_distance((0.5, 0.0), hull) == 0.0
    assert abs(point_to_hull_distance((2.0, 0.5), hull) - 1.0) < 1e-15
    assert abs(point_to_hull_distance((2.0, 2.0), hull) - math.sqrt(2.0)) < 1e-15
    # segment and single-point hulls
    seg = np.array([(0.0, 0.0), (1.0, 0.0)])
    assert abs(point_to_hull_distance((0.5, 0.3), seg) - 0.3) < 1e-15
    assert abs(point_to_hull_distance((2.0, 0.0), seg) - 1.0) < 1e-15
    one = np.array([(0.25, 0.25)])
    assert abs(point_to_hull_distance((0.25, 1.25), one) - 1.0) < 1e-15


def test_hausdorff_translated_squares():
    other = SQUARE + (0.25, 0.0)
    assert abs(hausdorff_distance(SQUARE, other) - 0.25) < 1e-15
    assert hausdorff_distance(SQUARE, SQUARE) == 0.0


def test_hausdorff_point_vs_segment():
    d = hausdorff_distance([(0.0, 0.0)], [(0.0, 0.0), (0.0, 1.0)])
    assert abs(d - 1.0) < 1e-15


coord = st.floats(min_value=-10, max_value=10,
                  allow_nan=False, allow_infinity=False)
clouds = st.lists(st.tuples(coord, coord), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None)
@given(clouds)
def test_hull_vertices_are_input_points(pts):
    hull = convex_hull(pts)
    pool = {(float(x), float(y)) for x, y in pts}
    for v in hull:
        assert (float(v[0]), float(v[1])) in pool


@settings(max_examples=150, deadline=None)
@given(clouds)
def test_hull_contains_every_input_point(pts):
    hull = convex_hull(pts)
    for p in pts:
        assert point_to_hull_distance(p, hull) < 1e-7


@settings(max_examples=150, deadline=None)
@given(clouds)
def test_hull_idempotent_and_diameter_matches_cloud(pts):
    hull = convex_hull(pts)
    again = convex_hull(hull)
    assert sorted(map(tuple, again)) == sorted(map(tuple, hull))
    arr = np.asarray(pts, dtype=float)
    d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
    assert abs(hull_diameter(hull) - math.sqrt(d2.max())) < 1e-9
