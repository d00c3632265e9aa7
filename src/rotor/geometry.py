"""Planar convex-hull helpers tolerant of degenerate point clouds.

Rotation-set estimates are routinely single points or straight segments, so
the hull code must handle 0-, 1- and 2-dimensional hulls without joggling.
Vertices returned are always a subset of the input points.
"""

from __future__ import annotations

import math

import numpy as np

from ._args import POINT, POINTS, reads

__all__ = ["convex_hull", "hull_diameter", "hull_centroid",
           "point_to_hull_distance", "hausdorff_distance"]


@reads(points=POINTS)
def convex_hull(points) -> np.ndarray:
    """Ordered (counter-clockwise) hull vertices; Andrew's monotone chain.

    Collinear interior points are dropped.  Degenerate inputs give 1 or 2
    vertices.
    """
    uniq = sorted({(float(x), float(y)) for x, y in points})
    if len(uniq) <= 2:
        return np.array(uniq, dtype=float).reshape(-1, 2)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in uniq:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(uniq):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    out = lower[:-1] + upper[:-1]
    if not out:
        # all points collinear: keep the extreme pair
        out = [uniq[0], uniq[-1]]
    return np.array(out, dtype=float)


@reads(vertices=POINTS)
def hull_diameter(vertices) -> float:
    if len(vertices) <= 1:
        return 0.0
    d2 = ((vertices[:, None, :] - vertices[None, :, :]) ** 2).sum(axis=2)
    return float(math.sqrt(d2.max()))


@reads(vertices=POINTS)
def hull_centroid(vertices) -> np.ndarray:
    return vertices.mean(axis=0)


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.hypot(*(p - a)))
    t = float((p - a) @ ab) / denom
    t = min(1.0, max(0.0, t))
    proj = a + t * ab
    return float(np.hypot(*(p - proj)))


def _point_in_convex(p, v) -> bool:
    # v counter-clockwise with >= 3 vertices
    n = len(v)
    for i in range(n):
        a, b = v[i], v[(i + 1) % n]
        if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) < 0.0:
            return False
    return True


@reads(p=POINT, vertices=POINTS)
def point_to_hull_distance(p, vertices) -> float:
    v = vertices
    if len(v) == 0:
        return math.inf
    if len(v) <= 2:
        return _point_segment_distance(p, v[0], v[-1])
    if _point_in_convex(p, v):
        return 0.0
    return min(_point_segment_distance(p, v[i], v[(i + 1) % len(v)])
               for i in range(len(v)))


@reads(vertices_a=POINTS, vertices_b=POINTS)
def hausdorff_distance(vertices_a, vertices_b) -> float:
    """Hausdorff distance between two convex polygons given by vertices.

    For convex sets the supremum of d(., other) is attained at a vertex, so
    checking vertices of each side against the other polygon is exact.
    """
    d1 = max(point_to_hull_distance(p, vertices_b) for p in vertices_a)
    d2 = max(point_to_hull_distance(p, vertices_a) for p in vertices_b)
    return float(max(d1, d2))
