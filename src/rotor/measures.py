"""Empirical probability measures on the torus and rotation-vector tooling.

A measure is a finite weighted atom set; every integral we need is a finite
sum, so this is exact rather than an approximation scheme.  On top of the
measure type live the dynamical averages: pushforward, rotation vectors,
Birkhoff means with tail diagnostics, rotation-set estimates (convex hulls of
displacement means), Cesaro orbit averages, detection of the deck translation
that makes a lift irrotational, and the pairwise distortion diagnostic.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import RotorError
from .geometry import (convex_hull, hull_centroid, hull_diameter,
                       point_to_hull_distance)
from .maps import (LiftedWord, Word, _as_lift, _require_identity,
                   apply_torus_batch, displacement_field_batch, linear_part,
                   orbit_displacement_means, orbit_mean_with_tail,
                   orbit_segment, reduce_batch, reduce_point, torus_grid)
from .mcg import spectral_class

__all__ = [
    "EmpiricalMeasure",
    "RotationSetEstimate",
    "BirkhoffRecord",
    "pushforward",
    "rotation_vector",
    "invariance_defect",
    "birkhoff_mean",
    "estimate_rotation_set",
    "krylov_bogolyubov",
    "irrotational_lift",
    "distortion_ratio",
]

# Atoms closer than this (per coordinate, cyclically) merge to one grid
# representative.
_GRID = 10 ** 12


def _grid_merge(points: np.ndarray, weights: np.ndarray, scale: float,
                cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merge atoms by grid cell key round(p * scale) mod cells: returns the
    sorted cells as key/scale and each cell's weight, summed in input order
    from 0.0.  With cells = scale a point just below 1 lands in cell 0."""
    keys = np.round(points * scale).astype(np.int64) % cells
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    ordered = keys[order]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    cell = np.empty(len(ordered), dtype=np.intp)
    cell[order] = np.cumsum(first) - 1
    return ordered[first] / scale, np.bincount(cell, weights=weights)


def _canonical(points, weights) -> Tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise ValueError("atom coordinates must be finite")
    w = (np.full(len(pts), 1.0 / max(len(pts), 1)) if weights is None
         else np.asarray(weights, dtype=float).reshape(-1))
    if len(w) != len(pts):
        raise ValueError("points and weights differ in length")
    if len(w) == 0:
        raise ValueError("a measure needs at least one atom")
    if (w < 0).any() or not np.isfinite(w).all():
        raise ValueError("weights must be finite and nonnegative")
    out_pts, out_w = _grid_merge(reduce_batch(pts), w, float(_GRID), _GRID)
    total = out_w.sum()
    if total <= 0.0:
        raise ValueError("total mass must be positive")
    out_pts.setflags(write=False)
    out_w = out_w / total
    out_w.setflags(write=False)
    return out_pts, out_w


class EmpiricalMeasure:
    """Probability measure with finitely many atoms on the torus.

    Atoms are canonicalized: coordinates reduced to [0,1), snapped to a
    1e-12 grid (which is also the dedup radius), sorted lexicographically,
    weights normalized to total mass one (atoms in one cell add up in input
    order).  Coordinates must be finite.  Instances are immutable.
    """

    __slots__ = ("points", "weights")

    def __init__(self, points, weights=None):
        pts, w = _canonical(points, weights)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("EmpiricalMeasure is immutable")

    @classmethod
    def dirac(cls, p) -> "EmpiricalMeasure":
        return cls([p], [1.0])

    @classmethod
    def uniform_grid(cls, k: int) -> "EmpiricalMeasure":
        """Uniform weights on the k-by-k grid (i/k, j/k)."""
        if k < 1:
            raise ValueError("grid size must be >= 1")
        return cls(torus_grid(k))

    @property
    def atoms(self) -> List[Tuple[Tuple[float, float], float]]:
        return [((float(x), float(y)), float(w))
                for (x, y), w in zip(self.points, self.weights)]

    def __len__(self) -> int:
        return len(self.weights)

    def integrate(self, values: np.ndarray) -> float:
        """Sum of weights times per-atom values."""
        return float(self.weights @ np.asarray(values, dtype=float))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "weight"])
            for (x, y), w in self.atoms:
                wr.writerow([repr(x), repr(y), repr(w)])

    @classmethod
    def from_csv(cls, path) -> "EmpiricalMeasure":
        pts, w = [], []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, None)
            if header != ["x", "y", "weight"]:
                raise ValueError("expected header x,y,weight")
            for row in rd:
                pts.append((float(row[0]), float(row[1])))
                w.append(float(row[2]))
        return cls(pts, w)

    def __repr__(self):
        return "EmpiricalMeasure(%d atoms)" % len(self)


@dataclass(eq=False)
class RotationSetEstimate:
    """Displacement means over many seeds and their convex hull."""

    samples: np.ndarray
    hull: np.ndarray
    n: int

    def diameter(self) -> float:
        return hull_diameter(self.hull)

    def centroid(self) -> np.ndarray:
        return hull_centroid(self.hull)

    def distance_to(self, p) -> float:
        return point_to_hull_distance(p, self.hull)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["kind", "x", "y"])
            for x, y in self.samples:
                wr.writerow(["sample", repr(float(x)), repr(float(y))])
            for x, y in self.hull:
                wr.writerow(["hull", repr(float(x)), repr(float(y))])

    def __repr__(self):
        return ("RotationSetEstimate(%d samples, %d hull vertices, n=%d)"
                % (len(self.samples), len(self.hull), self.n))


@dataclass(frozen=True)
class BirkhoffRecord:
    """One n-step displacement mean with a convergence diagnostic.

    tail_spread is the largest deviation of the last n/10 partial means
    from the final mean; small spread suggests (but cannot certify) that
    the mean has settled.
    """

    seed: Tuple[float, float]
    n: int
    mean: Tuple[float, float]
    tail_spread: float


def pushforward(w: Word, mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Image measure: atoms moved by the torus map, weights carried along."""
    image = apply_torus_batch(w, mu.points)
    return EmpiricalMeasure(image, mu.weights)


def rotation_vector(mu: EmpiricalMeasure, lw) -> np.ndarray:
    """Integral of the displacement field against mu.

    Meaningful as a rotation vector only when mu is (approximately)
    invariant; invariance is the caller's responsibility.  The deck
    translation is added once at the end, so shifting the lift by an
    integer vector shifts the result by exactly that vector.
    """
    base = _as_lift(lw)
    disp = displacement_field_batch(LiftedWord(base.word), mu.points)
    u = base.extra_translation
    return np.array([mu.weights @ disp[:, 0] + u[0],
                     mu.weights @ disp[:, 1] + u[1]])


# Test family for invariance defects: one frequency pair per +/- class with
# |j|,|k| <= 2, paired with sin and cos (24 functions).  Conjugate pairs add
# nothing: cos is even and sin only flips sign.
_TEST_FREQS = np.array([(j, k)
                        for j in range(3) for k in range(-2, 3)
                        if j > 0 or k > 0], dtype=float)


def _trig_moments(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    ang = 2.0 * math.pi * (points @ _TEST_FREQS.T)
    return np.concatenate([weights @ np.cos(ang), weights @ np.sin(ang)])


def invariance_defect(w: Word, mu: EmpiricalMeasure) -> float:
    """Largest change of a trig test-function integral under the map.

    Zero for exactly invariant measures; below about 1e-9 counts as exact
    in the rest of the suite, and orbit averages typically sit below 1e-2.
    """
    image = apply_torus_batch(w, mu.points)
    before = _trig_moments(mu.points, mu.weights)
    after = _trig_moments(image, mu.weights)
    return float(np.abs(before - after).max())


def _require_bounded_means(lw) -> None:
    tag = spectral_class(linear_part(_as_lift(lw).word)).tag
    if tag in ("hyperbolic", "other_real_split"):
        raise RotorError("rotation set undefined for %s linear part: "
                         "displacement means diverge" % tag)


def birkhoff_mean(lw, seed, n: int) -> BirkhoffRecord:
    """n-step displacement mean (lift^n(seed) - seed)/n along one orbit.

    Displacements are accumulated with compensated summation along the
    torus orbit, so coordinates never grow with n.  Words with a
    non-identity linear part are iterated in the plane instead, unless an
    expanding eigenvalue makes the means diverge (RotorError).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _require_bounded_means(lw)
    mean, spread = orbit_mean_with_tail(lw, seed, n)
    return BirkhoffRecord(seed=reduce_point(seed), n=n, mean=mean,
                          tail_spread=spread)


def estimate_rotation_set(lw, seeds, n: int,
                          threads: int = 1) -> RotationSetEstimate:
    """Convex hull of n-step displacement means over the given seeds.

    An inner approximation of the rotation set, off by O(1/n) per sample.
    Seed order is preserved and the reduction is deterministic, so the
    result is identical for any thread count.

    Defined only when every eigenvalue of the linear part lies on the unit
    circle; an expanding eigenvalue makes the means diverge, so such words
    are rejected rather than returning an unbounded hull.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    _require_bounded_means(lw)
    arr = np.asarray(seeds, dtype=float).reshape(-1, 2)
    samples = orbit_displacement_means(lw, arr, n, threads)
    return RotationSetEstimate(samples=samples, hull=convex_hull(samples), n=n)


def krylov_bogolyubov(w: Word, seed, n: int, window: int) -> EmpiricalMeasure:
    """Uniform measure on the orbit window {w^k(seed)}, n-window <= k < n.

    The Cesaro construction: for large n the result is nearly invariant,
    which invariance_defect quantifies.
    """
    if window < 1 or n < window:
        raise ValueError("need n >= window >= 1")
    pts = orbit_segment(w, seed, window, burn=n - window)
    return EmpiricalMeasure(pts)


def irrotational_lift(w, seeds, n: int, tol: float) -> Optional[LiftedWord]:
    """Deck-translate a lift so its estimated rotation set is {(0,0)}.

    Estimates the rotation set of the given lift; if the hull has diameter
    below tol and its centroid is within tol of an integer vector v, the
    lift translated by -v is returned.  Otherwise None: at this resolution
    (seeds, n, tol) the element does not look irrotational.  Never a
    certificate, only a judgment at the stated resolution.
    """
    base = _require_identity(w)
    est = estimate_rotation_set(base, seeds, n)
    if est.diameter() >= tol:
        return None
    cx, cy = est.centroid()
    v = (round(float(cx)), round(float(cy)))
    if math.hypot(cx - v[0], cy - v[1]) >= tol:
        return None
    u = base.extra_translation
    return LiftedWord(base.word, (u[0] - v[0], u[1] - v[1]))


def distortion_ratio(lw, n: int, pairs: Sequence) -> float:
    """Largest difference of n-step displacement means across point pairs.

    Computes max over pairs of |(lift^n(x) - x) - (lift^n(y) - y)| / n.
    Sublinear displacement growth shows up as a small ratio; the ratio
    itself makes no judgment.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    base = _require_identity(lw)
    flat = []
    for a, b in pairs:
        flat.append(a)
        flat.append(b)
    if not flat:
        return 0.0
    means = orbit_displacement_means(base, np.asarray(flat, dtype=float), n)
    diff = means[0::2] - means[1::2]
    return float(np.hypot(diff[:, 0], diff[:, 1]).max())
