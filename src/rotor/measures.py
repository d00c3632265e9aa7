"""Empirical probability measures on the torus and rotation-vector tooling.

A measure is a finite weighted atom set; every integral we need is a finite
sum, so this is exact rather than an approximation scheme.  On top of the
measure type live the dynamical averages: pushforward, rotation vectors,
Birkhoff means with tail diagnostics, rotation-set estimates (convex hulls of
displacement means), Cesaro orbit averages, and detection of the deck
translation that makes a lift irrotational.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._args import PATH, POINT, POINTS, POSITIVE, count, reads
from ._kernels import grid_merge
from .errors import InvalidArgument
from .geometry import convex_hull, hull_centroid, hull_diameter
from .maps import (IDENTITY, LIFT, LiftedWord, Word, _lifted,
                   apply_lift_batch, apply_torus_batch,
                   orbit_displacement_means, orbit_mean_with_tail,
                   orbit_segment, reduce_point, torus_grid)

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
]

# Atoms closer than this (per coordinate, cyclically) merge to one grid
# representative.
_GRID = 10 ** 12


def _canonical(pts, weights) -> Tuple[np.ndarray, np.ndarray]:
    if weights is None:
        w = np.full(len(pts), 1.0 / max(len(pts), 1))
    else:
        try:
            w = np.asarray(weights, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidArgument("weights: %s" % exc) from None
        if w.ndim != 1:
            raise InvalidArgument("weights must have shape (n,), got %s"
                                  % (w.shape,))
    if len(w) != len(pts):
        raise InvalidArgument("points and weights differ in length")
    if len(w) == 0:
        raise InvalidArgument("a measure needs at least one atom")
    if (w < 0).any() or not np.isfinite(w).all():
        raise InvalidArgument("weights must be finite and nonnegative")
    out_pts, out_w = grid_merge(pts, w, float(_GRID), _GRID)
    total = out_w.sum()
    if total <= 0.0:
        raise InvalidArgument("total mass must be positive")
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

    @reads(points=POINTS)
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
        return cls(torus_grid(k))

    @property
    def atoms(self) -> List[Tuple[Tuple[float, float], float]]:
        return [((float(x), float(y)), float(w))
                for (x, y), w in zip(self.points, self.weights)]

    def __len__(self) -> int:
        return len(self.weights)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["x", "y", "weight"])
            for (x, y), w in self.atoms:
                wr.writerow([repr(x), repr(y), repr(w)])

    @classmethod
    @reads(path=PATH)
    def from_csv(cls, path) -> "EmpiricalMeasure":
        pts, w = [], []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd, None)
            if header != ["x", "y", "weight"]:
                raise InvalidArgument("expected header x,y,weight")
            for row in rd:
                where = "line %d of %s" % (rd.line_num, path)
                if len(row) != 3:
                    raise InvalidArgument("%s: expected 3 cells x,y,weight, "
                                          "got %d" % (where, len(row)))
                try:
                    x, y, weight = (float(cell) for cell in row)
                except ValueError:
                    raise InvalidArgument("%s: a cell is not a number: %r"
                                          % (where, row)) from None
                pts.append((x, y))
                w.append(weight)
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


@reads(w=LIFT, mu=EmpiricalMeasure)
def pushforward(w: Word, mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """Image measure: atoms moved by the torus map, weights carried along.

    The atoms are canonical, so they are lifted as they are; the measure
    reduces the image.
    """
    return EmpiricalMeasure(apply_lift_batch(w, mu.points), mu.weights)


@reads(mu=EmpiricalMeasure, lw=IDENTITY)
def rotation_vector(mu: EmpiricalMeasure, lw) -> np.ndarray:
    """Integral of the displacement field against mu.

    Meaningful as a rotation vector only when mu is (approximately)
    invariant; invariance is the caller's responsibility.  The deck
    translation is added once at the end, so shifting the lift by an
    integer vector shifts the result by exactly that vector.
    """
    # canonical atoms are their own torus representatives
    disp = apply_lift_batch(_lifted(lw.word, (0, 0)), mu.points) - mu.points
    u = lw.extra_translation
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


@reads(w=LIFT, mu=EmpiricalMeasure)
def invariance_defect(w: Word, mu: EmpiricalMeasure,
                      moments: Optional[np.ndarray] = None) -> float:
    """Largest change of a trig test-function integral under the map.

    Zero for exactly invariant measures; below about 1e-9 counts as exact
    in the rest of the suite, and orbit averages typically sit below 1e-2.
    moments, when given, are mu's own test integrals (_trig_moments), so a
    table of defects of one measure computes them once.
    """
    image = apply_torus_batch(w, mu.points)
    before = (_trig_moments(mu.points, mu.weights) if moments is None
              else moments)
    after = _trig_moments(image, mu.weights)
    return float(np.abs(before - after).max())


@reads(lw=LIFT, seed=POINT, n=count(1))
def birkhoff_mean(lw, seed, n: int) -> BirkhoffRecord:
    """n-step displacement mean (lift^n(seed) - seed)/n along one orbit.

    Displacements are accumulated with compensated summation along the
    torus orbit, so coordinates never grow with n.  Words with a
    non-identity linear part are iterated in the plane instead, unless an
    expanding eigenvalue makes the means diverge (RotorError).
    """
    mean, spread = orbit_mean_with_tail(lw, seed, n)
    return BirkhoffRecord(seed=reduce_point(seed), n=n, mean=mean,
                          tail_spread=spread)


@reads(lw=LIFT, seeds=POINTS, n=count(1), threads=count(1))
def estimate_rotation_set(lw, seeds, n: int,
                          threads: int = 1) -> RotationSetEstimate:
    """Convex hull of n-step displacement means over the given seeds.

    An estimate of the rotation set, off by O(1/n) in either direction:
    each sample is an n-step mean, not a rotation vector, so the hull can
    stick out of the set (h's reaches |x| = 1.2e-4 on 64^2 seeds at
    n = 2000, where the set is {0} x [-0.1, 0.1]) as well as miss parts of
    it.  Seed order is preserved and the reduction is deterministic, so the
    result is identical for any thread count.

    Defined only when every eigenvalue of the linear part lies on the unit
    circle; an expanding eigenvalue makes the means diverge, so such words
    are rejected rather than returning an unbounded hull.
    """
    samples = orbit_displacement_means(lw, seeds, n, threads)
    return RotationSetEstimate(samples=samples, hull=convex_hull(samples), n=n)


@reads(w=LIFT, seed=POINT, n=count(1), window=count(1))
def krylov_bogolyubov(w: Word, seed, n: int, window: int) -> EmpiricalMeasure:
    """Uniform measure on the orbit window {w^k(seed)}, n-window <= k < n.

    The Cesaro construction: for large n the result is nearly invariant,
    which invariance_defect quantifies.  Needs integers n >= window >= 1.
    """
    if n < window:
        raise InvalidArgument("n must be an integer >= window")
    pts = orbit_segment(w, seed, window, burn=n - window)
    return EmpiricalMeasure(pts)


@reads(w=IDENTITY, seeds=POINTS, n=count(1), tol=POSITIVE)
def irrotational_lift(w, seeds, n: int, tol: float) -> Optional[LiftedWord]:
    """Deck-translate a lift so its estimated rotation set is {(0,0)}.

    Estimates the rotation set of the given lift; if the hull has diameter
    below tol and its centroid is within tol of an integer vector v, the
    lift translated by -v is returned.  Otherwise None: at this resolution
    (seeds, n, tol) the element does not look irrotational.  Never a
    certificate, only a judgment at the stated resolution.
    """
    est = estimate_rotation_set(w, seeds, n)
    if est.diameter() >= tol:
        return None
    cx, cy = est.centroid()
    v = (round(float(cx)), round(float(cy)))
    if math.hypot(cx - v[0], cy - v[1]) >= tol:
        return None
    u = w.extra_translation
    return LiftedWord(w.word, (u[0] - v[0], u[1] - v[1]))
