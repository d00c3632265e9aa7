"""Fixed point detection on the torus.

A point is fixed for the torus map of a word exactly when the canonical
lift moves it by a deck vector, so every residual here is the distance
from the lift displacement to the nearest lattice point.  Zero sets are
located by a grid scan followed by damped Newton refinement, which
advances all seeds together, one evaluator call per word for each
Newton round and each step halving.  Curves of fixed points (the
interesting examples fix whole circles) are detected as connected runs
of near-zero grid cells and reported as sampled chains.  That needs the
curve to pass through grid nodes: a fixed circle between the nodes
leaves no near-zero cell, Newton lands on it from every local-minimum
seed, and each landing is reported as an isolated point.  So
`skew tr skew' tr'`, whose fixed set is the two circles
x = 0.457107... and x = 0.957107..., comes back as 58 / 119 / 246
isolated points and no chain at grid 32 / 64 / 128.

Nothing here is a rigorous existence proof, and no index is certified.
fixed_point_index gives the float winding number of the displacement
field around a point.  Every report carries the grid resolution and
tolerance it was computed at.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._args import POINT, POSITIVE, count, each, reads
from .errors import (AmbiguousWinding, DefectExceeded, InvalidArgument,
                     NonIsolated)
from .maps import (IDENTITY, LIFT, LiftedWord, Word, apply_lift_batch,
                   displacement_field_batch, orbit_displacement_means,
                   reduce_point, torus_grid)
from .measures import (EmpiricalMeasure, invariance_defect,
                       rotation_vector)

__all__ = [
    "FixedChain",
    "FixedPointEntry",
    "FixedPointReport",
    "FranksReport",
    "common_fixed_points",
    "find_fixed_points",
    "fixed_point_index",
    "franks_certificate",
]

_FD_STEP = 1e-6
_REFINE_MAX = 50
_CHAIN_MIN_CELLS = 8
_VANISH = 1e-12
# an angular step this close to pi means consecutive field directions
# nearly reversed and the wrap direction is a coin flip
_MAX_TURN = 2.7


@dataclass(frozen=True)
class FixedPointEntry:
    point: Tuple[float, float]
    residual: float


@dataclass(frozen=True)
class FixedChain:
    """Sampled curve of fixed points; always non-isolated by construction."""

    points: Tuple[Tuple[float, float], ...]
    max_residual: float

    @property
    def cell_count(self) -> int:
        return len(self.points)


@dataclass
class FixedPointReport:
    points: List[FixedPointEntry]
    chains: List[FixedChain]
    all_points_fixed: bool
    grid_n: int
    tol: float
    newton_steps: int

    def is_empty(self) -> bool:
        return not (self.points or self.chains or self.all_points_fixed)

    def to_json_dict(self) -> dict:
        return {
            "grid_n": self.grid_n,
            "tol": self.tol,
            "newton_steps": self.newton_steps,
            "all_points_fixed": self.all_points_fixed,
            "points": [
                {"x": repr(p.point[0]), "y": repr(p.point[1]),
                 "residual": repr(p.residual)}
                for p in self.points
            ],
            "chains": [
                {"cell_count": c.cell_count,
                 "max_residual": repr(c.max_residual),
                 "points": [[repr(x), repr(y)] for x, y in c.points]}
                for c in self.chains
            ],
        }

    def chains_to_csv(self, path) -> None:
        """One polyline per chain, rows (chain, x, y)."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["chain", "x", "y"])
            for k, chain in enumerate(self.chains):
                for x, y in chain.points:
                    w.writerow([k, repr(x), repr(y)])


def _lifts(ws, name) -> Tuple[LiftedWord, ...]:
    # one word or lift, or a nonempty iterable of them
    lifts = each(LIFT)([ws] if isinstance(ws, (Word, LiftedWord)) else ws,
                       name)
    if not lifts:
        raise InvalidArgument("%s needs at least one word" % name)
    return lifts


def _residual_fields(lifts: Sequence[LiftedWord], pts: np.ndarray) -> np.ndarray:
    """Stacked per-word lattice residuals, shape (m, n, 2)."""
    out = np.empty((len(lifts), len(pts), 2))
    for i, lw in enumerate(lifts):
        d = apply_lift_batch(lw, pts) - pts
        out[i] = d - np.round(d)
    return out


def _combined_norm(lifts, pts: np.ndarray) -> np.ndarray:
    res = _residual_fields(lifts, pts)
    return np.sqrt((res * res).sum(axis=2)).max(axis=0)


def _flat_residuals(lifts, pts: np.ndarray) -> np.ndarray:
    """One row (word 0 x, word 0 y, word 1 x, ...) per point, shape (n, 2m)."""
    return _residual_fields(lifts, pts).transpose(1, 0, 2).reshape(len(pts), -1)


def _fd_jacobians(lifts, pts: np.ndarray) -> np.ndarray:
    """Central differences, step 1e-6, shape (n, 2m, 2); rounding is locally
    constant so the raw lift displacement has the same Jacobian as the
    lattice residual.  All 4n probes go to the evaluator in one call per
    word."""
    h = _FD_STEP
    probes = np.repeat(pts, 4, axis=0)
    probes[0::4, 0] += h
    probes[1::4, 0] -= h
    probes[2::4, 1] += h
    probes[3::4, 1] -= h
    jac = np.empty((len(pts), 2 * len(lifts), 2))
    for k, lw in enumerate(lifts):
        d = (apply_lift_batch(lw, probes) - probes).reshape(-1, 4, 2)
        jac[:, 2 * k:2 * k + 2, 0] = (d[:, 0] - d[:, 1]) / (2.0 * h)
        jac[:, 2 * k:2 * k + 2, 1] = (d[:, 2] - d[:, 3]) / (2.0 * h)
    return jac


def _refine(lifts, seeds: np.ndarray, tol: float) -> List[Tuple[Tuple[float, float], float]]:
    """Damped Newton on the stacked residual system from each seed.

    Returns reduced points with their worst per-word residual, keeping
    only seeds that converged below tol.  All seeds advance together: a
    Newton round evaluates the probes of every active seed in one call
    per word, then the candidate steps of every seed still halving in one
    call per word and halving round.  The evaluator is pointwise and the
    per-seed arithmetic (least squares, step test, halving, acceptance)
    is that of a loop over single seeds, so every seed ends on the same
    bits as it would alone.
    """
    p = np.array(seeds, dtype=float)
    f = _flat_residuals(lifts, p)
    best = [math.sqrt(float(r @ r)) for r in f]
    active = [i for i in range(len(p)) if not best[i] < 1e-14]
    for _ in range(_REFINE_MAX):
        if not active:
            break
        jac = _fd_jacobians(lifts, p[active])
        halving, steps = [], []
        for i, jac_i in zip(active, jac):
            step, *_ = np.linalg.lstsq(jac_i, -f[i], rcond=None)
            # the residual is Z^2-periodic, so a step longer than one period
            # (or a non-finite one) only says the Jacobian is singular
            if math.hypot(step[0], step[1]) <= 1.0:
                halving.append(i)
                steps.append(step)
        active = []
        steps = np.array(steps).reshape(-1, 2)
        for _ in range(31):  # the full step, then up to 30 halvings
            if not halving:
                break
            cand = p[halving] + steps
            fc = _flat_residuals(lifts, cand)
            left = []
            for k, i in enumerate(halving):
                rc = math.sqrt(float(fc[k] @ fc[k]))
                if rc < best[i]:
                    p[i], f[i], best[i] = cand[k], fc[k], rc
                    if not rc < 1e-14:
                        active.append(i)
                else:
                    left.append(k)
            halving = [halving[k] for k in left]
            steps = steps[left] * 0.5
        active.sort()
    per_word = f.reshape(len(p), len(lifts), 2)
    worst = np.sqrt((per_word * per_word).sum(axis=2)).max(axis=1)
    return [(reduce_point(q), float(r))
            for q, r in zip(p, worst) if r < tol]


def _min_torus_dist(a: np.ndarray, b: np.ndarray) -> float:
    """The smallest torus distance math.hypot(min(dx, 1 - dx),
    min(dy, 1 - dy)) over all pairs of rows of a (n, 2) and b (k, 2),
    to the bit.  Squared distances in numpy shortlist the pairs within a
    relative 1e-9 of the smallest one (plus an absolute 1e-300 for the
    subnormal range), and math.hypot runs on that shortlist only:
    np.hypot may differ from math.hypot in the last place.  Rows of a go
    in blocks of about 2**20 pairs to bound memory."""
    best = math.inf
    rows = max(1, (1 << 20) // len(b))
    for k in range(0, len(a), rows):
        d = np.abs(a[k:k + rows, None, :] - b[None, :, :])
        d = np.minimum(d, 1.0 - d)
        d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        near = np.argwhere(d2 <= d2.min() * (1.0 + 1e-9) + 1e-300)
        best = min(best, *(math.hypot(d[i, j, 0], d[i, j, 1])
                           for i, j in near))
    return best


def _dedup(found, merge_radius: float) -> List[Tuple[Tuple[float, float], float]]:
    # best residual first so the representative of a cluster is the
    # most converged point; ties broken by position for determinism
    ordered = sorted(found, key=lambda t: (t[1], t[0]))
    kept: List[Tuple[Tuple[float, float], float]] = []
    for pt, res in ordered:
        if not kept or _min_torus_dist(np.array([pt]), np.array(
                [k[0] for k in kept])) > merge_radius:
            kept.append((pt, res))
    kept.sort(key=lambda t: t[0])
    return kept


def _grid_components(mask: np.ndarray) -> List[List[Tuple[int, int]]]:
    """8-connected components of a boolean torus grid, each sorted, in the
    order of their first cell.  The walk visits masked cells only: seeds
    come in row-major order, so each component is found from its first
    cell and the components come out already in order."""
    n = mask.shape[0]
    masked = [tuple(c) for c in np.argwhere(mask).tolist()]
    unseen = set(masked)
    comps = []
    for start in masked:
        if start not in unseen:
            continue
        unseen.discard(start)
        stack = [start]
        cells = []
        while stack:
            a, b = stack.pop()
            cells.append((a, b))
            for da in (-1, 0, 1):
                for db in (-1, 0, 1):
                    if da == 0 and db == 0:
                        continue
                    nb = ((a + da) % n, (b + db) % n)
                    if nb in unseen:
                        unseen.discard(nb)
                        stack.append(nb)
        cells.sort()
        comps.append(cells)
    return comps


def _local_min_seeds(norms: np.ndarray, exclude: np.ndarray) -> List[Tuple[int, int]]:
    """Cells no worse than all eight torus neighbours and strictly better
    than at least one; flat plateaus (constant displacement) yield none."""
    n = norms.shape[0]
    le_all = np.ones_like(norms, dtype=bool)
    lt_any = np.zeros_like(norms, dtype=bool)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            if da == 0 and db == 0:
                continue
            nb = np.roll(np.roll(norms, -da, axis=0), -db, axis=1)
            le_all &= norms <= nb
            lt_any |= norms < nb
    mask = le_all & lt_any & ~exclude
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


def _scan(lifts, grid_n: int, tol: float) -> FixedPointReport:
    pts = torus_grid(grid_n)
    axis = pts[::grid_n, 0]
    norms = _combined_norm(lifts, pts).reshape(grid_n, grid_n)

    report = FixedPointReport(points=[], chains=[], all_points_fixed=False,
                              grid_n=grid_n, tol=tol, newton_steps=_REFINE_MAX)
    if bool((norms < tol).all()):
        report.all_points_fixed = True
        return report

    below = norms < tol
    seed_cells: List[Tuple[int, int]] = []
    for comp in _grid_components(below):
        if len(comp) >= _CHAIN_MIN_CELLS:
            chain_pts = tuple((float(axis[i]), float(axis[j])) for i, j in comp)
            worst = float(max(norms[i, j] for i, j in comp))
            report.chains.append(FixedChain(points=chain_pts, max_residual=worst))
        else:
            best = min(comp, key=lambda c: (norms[c[0], c[1]], c))
            seed_cells.append(best)

    # every cell below tol belongs to a chain or seeds its component
    seed_cells.extend(_local_min_seeds(norms, below))
    seeds = np.array([(axis[i], axis[j]) for i, j in seed_cells], dtype=float)
    if len(seeds):
        found = _refine(lifts, seeds, tol)
        # keep chain cells out of the isolated list: a Newton run started
        # next to a fixed curve lands on the curve, not on a new point
        cell = 1.0 / grid_n
        clear = found
        if report.chains:
            chain_pts = np.array([q for c in report.chains for q in c.points])
            clear = [(pt, res) for pt, res in found if not
                     _min_torus_dist(np.array([pt]), chain_pts) < 1.5 * cell]
        for pt, res in _dedup(clear, 10.0 * tol):
            report.points.append(FixedPointEntry(point=pt, residual=res))
    return report


@reads(w=IDENTITY, grid_n=count(8), tol=POSITIVE)
def find_fixed_points(w: Word, grid_n: int = 64, tol: float = 1e-9) -> FixedPointReport:
    """Fixed points of the torus map of w at the given grid resolution.

    Connected runs of at least eight near-zero cells come back as
    sampled chains (curves of fixed points); everything else is Newton
    refined and deduplicated within 10*tol.
    """
    return _scan([w], grid_n, tol)


@reads(ws=_lifts, grid_n=count(8), tol=POSITIVE)
def common_fixed_points(ws, grid_n: int = 64, tol: float = 1e-9) -> FixedPointReport:
    """Points fixed simultaneously by every word in ws.

    Words with non-identity linear part are allowed here: their torus
    fixed points are still the zeros of the lattice residual, and the
    reflection generator of the key examples is exactly such a word.
    """
    return _scan(ws, grid_n, tol)


@reads(w=LIFT, p=POINT, radius=POSITIVE, samples=count(8))
def fixed_point_index(w: Word, p, radius: float = 0.05, samples: int = 256) -> int:
    """Winding number of the displacement field along a circle around p.

    The total angular increment must land within 0.1 of a full multiple
    of 2*pi, and no single increment may approach a half turn.
    """
    at_p = displacement_field_batch(w, p)[0]
    deck = np.round(at_p)

    theta = 2.0 * math.pi * np.arange(samples) / samples
    circle = np.column_stack([p[0] + radius * np.cos(theta),
                              p[1] + radius * np.sin(theta)])
    field = displacement_field_batch(w, circle) - deck
    norms = np.hypot(field[:, 0], field[:, 1])
    if float(norms.min()) < _VANISH:
        raise NonIsolated(
            "displacement vanishes on the sample circle (radius %g)" % radius)

    ang = np.arctan2(field[:, 1], field[:, 0])
    inc = np.diff(np.concatenate([ang, ang[:1]]))
    inc = (inc + math.pi) % (2.0 * math.pi) - math.pi
    if float(np.abs(inc).max()) > _MAX_TURN:
        raise AmbiguousWinding(
            "field direction turns almost half a revolution between "
            "samples; increase samples")
    total = float(inc.sum())
    k = round(total / (2.0 * math.pi))
    if abs(total - 2.0 * math.pi * k) >= 0.1:
        raise AmbiguousWinding(
            "total increment %.6f is not close to a multiple of 2*pi" % total)
    return int(k)


@dataclass
class FranksReport:
    rho: Tuple[float, float]
    nearest_lattice: Tuple[int, int]
    dist_to_lattice: float
    hypothesis_met: bool
    birkhoff_spread: float
    fixed_points: FixedPointReport
    support_distance: Optional[float]
    certificate: str
    note: str
    defect: float
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "rho": [repr(self.rho[0]), repr(self.rho[1])],
            "nearest_lattice": list(self.nearest_lattice),
            "dist_to_lattice": repr(self.dist_to_lattice),
            "hypothesis_met": self.hypothesis_met,
            "birkhoff_spread": repr(self.birkhoff_spread),
            "fixed_points": self.fixed_points.to_json_dict(),
            "support_distance": None if self.support_distance is None
            else repr(self.support_distance),
            "certificate": self.certificate,
            "note": self.note,
            "defect": repr(self.defect),
            "tol": self.tol,
        }


@reads(w=LIFT, mu=EmpiricalMeasure, tol=POSITIVE, grid_n=count(8))
def franks_certificate(w: Word, mu: EmpiricalMeasure, tol: float = 1e-6,
                       grid_n: int = 64) -> FranksReport:
    """Empirical check of the zero-rotation-vector fixed point criterion.

    The certificate can only ever say "consistent": a nonzero rotation
    vector makes the hypothesis vacuous, and fixed points found in that
    case contradict nothing, because the implication runs one way.
    """
    defect = invariance_defect(w, mu)
    if not defect < tol:
        raise DefectExceeded(
            "measure is not invariant enough: defect %.3e, tol %.3e"
            % (defect, tol))
    rho = rotation_vector(mu, w)
    nearest = (int(round(rho[0])), int(round(rho[1])))
    dist = math.hypot(rho[0] - nearest[0], rho[1] - nearest[1])
    hypothesis_met = dist < tol

    # ergodicity proxy: time averages from distinct atoms should agree.
    # Sample evenly across the atom list, not its head: a mixture lists one
    # component's atoms before the other's, and the head misses the second.
    pick = np.unique(np.linspace(0, len(mu.points) - 1,
                                 min(len(mu.points), 8)).round().astype(int))
    seeds = mu.points[pick]
    means = orbit_displacement_means(w, seeds, 512)
    spread = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            spread = max(spread, float(np.hypot(*(means[i] - means[j]))))

    fp = _scan([w], grid_n, tol if tol > 1e-12 else 1e-9)
    found = not fp.is_empty()

    samples: List[Tuple[float, float]] = [e.point for e in fp.points]
    for c in fp.chains:
        samples.extend(c.points)
    support_distance: Optional[float] = None
    if fp.all_points_fixed:
        support_distance = 0.0
    elif samples:
        support_distance = _min_torus_dist(np.array(samples), mu.points)

    if hypothesis_met and found:
        certificate = "consistent with Franks"
        note = "zero rotation vector and a nonempty fixed set at this resolution"
    elif hypothesis_met:
        certificate = "INCONSISTENT at this resolution"
        note = ("zero rotation vector but no fixed point found at grid %d; "
                "refine before concluding anything" % grid_n)
    else:
        certificate = "hypothesis not met"
        if found:
            note = ("rotation vector is nonzero yet fixed points exist; "
                    "no contradiction, the criterion is one-directional")
        else:
            note = "rotation vector is nonzero and no fixed points were found"

    return FranksReport(
        rho=(float(rho[0]), float(rho[1])),
        nearest_lattice=nearest,
        dist_to_lattice=dist,
        hypothesis_met=hypothesis_met,
        birkhoff_spread=spread,
        fixed_points=fp,
        support_distance=support_distance,
        certificate=certificate,
        note=note,
        defect=defect,
        tol=tol,
    )
