"""Fixed point detection on the torus.

A point is fixed for the torus map of a word exactly when the canonical
lift moves it by a deck vector, so every residual here is the distance
from the lift displacement to the nearest lattice point.  Zero sets are
located by a grid scan followed by damped Newton refinement, which
advances all seeds together in whole-array rounds: one evaluator call
per word for the Jacobian probes and one per block of line-search rungs,
and stops a seed that stalls above tol (_refine).  Curves of fixed
points (the interesting examples fix whole circles) are detected as
connected runs of near-zero grid cells and reported as sampled chains.
That needs the curve to pass through grid nodes: a fixed circle between
the nodes leaves no near-zero cell, Newton lands on it from every
local-minimum seed, and each landing is reported as an isolated point.  So
`skew tr skew' tr'`, whose fixed set is the two circles
x = 0.457107... and x = 0.957107..., comes back as 58 / 119 / 246
isolated points and no chain at grid 32 / 64 / 128.

Nothing here is a rigorous existence proof, and no index is certified.
fixed_point_index gives the float winding number of the displacement
field around a point.  Every report carries the grid resolution and
tolerance it was computed at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from ._args import PATH, POINT, POSITIVE, count, each, reads
from ._io import write_csv
from .errors import (AmbiguousWinding, DefectExceeded, InvalidArgument,
                     NewtonDivergence, NonIsolated)
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
# a seed stops after round r >= _STALL_ROUNDS once its residual norm has
# not fallen by a tenth in the last _STALL_ROUNDS rounds, is not falling
# faster, and it would be dropped (_refine)
_STALL_ROUNDS = 5
# line-search rungs: the full Newton step, then up to 30 halvings of it,
# tried as rung 0 alone and then in blocks of 2, 4, 8 and 16 rungs
_RUNGS = 31
_RUNG_BLOCKS = ((0, 1), (1, 3), (3, 7), (7, 15), (15, 31))
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
    """newton_steps is the cap on the Newton rounds of a seed (_REFINE_MAX),
    not the rounds run: a seed stops earlier when it converges, cannot
    step, or stalls above tol."""

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

    @reads(path=PATH)
    def chains_to_csv(self, path) -> None:
        """One polyline per chain, rows (chain, x, y)."""
        write_csv(path, ["chain", "x", "y"],
                  ([k, repr(x), repr(y)] for k, chain in enumerate(self.chains)
                   for x, y in chain.points))


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
    for res, lw in zip(out, lifts):
        # apply_lift_batch returns a new array, so d = lift - pts is taken
        # in it; res holds rint(d), then d - rint(d)
        d = apply_lift_batch(lw, pts)
        np.subtract(d, pts, out=d)
        np.subtract(d, np.rint(d, out=res), out=res)
    return out


def _combined_norm(lifts, pts: np.ndarray) -> np.ndarray:
    """The worst per-word residual norm at each point, shape (n,).  The
    squares and their sums are taken in place in the residuals: a fresh
    full-grid temporary is paid for in page faults on every scan."""
    res = _residual_fields(lifts, pts)
    np.multiply(res, res, out=res)
    sq = res[..., 0]
    sq += res[..., 1]
    np.sqrt(sq, out=sq)
    return sq[0] if len(sq) == 1 else sq.max(axis=0)


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


def _lstsq_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(jac[i], rhs[i], rcond=None)[0] for each i, shape
    (k, 2), to the bit: one call of the gufunc that lstsq calls, with its
    default rcond and its error state, so a system LAPACK cannot solve
    raises the same LinAlgError."""
    rcond = np.finfo(float).eps * max(jac.shape[1:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(jac, rhs[:, :, None], rcond,
                                signature="ddd->ddid")[0]
    return x[:, :, 0]


def _row_norms(r: np.ndarray) -> np.ndarray:
    """math.sqrt(r[i] @ r[i]) for each row, to the bit; (r * r).sum(1) and
    einsum add in another order."""
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def _worst_norms(f: np.ndarray, m: int) -> np.ndarray:
    """The worst per-word residual norm of each row of f, shape (n, 2m)."""
    per_word = f.reshape(len(f), m, 2)
    return np.sqrt((per_word * per_word).sum(axis=2)).max(axis=1)


def _take_rungs(lifts, p, f, best, seeds: np.ndarray,
                rungs: np.ndarray) -> np.ndarray:
    """Move each of the seeds to the first of its rungs, shape (r, k, 2),
    whose residual norm is below its best, updating p, f and best in
    place; returns the mask of the seeds that moved.  All candidates go
    to the evaluator in one call per word.  A rung past a seed's first
    lowering one may diverge where a one-rung search never evaluates it,
    so a block that raises NewtonDivergence is tried again one rung per
    call, and raises only when a rung the seed reaches diverges."""
    cand = p[seeds] + rungs
    try:
        fc = _flat_residuals(lifts, cand.reshape(-1, 2))
    except NewtonDivergence:
        if len(rungs) == 1:
            raise
        took = np.zeros(len(seeds), dtype=bool)
        for r in range(len(rungs)):
            left = np.flatnonzero(~took)
            if not len(left):
                break
            took[left] = _take_rungs(lifts, p, f, best, seeds[left],
                                     rungs[r:r + 1, left])
        return took
    rc = _row_norms(fc).reshape(len(rungs), len(seeds))
    fc = fc.reshape(len(rungs), len(seeds), -1)
    below = rc < best[seeds]
    took = below.any(axis=0)
    if not took.any():
        return took
    rung, col = below.argmax(axis=0)[took], np.flatnonzero(took)
    moved = seeds[took]
    p[moved], f[moved], best[moved] = (cand[rung, col], fc[rung, col],
                                       rc[rung, col])
    return took


def _refine(lifts, seeds: np.ndarray, tol: float) -> List[Tuple[Tuple[float, float], float]]:
    """Damped Newton on the stacked residual system from each seed.

    Returns reduced points with their worst per-word residual, keeping
    only seeds that converged below tol.  All seeds advance together in
    whole-array rounds.  A round evaluates the probes of every active
    seed in one call per word and solves their least-squares steps in
    one batched call.  Then the backtracking line search (Dennis &
    Schnabel, Numerical Methods for Unconstrained Optimization and
    Nonlinear Equations, 1996, sec. 6.3): rung r is the step halved r
    times, rung 0 is tried alone and rungs 1-30 in blocks of 2, 4, 8 and
    16, and each seed takes its first rung that lowers its residual
    norm.  A seed's best only changes when it takes a rung, so that is
    the rung a search of one rung per call takes.  The evaluator is
    pointwise and the per-seed arithmetic (least squares, step test,
    halving, acceptance) is that of a loop over single seeds, so every
    seed ends on the same bits, and fails the same way, as it would alone.

    A seed that settles on a local minimum of the residual norm that is
    not a root (Dennis & Schnabel, sec. 7.2) stops early: after round
    r >= 5 (_STALL_ROUNDS) it stops when its best norm is above 0.9 times
    its best after round r - 5, fell by no more in round r than in round
    r - 1 (a seed whose steps grow may still be leaving a plateau), and its
    worst per-word residual is not below tol, so it would be dropped if
    it stopped now.  Seeds that converge later can fall by 30% to 45% in
    their first five rounds, so the bar is a tenth, not a half.  The test
    reads the seed's own norms only, so it too is the same for a seed
    alone; a stopped seed is dropped, as it would be after all _REFINE_MAX
    rounds unless it converged later.
    """
    p = np.array(seeds, dtype=float)
    f = _flat_residuals(lifts, p)
    best = _row_norms(f)
    history = [best.copy()]       # best after each round, round 0 first
    active = np.flatnonzero(~(best < 1e-14))
    for r in range(1, _REFINE_MAX + 1):
        if not len(active):
            break
        steps = _lstsq(_fd_jacobians(lifts, p[active]), -f[active])
        # the residual is Z^2-periodic, so a step longer than one period
        # (or a non-finite one) only says the Jacobian is singular
        short = np.array([math.hypot(x, y) <= 1.0
                          for x, y in steps.tolist()], dtype=bool)
        searching = active[short]
        halves = np.full((_RUNGS - 1, len(searching), 2), 0.5)
        rungs = np.multiply.accumulate(np.concatenate([steps[short][None],
                                                       halves]))
        moved = np.zeros(len(p), dtype=bool)
        for lo, hi in _RUNG_BLOCKS:
            if not len(searching):
                break
            took = _take_rungs(lifts, p, f, best, searching, rungs[lo:hi])
            if took.any():
                moved[searching[took]] = True
                searching, rungs = searching[~took], rungs[:, ~took]
        active = np.flatnonzero(moved & ~(best < 1e-14))
        history.append(best.copy())
        if r >= _STALL_ROUNDS and len(active):
            now, last, before = (history[k][active] for k in (r, r - 1, r - 2))
            stalled = ((now > 0.9 * history[r - _STALL_ROUNDS][active])
                       & (last - now <= before - last)
                       & ~(_worst_norms(f[active], len(lifts)) < tol))
            active = active[~stalled]
    worst = _worst_norms(f, len(lifts))
    return [(reduce_point(q), float(w)) for q, w in zip(p, worst) if w < tol]


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


def _pair_spread(means: np.ndarray) -> float:
    """The largest np.hypot distance between two rows of means, 0.0 for
    fewer than two rows."""
    i, j = np.triu_indices(len(means), 1)
    d = means[i] - means[j]
    return float(np.hypot(d[:, 0], d[:, 1]).max(initial=0.0))


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
    order of their first cell.  Only masked cells are labelled: each
    starts as its own root, then every round hooks the larger root of each
    neighbour pair onto the smaller and shortcuts every cell to its root
    (Shiloach & Vishkin 1982), until both cells of every pair share one.
    A root is never hooked onto a larger one, so each component ends
    labelled by its smallest cell, which is its first in row-major order;
    one stable sort by label then lists the components in order of their
    first cell, each in row-major order."""
    n = mask.shape[0]
    flat = np.flatnonzero(mask)
    if not len(flat):
        return []
    i, j = np.divmod(flat, n)
    # the rank of each masked cell in flat, -1 on unmasked cells
    rank = np.full(n * n, -1, dtype=np.intp)
    rank[flat] = np.arange(len(flat))
    # each neighbour pair once: the 4 forward directions, wrapping
    pairs = [rank[(i + da) % n * n + (j + db) % n]
             for da, db in ((0, 1), (1, -1), (1, 0), (1, 1))]
    a = np.concatenate([np.flatnonzero(q >= 0) for q in pairs])
    b = np.concatenate([q[q >= 0] for q in pairs])
    label = np.arange(len(flat))
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            break
        la, lb = la[split], lb[split]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up
    order = np.argsort(label, kind="stable")
    cells = list(zip(i[order].tolist(), j[order].tolist()))
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(),
            len(cells)]
    return [cells[s:e] for s, e in zip(cuts, cuts[1:])]


def _local_min_seeds(norms: np.ndarray, exclude: np.ndarray) -> List[Tuple[int, int]]:
    """Cells no worse than all eight torus neighbours and strictly better
    than at least one; flat plateaus (constant displacement) yield none.
    The eight neighbours are slices of one wrapped pad, folded into their
    minimum, then into their maximum; both propagate NaN, so a NaN cell or
    a NaN neighbour makes no seed."""
    n = norms.shape[0]
    pad = np.pad(norms, 1, mode="wrap")
    shifts = [pad[da:da + n, db:db + n] for da in (0, 1, 2) for db in (0, 1, 2)
              if (da, db) != (1, 1)]

    def fold(ufunc):
        acc = ufunc(shifts[0], shifts[1])
        for nb in shifts[2:]:
            ufunc(acc, nb, out=acc)
        return acc

    # one fold at a time: the maximum reuses the minimum's memory
    mask = (norms <= fold(np.minimum)) & (norms < fold(np.maximum))
    ii, jj = np.nonzero(mask & ~exclude)
    return list(zip(ii.tolist(), jj.tolist()))


def _scan(lifts, grid_n: int, tol: float) -> FixedPointReport:
    pts = torus_grid(grid_n)
    axis = pts[::grid_n, 0]
    norms = _combined_norm(lifts, pts).reshape(grid_n, grid_n)

    report = FixedPointReport(points=[], chains=[], all_points_fixed=False,
                              grid_n=grid_n, tol=tol, newton_steps=_REFINE_MAX)
    below = norms < tol
    if below.all():
        report.all_points_fixed = True
        return report

    seed_cells: List[Tuple[int, int]] = []
    for comp in _grid_components(below):
        if len(comp) >= _CHAIN_MIN_CELLS:
            ii, jj = np.array(comp).T
            chain_pts = tuple(zip(axis[ii].tolist(), axis[jj].tolist()))
            worst = float(norms[ii, jj].max())
            report.chains.append(FixedChain(points=chain_pts, max_residual=worst))
        else:
            best = min(comp, key=lambda c: (norms[c[0], c[1]], c))
            seed_cells.append(best)

    # every cell below tol belongs to a chain or seeds its component
    seed_cells.extend(_local_min_seeds(norms, below))
    seeds = axis[np.array(seed_cells, dtype=np.intp).reshape(-1, 2)]
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
    spread = _pair_spread(means)

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
