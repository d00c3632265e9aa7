"""Staged Cesaro averaging toward a group-invariant measure.

Starting from a measure invariant under a base map and a set of
isotopic-to-identity generators, each stage averages the current measure
over powers of one extension generator:

    mu_{j+1} = (1/L) * sum_{p<L} (g_{j+1}^p)_* mu_j.

A weak-* limit would be exactly invariant; the finite-L stage is the
deterministic stand-in, so every stage reports its invariance defects and
the rotation vector of a tracked lift.  The module also checks the exact
rotation-transport recurrences behind the construction (rotev_residual)
and the affine orbit dichotomy used to prove rotation preservation
(bounded_orbit_check).  rotev_residual takes one power or a sequence of
them; a sequence pushes mu once per step and shares its rotation vectors.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Tuple

import numpy as np

from ._args import POINT, POSITIVE, count, each, reads
from ._kernels import affine_orbit, grid_merge
from .errors import (ConditionStarStarViolated, ConfigError, DefectExceeded,
                     InvalidArgument, RotorError)
from .maps import (IDENTITY, LIFT, Word, apply_torus_batch,
                   commutator_lift, inverse as word_inverse, inverse_lift,
                   linear_part)
from .mcg import MCGClass, check_condition_star_star
from .measures import (EmpiricalMeasure, _trig_moments,
                       invariance_defect, pushforward, rotation_vector)

__all__ = [
    "GroupSpec",
    "StageRecord",
    "ConstructionTrace",
    "construct_invariant",
    "rotev_residual",
    "bounded_orbit_check",
    "OrbitCheck",
]

# Stage atoms merge on this grid; coarser than the measure's own 1e-12
# dedup so repeated averaging cannot accrete near-duplicate atoms.
_MERGE_GRID = 1e-10
_MERGE_CELLS = 10 ** 10
# Hard cap on atoms per stage; beyond it mass is re-binned on a coarse grid.
_ATOM_CAP = 10 ** 6
_COARSE = 4096
# Times a stage may double L before its defect must be within 10*tol.
_MAX_DOUBLINGS = 2


@dataclass(frozen=True)
class GroupSpec:
    """Generating data for the group: identity-isotopic part plus
    extension generators with their declared mapping classes."""

    generators_G0: Tuple[Word, ...]
    extension_gens: Tuple[Tuple[Word, MCGClass], ...] = ()

    def __post_init__(self):
        for g in self.generators_G0:
            if not linear_part(g).is_identity():
                raise ConfigError(
                    "G0 generator %r is not isotopic to the identity" % (g,))
        for w, cls in self.extension_gens:
            if linear_part(w) != cls:
                raise ConfigError(
                    "declared class %r does not match linear part of %r"
                    % (cls, w))

    def extension_classes(self) -> Tuple[MCGClass, ...]:
        return tuple(c for _, c in self.extension_gens)


# the dataclass's own __init__, declared: the readers hand it tuples
GroupSpec.__init__ = reads(generators_G0=each(Word), extension_gens=each(
    each(Word, MCGClass)))(GroupSpec.__init__)


@dataclass(frozen=True)
class StageRecord:
    index: int
    generator: Optional[str]
    L_used: int
    measure: EmpiricalMeasure
    defects: Dict[str, float]
    rho: Tuple[float, float]


@dataclass
class ConstructionTrace:
    stages: List[StageRecord]

    @property
    def final_measure(self) -> EmpiricalMeasure:
        return self.stages[-1].measure

    @property
    def rho_initial(self) -> Tuple[float, float]:
        return self.stages[0].rho

    @property
    def rho_final(self) -> Tuple[float, float]:
        return self.stages[-1].rho

    def to_json_dict(self) -> dict:
        return {
            "stages": [
                {
                    "index": s.index,
                    "generator": s.generator,
                    "L": s.L_used,
                    "atom_count": len(s.measure),
                    "defects": {k: float(v) for k, v in sorted(s.defects.items())},
                    "rho": [float(s.rho[0]), float(s.rho[1])],
                }
                for s in self.stages
            ]
        }


def _cesaro_stage(word: Word, mu: EmpiricalMeasure, L: int) -> EmpiricalMeasure:
    """(1/L) sum of the first L pushforward powers, atoms merged on the
    stage grid; re-binned coarsely if the atom count explodes.

    Images are held until they outnumber the merged cells, then merged
    after the running sums, so each cell adds up in the order of one pass
    over all L images (a cell's key/scale re-merges into the same cell).
    """
    cells, sums = np.empty((0, 2)), np.empty(0)
    held: List[np.ndarray] = []
    pts = mu.points
    w = mu.weights / L
    for p in range(L):
        if p:
            pts = apply_torus_batch(word, pts)
        held.append(pts)
        if len(held) * len(w) > len(sums) or p == L - 1:
            cells, sums = grid_merge(np.concatenate([cells] + held),
                                     np.concatenate([sums] + [w] * len(held)),
                                     1.0 / _MERGE_GRID, _MERGE_CELLS)
            held = []
    if len(sums) > _ATOM_CAP:
        cells, sums = grid_merge(cells, sums, float(_COARSE), _COARSE)
    return EmpiricalMeasure(cells, sums)


def _defect_table(words: Dict[str, Word], mu: EmpiricalMeasure) -> Dict[str, float]:
    # one defect per distinct word: labels of one word (phi is often a G0
    # generator) share its float
    moments = _trig_moments(mu.points, mu.weights)
    by_word: Dict[tuple, float] = {}
    table = {}
    for label, w in words.items():
        key = (w.group, w.letters)
        if key not in by_word:
            by_word[key] = invariance_defect(w, mu, moments)
        table[label] = by_word[key]
    return table


@reads(spec=GroupSpec, phi=IDENTITY, mu0=EmpiricalMeasure, L=count(1), tol=POSITIVE)
def construct_invariant(spec: GroupSpec, phi, mu0: EmpiricalMeasure,
                        L: int = 256, tol: float = 1e-9,
                        force: bool = False) -> ConstructionTrace:
    """Run the staged averaging and record measures, defects and the
    rotation vector of the tracked lift phi at every stage.

    Refuses to run when the extension classes fail the no-unit-eigenvalue
    condition (the mechanism that preserves rotation vectors); force=True
    runs anyway so the failure is observable in the trace.  A stage whose
    defect stays above 10*tol after doubling L _MAX_DOUBLINGS times raises
    DefectExceeded.
    """
    base_words: Dict[str, Word] = {"phi": phi.word}
    for i, g in enumerate(spec.generators_G0):
        base_words["G0[%d]" % i] = g
    defects0 = _defect_table(base_words, mu0)
    for label, d in defects0.items():
        if d >= tol:
            raise InvalidArgument(
                "mu0 is not invariant enough for %s (defect %.3g, tol %.3g)"
                % (label, d, tol))

    if spec.extension_gens:
        report = check_condition_star_star(spec.extension_classes())
        if not report.satisfied and not force:
            raise ConditionStarStarViolated(
                "extension classes fail the eigenvalue condition (%s)"
                % report.failure_form)

    checked = dict(base_words)
    stages = [StageRecord(
        index=0, generator=None, L_used=0, measure=mu0,
        defects=defects0,
        rho=tuple(float(v) for v in rotation_vector(mu0, phi)))]

    mu = mu0
    for j, (gword, _cls) in enumerate(spec.extension_gens):
        label = "g%d" % (j + 1)
        checked[label] = gword
        L_cur = L
        for attempt in range(_MAX_DOUBLINGS + 1):
            nxt = _cesaro_stage(gword, mu, L_cur)
            defects = _defect_table(checked, nxt)
            worst = max(defects.values())
            if worst <= 10.0 * tol or attempt == _MAX_DOUBLINGS:
                break
            L_cur *= 2
        if worst > 10.0 * tol:
            raise DefectExceeded(
                "stage %d defect %.3g exceeds 10*tol=%.3g even at L=%d"
                % (j + 1, worst, 10.0 * tol, L_cur))
        mu = nxt
        stages.append(StageRecord(
            index=j + 1, generator=label, L_used=L_cur, measure=mu,
            defects=defects,
            rho=tuple(float(v) for v in rotation_vector(mu, phi))))
    return ConstructionTrace(stages)


def _powers(p, name) -> Tuple[bool, List[int]]:
    # (whether p is a single power, the powers as ints)
    single = not isinstance(p, Iterable)
    powers = [p] if single else list(p)
    if not all(isinstance(q, Integral) for q in powers):
        raise InvalidArgument("powers must be integers")
    return single, [int(q) for q in powers]


@reads(g=LIFT, h=IDENTITY, mu=EmpiricalMeasure, p=_powers)
def rotev_residual(g, h, mu: EmpiricalMeasure, p) -> np.ndarray:
    """Difference between the measured and the predicted rotation vector
    of h under the p-th pushforward of mu by g.

    The prediction is the exact transport recurrence (one sum for p >= 1,
    the sign-adjusted one for p <= -1); the measurement pushes mu forward
    atom by atom.  Both sides are computed independently.

    p is an integer, giving shape (2,), or a sequence of integers, giving
    one row per power, shape (k, 2).  A range of powers shares the work:
    mu is pushed step by step along each sign, and each rotation vector
    and each [g]^k c is computed once, so every row has the bits of the
    single-power call.
    """
    single, powers = p
    a = linear_part(g.word)

    rho_h = rotation_vector(mu, h)
    c = rotation_vector(mu, commutator_lift(inverse_lift(g), h))

    # measured side: one pushed measure per sign alive at a time
    lo, hi = min([0] + powers), max([0] + powers)
    wanted = set(powers)
    lhs = {0: rho_h}
    for sign, top in ((1, hi), (-1, -lo)):
        if not top:
            continue
        step = g.word if sign > 0 else word_inverse(g.word)
        mu_k = mu
        for k in range(1, top + 1):
            mu_k = pushforward(step, mu_k)
            if sign * k in wanted:
                lhs[sign * k] = rotation_vector(mu_k, h)

    # predicted side: [g]^k for lo <= k <= hi by successive products,
    # equal to a ** k since integer products are exact; [g]^k c once for
    # each k a sum uses, added in the single-power order
    mats = {0: MCGClass.identity()}
    for k in range(1, hi + 1):
        mats[k] = mats[k - 1] * a
    inv = a.inverse()
    for k in range(-1, lo - 1, -1):
        mats[k] = mats[k + 1] * inv
    terms = {k: np.array(mats[k].apply(c)) for k in range(lo + 1, hi + 1)}
    rows = {}
    for q in wanted:
        rhs = np.array(mats[q].apply(rho_h))
        if q >= 1:
            for k in range(1, q + 1):
                rhs = rhs + terms[k]
        elif q <= -1:
            for k in range(1, -q + 1):
                rhs = rhs - terms[-(k - 1)]
        rows[q] = lhs[q] - rhs
    if single:
        return rows[powers[0]]
    return np.array([rows[q] for q in powers]).reshape(-1, 2)


@dataclass(frozen=True)
class OrbitCheck:
    """Result of the affine orbit scan: bounded flag and the largest norm."""

    bounded: bool
    max_norm: float


@reads(g_class=MCGClass, rho0=POINT, w=POINT, P=count(0))
def bounded_orbit_check(g_class: MCGClass, rho0, w, P: int = 1000) -> OrbitCheck:
    """Scan the affine orbit rho_p = [g]^p rho0 + sum_{k<=p} [g]^k w over
    p in [-P, P] and report whether it stays bounded.

    The orbit is either constant or unbounded for the classes of interest;
    the bounded flag uses the threshold 10*(1 + |rho0| + |w|), far above
    any constant orbit and far below a linearly growing one at P=1000.
    P=0 scans rho0 alone.  Raises RotorError when the threshold is not
    finite.  The scan runs in the kernel backend (_kernels.affine_orbit);
    both backends step in plain floats in the order of MCGClass.apply, so every
    backend gives the same bits.  An orbit that overflows has max_norm inf.
    """
    x0, y0 = rho0
    w1, w2 = w
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 10.0 * (1.0 + float(np.hypot(x0, y0))
                        + float(np.hypot(w1, w2)))
    # an overflowing sum leaves no threshold to tell a bounded orbit from
    # an unbounded one
    if not math.isfinite(bound):
        raise RotorError("bounded_orbit_check needs finite rho0 and w with "
                         "a finite threshold 10*(1 + |rho0| + |w|)")
    inv = g_class.inverse()
    xs, ys = affine_orbit(x0, y0, w1, w2,
                          (g_class.a, g_class.b, g_class.c, g_class.d),
                          (inv.a, inv.b, inv.c, inv.d), P)
    # a stop leaves fewer than 2P + 1 points: the orbit overflowed
    max_norm = math.inf
    if len(xs) == 2 * P + 1:
        # np.hypot on the points whose squared norm is within a relative
        # 1e-9 (plus 1e-300 for the subnormal range) of the largest, as in
        # fixed_points._min_torus_dist; a squared norm that overflows counts
        # as the float maximum, so every point near the overflow is kept
        with np.errstate(over="ignore"):
            d2 = xs * xs + ys * ys
            top = min(float(d2.max()), sys.float_info.max)
            near = d2 >= top * (1.0 - 1e-9) - 1e-300
            max_norm = float(np.hypot(xs[near], ys[near]).max())
    return OrbitCheck(bounded=max_norm <= bound, max_norm=max_norm)
