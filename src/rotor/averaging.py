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
(bounded_orbit_check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ._io import write_json
from .errors import (ConditionStarStarViolated, ConfigError, DefectExceeded,
                     RotorError)
from .maps import (Word, _as_lift, _require_identity, apply_torus_batch,
                   commutator_lift, inverse as word_inverse, inverse_lift,
                   linear_part)
from .mcg import MCGClass, SubgroupForm, check_condition_star_star, \
    classify_nilpotent
from .measures import (EmpiricalMeasure, _grid_merge, invariance_defect,
                       pushforward, rotation_vector)

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


@dataclass(frozen=True)
class GroupSpec:
    """Generating data for the group: identity-isotopic part plus
    extension generators with their declared mapping classes."""

    generators_G0: Tuple[Word, ...]
    extension_gens: Tuple[Tuple[Word, MCGClass], ...] = ()
    declared_structure: Optional[SubgroupForm] = None

    def __post_init__(self):
        object.__setattr__(self, "generators_G0", tuple(self.generators_G0))
        object.__setattr__(self, "extension_gens", tuple(
            (w, c) for w, c in self.extension_gens))
        for g in self.generators_G0:
            if not linear_part(g).is_identity():
                raise ConfigError(
                    "G0 generator %r is not isotopic to the identity" % (g,))
        for w, cls in self.extension_gens:
            if linear_part(w) != cls:
                raise ConfigError(
                    "declared class %r does not match linear part of %r"
                    % (cls, w))
        if self.declared_structure is not None and self.extension_gens:
            got = classify_nilpotent(tuple(c for _, c in self.extension_gens))
            if got.tag != self.declared_structure.tag:
                raise ConfigError(
                    "declared structure %s but classes classify as %s"
                    % (self.declared_structure.tag, got.tag))

    def extension_classes(self) -> Tuple[MCGClass, ...]:
        return tuple(c for _, c in self.extension_gens)


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

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())


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
            cells, sums = _grid_merge(np.concatenate([cells] + held),
                                      np.concatenate([sums] + [w] * len(held)),
                                      1.0 / _MERGE_GRID, _MERGE_CELLS)
            held = []
    if len(sums) > _ATOM_CAP:
        cells, sums = _grid_merge(cells, sums, float(_COARSE), _COARSE)
    return EmpiricalMeasure(cells, sums)


def _defect_table(words: Dict[str, Word], mu: EmpiricalMeasure) -> Dict[str, float]:
    return {label: invariance_defect(w, mu) for label, w in words.items()}


def construct_invariant(spec: GroupSpec, phi, mu0: EmpiricalMeasure,
                        L: int = 256, tol: float = 1e-9,
                        force: bool = False,
                        max_doublings: int = 2) -> ConstructionTrace:
    """Run the staged averaging and record measures, defects and the
    rotation vector of the tracked lift phi at every stage.

    Refuses to run when the extension classes fail the no-unit-eigenvalue
    condition (the mechanism that preserves rotation vectors); force=True
    runs anyway so the failure is observable in the trace.  A stage whose
    defect stays above 10*tol after doubling L max_doublings times raises
    DefectExceeded.
    """
    phi = _require_identity(phi, "tracked word")
    if L < 1:
        raise ValueError("need L >= 1")

    base_words: Dict[str, Word] = {"phi": phi.word}
    for i, g in enumerate(spec.generators_G0):
        base_words["G0[%d]" % i] = g
    for label, w in base_words.items():
        d = invariance_defect(w, mu0)
        if d >= tol:
            raise ValueError(
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
        defects=_defect_table(checked, mu0),
        rho=tuple(float(v) for v in rotation_vector(mu0, phi)))]

    mu = mu0
    for j, (gword, _cls) in enumerate(spec.extension_gens):
        label = "g%d" % (j + 1)
        checked[label] = gword
        L_cur = L
        for attempt in range(max_doublings + 1):
            nxt = _cesaro_stage(gword, mu, L_cur)
            defects = _defect_table(checked, nxt)
            worst = max(defects.values())
            if worst <= 10.0 * tol or attempt == max_doublings:
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


def _mat_pow_apply(a: MCGClass, p: int, v) -> np.ndarray:
    m = a ** p
    return np.array([m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1]],
                    dtype=float)


def rotev_residual(g, h, mu: EmpiricalMeasure, p: int) -> np.ndarray:
    """Difference between the measured and the predicted rotation vector
    of h under the p-th pushforward of mu by g.

    The prediction is the exact transport recurrence (one sum for p >= 1,
    the sign-adjusted one for p <= -1); the measurement pushes mu forward
    atom by atom.  Both sides are computed independently.
    """
    g = _as_lift(g)
    h = _require_identity(h)
    a = linear_part(g.word)

    mu_p = mu
    step = g.word if p >= 0 else word_inverse(g.word)
    for _ in range(abs(p)):
        mu_p = pushforward(step, mu_p)
    lhs = rotation_vector(mu_p, h)

    rho_h = rotation_vector(mu, h)
    comm = commutator_lift(inverse_lift(g), h)
    c = rotation_vector(mu, comm)

    rhs = _mat_pow_apply(a, p, rho_h)
    if p >= 1:
        for k in range(1, p + 1):
            rhs = rhs + _mat_pow_apply(a, k, c)
    elif p <= -1:
        for k in range(1, -p + 1):
            rhs = rhs - _mat_pow_apply(a, -(k - 1), c)
    return lhs - rhs


class OrbitCheck:
    """Result of the affine orbit scan: bounded flag and the largest norm."""

    __slots__ = ("bounded", "max_norm")

    def __init__(self, bounded: bool, max_norm: float):
        self.bounded = bounded
        self.max_norm = max_norm

    def __repr__(self):
        return "OrbitCheck(bounded=%r, max_norm=%g)" % (self.bounded,
                                                        self.max_norm)


def bounded_orbit_check(g_class: MCGClass, rho0, w, P: int = 1000) -> OrbitCheck:
    """Scan the affine orbit rho_p = [g]^p rho0 + sum_{k<=p} [g]^k w over
    p in [-P, P] and report whether it stays bounded.

    The orbit is either constant or unbounded for the classes of interest;
    the bounded flag uses the threshold 10*(1 + |rho0| + |w|), far above
    any constant orbit and far below a linearly growing one at P=1000.
    Raises RotorError when that threshold is not finite.
    """
    if not isinstance(g_class, MCGClass):
        g_class = MCGClass(*g_class)
    x0, y0 = float(rho0[0]), float(rho0[1])
    w1, w2 = float(w[0]), float(w[1])
    with np.errstate(over="ignore", invalid="ignore"):
        bound = 10.0 * (1.0 + float(np.hypot(x0, y0))
                        + float(np.hypot(w1, w2)))
    # NaN or inf in rho0 or w, or an overflowing sum, leaves no threshold
    # to tell a bounded orbit from an unbounded one
    if not math.isfinite(bound):
        raise RotorError("bounded_orbit_check needs finite rho0 and w with "
                         "a finite threshold 10*(1 + |rho0| + |w|)")
    # plain-float steps; the scan stops at the first non-finite point
    xs, ys = [x0], [y0]
    step, finite = g_class.apply, math.isfinite
    x, y = x0, y0
    for _ in range(P):  # forward: rho_{p+1} = A(rho_p + w)
        x, y = step((x + w1, y + w2))
        if not (finite(x) and finite(y)):
            break
        xs.append(x)
        ys.append(y)
    else:
        step, x, y = g_class.inverse().apply, x0, y0
        for _ in range(P):  # backward: rho_{p-1} = A^-1 rho_p - w
            x, y = step((x, y))
            x, y = x - w1, y - w2
            if not (finite(x) and finite(y)):
                break
            xs.append(x)
            ys.append(y)
    # a break leaves fewer than 2P + 1 points: the orbit overflowed
    with np.errstate(over="ignore"):
        max_norm = (math.inf if len(xs) < 2 * P + 1
                    else float(np.hypot(xs, ys).max()))
    return OrbitCheck(bounded=max_norm <= bound, max_norm=max_norm)
