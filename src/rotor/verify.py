"""Built-in verification suite: eleven named checks with frozen oracles.

Each criterion recomputes its expected values independently of the code
under test (quadratic-formula eigenvalues against the integer spectral
tags, closed-form rotation vectors against measured ones, and so on) and
reports pass/fail with the measured residuals.  Reports contain no
timings or thread counts, so the rendered bytes are identical across
runs and across --threads settings; wall-clock data stays in the
separate run metadata.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ._args import count, each, reads
from ._io import _f, json_text
from .averaging import (GroupSpec, bounded_orbit_check, construct_invariant,
                        rotev_residual)
from .catalog import ALPHA, build_catalog, circle_measure, franks_cases
from .covers import check_sigma_commute, klein_symmetrize, rho_bar
from .fixed_points import find_fixed_points, franks_certificate
from .geometry import hausdorff_distance
from .maps import (Generator, LiftedWord, MapGroup, compose_lift,
                   constant_term, inverse_lift, linear_part,
                   orbit_displacement_means, torus_grid, trig_term)
from .mcg import (H_LIST, MCGClass, check_condition_star_star,
                  classify_nilpotent, has_nontrivial_unity_root,
                  spectral_class, torsion_order)
from .measures import (EmpiricalMeasure, estimate_rotation_set,
                       invariance_defect, irrotational_lift, pushforward,
                       rotation_vector)

__all__ = [
    "CriterionResult",
    "SuiteReport",
    "BIRKHOFF_SPREAD_LIMIT",
    "run_suite",
]

# an invariant measure whose atomwise time averages differ by more than
# this is treated as visibly non-ergodic and exempt from the sweep
BIRKHOFF_SPREAD_LIMIT = 0.05

_ID = MCGClass.identity()
_DEHN = MCGClass(1, 0, 1, 1)
_ANOSOV = MCGClass(2, 1, 1, 1)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: dict
    elapsed_s: float

    def to_json_dict(self) -> dict:
        # deliberately no elapsed_s: reports must not vary run to run
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


@dataclass
class SuiteReport:
    results: List[CriterionResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "criteria": [r.to_json_dict() for r in self.results],
        }

    def json_text(self) -> str:
        return json_text(self.to_json_dict())


# --- 1: exhaustive spectral consistency over small integer matrices


def _unimodular_matrices(bound: int):
    # every (a, b, c, d) in [-bound, bound]^4 with |ad - bc| = 1, in
    # lexicographic order, with Python int entries; one a at a time, so
    # the table of ad - bc stays small
    r = np.arange(-bound, bound + 1)
    bc = np.multiply.outer(r, r)[:, :, None]
    out = []
    for a in r.tolist():
        det = a * r - bc                # ad - bc by (b, c, d)
        keep = np.argwhere((det == 1) | (det == -1))
        out += [MCGClass(a, *m) for m in r[keep].tolist()]
    return out


def _float_eigs(m: MCGClass):
    # quadratic formula in floats: exact for repeated roots, unlike
    # iterative solvers
    t = float(m.trace)
    disc = t * t - 4.0 * float(m.det)
    if disc >= 0.0:
        s = math.sqrt(disc)
        return (complex((t + s) / 2), complex((t - s) / 2)), disc
    s = math.sqrt(-disc)
    return (complex(t / 2, s / 2), complex(t / 2, -s / 2)), disc


_UNIT_TAGS = ("identity", "minus_identity", "complex_order4",
              "complex_order6", "complex_order3", "dehn_twist",
              "eigen_minus1_parabolic", "reflection_det_minus1_tr0")


def mcg_exhaustive_consistency() -> Tuple[bool, dict]:
    bound = 10
    mats = _unimodular_matrices(bound)
    failures = 0
    max_gap = 0.0
    orders = set()
    lapack = np.linalg.eigvals(
        np.array([[[m.a, m.b], [m.c, m.d]] for m in mats], dtype=float))
    for m, npl in zip(mats, lapack):
        sc = spectral_class(m)
        lams, disc = _float_eigs(m)
        moduli = sorted(abs(e) for e in lams)
        on_circle = all(abs(mu - 1.0) < 1e-9 for mu in moduli)
        if (sc.tag in _UNIT_TAGS) != on_circle:
            failures += 1
            continue
        got = sorted((e.real, e.imag) for e in sc.eigenvalues)
        want = sorted((e.real, e.imag) for e in lams)
        gap = max(abs(g[0] - w[0]) + abs(g[1] - w[1])
                  for g, w in zip(got, want))
        # a repeated root is only conditioned to sqrt(eps) for the
        # iterative solver; the formula route stays exact
        npw = sorted((e.real, e.imag) for e in npl)
        np_gap = max(abs(g[0] - w[0]) + abs(g[1] - w[1])
                     for g, w in zip(got, npw))
        np_tol = 1e-9 if disc != 0.0 else 1e-6
        max_gap = max(max_gap, gap)
        if gap >= 1e-9 or np_gap >= np_tol:
            failures += 1
            continue
        direct = False
        for lam in lams:
            if abs(lam - 1.0) <= 1e-9:
                continue
            if any(abs(lam ** k - 1.0) < 1e-9 for k in range(2, 7)):
                direct = True
        if has_nontrivial_unity_root(m) != direct:
            failures += 1
            continue
        k = torsion_order(m)
        if k is not None:
            orders.add(k)
            if k not in (1, 2, 3, 4, 6):
                failures += 1
    passed = failures == 0 and orders <= {1, 2, 3, 4, 6}
    details = {
        "entry_bound": bound,
        "candidates_enumerated": (2 * bound + 1) ** 4,
        "unimodular_matrices": len(mats),
        "mismatches": failures,
        "max_eigenvalue_gap": _f(max_gap),
        "finite_orders_seen": sorted(orders),
    }
    return passed, details


# --- 2: the subgroup classification table and the averaging precondition


def subgroup_classification_table() -> Tuple[bool, dict]:
    checks: Dict[str, bool] = {}

    form = classify_nilpotent(H_LIST)
    checks["h_list_is_dihedral"] = form.tag == "dihedral_H_conjugate"

    form = classify_nilpotent([_DEHN])
    checks["dehn_cyclic"] = form.tag == "cyclic" and form.generator == _DEHN
    form = classify_nilpotent([-_DEHN])
    checks["minus_dehn_cyclic"] = (form.tag == "cyclic"
                                   and form.generator == -_DEHN)
    form = classify_nilpotent([_ANOSOV])
    checks["anosov_cyclic"] = (form.tag == "cyclic"
                               and form.generator == _ANOSOV)
    form = classify_nilpotent([_ANOSOV, -_ID])
    checks["anosov_minus_id_pair"] = form.tag == "pair" and form.generator in (
        _ANOSOV, _ANOSOV.inverse())

    checks["dehn_passes"] = check_condition_star_star([_DEHN]).satisfied
    rep = check_condition_star_star([-_DEHN])
    checks["minus_dehn_fails"] = (not rep.satisfied
                                  and rep.failure_form == "minus_dehn")
    rep = check_condition_star_star([_DEHN, -_ID])
    checks["dehn_minus_id_fails"] = (not rep.satisfied
                                     and rep.failure_form
                                     == "dehn_with_minus_id")
    checks["anosov_passes"] = check_condition_star_star([_ANOSOV]).satisfied
    checks["anosov_minus_id_passes"] = check_condition_star_star(
        [_ANOSOV, -_ID]).satisfied

    passed = all(checks.values())
    return passed, {"checks": checks}


# --- 3: conjugation and additivity of the rotation vector


def _identity_family_group() -> MapGroup:
    return MapGroup([
        Generator("t1", _ID, disp_x=[constant_term(0.37)],
                  disp_y=[constant_term(0.21)]),
        Generator("t2", _ID, disp_x=[constant_term(-0.13)],
                  disp_y=[constant_term(0.55)]),
        Generator("dehn", _DEHN),
        Generator("phi", -_ID),
    ])


def _random_measures(count: int, atoms: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        pts = rng.uniform(0.0, 1.0, size=(atoms, 2))
        wts = rng.uniform(0.1, 1.0, size=atoms)
        out.append(EmpiricalMeasure(pts, wts / wts.sum()))
    return out


def rotation_identities() -> Tuple[bool, dict]:
    n_measures = 100
    g = _identity_family_group()
    t1, t2 = g.by_name("t1"), g.by_name("t2")
    conjugators = [g.by_name("dehn"), g.by_name("phi"),
                   g.word("dehn phi"), t1]
    measures = _random_measures(n_measures, 40, seed=7)

    # the conjugated lifts and class matrices do not depend on the measure
    flifts = [LiftedWord(f) for f in (t1, t2, t1 * t2)]
    conjugated = []
    for c in conjugators:
        clift = LiftedWord(c)
        conjugated.append((c, np.array(linear_part(c).rows, dtype=float),
                           [compose_lift(clift, compose_lift(
                               flift, inverse_lift(clift)))
                            for flift in flifts]))

    worst_conj = 0.0
    worst_add = 0.0
    for mu in measures:
        rhos = [rotation_vector(mu, flift) for flift in flifts]
        for c, a, conjs in conjugated:
            pushed = pushforward(c, mu)
            for rho, conj in zip(rhos, conjs):
                lhs = rotation_vector(pushed, conj)
                gap = float(np.max(np.abs(lhs - a @ rho)))
                worst_conj = max(worst_conj, gap)
        rho1, rho2, both = rhos
        worst_add = max(worst_add, float(np.max(np.abs(both - rho1 - rho2))))

    passed = worst_conj < 1e-8 and worst_add < 1e-8
    details = {
        "measures": n_measures,
        "max_conjugation_residual": _f(worst_conj),
        "max_additivity_residual": _f(worst_add),
    }
    return passed, details


# --- 4: the transport recurrence for powers of an automorphism


def transport_recurrence() -> Tuple[bool, dict]:
    g = _identity_family_group()
    worst = 0.0
    measures = _random_measures(20, 30, seed=11)
    powers = [p for p in range(-5, 6) if p != 0]
    for mu in measures:
        for gw in (g.by_name("dehn"), g.word("dehn'")):
            for h in (g.by_name("t1"), g.word("t1 t2")):
                res = rotev_residual(LiftedWord(gw), LiftedWord(h), mu,
                                     powers)
                worst = max(worst, float(np.max(np.abs(res))))
    passed = worst < 1e-8
    details = {
        "measures": len(measures),
        "powers": powers,
        "max_residual": _f(worst),
    }
    return passed, details


# --- 5: the bounded-orbit dichotomy for the twist case


def orbit_dichotomy() -> Tuple[bool, dict]:
    vals = (-1.0, -0.5, 0.0, 0.5, 1.0)
    cases = 0
    wrong = 0
    for v1 in vals:
        for w1 in vals:
            for w2 in vals:
                want = (w1 == 0.0) and (v1 + w2 == 0.0)
                got = bounded_orbit_check(_DEHN, (v1, 0.3), (w1, w2),
                                          P=1000).bounded
                cases += 1
                if got != want:
                    wrong += 1
    passed = wrong == 0
    details = {"cases": cases, "mismatches": wrong}
    return passed, details


# --- 6: staged averaging preserves the tracked rotation vector


def averaging_preserves_rotation() -> Tuple[bool, dict]:
    g = build_catalog()
    tr = g.by_name("tr")
    spec = GroupSpec(generators_G0=(tr,),
                     extension_gens=((g.by_name("dehn"), _DEHN),))
    trace = construct_invariant(spec, LiftedWord(tr),
                                EmpiricalMeasure.uniform_grid(64),
                                L=16, tol=1e-8)
    drift = max(math.hypot(s.rho[0] - ALPHA, s.rho[1] - 0.3)
                for s in trace.stages)
    passed = drift < 1e-6
    details = {
        "stages": len(trace.stages),
        "max_rho_drift": _f(drift),
        "final_defect": _f(max(trace.stages[-1].defects.values())),
    }
    return passed, details


# --- 7: the odd shear example, quantitatively


def odd_shear_example() -> Tuple[bool, dict]:
    g = build_catalog()
    h = g.by_name("h")
    checks: Dict[str, bool] = {}
    details: Dict[str, object] = {}

    rho = rotation_vector(circle_measure(0.25), LiftedWord(h))
    gap = math.hypot(rho[0] - 0.0, rho[1] - 0.1)
    checks["circle_rotation"] = gap < 1e-10
    details["circle_rho_gap"] = _f(gap)

    rep = find_fixed_points(h, grid_n=64, tol=1e-9)
    cols = {c for chain in rep.chains for (c, _) in chain.points}
    residual = max((chain.max_residual for chain in rep.chains),
                   default=math.inf)
    checks["fixed_circles"] = (cols == {0.0, 0.5} and residual < 1e-10
                               and not rep.points)
    details["chain_columns"] = sorted(cols)
    details["chain_residual"] = _f(residual)

    lift = irrotational_lift(h, torus_grid(16), n=2000, tol=1e-3)
    checks["no_irrotational_lift"] = lift is None

    spec = GroupSpec(generators_G0=(),
                     extension_gens=((g.by_name("phi"), -_ID),))
    trace = construct_invariant(spec, LiftedWord(h), circle_measure(0.25),
                                force=True)
    final = trace.rho_final
    kill = math.hypot(final[0], final[1])
    checks["averaging_kills_rotation"] = kill < 1e-8
    details["rho_initial"] = [_f(trace.rho_initial[0]),
                              _f(trace.rho_initial[1])]
    details["rho_final_norm"] = _f(kill)

    details["checks"] = checks
    return all(checks.values()), details


# --- 8: rotation set hulls against their closed-form limits


def rotation_set_hulls(threads: int) -> Tuple[bool, dict]:
    g = build_catalog()

    est = estimate_rotation_set(LiftedWord(g.by_name("dehn")), torus_grid(64),
                                1000, threads=threads)
    seg = np.array([[0.0, 0.0], [0.0, 1.0]])
    dh = hausdorff_distance(est.hull, seg)

    est2 = estimate_rotation_set(LiftedWord(g.by_name("irrskew")),
                                 torus_grid(4), 100000, threads=threads)
    dp = float(np.max(np.hypot(est2.hull[:, 0] - ALPHA,
                               est2.hull[:, 1] - 0.3)))

    passed = dh < 2e-2 and dp < 5e-3
    details = {
        "twist_hull_hausdorff_to_segment": _f(dh),
        "twist_hull_vertices": int(len(est.hull)),
        "irrational_skew_distance_to_point": _f(dp),
        "irrational_skew_vertices": int(len(est2.hull)),
    }
    return passed, details


# --- 9: fixed-point consistency sweep over the catalog


def fixed_point_consistency_sweep() -> Tuple[bool, dict]:
    rows = []
    counterexamples = 0
    met = 0
    for case in franks_cases():
        rep = franks_certificate(case.word, case.measure, tol=1e-3)
        proxy_ok = rep.birkhoff_spread < BIRKHOFF_SPREAD_LIMIT
        found = not rep.fixed_points.is_empty()
        bad = rep.hypothesis_met and proxy_ok and not found
        if bad:
            counterexamples += 1
        if rep.hypothesis_met:
            met += 1
        rows.append({
            "label": case.label,
            "hypothesis_met": rep.hypothesis_met,
            "ergodicity_proxy_ok": proxy_ok,
            "fixed_set_found": found,
            "rho_distance_to_lattice": _f(rep.dist_to_lattice),
        })
    passed = counterexamples == 0 and met >= 1
    details = {
        "cases": rows,
        "hypothesis_met_count": met,
        "counterexamples": counterexamples,
        "spread_limit": _f(BIRKHOFF_SPREAD_LIMIT),
    }
    return passed, details


# --- 10: double cover closed forms


def klein_closed_forms() -> Tuple[bool, dict]:
    g = MapGroup([
        Generator("quarter", _ID, disp_x=[constant_term(0.25)]),
        Generator("halfy", _ID, disp_y=[constant_term(0.5)]),
        Generator("genx", _ID, disp_x=[constant_term(0.3)]),
        Generator("generic", _ID, disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3)]),
        Generator("skew", _ID, disp_y=[trig_term(0.1, 1, 0)]),
    ])
    grid = EmpiricalMeasure.uniform_grid(16)
    checks: Dict[str, bool] = {}
    details: Dict[str, object] = {}

    # dyadic translations commute with the involution to the bit; a
    # horizontal step of 0.3 does too, up to one addition reordering
    checks["dyadic_x_defect_zero"] = check_sigma_commute(
        g.by_name("quarter")) == 0.0
    checks["dyadic_y_defect_zero"] = check_sigma_commute(
        g.by_name("halfy")) == 0.0
    checks["nondyadic_x_defect_tiny"] = check_sigma_commute(
        g.by_name("genx")) < 1e-15
    # a generic vertical step b: conjugating by the involution flips it,
    # leaving a vertical torus gap of 2b wrapped, here 0.4
    d = check_sigma_commute(g.by_name("generic"))
    checks["generic_defect_closed_form"] = abs(d - 0.4) < 1e-15
    details["generic_defect"] = _f(d)

    rb = rho_bar(grid, LiftedWord(g.by_name("quarter")))
    checks["dyadic_rho_bar_exact"] = rb == (0.25, 0.0)
    rb = rho_bar(grid, LiftedWord(g.by_name("halfy")))
    checks["half_rho_bar_exact"] = rb == (0.0, 0.5)
    rb = rho_bar(grid, LiftedWord(g.by_name("genx")))
    checks["nondyadic_rho_bar"] = (abs(rb[0] - 0.3) < 1e-15
                                   and rb[1] == 0.0)

    # symmetrizing the invariant circle kills the vertical coordinate
    mu = klein_symmetrize(circle_measure(0.25, atoms=16))
    skew = g.by_name("skew")
    checks["symmetrized_invariant"] = invariance_defect(skew, mu) < 1e-12
    rb = rho_bar(mu, LiftedWord(skew))
    checks["symmetrization_kills_vertical"] = rb[1] < 1e-8
    details["symmetrized_rho_bar"] = [_f(rb[0]), _f(rb[1])]

    passed = all(checks.values())
    details["checks"] = checks
    return passed, details


# --- 11: thread count must be invisible in results


def thread_determinism() -> Tuple[bool, dict]:
    a, b = 1, 8
    text_a, text_b = (
        json_text(run_suite(t, only=[8]).results[0].to_json_dict())
        for t in (a, b))

    g = build_catalog()
    seeds = torus_grid(32)
    means_a = orbit_displacement_means(LiftedWord(g.by_name("h")), seeds,
                                       500, threads=a)
    means_b = orbit_displacement_means(LiftedWord(g.by_name("h")), seeds,
                                       500, threads=b)
    bitwise = bool(np.array_equal(means_a, means_b))

    passed = text_a == text_b and bitwise
    details = {
        "threads_compared": [a, b],
        "report_bytes": len(text_a),
        "reports_identical": text_a == text_b,
        "orbit_means_bitwise_equal": bitwise,
    }
    return passed, details


# --- suite driver


_CRITERIA: List[Callable[..., Tuple[bool, dict]]] = [
    mcg_exhaustive_consistency,
    subgroup_classification_table,
    rotation_identities,
    transport_recurrence,
    orbit_dichotomy,
    averaging_preserves_rotation,
    odd_shear_example,
    rotation_set_hulls,
    fixed_point_consistency_sweep,
    klein_closed_forms,
    thread_determinism,
]


@reads(threads=count(1), only=each(count(1, len(_CRITERIA))))
def run_suite(threads: int = 1,
              only: Optional[List[int]] = None) -> SuiteReport:
    """Run the verification criteria and collect a deterministic report.

    A criterion's index is its position in the suite and its name is its
    function's name.  threads is forwarded to rotation_set_hulls, the
    criterion that exercises the parallel orbit kernel; every result is
    identical for any value.  only restricts to a subset of criterion
    indices.
    """
    results = []
    for index, fn in enumerate(_CRITERIA, start=1):
        if only is not None and index not in only:
            continue
        t0 = time.perf_counter()
        passed, details = (fn(threads) if fn is rotation_set_hulls
                           else fn())
        results.append(CriterionResult(index, fn.__name__, passed, details,
                                       time.perf_counter() - t0))
    return SuiteReport(results)
