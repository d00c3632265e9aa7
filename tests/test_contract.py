"""Bad counts, tolerances, points, words, measures, classes and terms
raise InvalidArgument before any work.

Each entry is one bad argument of one public callable.  The evaluators
and constructors the callables would run next are replaced by a function
that fails, so a check that comes after them, or a value that slips
through (a NaN tolerance compares false with everything), fails the test.
"""

import math

import numpy as np
import pytest

from rotor import (_kernels, averaging, catalog, covers, fixed_points,
                   geometry, maps, measures)
from rotor.averaging import (GroupSpec, bounded_orbit_check,
                             construct_invariant, rotev_residual)
from rotor.catalog import (build_catalog, circle_measure,
                           horizontal_circle_measure)
from rotor.covers import (annulus_term, klein_symmetrize, rho_bar,
                          sigma_apply)
from rotor.errors import InvalidArgument
from rotor.fixed_points import (find_fixed_points, fixed_point_index,
                                franks_certificate)
from rotor.geometry import (convex_hull, hausdorff_distance, hull_centroid,
                            hull_diameter, point_to_hull_distance)
from rotor.maps import (Generator, LiftedWord, MapGroup, apply_torus_batch,
                        commutator, commutator_lift, compose, compose_lift,
                        constant_term, displacement_field_batch, inverse,
                        inverse_lift, linear_part, orbit_displacement_means,
                        orbit_mean_with_tail, orbit_segment, reduce_point,
                        torus_grid, trig_term)
from rotor.mcg import (MCGClass, check_condition_star_star,
                       classify_nilpotent, closure, spectral_class,
                       torsion_order)
from rotor.measures import (EmpiricalMeasure, birkhoff_mean,
                            estimate_rotation_set, invariance_defect,
                            irrotational_lift, krylov_bogolyubov,
                            pushforward, rotation_vector)

CAT = build_catalog()
TR, SKEW, DEHN = (CAT.word(n) for n in ("tr", "skew", "dehn"))
GRID = EmpiricalMeasure.uniform_grid(4)
SEEDS = torus_grid(4)
SPEC = GroupSpec(generators_G0=(TR,))

# the work each callable would do once its arguments pass
EVALUATORS = {
    measures: ("orbit_segment", "estimate_rotation_set",
               "orbit_displacement_means"),
    averaging: ("_defect_table", "rotation_vector", "pushforward",
                "apply_torus_batch"),
    covers: ("check_sigma_commute", "rotation_vector", "apply_torus_batch"),
    catalog: ("EmpiricalMeasure",),
}

BAD_COUNTS = {
    "torus_grid(2.5)": lambda: torus_grid(2.5),
    "torus_grid('4')": lambda: torus_grid("4"),
    "torus_grid(0)": lambda: torus_grid(0),
    "uniform_grid(2.5)": lambda: EmpiricalMeasure.uniform_grid(2.5),
    "uniform_grid('4')": lambda: EmpiricalMeasure.uniform_grid("4"),
    "krylov n=10.5": lambda: krylov_bogolyubov(TR, (0.1, 0.2), 10.5, 5),
    "krylov n='10'": lambda: krylov_bogolyubov(TR, (0.1, 0.2), "10", 5),
    "krylov window=2.5": lambda: krylov_bogolyubov(TR, (0.1, 0.2), 10, 2.5),
    "krylov window='5'": lambda: krylov_bogolyubov(TR, (0.1, 0.2), 10, "5"),
    "construct L=2.5": lambda: construct_invariant(SPEC, TR, GRID, L=2.5),
    "construct L='4'": lambda: construct_invariant(SPEC, TR, GRID, L="4"),
    "circle atoms=2.5": lambda: circle_measure(0.25, atoms=2.5),
    "circle atoms='16'": lambda: circle_measure(0.25, atoms="16"),
    "circle atoms=0": lambda: circle_measure(0.25, atoms=0),
    "hcircle atoms=2.5": lambda: horizontal_circle_measure(0.25, atoms=2.5),
    "hcircle atoms='16'": lambda: horizontal_circle_measure(0.25,
                                                            atoms="16"),
    "hcircle atoms=0": lambda: horizontal_circle_measure(0.25, atoms=0),
    "annulus ypow=-1": lambda: annulus_term(0.1, 0, 0.0, -1),
    "annulus ypow=1.5": lambda: annulus_term(0.1, 0, 0.0, 1.5),
    "annulus ypow='1'": lambda: annulus_term(0.1, 0, 0.0, "1"),
}

BAD_INTEGERS = {
    "deck (nan, 0)": lambda: LiftedWord(TR, (math.nan, 0)),
    "deck (inf, 0)": lambda: LiftedWord(TR, (math.inf, 0)),
    "deck (0.5, 0)": lambda: LiftedWord(TR, (0.5, 0)),
    "deck ('1', 0)": lambda: LiftedWord(TR, ("1", 0)),
    "rotev p=1.5": lambda: rotev_residual(DEHN, TR, GRID, 1.5),
    "rotev p='2'": lambda: rotev_residual(DEHN, TR, GRID, "2"),
    "rotev p=[1, 1.5]": lambda: rotev_residual(DEHN, TR, GRID, [1, 1.5]),
    "trig kx=1.5": lambda: trig_term(0.1, 1.5, 0),
    "trig kx='1'": lambda: trig_term(0.1, "1", 0),
    "trig ky=nan": lambda: trig_term(0.1, 1, math.nan),
    "trig ky=inf": lambda: trig_term(0.1, 1, math.inf),
    "annulus k=1.5": lambda: annulus_term(0.1, 1.5),
    "annulus k='1'": lambda: annulus_term(0.1, "1"),
    "annulus k=nan": lambda: annulus_term(0.1, math.nan),
}

BAD_TOLERANCES = {}
for _label, _tol in (("nan", math.nan), ("inf", math.inf),
                     ("-inf", -math.inf), ("0", 0.0), ("-1", -1.0)):
    BAD_TOLERANCES.update({
        "construct tol=" + _label:
            lambda t=_tol: construct_invariant(SPEC, TR, GRID, tol=t),
        "irrotational tol=" + _label:
            lambda t=_tol: irrotational_lift(TR, SEEDS, 100, tol=t),
        "irrotational h tol=" + _label:
            lambda t=_tol: irrotational_lift(CAT.word("h"), SEEDS, 100, t),
        "rho_bar sigma_tol=" + _label:
            lambda t=_tol: rho_bar(GRID, SKEW, sigma_tol=t),
    })

BAD_CALLS = {**BAD_COUNTS, **BAD_INTEGERS, **BAD_TOLERANCES}


@pytest.mark.parametrize("call", list(BAD_CALLS.values()),
                         ids=list(BAD_CALLS))
def test_bad_counts_and_tolerances_raise_before_any_evaluation(call,
                                                               monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("the arguments were used")

    for module, names in EVALUATORS.items():
        for name in names:
            monkeypatch.setattr(module, name, no_evaluation)
    with pytest.raises(InvalidArgument):
        call()


# each bad point argument, given where a callable reads a point or a point
# set; a lone pair is one point wherever a point set is read
BAD_POINTS = {
    "nan": (math.nan, 0.2),
    "+inf": (math.inf, 0.2),
    "-inf": (0.3, -math.inf),
    "3-vector": (0.1, 0.2, 0.3),
    "(2, 3) array": np.zeros((2, 3)),
    "string": "ab",
}

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
DEHN_CLASS = linear_part(DEHN)

POINT_CALLS = {
    "apply_torus_batch": lambda p: apply_torus_batch(TR, p),
    "displacement_field_batch": lambda p: displacement_field_batch(TR, p),
    "orbit_displacement_means": lambda p: orbit_displacement_means(TR, p, 5),
    "orbit_displacement_means threads=2":
        lambda p: orbit_displacement_means(TR, p, 5, threads=2),
    "estimate_rotation_set": lambda p: estimate_rotation_set(TR, p, 5),
    "estimate_rotation_set threads=2":
        lambda p: estimate_rotation_set(TR, p, 5, threads=2),
    "irrotational_lift": lambda p: irrotational_lift(TR, p, 5, 1e-3),
    "orbit_mean_with_tail": lambda p: orbit_mean_with_tail(TR, p, 5),
    "birkhoff_mean": lambda p: birkhoff_mean(TR, p, 5),
    "orbit_segment": lambda p: orbit_segment(TR, p, 5),
    "krylov_bogolyubov": lambda p: krylov_bogolyubov(TR, p, 10, 5),
    "fixed_point_index": lambda p: fixed_point_index(TR, p),
    "bounded_orbit_check rho0":
        lambda p: bounded_orbit_check(DEHN_CLASS, p, (0.0, 0.0)),
    "bounded_orbit_check w":
        lambda p: bounded_orbit_check(DEHN_CLASS, (0.0, 0.0), p),
    "EmpiricalMeasure": EmpiricalMeasure,
    "EmpiricalMeasure.dirac": EmpiricalMeasure.dirac,
    "convex_hull": convex_hull,
    "hull_diameter": hull_diameter,
    "hull_centroid": hull_centroid,
    "point_to_hull_distance": lambda p: point_to_hull_distance(p, SQUARE),
    "hausdorff_distance": lambda p: hausdorff_distance(p, SQUARE),
    "sigma_apply": sigma_apply,
    "reduce_point": reduce_point,
}

BAD_POINT_CALLS = {"%s %s" % (name, label): (lambda c=call, p=p: c(p))
                   for name, call in POINT_CALLS.items()
                   for label, p in BAD_POINTS.items()}

# a string or a number where a word belongs once leaked AttributeError
BAD_WORD_CALLS = {
    "LiftedWord(None)": lambda: LiftedWord(None),
    "orbit_displacement_means('h')":
        lambda: orbit_displacement_means("h", SEEDS, 10),
    "find_fixed_points('h')": lambda: find_fixed_points("h"),
    "rotation_vector(mu, 3)": lambda: rotation_vector(GRID, 3),
    "compose('h', w)": lambda: compose("h", SKEW),
    "linear_part('h')": lambda: linear_part("h"),
    "inverse(3)": lambda: inverse(3),
    "commutator(w, None)": lambda: commutator(SKEW, None),
    "w * 'h'": lambda: SKEW * "h",
    "compose_lift('h', lw)": lambda: compose_lift("h", LiftedWord(SKEW)),
    "inverse_lift(w)": lambda: inverse_lift(SKEW),
    "commutator_lift(lw, None)":
        lambda: commutator_lift(LiftedWord(SKEW), None),
}

# a measure argument that is not a measure once leaked AttributeError
BAD_MEASURE_CALLS = {
    "pushforward(w, None)": lambda: pushforward(TR, None),
    "rotation_vector(list, w)": lambda: rotation_vector([(0.1, 0.2)], TR),
    "invariance_defect(w, 'mu')": lambda: invariance_defect(TR, "mu"),
    "klein_symmetrize(None)": lambda: klein_symmetrize(None),
    "rho_bar(None, w)": lambda: rho_bar(None, SKEW),
    "franks_certificate(w, None)": lambda: franks_certificate(TR, None),
    "rotev_residual(g, h, None, 1)":
        lambda: rotev_residual(DEHN, TR, None, 1),
    "construct_invariant(spec, w, None)":
        lambda: construct_invariant(GroupSpec((TR,)), TR, None),
}

# class entries that are not integral were truncated or leaked, and a
# tuple where a class belongs leaked AttributeError
ID = MCGClass.identity()
BAD_CLASS_CALLS = {
    "MCGClass(1.5, 0, 0, 1)": lambda: MCGClass(1.5, 0, 0, 1),
    "MCGClass(nan, 0, 0, 1)": lambda: MCGClass(math.nan, 0, 0, 1),
    "MCGClass(None, 0, 0, 1)": lambda: MCGClass(None, 0, 0, 1),
    "bounded_orbit_check((1.5, 0, 1, 1))":
        lambda: bounded_orbit_check((1.5, 0, 1, 1), (0, 0.3), (0, 0)),
    "spectral_class(tuple)": lambda: spectral_class((1, 0, 0, 1)),
    "torsion_order(None)": lambda: torsion_order(None),
    "classify_nilpotent([tuple])": lambda: classify_nilpotent([(1, 0, 0, 1)]),
    "closure([tuple])": lambda: closure([(1, 0, 0, 1)]),
    "check_condition_star_star(['x'])":
        lambda: check_condition_star_star(["x"]),
    "identity * tuple": lambda: ID * (1, 0, 0, 1),
    "Generator('g', tuple)": lambda: Generator("g", (1, 0, 0, 1)),
}

# a non-finite term built a "certified" generator that returned NaN; a
# term of the wrong length or a group of non-generators leaked
BAD_TERM_CALLS = {
    "trig amplitude=nan": lambda: trig_term(math.nan, 1, 0),
    "trig amplitude=inf": lambda: trig_term(math.inf, 1, 0),
    "trig phase=nan": lambda: trig_term(0.1, 1, 0, math.nan),
    "trig phase=-inf": lambda: trig_term(0.1, 1, 0, -math.inf),
    "trig amplitude='a'": lambda: trig_term("a", 1, 0),
    "constant nan": lambda: constant_term(math.nan),
    "annulus amplitude=nan": lambda: annulus_term(math.nan),
    "annulus phase=inf": lambda: annulus_term(0.1, 1, math.inf),
    "Generator disp_y nan term":
        lambda: Generator("g", ID, disp_y=[(math.nan, 1, 0)]),
    "Generator one-number term": lambda: Generator("g", ID, disp_x=[(0.1,)]),
    "MapGroup([1])": lambda: MapGroup([1]),
}

# the kernels a point or a word reaches once it is read, under every name
# a rotor module holds them by
KERNELS = ("apply_word", "orbit_mean_batch", "orbit_mean_tail",
           "orbit_collect", "affine_orbit", "grid_merge", "reduce_batch")
KERNEL_HOLDERS = (_kernels, maps, measures, averaging, covers, geometry,
                  fixed_points)

BAD_ARGUMENT_CALLS = {**BAD_POINT_CALLS, **BAD_WORD_CALLS, **BAD_MEASURE_CALLS,
                      **BAD_CLASS_CALLS, **BAD_TERM_CALLS}


@pytest.mark.parametrize("call", list(BAD_ARGUMENT_CALLS.values()),
                         ids=list(BAD_ARGUMENT_CALLS))
def test_bad_points_and_words_raise_before_any_kernel(call, backends,
                                                      monkeypatch):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for module in KERNEL_HOLDERS:
        for name in KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_kernel)
    for backend in backends:
        _kernels.set_backend(backend)
        with pytest.raises(InvalidArgument):
            call()


def test_integral_floats_still_read_as_class_entries():
    # the scenario parser reads numbers as floats
    c = MCGClass(2.0, 1, np.int64(1), True)
    assert c == MCGClass(2, 1, 1, 1)
    assert all(type(v) is int for v in (c.a, c.b, c.c, c.d))
