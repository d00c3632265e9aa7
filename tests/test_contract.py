"""Bad counts and tolerances raise InvalidArgument before any work.

Each entry is one bad argument of one public callable.  The evaluators
and constructors the callables would run next are replaced by a function
that fails, so a check that comes after them, or a value that slips
through (a NaN tolerance compares false with everything), fails the test.
"""

import math

import pytest

from rotor import averaging, catalog, covers, measures
from rotor.averaging import GroupSpec, construct_invariant, rotev_residual
from rotor.catalog import (build_catalog, circle_measure,
                           horizontal_circle_measure)
from rotor.covers import annulus_term, rho_bar
from rotor.errors import InvalidArgument
from rotor.maps import LiftedWord, torus_grid, trig_term
from rotor.measures import (EmpiricalMeasure, irrotational_lift,
                            krylov_bogolyubov)

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
