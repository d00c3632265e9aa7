"""Bad arguments raise InvalidArgument before any work.

The named cases pin one bad argument each of the calls that once leaked
or checked late.  The generated cases come from the declarations: every
parameter declared with @reads gets every value of BAD that its own
reader rejects, and must be rejected the same way.  The kernels and the
evaluators the callables run next are replaced by a function that fails,
on both backends, so a check that comes late or is missing fails the
test.  Every callable in a module's __all__ is declared or exempt.
"""

import inspect
import math
import sys

import numpy as np
import pytest

from rotor import (_kernels, averaging, catalog, cli, covers, fixed_points,
                   geometry, maps, mcg, measures, scenario, verify)
from rotor._args import REGISTRY
from rotor.averaging import (GroupSpec, bounded_orbit_check,
                             construct_invariant, rotev_residual)
from rotor.catalog import (annulus_twist_spec, build_catalog, circle_measure,
                           horizontal_circle_measure)
from rotor.covers import (annulus_term, klein_symmetrize, rho_bar,
                          sigma_apply)
from rotor.errors import InvalidArgument, RotorError
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

# the work the callables do once their arguments pass: the kernels, under
# every name a rotor module holds them by, and the evaluators run next
KERNELS = ("apply_word", "orbit_mean_batch", "orbit_mean_tail",
           "orbit_collect", "affine_orbit", "grid_merge", "reduce_batch")
EVALUATORS = {
    measures: ("orbit_segment", "estimate_rotation_set",
               "orbit_displacement_means"),
    averaging: ("_defect_table", "rotation_vector", "pushforward",
                "apply_torus_batch"),
    covers: ("check_sigma_commute", "rotation_vector", "apply_torus_batch"),
    catalog: ("EmpiricalMeasure",),
}


@pytest.fixture
def no_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the arguments were used")

    for module in (_kernels, maps, measures, averaging, covers, geometry,
                   fixed_points, catalog):
        for name in KERNELS + EVALUATORS.get(module, ()):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_work)


def _rejected_everywhere(call, backends):
    for backend in backends:
        _kernels.set_backend(backend)
        with pytest.raises(InvalidArgument):
            call()


def _named(*rows):
    # {id: call} of rows (id pattern, call of one value, values); a value
    # list puts each value's repr in the pattern, a dict its label
    return {pattern % label: (lambda c=call, v=v: c(v))
            for pattern, call, values in rows
            for label, v in (values.items() if isinstance(values, dict)
                             else ((repr(v), v) for v in values))}


TOLERANCES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
              "0": 0.0, "-1": -1.0}
BAD_CALLS = _named(
    ("torus_grid(%s)", torus_grid, [2.5, "4", 0]),
    ("uniform_grid(%s)", EmpiricalMeasure.uniform_grid, [2.5, "4"]),
    ("krylov n=%s", lambda v: krylov_bogolyubov(TR, (0.1, 0.2), v, 5),
     [10.5, "10"]),
    ("krylov window=%s", lambda v: krylov_bogolyubov(TR, (0.1, 0.2), 10, v),
     [2.5, "5"]),
    ("construct L=%s", lambda v: construct_invariant(SPEC, TR, GRID, L=v),
     [2.5, "4"]),
    ("circle atoms=%s", lambda v: circle_measure(0.25, atoms=v),
     [2.5, "16", 0]),
    ("hcircle atoms=%s", lambda v: horizontal_circle_measure(0.25, atoms=v),
     [2.5, "16", 0]),
    ("annulus ypow=%s", lambda v: annulus_term(0.1, 0, 0.0, v),
     [-1, 1.5, "1"]),
    ("deck (%s, 0)", lambda v: LiftedWord(TR, (v, 0)),
     [math.nan, math.inf, 0.5, "1"]),
    ("rotev p=%s", lambda v: rotev_residual(DEHN, TR, GRID, v),
     [1.5, "2", [1, 1.5]]),
    ("trig kx=%s", lambda v: trig_term(0.1, v, 0), [1.5, "1"]),
    ("trig ky=%s", lambda v: trig_term(0.1, 1, v), [math.nan, math.inf]),
    ("annulus k=%s", lambda v: annulus_term(0.1, v), [1.5, "1", math.nan]),
    ("construct tol=%s", lambda t: construct_invariant(SPEC, TR, GRID, tol=t),
     TOLERANCES),
    ("irrotational tol=%s", lambda t: irrotational_lift(TR, SEEDS, 100, tol=t),
     TOLERANCES),
    ("irrotational h tol=%s",
     lambda t: irrotational_lift(CAT.word("h"), SEEDS, 100, t), TOLERANCES),
    ("rho_bar sigma_tol=%s", lambda t: rho_bar(GRID, SKEW, sigma_tol=t),
     TOLERANCES))


@pytest.mark.parametrize("call", list(BAD_CALLS.values()),
                         ids=list(BAD_CALLS))
def test_bad_counts_and_tolerances_raise_before_any_evaluation(call, backends,
                                                               no_work):
    _rejected_everywhere(call, backends)


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

BAD_ARGUMENT_CALLS = {**BAD_POINT_CALLS, **BAD_WORD_CALLS, **BAD_MEASURE_CALLS,
                      **BAD_CLASS_CALLS, **BAD_TERM_CALLS}


@pytest.mark.parametrize("call", list(BAD_ARGUMENT_CALLS.values()),
                         ids=list(BAD_ARGUMENT_CALLS))
def test_bad_points_and_words_raise_before_any_kernel(call, backends,
                                                      no_work):
    _rejected_everywhere(call, backends)


def test_integral_floats_still_read_as_class_entries():
    # the scenario parser reads numbers as floats
    c = MCGClass(2.0, 1, np.int64(1), True)
    assert c == MCGClass(2, 1, 1, 1)
    assert all(type(v) is int for v in (c.a, c.b, c.c, c.d))


# --- the contract generated from the declarations

MODULES = (mcg, maps, measures, averaging, fixed_points, covers, geometry,
           catalog, scenario, verify, cli)
RECORD = "a result record, built from values rotor has read"
EXEMPT = {**dict.fromkeys([
    "mcg.SpectralClass", "mcg.SubgroupForm", "mcg.StarStarReport",
    "mcg.FiniteIndexReport", "measures.RotationSetEstimate",
    "measures.BirkhoffRecord", "averaging.StageRecord",
    "averaging.ConstructionTrace", "averaging.OrbitCheck",
    "fixed_points.FixedChain", "fixed_points.FixedPointEntry",
    "fixed_points.FixedPointReport", "fixed_points.FranksReport",
    "catalog.FranksCase", "scenario.AnalysisRequest", "scenario.Scenario",
    "verify.CriterionResult", "verify.SuiteReport"], RECORD),
    "mcg.MCGClass": "a hot path: int entries skip the reader",
    "cli.main": "argparse reads argv and exits with status 2 on a bad one"}

# a parameter's good call passes the first value of GOOD its reader takes
ANNULUS = annulus_twist_spec()
GOOD = [ID, CAT, GRID, SPEC, TR, LiftedWord(TR), CAT.generators[0], ANNULUS,
        64, (0.1, 0.2), "no_such.scn", (1, 0), [1], [TR], [ID], [(TR, ID)],
        [CAT.generators[0]], [("a", ANNULUS)], [(0.01, 1, 0)]]
BAD = [None, 3, 2.5, "4", b"x", 0, -1, 7, math.nan, math.inf, -math.inf,
       10 ** 400, DEHN, (1, 0, 0, 1), [], [None], ["h"], [1.5], [99], [DEHN],
       (math.nan, 0), (0.5, 0), (1,), np.zeros((2, 3)), SQUARE,
       SQUARE + [(math.nan, 0.0)], [(math.nan, 1, 0)], [(0.1,) * 9],
       [("a", None)], [(TR, None)], [(1, 0, 0, 1)], [(TR, ID, 1)]]
# required parameters that declare nothing
UNDECLARED = {"pts": SQUARE, "letters": [], "name": "g"}


def _rejection(reader, value, name):
    # the error the reader raises on value, None when it takes value
    try:
        reader(value, name)
    except RotorError as exc:
        return type(exc)
    return None


def _target(fn):
    # a constructor is called through its class, a class method on it
    owner, _, name = fn.__qualname__.rpartition(".")
    if not owner:
        return fn
    cls = getattr(sys.modules[fn.__module__], owner)
    return cls if name == "__init__" else getattr(cls, name)


def _cases():
    # each declared parameter, into a call whose other arguments are good;
    # a callable that takes threads runs at threads 1 and 2
    for fn, readers in REGISTRY.items():
        params = inspect.signature(fn).parameters
        base = {name: next(v for v in GOOD if not _rejection(r, v, name))
                for name, r in readers.items()}
        base.update((name, UNDECLARED[name]) for name, p in params.items()
                    if p.default is p.empty and name not in base
                    and name not in ("self", "cls"))
        for name, r in readers.items():
            bad = [(v, e) for v in BAD if v is not params[name].default
                   and (e := _rejection(r, v, name))]
            for threads in ((1, 2) if "threads" in params else (None,)):
                if name != "threads" or threads != 2:
                    at = dict(base, threads=threads) if threads else base
                    label = "%s %s%s" % (fn.__qualname__, name,
                                         " threads=2" * (threads == 2))
                    yield pytest.param(_target(fn), at, name, bad, id=label)


@pytest.mark.parametrize("call,base,name,bad", list(_cases()))
def test_declared_parameters_reject_what_their_readers_reject(
        call, base, name, bad, backends, no_work):
    assert bad, "%s rejects no value of BAD" % name
    for backend in backends:
        _kernels.set_backend(backend)
        try:
            call(**base)
        except InvalidArgument as exc:
            pytest.fail("the good call raised %r" % exc)
        except (AssertionError, RotorError, OSError):
            pass        # the work began, or a step after the readers failed
        for value, error in bad:
            with pytest.raises(error):
                call(**dict(base, **{name: value}))


def test_every_public_callable_is_declared_or_exempt():
    wrong, seen = [], set()
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            label = "%s.%s" % (module.__name__.split(".")[1], name)
            if not callable(obj):
                continue
            fn = obj.__init__ if isinstance(obj, type) else obj
            takes = set(inspect.signature(fn).parameters) - {"self"}
            declared, exempt = fn in REGISTRY, label in EXEMPT
            if declared == exempt and (takes or exempt):
                wrong.append(label)
            seen.add(label)
    assert not wrong, "neither declared nor exempt, or both: %s" % wrong
    assert set(EXEMPT) <= seen
