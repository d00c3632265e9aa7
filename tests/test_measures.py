import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rotor import _kernels
from rotor.catalog import build_catalog
from rotor.errors import InvalidArgument, NotIsotopicToIdentity, RotorError
from rotor.geometry import hausdorff_distance, point_to_hull_distance
from rotor.maps import (Generator, LiftedWord, MapGroup, compose,
                        constant_term, inverse, linear_part,
                        orbit_mean_with_tail, reduce_batch, trig_term)
from rotor.mcg import MCGClass
from rotor.measures import (EmpiricalMeasure, birkhoff_mean,
                            estimate_rotation_set, invariance_defect,
                            irrotational_lift, krylov_bogolyubov,
                            pushforward, rotation_vector)

ID = MCGClass.identity()
ALPHA = math.sqrt(2.0) - 1.0


def build_group():
    gens = [
        Generator("half", ID, disp_x=[constant_term(0.5)]),
        Generator("irr", ID, disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3)]),
        Generator("skew", ID,
                  disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3), trig_term(0.05, 1, 0)]),
        Generator("skew0", ID, disp_y=[trig_term(0.05, 1, 0)]),
        Generator("dehn", MCGClass(1, 0, 1, 1)),
        Generator("flip", -ID),
        Generator("circ", ID, disp_y=[trig_term(0.1, 1, 0)]),
        Generator("shift", ID, disp_x=[constant_term(2.0)],
                  disp_y=[constant_term(-1.0)]),
    ]
    return MapGroup(gens)


G = build_group()


def grid_seeds(k):
    xs = np.arange(k) / k
    return np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)


def circle_measure(x=0.25, m=16):
    return EmpiricalMeasure([(x, j / m) for j in range(m)])


# --- the measure type


def test_atoms_are_canonicalized():
    m = EmpiricalMeasure([(1.3, -0.75), (0.3, 0.25)], [1.0, 3.0])
    assert m.atoms == [((0.3, 0.25), 1.0)]


def test_nearby_atoms_merge():
    m = EmpiricalMeasure([(0.1, 0.2), (0.1 + 4e-13, 0.2), (0.9, 0.9)],
                         [0.25, 0.25, 0.5])
    assert len(m) == 2
    assert m.atoms[0] == ((0.1, 0.2), 0.5)


def test_wraparound_atoms_merge():
    m = EmpiricalMeasure([(0.0, 0.5), (1.0 - 1e-13, 0.5)])
    assert len(m) == 1
    assert m.atoms[0][0] == (0.0, 0.5)


def test_weights_normalized_and_sorted():
    m = EmpiricalMeasure([(0.7, 0.1), (0.2, 0.9)], [3.0, 1.0])
    assert [a for a, _ in m.atoms] == [(0.2, 0.9), (0.7, 0.1)]
    assert m.weights.sum() == 1.0
    assert m.atoms[0][1] == 0.25


@pytest.mark.parametrize("points", [
    [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [0.1, 0.2, 0.3, 0.4], [[[0.1, 0.2]]],
    [], [[0.1, 0.2], [0.3]]])
def test_atoms_and_seeds_of_the_wrong_shape_are_refused(points):
    # once reshaped to (-1, 2): (2, 3) became 3 atoms or 3 seeds
    with pytest.raises(InvalidArgument):
        EmpiricalMeasure(points)
    with pytest.raises(InvalidArgument):
        estimate_rotation_set(LiftedWord(G.by_name("irr")), points, 10)


@pytest.mark.parametrize("weights", [
    [[1.0], [3.0]], [[1.0, 3.0]], 1.0, [[[1.0]], [[3.0]]], [[1.0], [2.0, 3.0]],
    ["a", "b"]])
def test_weights_not_of_shape_n_are_refused(weights):
    # once reshaped to (-1,): a (2, 1) array became weights 0.25 and 0.75
    with pytest.raises(InvalidArgument, match="weights"):
        EmpiricalMeasure([(0.1, 0.2), (0.3, 0.4)], weights)


def test_bad_csv_header_raises_invalid_argument(tmp_path):
    path = tmp_path / "mu.csv"
    path.write_text("x,y,w\n0.1,0.2,1.0\n")
    with pytest.raises(InvalidArgument, match="header"):
        EmpiricalMeasure.from_csv(path)


@pytest.mark.parametrize("rows, message", [
    ("0.1,0.2,1.0\n0.3,zz,1.0\n", "line 3 .*not a number"),
    ("0.1,0.2,1.0\n0.3,0.4\n", "line 3 .*3 cells"),
    ("0.1,0.2,1.0,7\n", "line 2 .*3 cells"),
])
def test_bad_csv_rows_raise_invalid_argument(tmp_path, rows, message):
    path = tmp_path / "mu.csv"
    path.write_text("x,y,weight\n" + rows)
    with pytest.raises(InvalidArgument, match=message):
        EmpiricalMeasure.from_csv(path)


def test_a_lone_pair_is_one_atom_and_one_seed():
    assert EmpiricalMeasure((1.25, -0.5)).atoms == [((0.25, 0.5), 1.0)]
    lw = LiftedWord(G.by_name("irr"))
    est = estimate_rotation_set(lw, (0.1, 0.2), 10)
    assert est.samples.tobytes() == estimate_rotation_set(
        lw, [(0.1, 0.2)], 10).samples.tobytes()


def test_bad_inputs_rejected():
    with pytest.raises(InvalidArgument):
        EmpiricalMeasure([], [])
    with pytest.raises(InvalidArgument, match="at least one atom"):
        EmpiricalMeasure(np.zeros((0, 2)))
    with pytest.raises(InvalidArgument, match="differ in length"):
        EmpiricalMeasure([(0.1, 0.1)], [1.0, 2.0])
    with pytest.raises(InvalidArgument):
        EmpiricalMeasure([(0.1, 0.1)], [-1.0])
    with pytest.raises(InvalidArgument):
        EmpiricalMeasure([(0.1, 0.1)], [0.0])
    with pytest.raises(InvalidArgument, match="k must be an integer >= 1"):
        EmpiricalMeasure.uniform_grid(0)
    with pytest.raises(AttributeError):
        EmpiricalMeasure.dirac((0, 0)).weights = None


def test_uniform_grid():
    m = EmpiricalMeasure.uniform_grid(8)
    assert len(m) == 64
    assert abs(m.weights.sum() - 1.0) < 1e-12
    assert m.weights.max() == m.weights.min()


def test_csv_round_trip(tmp_path):
    m = EmpiricalMeasure([(0.1, 0.2), (0.9, 0.37)], [0.25, 0.75])
    path = tmp_path / "m.csv"
    m.to_csv(path)
    back = EmpiricalMeasure.from_csv(path)
    assert np.array_equal(back.points, m.points)
    assert np.allclose(back.weights, m.weights, rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                          st.floats(1e-3, 1e3)), min_size=1, max_size=20))
def test_csv_round_trip_property(tmp_path_factory, atoms):
    m = EmpiricalMeasure([(x, y) for x, y, _ in atoms],
                         [w for _, _, w in atoms])
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    m.to_csv(path)
    back = EmpiricalMeasure.from_csv(path)
    assert np.array_equal(back.points, m.points)
    # renormalizing weights that already sum to 1 within rounding can move
    # them by an ulp, so the weights round-trip to within a few ulps only
    assert np.allclose(back.weights, m.weights,
                       rtol=4 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_coordinates_rejected(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidArgument, match="must be finite"):
            EmpiricalMeasure([(0.2, 0.3), (bad, 0.1)])
        with pytest.raises(InvalidArgument, match="must be finite"):
            EmpiricalMeasure([(0.1, bad)], [1.0])


# --- the grid merge against a plain dict loop


def dict_merge(points, weights, scale, cells):
    """Reference merge: one dict entry per grid cell, summed atom by atom."""
    acc = {}
    for (x, y), wt in zip(points, weights):
        key = (round(x * scale) % cells, round(y * scale) % cells)
        acc[key] = acc.get(key, 0.0) + float(wt)
    keys = sorted(acc)
    return (np.array([(kx / scale, ky / scale) for kx, ky in keys]),
            np.array([acc[k] for k in keys]))


def assert_matches_dict_reference(points, weights):
    points = np.asarray(points, dtype=float)
    m = EmpiricalMeasure(points, weights)
    pts, w = dict_merge(reduce_batch(points), weights, 1e12, 10 ** 12)
    assert np.array_equal(m.points, pts)
    assert np.array_equal(m.weights, w / w.sum())
    return m


def spread_weights(rng, n):
    # magnitudes over 16 decades, so cell sums depend on the order of adding
    return rng.random(n) * 10.0 ** rng.uniform(-8, 8, n)


def test_heavy_merging_matches_dict_reference(backends):
    rng = np.random.default_rng(7)
    n = 20000
    centers = rng.integers(0, 16, size=(n, 2)) / 16
    points = centers + rng.uniform(-4e-13, 4e-13, size=(n, 2))
    weights = spread_weights(rng, n)
    for backend in backends:
        _kernels.set_backend(backend)
        m = assert_matches_dict_reference(points, weights)
        assert len(m) == 256
    # the reference is order sensitive: adding in reverse differs
    _, rev = dict_merge(reduce_batch(points)[::-1], weights[::-1],
                        1e12, 10 ** 12)
    assert not np.array_equal(m.weights, rev / rev.sum())


def test_distinct_and_seam_atoms_match_dict_reference(backends):
    rng = np.random.default_rng(8)
    seam = [(1 - 1e-13, 0.5), (0.0, 0.5), (0.5, 1 - 1e-13), (-1e-13, 0.5),
            (1 - 1e-13, 1 - 1e-13), (0.0, 0.0), (1 - 6e-13, 0.25),
            (2.5, -0.5), (0.5, 0.5)]
    points = np.vstack([seam, rng.random((4000, 2)) * 6 - 3])
    weights = spread_weights(rng, len(points))
    for backend in backends:
        _kernels.set_backend(backend)
        m = assert_matches_dict_reference(points, weights)
        assert m.points[0].tolist() == [0.0, 0.0]
        assert m.points.max() < 1.0
        seam_only = assert_matches_dict_reference(seam, np.ones(len(seam)))
        assert len(seam_only) == 5


def test_tiny_measure_matches_dict_reference(backends):
    rng = np.random.default_rng(9)
    cases = [(rng.random((n, 2)), spread_weights(rng, n)) for n in (1, 2, 40)]
    for backend in backends:
        _kernels.set_backend(backend)
        for points, weights in cases:
            assert_matches_dict_reference(points, weights)


# --- pushforward


def test_pushforward_identity():
    m = EmpiricalMeasure([(0.1, 0.2), (0.9, 0.9)], [0.5, 0.5])
    p = pushforward(G.identity(), m)
    assert np.array_equal(p.points, m.points)
    assert np.allclose(p.weights, m.weights, rtol=1e-12)


def test_pushforward_moves_dirac():
    p = pushforward(G.by_name("half"), EmpiricalMeasure.dirac((0.0, 0.0)))
    assert p.atoms == [((0.5, 0.0), 1.0)]


def test_pushforward_point_reflection_moves_circle():
    # (x,y) -> (-x,-y) sends the circle x=1/4 to the circle x=3/4
    img = pushforward(G.by_name("flip"), circle_measure(0.25, 16))
    assert np.allclose(img.points[:, 0], 0.75, atol=1e-12)
    assert len(img) == 16
    assert np.allclose(img.weights, 1.0 / 16, rtol=1e-12)


def test_pushforward_mass_and_functoriality():
    rng = np.random.default_rng(3)
    m = EmpiricalMeasure(rng.uniform(0, 1, size=(10, 2)))
    a, b = G.by_name("skew"), G.by_name("half")
    lhs = pushforward(compose(a, b), m)
    rhs = pushforward(a, pushforward(b, m))
    assert abs(lhs.weights.sum() - 1.0) < 1e-12
    assert len(lhs) == len(rhs)
    assert np.abs(lhs.points - rhs.points).max() < 1e-10
    assert np.abs(lhs.weights - rhs.weights).max() < 1e-10


# --- rotation vectors


def test_rotation_vector_of_translation():
    m = EmpiricalMeasure([(0.1, 0.2), (0.9, 0.9)], [0.5, 0.5])
    rv = rotation_vector(m, LiftedWord(G.by_name("irr")))
    assert abs(rv[0] - ALPHA) < 1e-15 and abs(rv[1] - 0.3) < 1e-15


def test_rotation_vector_of_deck_translation():
    m = EmpiricalMeasure.dirac((0.37, 0.61))
    rv = rotation_vector(m, LiftedWord(G.identity(), (1, 0)))
    assert rv.tolist() == [1.0, 0.0]


# the catalog's identity-class words, and commutators, whose class is the
# identity whatever the classes of their letters
_CAT = build_catalog()
DECK_WORDS = [_CAT.word(w) for w in ("h", "tr", "halftr", "skew", "irrskew",
                                      "twist", "h skew h' skew'",
                                      "dehn tr dehn' tr'",
                                      "phi twist phi' twist'")]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(DECK_WORDS),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                          st.floats(1e-3, 1.0)), min_size=1, max_size=12))
def test_deck_translation_shifts_rotation_vector_bitwise(backends, word, deck,
                                                         atoms):
    mu = EmpiricalMeasure([(x, y) for x, y, _ in atoms],
                          [w for _, _, w in atoms])
    for backend in backends:
        _kernels.set_backend(backend)
        base = rotation_vector(mu, LiftedWord(word))
        shifted = rotation_vector(mu, LiftedWord(word, deck))
        assert shifted.tobytes() == (base + deck).tobytes()


def test_rotation_vector_on_invariant_circle():
    # (x, y + 0.1 sin 2 pi x) on the circle x=1/4: constant displacement
    rv = rotation_vector(circle_measure(0.25, 16), LiftedWord(G.by_name("circ")))
    assert abs(rv[0]) < 1e-15
    assert abs(rv[1] - 0.1) < 1e-12


def test_rotation_vector_requires_identity_linear_part():
    with pytest.raises(NotIsotopicToIdentity):
        rotation_vector(EmpiricalMeasure.dirac((0, 0)),
                        LiftedWord(G.by_name("dehn")))


def test_lift_shift_is_exact():
    m = EmpiricalMeasure([(0.1, 0.2), (0.9, 0.9)], [0.5, 0.5])
    base = LiftedWord(G.by_name("irr"))
    rv0 = rotation_vector(m, base)
    for v in [(3, -2), (1, 0), (-5, 7)]:
        rv = rotation_vector(m, LiftedWord(base.word, v))
        assert np.array_equal(rv, rv0 + np.array(v, dtype=float))


def test_rho_additivity_for_measure_preserving_pair():
    # both maps leave the uniform grid invariant up to fp noise
    mu = EmpiricalMeasure.uniform_grid(64)
    f, g = G.by_name("irr"), G.by_name("skew0")
    assert invariance_defect(f, mu) < 1e-9
    assert invariance_defect(g, mu) < 1e-9
    lhs = rotation_vector(mu, LiftedWord(compose(f, g)))
    rhs = rotation_vector(mu, LiftedWord(f)) + rotation_vector(mu, LiftedWord(g))
    assert np.abs(lhs - rhs).max() < 1e-8


@pytest.mark.parametrize("psi_name", ["dehn", "flip"])
def test_conjugation_identity(psi_name):
    # [psi](rho_mu(phi)) = rho_{psi_* mu}(psi phi psi^-1)
    mu = EmpiricalMeasure.uniform_grid(64)
    phi = G.by_name("irr")
    psi = G.by_name(psi_name)
    conj = compose(compose(psi, phi), inverse(psi))
    vec = rotation_vector(mu, LiftedWord(phi))
    lhs = np.array(linear_part(psi).apply((vec[0], vec[1])), dtype=float)
    rhs = rotation_vector(pushforward(psi, mu), LiftedWord(conj))
    assert np.abs(lhs - rhs).max() < 1e-8


# --- invariance defect


def test_defect_identity_word():
    m = EmpiricalMeasure([(0.15, 0.85), (0.4, 0.3)], [0.5, 0.5])
    assert invariance_defect(G.identity(), m) == 0.0


def test_defect_half_translation_of_dirac():
    # worst function is cos 2 pi x: |cos(pi) - cos(0)| = 2
    d = invariance_defect(G.by_name("half"), EmpiricalMeasure.dirac((0.0, 0.0)))
    assert d == 2.0


def test_defect_irrational_translation_of_fine_grid():
    d = invariance_defect(G.by_name("irr"), EmpiricalMeasure.uniform_grid(256))
    assert d < 1e-2


# --- Birkhoff means


def test_birkhoff_identity():
    r = birkhoff_mean(LiftedWord(G.identity()), (0.3, 0.7), 100)
    assert r.mean == (0.0, 0.0)
    assert r.tail_spread == 0.0
    assert r.n == 100 and r.seed == (0.3, 0.7)


def test_birkhoff_translation_exact():
    # constant displacement: exact up to one rounding of (p+a)-p per step,
    # which the compensated summation caps at a single ulp overall
    for n in (7, 1234, 10 ** 4):
        r = birkhoff_mean(LiftedWord(G.by_name("irr")), (0.2, 0.9), n)
        assert abs(r.mean[0] - ALPHA) < 1e-15
        assert abs(r.mean[1] - 0.3) < 1e-15


def test_birkhoff_skew_equidistributes():
    r = birkhoff_mean(LiftedWord(G.by_name("skew")), (0.123, 0.456), 10 ** 5)
    assert math.hypot(r.mean[0] - ALPHA, r.mean[1] - 0.3) < 5e-3
    assert r.tail_spread < 5e-3


@pytest.mark.parametrize("cls", [MCGClass(2, 1, 1, 1), MCGClass(1, 1, 1, 0)])
def test_birkhoff_rejects_expanding_linear_part(cls):
    g = MapGroup([Generator("a", cls)]).by_name("a")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RotorError, match="means diverge"):
            birkhoff_mean(g, (0.3, 0.2), 2000)
        with pytest.raises(RotorError, match="means diverge"):
            estimate_rotation_set(g, [(0.3, 0.2)], 2000)


def test_hyperbolic_tail_mean_is_refused_without_warning():
    g = MapGroup([Generator("a", MCGClass(2, 1, 1, 1))]).by_name("a")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RotorError, match="means diverge"):
            orbit_mean_with_tail(g, (0.3, 0.2), 2000)


def test_birkhoff_rejects_bad_n():
    with pytest.raises(InvalidArgument):
        birkhoff_mean(LiftedWord(G.identity()), (0.0, 0.0), 0)
    with pytest.raises(InvalidArgument):
        estimate_rotation_set(LiftedWord(G.identity()), [(0.0, 0.0)], 0)


# --- rotation set estimates


def test_rotation_set_of_translation_is_a_point():
    est = estimate_rotation_set(LiftedWord(G.by_name("irr")),
                                [(0.1, 0.2), (0.7, 0.7), (0.3, 0.9)], 50)
    assert est.diameter() < 1e-12
    assert np.abs(est.hull[0] - (ALPHA, 0.3)).max() < 1e-12


def test_rotation_set_of_dehn_twist_is_a_segment():
    est = estimate_rotation_set(G.by_name("dehn").lift(), grid_seeds(64), 1000)
    seg = [(0.0, 0.0), (0.0, 1.0)]
    assert hausdorff_distance(est.hull, seg) < 2e-2


def test_rotation_set_of_circle_skew_contains_both_extremes():
    est = estimate_rotation_set(LiftedWord(G.by_name("circ")),
                                grid_seeds(16), 1000)
    assert point_to_hull_distance((0.0, 0.0), est.hull) < 2e-2
    assert point_to_hull_distance((0.0, 0.1), est.hull) < 2e-2


def test_hull_vertices_are_samples():
    est = estimate_rotation_set(LiftedWord(G.by_name("circ")),
                                grid_seeds(8), 100)
    pool = {(float(x), float(y)) for x, y in est.samples}
    for v in est.hull:
        assert (float(v[0]), float(v[1])) in pool


def test_adding_seeds_never_shrinks_the_hull():
    lw = LiftedWord(G.by_name("circ"))
    few = estimate_rotation_set(lw, grid_seeds(4), 200)
    more = estimate_rotation_set(lw, np.vstack([grid_seeds(4), grid_seeds(6)]),
                                 200)
    for v in few.hull:
        assert point_to_hull_distance(v, more.hull) <= 1e-12


def test_rotation_set_csv(tmp_path):
    est = estimate_rotation_set(LiftedWord(G.by_name("irr")), [(0.0, 0.0)], 10)
    path = tmp_path / "rs.csv"
    est.to_csv(path)
    rows = path.read_text().splitlines()
    assert rows[0] == "kind,x,y"
    kinds = {r.split(",")[0] for r in rows[1:]}
    assert kinds == {"sample", "hull"}


# --- Cesaro orbit measures


def test_krylov_identity_gives_dirac():
    mu = krylov_bogolyubov(G.identity(), (0.3, 0.7), 10, 1)
    assert mu.atoms == [((0.3, 0.7), 1.0)]
    assert invariance_defect(G.identity(), mu) == 0.0


def test_krylov_periodic_orbit():
    mu = krylov_bogolyubov(G.by_name("half"), (0.0, 0.0), 8, 4)
    assert mu.atoms == [((0.0, 0.0), 0.5), ((0.5, 0.0), 0.5)]
    assert invariance_defect(G.by_name("half"), mu) < 1e-12


def test_krylov_irrational_translation_near_invariant():
    mu = krylov_bogolyubov(G.by_name("irr"), (0.0, 0.0), 10 ** 5, 10 ** 5)
    assert invariance_defect(G.by_name("irr"), mu) < 1e-2


def test_krylov_rejects_bad_window():
    with pytest.raises(InvalidArgument):
        krylov_bogolyubov(G.identity(), (0.0, 0.0), 5, 6)
    with pytest.raises(InvalidArgument):
        krylov_bogolyubov(G.identity(), (0.0, 0.0), 5, 0)


# --- irrotational lifts


def test_irrotational_lift_of_identity():
    lw = irrotational_lift(G.identity(), [(0.1, 0.1)], 10, 1e-6)
    assert lw is not None
    assert lw.extra_translation == (0, 0)


def test_irrotational_lift_undoes_deck_translation():
    # rotation vector (2,-1) comes entirely from the constant displacement
    lw = irrotational_lift(G.by_name("shift"), [(0.1, 0.1), (0.6, 0.3)],
                           50, 1e-6)
    assert lw is not None
    assert lw.extra_translation == (-2, 1)


def test_irrotational_lift_spread_rotation_set_gives_none():
    assert irrotational_lift(G.by_name("circ"), grid_seeds(8), 200,
                             1e-3) is None


def test_irrotational_lift_requires_identity_linear_part():
    with pytest.raises(NotIsotopicToIdentity):
        irrotational_lift(G.by_name("dehn"), [(0.0, 0.0)], 10, 1e-6)
