import math
import warnings
from itertools import product

import numpy as np
import pytest

from rotor import _kernels
from rotor.catalog import build_catalog
from rotor.errors import (InvalidArgument, NewtonDivergence,
                          NotIsotopicToIdentity, RotorError)
from rotor.maps import (Generator, LiftedWord, MapGroup, apply_lift_batch,
                        apply_torus_batch, commutator, compose, compose_lift,
                        constant_term, displacement_field_batch, inverse,
                        inverse_lift, linear_part, orbit_displacement_means,
                        orbit_mean_with_tail, orbit_segment, reduce_batch,
                        reduce_point, trig_term)
from rotor.mcg import MCGClass

ID = MCGClass.identity()
ALPHA = math.sqrt(2.0) - 1.0


def build_group():
    gens = [
        Generator("skew", ID, disp_y=[trig_term(0.1, 1, 0)]),
        Generator("dehn", MCGClass(1, 0, 1, 1)),
        Generator("quarter", ID, disp_x=[constant_term(0.25)]),
        Generator("anosov", MCGClass(2, 1, 1, 1)),
        Generator("mix", ID,
                  disp_x=[trig_term(0.05, 1, 1)],
                  disp_y=[trig_term(0.03, 1, 0, phase=math.pi / 2)]),
        Generator("hmap", ID,
                  disp_x=[trig_term(0.05, 2, 0)],
                  disp_y=[trig_term(0.1, 1, 0)]),
        Generator("irr", ID, disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3)]),
    ]
    return MapGroup(gens)


G = build_group()


def rand_points(k, lo=-3.0, hi=3.0, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(k, 2))


# --- reduction


def test_reduce_canonical_interval():
    assert reduce_point((0.3, 0.7)) == (0.3, 0.7)
    assert reduce_point((1.0, -1.0)) == (0.0, 0.0)
    assert reduce_point((2.25, -0.75)) == (0.25, 0.25)


def test_reduce_snaps_near_integer():
    # values a hair under an integer must not surface as 0.999...
    x, y = reduce_point((1.0 - 1e-16, -1e-16))
    assert (x, y) == (0.0, 0.0)


def test_reduce_idempotent():
    pts = rand_points(50, -5, 5, seed=1)
    once = reduce_batch(pts)
    assert np.array_equal(reduce_batch(once), once)


# --- apply_lift examples


def test_apply_lift_identity():
    q = apply_lift_batch(LiftedWord(G.identity()), [(0.3, 0.7)])[0]
    assert tuple(q) == (0.3, 0.7)


def test_apply_lift_skew():
    # displacement 0.1*sin(2*pi*x) in y at x=1/4: sin(pi/2)=1
    q = apply_lift_batch(LiftedWord(G.by_name("skew")), [(0.25, 0.0)])[0]
    assert q[0] == 0.25
    assert abs(q[1] - 0.1) < 1e-15


def test_apply_lift_dehn_with_deck():
    lw = LiftedWord(G.by_name("dehn"), (1, 0))
    q = apply_lift_batch(lw, [(0.5, 0.5)])[0]
    assert tuple(q) == (1.5, 1.0)


# --- apply_torus examples


def test_apply_torus_identity():
    q = apply_torus_batch(G.identity(), [(0.9, 0.9)])[0]
    assert tuple(q) == (0.9, 0.9)


def test_apply_torus_wraps():
    q = apply_torus_batch(G.by_name("quarter"), [(0.9, 0.1)])[0]
    assert abs(q[0] - 0.15) < 1e-15 and q[1] == 0.1


def test_apply_torus_anosov():
    q = apply_torus_batch(G.by_name("anosov"), [(0.5, 0.5)])[0]
    assert tuple(q) == (0.5, 0.0)


# --- word algebra examples


def test_commutator_with_self_is_identity():
    a = G.by_name("skew")
    assert commutator(a, a).letters == ()


def test_inverse_reverses_and_flips():
    a, b = G.gen(0), G.gen(1)
    w = compose(a, inverse(b))
    assert inverse(w).letters == ((1, 1), (0, -1))


def test_compose_free_reduction():
    a, b = G.gen(0), G.gen(1)
    w = compose(a, compose(inverse(a), b))
    assert w.letters == ((1, 1),)


def test_word_from_string():
    w = G.word("dehn skew' dehn")
    assert w.letters == ((1, 1), (0, -1), (1, 1))


def test_word_from_string_reduces():
    assert G.word("skew skew'").letters == ()


def test_word_from_string_unknown_name():
    with pytest.raises(RotorError):
        G.word("skew nosuch")


@pytest.mark.parametrize("letters", [
    [(0.5, 1)],      # float index
    [("skew",)],     # one-element letter
    [(0, 1, 2)],     # three-element letter
    [("skew", 1)],   # name where an index belongs
    [None],          # not a pair at all
])
def test_malformed_letter_is_a_rotor_error(letters):
    with pytest.raises(RotorError):
        G.word(letters)


def test_unknown_generator_fails_alike_in_word_and_by_name():
    for name in ("nosuch", "Skew", "skew2", "ske"):
        with pytest.raises(RotorError) as by_name:
            G.by_name(name)
        with pytest.raises(RotorError) as word:
            G.word(name)
        assert type(by_name.value) is type(word.value) is RotorError
        assert str(by_name.value) == str(word.value)
        assert str(word.value) == "unknown generator %r in word" % name


# --- linear_part examples


def test_linear_part_empty_word():
    assert linear_part(G.identity()) == ID


def test_linear_part_dehn():
    assert linear_part(G.by_name("dehn")) == MCGClass(1, 0, 1, 1)


def test_linear_part_commutator_of_commuting():
    w = commutator(G.by_name("dehn"), G.by_name("skew"))
    assert linear_part(w) == ID


def test_linear_part_is_morphism():
    rng = np.random.default_rng(2)
    idx = rng.integers(0, len(G.generators), size=(20, 4))
    sgn = rng.choice([-1, 1], size=(20, 4))
    for i1, s1 in zip(idx[:10], sgn[:10]):
        for i2, s2 in zip(idx[10:], sgn[10:]):
            w1 = G.word([(int(a), int(s)) for a, s in zip(i1, s1)])
            w2 = G.word([(int(a), int(s)) for a, s in zip(i2, s2)])
            assert (linear_part(compose(w1, w2))
                    == linear_part(w1) * linear_part(w2))


def _uncached_linear_part(w):
    out = MCGClass.identity()
    for idx, sign in w.letters:
        a = w.group.generators[idx].linear
        out = out * (a if sign > 0 else a.inverse())
    return out


def test_memoised_linear_part_matches_the_product():
    cat = build_catalog()
    gens = [cat.gen(i) for i in range(len(cat.generators))]
    words = (gens + [inverse(g) for g in gens]
             + [commutator(a, b) for a in gens for b in gens])
    for w in words:
        assert linear_part(w) == _uncached_linear_part(w)
        # a word built afresh from the same letters reads the cache
        again = cat.word(list(w.letters))
        assert again is not w
        assert linear_part(again) is linear_part(w)


# --- displacement field examples


def test_displacement_identity():
    d = displacement_field_batch(LiftedWord(G.identity()), [(0.4, 0.8)])[0]
    assert tuple(d) == (0.0, 0.0)


def test_displacement_translation_constant():
    lw = LiftedWord(G.by_name("irr"))
    for p in [(0.0, 0.0), (0.77, 0.13), (0.5, 0.99)]:
        d = displacement_field_batch(lw, [p])[0]
        assert abs(d[0] - ALPHA) < 1e-15 and abs(d[1] - 0.3) < 1e-15


def test_displacement_on_vertical_circle():
    # (x + 0.05 sin4pix, y + 0.1 sin2pix) at x=1/4: sin(pi)=0, sin(pi/2)=1
    lw = LiftedWord(G.by_name("hmap"))
    d = displacement_field_batch(lw, [(0.25, 0.0)])[0]
    assert abs(d[0]) < 1e-12
    assert abs(d[1] - 0.1) < 1e-12


def test_displacement_rejects_nontrivial_linear_part():
    with pytest.raises(NotIsotopicToIdentity):
        displacement_field_batch(LiftedWord(G.by_name("dehn")), [(0.0, 0.0)])
    with pytest.raises(NotIsotopicToIdentity):
        displacement_field_batch(LiftedWord(G.by_name("anosov")),
                                 np.zeros((3, 2)))


# --- invariants


def words_under_test():
    out = []
    for i in range(len(G.generators)):
        out.append(G.gen(i))
        out.append(inverse(G.gen(i)))
    out.append(G.word([(0, 1), (4, -1), (2, 1)]))
    out.append(G.word([(3, 1), (1, -1), (5, 1)]))
    return out


def test_deck_equivariance():
    pts = rand_points(100, seed=3)
    for w in words_under_test():
        a = linear_part(w)
        base = apply_lift_batch(LiftedWord(w), pts)
        for vx, vy in product(range(-2, 3), repeat=2):
            lhs = apply_lift_batch(LiftedWord(w), pts + (vx, vy))
            img = a.apply((vx, vy))
            rhs = base + np.array(img, dtype=float)
            assert np.abs(lhs - rhs).max() < 1e-9


def test_lift_independence():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, size=(100, 2))
    for w in words_under_test():
        want = apply_torus_batch(w, pts)
        for v in [(1, 0), (-2, 3), (5, 5)]:
            lifted = apply_lift_batch(LiftedWord(w, v), pts)
            got = reduce_batch(lifted)
            # compare on the torus: wrap the coordinate-wise difference
            diff = np.abs(want - got)
            diff = np.minimum(diff, 1.0 - diff)
            assert diff.max() < 1e-9


def test_round_trip_inverse():
    pts = rand_points(100, seed=5)
    for w in words_under_test():
        back = apply_lift_batch(LiftedWord(inverse(w)),
                                apply_lift_batch(LiftedWord(w), pts))
        assert np.abs(back - pts).max() < 1e-10


def test_lift_composition_law():
    pts = rand_points(40, seed=6)
    l1 = LiftedWord(G.word([(0, 1), (1, 1)]), (1, -1))
    l2 = LiftedWord(G.word([(4, -1), (2, 1)]), (0, 2))
    lhs = apply_lift_batch(compose_lift(l1, l2), pts)
    rhs = apply_lift_batch(l1, apply_lift_batch(l2, pts))
    assert np.abs(lhs - rhs).max() < 1e-10


def test_lift_inverse_law():
    pts = rand_points(40, seed=7)
    lw = LiftedWord(G.word([(1, 1), (0, 1)]), (2, 1))
    back = apply_lift_batch(inverse_lift(lw), apply_lift_batch(lw, pts))
    assert np.abs(back - pts).max() < 1e-10


# --- generator certification and inversion


def test_contraction_margin_certifies():
    g = Generator("s", ID, disp_y=[trig_term(0.1, 1, 0)])
    # one term: |0.1| * 2pi * 1 produces margin 1 - 0.2pi
    assert abs(g.contraction_margin - (1.0 - 0.1 * 2 * math.pi)) < 1e-12
    assert g.certified


def test_linear_entries_bounded_by_float_precision():
    Generator("g", MCGClass(1, 2 ** 53, 0, 1))
    with pytest.raises(RotorError, match="2\\*\\*53"):
        Generator("g", MCGClass(1, -(2 ** 53 + 1), 0, 1))
    with pytest.raises(RotorError):
        Generator("g", MCGClass(1, 10 ** 400, 0, 1))


def test_uncertified_generator_is_flagged():
    g = Generator("big", ID, disp_y=[trig_term(0.5, 1, 1)])
    assert not g.certified
    assert g.contraction_margin <= 0.0


def test_constant_displacement_closed_form_inverse():
    g = Generator("t", ID, disp_x=[constant_term(0.3)],
                  disp_y=[constant_term(-0.2)])
    grp = MapGroup([g])
    pts = rand_points(20, seed=8)
    back = apply_lift_batch(grp.word("t'"),
                            apply_lift_batch(grp.word("t"), pts))
    assert np.abs(back - pts).max() < 1e-15


def test_newton_inverse_accuracy():
    # mix: trig in both rows, Newton-only inverse
    pts = rand_points(50, seed=9)
    back = apply_lift_batch(G.word("mix'"),
                            apply_lift_batch(G.word("mix"), pts))
    assert np.abs(back - pts).max() < 1e-10


def test_newton_inverse_is_pointwise():
    # a point's image must not depend on the batch it is evaluated in
    from rotor.catalog import build_catalog
    w = build_catalog().word("h'")
    pts = rand_points(64, seed=12)
    for batch in (pts[:4], pts):
        together = apply_lift_batch(w, batch)
        alone = np.vstack([apply_lift_batch(w, p[None, :]) for p in batch])
        assert np.array_equal(together, alone)


def test_trig_term_rejects_fractional_frequency():
    with pytest.raises(RotorError):
        trig_term(0.1, 0.5, 1)


# --- orbit helpers


def test_orbit_segment_matches_pointwise_iteration():
    w = G.word([(0, 1), (2, 1)])
    seg = orbit_segment(w, (0.2, 0.6), 8)
    p = (0.2, 0.6)
    for k in range(8):
        assert np.abs(np.array(p) - seg[k]).max() < 1e-12
        p = apply_torus_batch(w, [p])[0]


def test_orbit_segment_burn_is_a_shift():
    w = G.word([(0, 1), (2, 1)])
    full = orbit_segment(w, (0.35, 0.1), 20)
    tail = orbit_segment(w, (0.35, 0.1), 15, burn=5)
    assert np.array_equal(full[5:], tail)


def test_orbit_means_thread_count_is_invisible():
    w = G.word([(0, 1), (6, 1)])
    seeds = rand_points(37, 0, 1, seed=10)
    one = orbit_displacement_means(w, seeds, 500, 1)
    many = orbit_displacement_means(w, seeds, 500, 8)
    assert np.array_equal(one, many)


# wrong shapes that a reshape to (-1, 2) used to turn into other seeds
BAD_SEEDS = [[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], [0.1, 0.2, 0.3, 0.4],
             [[[0.1, 0.2]]], [], [[0.1, 0.2], [0.3]], 0.5, [["a", "b"]]]


@pytest.mark.parametrize("seeds", BAD_SEEDS)
def test_orbit_means_refuse_seeds_of_the_wrong_shape(seeds):
    w = G.word([(0, 1), (6, 1)])
    with pytest.raises(InvalidArgument):
        orbit_displacement_means(w, seeds, 10)


def test_orbit_means_take_a_lone_seed_pair():
    w = G.word([(0, 1), (6, 1)])
    one = orbit_displacement_means(w, (0.3, 0.7), 50)
    assert one.shape == (1, 2)
    assert one.tobytes() == orbit_displacement_means(w, [[0.3, 0.7]],
                                                     50).tobytes()


def test_invalid_argument_is_a_rotor_error_and_a_value_error():
    assert issubclass(InvalidArgument, RotorError)
    assert issubclass(InvalidArgument, ValueError)


def test_orbit_mean_tail_constant_translation():
    mean, spread = orbit_mean_with_tail(G.by_name("irr"), (0.1, 0.9), 1000)
    assert abs(mean[0] - ALPHA) < 1e-13 and abs(mean[1] - 0.3) < 1e-13
    assert spread < 1e-12


def test_plane_mode_mean_for_dehn():
    # lift (x, y+x): n-step mean displacement is exactly (0, x0)
    means = orbit_displacement_means(G.by_name("dehn"),
                                     np.array([[0.25, 0.4]]), 100)
    assert abs(means[0, 0]) < 1e-12
    assert abs(means[0, 1] - 0.25) < 1e-9


def test_newton_divergence_surfaces():
    # amplitude so large the absolute residual target is unreachable
    g = Generator("wild", ID, disp_y=[trig_term(1.0e8, 0, 1)])
    assert not g.certified
    with pytest.raises(NewtonDivergence):
        apply_lift_batch(MapGroup([g]).word("wild'"), np.array([[0.3, 0.3]]))


def test_failed_newton_mean_raises():
    # not a homeomorphism: some orbits of the inverse hit a Newton failure,
    # which must surface as an error rather than as NaN means, on the torus
    # and, composed with a Dehn twist, in the plane
    seeds = np.random.default_rng(0).random((64, 2))
    for cls in (ID, MCGClass(1, 0, 1, 1)):
        g = Generator("bad", cls, disp_x=[trig_term(0.3, 1, 0)],
                      disp_y=[trig_term(0.3, 0, 1)])
        w = MapGroup([g]).word("bad'")
        with pytest.raises(NewtonDivergence):
            orbit_displacement_means(w, seeds, 50)
        with pytest.raises(NewtonDivergence):
            orbit_displacement_means(w, seeds, 50, threads=2)


def test_tail_mean_matches_batch_mean_bitwise():
    # one mean loop per backend: both entry points return the same bits;
    # "anosov" is left out, both refuse it (see the test below)
    from rotor.catalog import build_catalog

    cat = build_catalog()
    words = [cat.by_name(g.name) for g in cat.generators
             if g.name != "anosov"]
    words += [cat.word("h' skew"), cat.word("dehn h'"), cat.word("phi tr")]
    for w in words:
        mean, _ = orbit_mean_with_tail(w, (0.3, 0.2), 2000)
        ref = orbit_displacement_means(w, [(0.3, 0.2)], 2000)[0]
        assert np.array_equal(np.array(mean), ref, equal_nan=True), w


@pytest.mark.parametrize("cls", [MCGClass(2, 1, 1, 1), MCGClass(1, 1, 1, 0)])
def test_plane_orbit_of_expanding_class_is_refused(cls, backends):
    # the plane orbit overflows: inf for the Anosov map, and NaN through
    # 0*inf for (x+y, x); neither may come back as a mean or a warning
    w = MapGroup([Generator("a", cls)]).by_name("a")
    seeds = [(0.3, 0.2), (0.7, 0.1)]
    for backend in backends:
        _kernels.set_backend(backend)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for threads in (1, 2):
                with pytest.raises(RotorError, match="means diverge"):
                    orbit_displacement_means(w, seeds, 2000, threads)
            with pytest.raises(RotorError, match="means diverge"):
                orbit_mean_with_tail(w, seeds[0], 2000)


def test_tail_mean_fails_like_batch_mean():
    g = Generator("bad", ID, disp_x=[trig_term(0.3, 1, 0)],
                  disp_y=[trig_term(0.3, 0, 1)])
    w = MapGroup([g]).word("bad'")
    failed = 0
    for seed in np.random.default_rng(0).random((8, 2)):
        try:
            ref = orbit_displacement_means(w, [seed], 50)[0]
        except NewtonDivergence:
            failed += 1
            with pytest.raises(NewtonDivergence):
                orbit_mean_with_tail(w, seed, 50)
        else:
            mean, _ = orbit_mean_with_tail(w, seed, 50)
            assert np.array_equal(np.array(mean), ref)
    assert 0 < failed < 8
