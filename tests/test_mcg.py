"""Exact GL(2,Z) algebra: spectral tags, closures, subgroup classification."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rotor.errors import NotNilpotent, NotUnimodular, RotorError
from rotor.mcg import (
    H_LIST,
    MCGClass,
    check_condition_star_star,
    classify_nilpotent,
    closure,
    finite_index_subgroup,
    has_nontrivial_unity_root,
    spectral_class,
    torsion_order,
)

ID = MCGClass.identity()
R4 = MCGClass(0, -1, 1, 0)          # order 4 rotation
R6 = MCGClass(1, -1, 1, 0)          # order 6
R3 = MCGClass(0, -1, 1, -1)         # order 3
FLIP = MCGClass(1, 0, 0, -1)
SWAP = MCGClass(0, 1, 1, 0)
DEHN = MCGClass(1, 0, 1, 1)
ANOSOV = MCGClass(2, 1, 1, 1)


def test_constructor_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        MCGClass(1, 0, 0, 0)
    with pytest.raises(NotUnimodular):
        MCGClass(2, 0, 0, 1)


def test_basic_algebra():
    assert ANOSOV * ANOSOV.inverse() == ID
    assert (DEHN * ANOSOV).inverse() == ANOSOV.inverse() * DEHN.inverse()
    assert ANOSOV ** 3 == ANOSOV * ANOSOV * ANOSOV
    assert ANOSOV ** -2 == (ANOSOV.inverse()) ** 2
    assert (-ID) * (-ID) == ID
    assert DEHN.apply((1, 0)) == (1, 1)


def test_spectral_examples():
    sc = spectral_class(R4)
    assert sc.tag == "complex_order4"
    assert sorted(e.imag for e in sc.eigenvalues) == [-1.0, 1.0]
    assert all(abs(e.real) < 1e-15 for e in sc.eigenvalues)

    assert spectral_class(DEHN).tag == "dehn_twist"

    sc = spectral_class(ANOSOV)
    assert sc.tag == "hyperbolic"
    # roots of x^2 - 3x + 1
    lams = sorted(e.real for e in sc.eigenvalues)
    assert abs(lams[1] - (3 + math.sqrt(5)) / 2) < 1e-12
    assert abs(lams[0] - (3 - math.sqrt(5)) / 2) < 1e-12

    assert spectral_class(ID).tag == "identity"
    assert spectral_class(-ID).tag == "minus_identity"
    assert spectral_class(R6).tag == "complex_order6"
    assert spectral_class(R3).tag == "complex_order3"
    assert spectral_class(-DEHN).tag == "eigen_minus1_parabolic"
    assert spectral_class(SWAP).tag == "reflection_det_minus1_tr0"
    assert spectral_class(MCGClass(1, 1, 1, 0)).tag == "other_real_split"


def test_unity_root_examples():
    assert not has_nontrivial_unity_root(ID)
    assert has_nontrivial_unity_root(-ID)
    assert has_nontrivial_unity_root(SWAP)
    assert not has_nontrivial_unity_root(DEHN)       # eigenvalue 1 only
    assert not has_nontrivial_unity_root(ANOSOV)
    assert has_nontrivial_unity_root(R3)


def test_torsion_orders():
    assert torsion_order(ID) == 1
    assert torsion_order(-ID) == 2
    assert torsion_order(R4) == 4
    assert torsion_order(R6) == 6
    assert torsion_order(R3) == 3
    assert torsion_order(DEHN) is None
    assert torsion_order(ANOSOV) is None


def test_closure_examples():
    g = closure([R4])
    assert g is not None and len(g) == 4

    h = closure([R4, FLIP])
    assert h is not None and len(h) == 8
    assert h == set(H_LIST)

    assert closure([ANOSOV]) is None


def test_finite_group_with_large_entries():
    # a conjugate of R4 whose entries pass 10^6: still cyclic of order 4
    X = MCGClass(1, 2000, 0, 1)
    g = X * R4 * X.inverse()
    assert g == MCGClass(2000, -4000001, 1, -2000)
    G = closure([g])
    assert G == {ID, g, -ID, -g}
    form = classify_nilpotent([g])
    assert (form.tag, form.order) == ("cyclic", 4)
    assert form.generator in (g, g.inverse())
    rep = check_condition_star_star([g])
    assert not rep.satisfied and rep.failure_form == "nontrivial_finite"
    fi = finite_index_subgroup([g])
    assert (fi.index, fi.quotient) == (4, "subset_of_D4")


def test_every_small_pair_closes_or_is_infinite():
    mats = [MCGClass(*m) for m in itertools.product(range(-2, 3), repeat=4)
            if m[0] * m[3] - m[1] * m[2] in (1, -1)]
    assert len(mats) == 104
    for g, h in itertools.product(mats, repeat=2):
        G = closure([g, h])
        if G is not None:
            assert len(G) <= 12 and {g, h} <= G
            assert all(x * y in G and x.inverse() in G for x in G for y in G)
        form = classify_nilpotent([g, h])
        assert form.tag != "undecided"
        if form.tag == "dihedral_H_conjugate":
            X = MCGClass(*form.conjugator[0], *form.conjugator[1])
            assert {X * x * X.inverse() for x in G} == set(H_LIST)


def test_classify_trivial_and_cyclic():
    assert classify_nilpotent([]).tag == "trivial"
    assert classify_nilpotent([ID]).tag == "trivial"

    form = classify_nilpotent([R4])
    assert form.tag == "cyclic"
    assert torsion_order(form.generator) == 4

    form = classify_nilpotent([DEHN])
    assert form.tag == "cyclic" and form.generator == DEHN

    form = classify_nilpotent([ANOSOV])
    assert form.tag == "cyclic" and form.generator == ANOSOV


def test_classify_pair_with_infinite_generator():
    form = classify_nilpotent([DEHN, -DEHN])
    assert form.tag == "pair"
    assert form.generator in (DEHN, -DEHN)


def test_classify_dihedral_pattern_itself():
    form = classify_nilpotent([R4, SWAP])
    assert form.tag == "dihedral_H_conjugate"
    assert form.conjugator is not None


def _conjugate_set(X, group):
    # independent check over exact rationals
    (x1, x2), (x3, x4) = X
    det = Fraction(x1 * x4 - x2 * x3)
    assert det != 0
    xinv = ((x4 / det, Fraction(-x2) / det), (Fraction(-x3) / det, x1 / det))
    out = set()
    for g in group:
        (a, b), (c, d) = g.rows
        p = ((x1 * a + x2 * c, x1 * b + x2 * d), (x3 * a + x4 * c, x3 * b + x4 * d))
        q11 = p[0][0] * xinv[0][0] + p[0][1] * xinv[1][0]
        q12 = p[0][0] * xinv[0][1] + p[0][1] * xinv[1][1]
        q21 = p[1][0] * xinv[0][0] + p[1][1] * xinv[1][0]
        q22 = p[1][0] * xinv[0][1] + p[1][1] * xinv[1][1]
        assert all(v.denominator == 1 for v in (q11, q12, q21, q22))
        out.add(MCGClass(int(q11), int(q12), int(q21), int(q22)))
    return out


def test_classify_dihedral_conjugated_copy():
    m = MCGClass(1, 1, 0, 1)
    gens = [m * R4 * m.inverse(), m * SWAP * m.inverse()]
    form = classify_nilpotent(gens)
    assert form.tag == "dihedral_H_conjugate"
    group = closure(gens)
    assert len(group) == 8
    assert _conjugate_set(form.conjugator, group) == set(H_LIST)


def test_classify_klein_four():
    form = classify_nilpotent([FLIP, -FLIP])
    assert form.tag == "pair"
    assert form.order == 4


def test_classify_not_nilpotent_finite():
    # order-6 dihedral group: rotation by 120 degrees plus a swap
    form = classify_nilpotent([R3, SWAP])
    assert form.tag == "not_nilpotent"
    assert form.order == 6
    chain = form.commutator_chain
    assert chain
    for i, (a, x, c) in enumerate(chain):
        assert a.commutator(x) == c
        assert not c.is_identity()
        assert chain[(i + 1) % len(chain)][1] == c  # the cycle closes


def test_classify_not_nilpotent_order_12():
    form = classify_nilpotent([R6, SWAP])
    assert form.tag == "not_nilpotent"
    assert form.order == 12


def test_classify_not_nilpotent_infinite():
    up = MCGClass(1, 1, 0, 1)
    form = classify_nilpotent([up, DEHN])
    assert form.tag == "not_nilpotent"
    (a, x, c) = form.commutator_chain[0]
    assert a.commutator(x) == c and not c.is_identity()


def test_classify_exponent_reduction_hyperbolic():
    form = classify_nilpotent([ANOSOV ** 3, ANOSOV ** 5])
    assert form.tag == "cyclic"
    assert form.generator in (ANOSOV, ANOSOV.inverse())


def test_classify_exponent_reduction_det_minus_one():
    b = MCGClass(1, 1, 1, 0)
    form = classify_nilpotent([b ** 2, b ** 3])
    assert form.tag == "cyclic"
    assert form.generator in (b, b.inverse())


def test_classify_parabolic_family():
    g1 = MCGClass(1, 0, 2, 1)
    g2 = -MCGClass(1, 0, 3, 1)
    form = classify_nilpotent([g1, g2])
    assert form.tag == "cyclic"
    n = form.generator
    assert n == -MCGClass(1, 0, 1, 1) or n == -MCGClass(1, 0, -1, 1)
    assert n ** 2 == g1 or n ** -2 == g1


def test_classify_anosov_with_minus_id():
    form = classify_nilpotent([ANOSOV, -ID])
    assert form.tag == "pair"
    assert form.generator in (ANOSOV, ANOSOV.inverse())


def test_classify_large_powers_exactly():
    big = ANOSOV ** 400
    form = classify_nilpotent([big])
    assert (form.tag, form.generator) == ("cyclic", big)
    form = classify_nilpotent([ANOSOV ** 144, ANOSOV ** 233])
    assert (form.tag, form.generator) == ("cyclic", ANOSOV)
    assert finite_index_subgroup([big]).index == 1
    # exponents near 2**53 fold in a few hundred moves, not 2**53
    form = classify_nilpotent([DEHN ** (2 ** 53 - 1), -(DEHN ** 3)])
    assert (form.tag, form.generator) == ("pair", DEHN)


def test_spectral_class_overflow_is_rotor_error():
    with pytest.raises(RotorError):
        spectral_class(ANOSOV ** 400)
    # a huge twist still has the eigenvalues 1, 1
    assert spectral_class(DEHN ** (10 ** 400)).tag == "dehn_twist"


def test_star_star_examples():
    rep = check_condition_star_star([ID])
    assert rep.satisfied and rep.witness_S == ()

    rep = check_condition_star_star([-ID])
    assert not rep.satisfied and rep.failure_form == "nontrivial_finite"

    rep = check_condition_star_star([ANOSOV, -ID])
    assert rep.satisfied
    assert set(rep.witness_S) == {ANOSOV, -ANOSOV} or \
        set(rep.witness_S) == {ANOSOV.inverse(), -(ANOSOV.inverse())}


def test_star_star_dehn_families():
    assert check_condition_star_star([DEHN]).satisfied
    rep = check_condition_star_star([-DEHN])
    assert not rep.satisfied and rep.failure_form == "minus_dehn"
    rep = check_condition_star_star([DEHN, -ID])
    assert not rep.satisfied and rep.failure_form == "dehn_with_minus_id"
    rep = check_condition_star_star([R4])
    assert not rep.satisfied and rep.failure_form == "nontrivial_finite"


def test_star_star_witnesses_pass_elementwise_check():
    for gens in ([ID], [DEHN], [ANOSOV], [ANOSOV, -ID],
                 [MCGClass(1, 1, 1, 0)], [ANOSOV ** 2, ANOSOV ** 3]):
        rep = check_condition_star_star(gens)
        assert rep.satisfied
        for w in rep.witness_S:
            assert not has_nontrivial_unity_root(w)


def test_star_star_raises_on_non_nilpotent():
    with pytest.raises(NotNilpotent):
        check_condition_star_star([R3, SWAP])
    with pytest.raises(NotNilpotent):
        check_condition_star_star([MCGClass(1, 1, 0, 1), DEHN])


def test_star_star_carries_its_form():
    for gens in ([ID], [-ID], [R4, SWAP], [DEHN], [-DEHN], [DEHN, -ID],
                 [ANOSOV, -ID], [ANOSOV ** 3, ANOSOV ** 5]):
        assert check_condition_star_star(gens).form == classify_nilpotent(gens)


def test_finite_index_examples():
    rep = finite_index_subgroup([ID])
    assert rep.index == 1

    rep = finite_index_subgroup([-DEHN])
    assert rep.index == 2
    assert rep.subgroup_generators == (DEHN ** 2,)

    rep = finite_index_subgroup([R4])
    assert rep.index == 4
    assert rep.quotient == "subset_of_D4"
    assert rep.subgroup_generators == (ID,)


def test_finite_index_more_forms():
    rep = finite_index_subgroup([DEHN, -ID])
    assert rep.index == 2 and rep.subgroup_generators == (DEHN,)

    assert finite_index_subgroup([R6]).index == 6
    assert finite_index_subgroup([R6]).quotient == "subset_of_C6"
    assert finite_index_subgroup([R3]).index == 3
    assert finite_index_subgroup([-ID]).index == 2
    assert finite_index_subgroup([FLIP, -FLIP]).index == 4
    assert finite_index_subgroup([FLIP, -FLIP]).quotient == "subset_of_D4"

    rep = finite_index_subgroup([R4, SWAP])
    assert rep.index == 8 and rep.quotient == "subset_of_D4"

    assert finite_index_subgroup([ANOSOV]).index == 1
    for gens in ([ID], [DEHN], [ANOSOV], [-DEHN], [DEHN, -ID], [R4], [R6],
                 [R3], [-ID], [FLIP, -FLIP], [R4, SWAP], [ANOSOV, -ID]):
        assert finite_index_subgroup(gens).index in (1, 2, 3, 4, 6, 8)


def test_every_h_pair_classifies_nilpotent():
    hs = list(H_LIST)
    for i in range(len(hs)):
        for j in range(i, len(hs)):
            form = classify_nilpotent([hs[i], hs[j]])
            assert form.tag in ("trivial", "cyclic", "pair", "dihedral_H_conjugate")


def _unimodular_range(bound):
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if abs(a * d - b * c) == 1:
                        yield MCGClass(a, b, c, d)


def _float_eigs(m):
    # direct eigenvalue computation: the quadratic formula in floats.  Exact
    # for repeated roots (integer discriminant 0), unlike iterative solvers.
    t = float(m.trace)
    disc = t * t - 4.0 * float(m.det)
    if disc >= 0.0:
        s = math.sqrt(disc)
        return (complex((t + s) / 2), complex((t - s) / 2)), disc
    s = math.sqrt(-disc)
    return (complex(t / 2, s / 2), complex(t / 2, -s / 2)), disc


_UNIT_TAGS = ("identity", "minus_identity", "complex_order4", "complex_order6",
              "complex_order3", "dehn_twist", "eigen_minus1_parabolic",
              "reflection_det_minus1_tr0")


def test_spectral_tags_against_float_eigenvalues_small_range():
    # smoke version over entries in [-3,3]; the full [-10,10] sweep runs in
    # the acceptance suite
    import numpy as np

    for m in _unimodular_range(3):
        sc = spectral_class(m)
        lams, disc = _float_eigs(m)
        moduli = sorted(abs(e) for e in lams)
        if sc.tag in _UNIT_TAGS:
            assert all(abs(mu - 1.0) < 1e-9 for mu in moduli)
        else:
            assert moduli[0] < 1.0 - 1e-9 and moduli[1] > 1.0 + 1e-9
        got = sorted((e.real, e.imag) for e in sc.eigenvalues)
        want = sorted((e.real, e.imag) for e in lams)
        for g, w in zip(got, want):
            assert abs(g[0] - w[0]) < 1e-9 and abs(g[1] - w[1]) < 1e-9
        # iterative solver cross-check: simple eigenvalues are well
        # conditioned; a repeated root can only be located to sqrt(eps)
        npl = sorted(np.linalg.eigvals(np.array(m.rows, dtype=float)),
                     key=lambda e: (e.real, e.imag))
        tol = 1e-9 if disc != 0.0 else 1e-6
        for g, w in zip(sorted(lams, key=lambda e: (e.real, e.imag)), npl):
            assert abs(g - w) < tol


def test_unity_root_against_direct_eigenvalue_test_small_range():
    for m in _unimodular_range(3):
        lams, _ = _float_eigs(m)
        direct = False
        for lam in lams:
            if abs(lam - 1.0) <= 1e-9:
                continue  # the trivial root
            if any(abs(lam ** k - 1.0) < 1e-9 for k in range(2, 7)):
                direct = True
        assert has_nontrivial_unity_root(m) == direct


def test_finite_orders_in_crystallographic_set_small_range():
    for m in _unimodular_range(3):
        k = torsion_order(m)
        if k is not None:
            assert k in (1, 2, 3, 4, 6)
            assert m ** k == ID
            for j in range(1, k):
                assert m ** j != ID


_LETTERS = {
    "S": MCGClass(0, -1, 1, 0),
    "s": MCGClass(0, 1, -1, 0),
    "T": MCGClass(1, 1, 0, 1),
    "t": MCGClass(1, -1, 0, 1),
    "F": FLIP,
}


def _word(letters):
    m = ID
    for ch in letters:
        m = m * _LETTERS[ch]
    return m


@given(st.lists(st.sampled_from("SsTtF"), max_size=10))
def test_inverse_and_det_under_words(letters):
    m = _word(letters)
    assert m * m.inverse() == ID
    assert m.inverse() * m == ID
    assert abs(m.det) == 1


@given(st.lists(st.sampled_from("SsTtF"), max_size=8),
       st.lists(st.sampled_from("SsTt"), min_size=1, max_size=8))
def test_spectral_tag_conjugation_invariant(letters, conj_letters):
    m = _word(letters)
    p = _word(conj_letters)
    conj = p * m * p.inverse()
    assert spectral_class(conj).tag == spectral_class(m).tag
    assert torsion_order(conj) == torsion_order(m)
    assert has_nontrivial_unity_root(conj) == has_nontrivial_unity_root(m)


@given(st.lists(st.sampled_from("SsTtF"), max_size=8))
def test_single_generator_closure_matches_torsion(letters):
    m = _word(letters)
    k = torsion_order(m)
    g = closure([m])
    if k is None:
        assert g is None
    else:
        assert g is not None and len(g) == k


_INFINITE = [m for m in _unimodular_range(3) if torsion_order(m) is None]
_CONJUGATORS = list(_unimodular_range(2))


def _signed_entries(m):
    s = 1 if m.trace > 0 else -1
    return (s * m.a, s * m.b, s * m.c, s * m.d)


def _documented_generator(n, pair):
    # the normal form stated in classify_nilpotent
    cands = [n, n.inverse()]
    if pair:
        cands = [m if m.trace > 0 else -m for m in cands]
    return max(cands, key=_signed_entries)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_INFINITE), st.sampled_from(_CONJUGATORS),
       st.lists(st.tuples(st.integers(-12, 12), st.booleans()),
                min_size=1, max_size=4).filter(lambda p: any(e for e, _ in p)),
       st.booleans(), st.randoms())
def test_infinite_family_forms(b, x, powers, with_minus_id, rnd):
    xi = x.inverse()
    gens = [x * (-(b ** e) if neg else b ** e) * xi for e, neg in powers]
    if with_minus_id:
        gens.append(-ID)
    # inside {+-b^k} the group is <+-b^g>, g = gcd of the exponents; it
    # misses -Id exactly when one sign s fits every generator: neg_i equals
    # s * (e_i / g) mod 2
    g = math.gcd(*(e for e, _ in powers))
    fits = [s for s in (0, 1)
            if all(neg == bool(s * (e // g) % 2) for e, neg in powers)]
    pair = with_minus_id or not fits
    n = -(b ** g) if not pair and fits[0] else b ** g
    form = classify_nilpotent(gens)
    assert form.tag == ("pair" if pair else "cyclic")
    assert form.order is None
    assert form.generator == _documented_generator(x * n * xi, pair)
    shuffled = gens + [rnd.choice(gens)]
    rnd.shuffle(shuffled)
    again = classify_nilpotent(shuffled)
    assert (again.tag, again.generator) == (form.tag, form.generator)


# (generators, tag, order): C2 twice, C3, C4, C6, the Klein four-group twice,
# D3 twice, D4 and D6, covering every finite shape of GL(2,Z)
_FINITE_SHAPES = [
    ([-ID], "cyclic", 2), ([FLIP], "cyclic", 2), ([R3], "cyclic", 3),
    ([R4], "cyclic", 4), ([R6], "cyclic", 6),
    ([FLIP, -FLIP], "pair", 4), ([SWAP, -SWAP], "pair", 4),
    ([R3, SWAP], "not_nilpotent", 6), ([R3, -SWAP], "not_nilpotent", 6),
    ([R4, SWAP], "dihedral_H_conjugate", 8), ([R6, SWAP], "not_nilpotent", 12),
]


def _elementary_product(steps):
    # each step (lower, k): a shear by k in the lower or upper corner, or,
    # for k = 0, the sign flip diag(1, -1)
    X = ID
    for lower, k in steps:
        if k == 0:
            X = X * FLIP
        else:
            X = X * (MCGClass(1, 0, k, 1) if lower else MCGClass(1, k, 0, 1))
    return X


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FINITE_SHAPES),
       # a uniform length, so most products have entries past 10**20
       st.integers(0, 200).flatmap(lambda n: st.lists(
           st.tuples(st.booleans(), st.integers(-9, 9)), min_size=n, max_size=n)))
@example(_FINITE_SHAPES[9], [(i % 2 == 0, 9) for i in range(200)])
@example(_FINITE_SHAPES[10], [(i % 2 == 0, -7) for i in range(120)])
def test_finite_shapes_survive_large_conjugation(shape, steps):
    base, tag, order = shape
    X = _elementary_product(steps)
    xi = X.inverse()
    gens = [X * g * xi for g in base]
    form = classify_nilpotent(gens)
    assert (form.tag, form.order) == (tag, order)
    if tag == "dihedral_H_conjugate":
        Y = MCGClass(*form.conjugator[0], *form.conjugator[1])  # unimodular
        assert {Y * g * Y.inverse() for g in closure(gens)} == set(H_LIST)
    if tag == "not_nilpotent":
        chain = form.commutator_chain
        for i, (a, x, c) in enumerate(chain):
            assert a.commutator(x) == c and not c.is_identity()
            assert chain[(i + 1) % len(chain)][1] == c

