"""Exact algebra on GL(2,Z): spectral classes, closures, nilpotent subgroup forms.

All decisions are made in integer arithmetic.  Floating point shows up only
in the eigenvalues that spectral_class attaches to its exact tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidArgument, NotNilpotent, NotUnimodular, RotorError

__all__ = [
    "MCGClass",
    "SpectralClass",
    "SubgroupForm",
    "StarStarReport",
    "FiniteIndexReport",
    "spectral_class",
    "has_nontrivial_unity_root",
    "torsion_order",
    "closure",
    "classify_nilpotent",
    "check_condition_star_star",
    "finite_index_subgroup",
]


def _check_kind(value, kind, what: str):
    # the one type check of words, lifts, classes, generators and measures:
    # a string, a number or None would leak AttributeError from deep inside
    if not isinstance(value, kind):
        raise InvalidArgument("%s expects %s, not %r"
                              % (what, kind.__name__, value))
    return value


def _check_integral(value, message: str) -> int:
    # the one check of class entries, frequencies and deck translations:
    # 2.0 passes, as the scenario parser reads numbers as floats; NaN, inf,
    # None, strings and fractions raise
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidArgument(message)


class MCGClass:
    """Integer 2x2 matrix with determinant +1 or -1, acting on column vectors.

    Entries are Python ints, so products of any size stay exact; an entry
    that is not integral raises InvalidArgument.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        # ints first: products in closure and criterion 1 skip the check
        if not type(a) is type(b) is type(c) is type(d) is int:
            a, b, c, d = (_check_integral(v, "class entries must be integers")
                          for v in (a, b, c, d))
        if a * d - b * c not in (1, -1):
            raise NotUnimodular("det = %d" % (a * d - b * c))
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def identity(cls) -> "MCGClass":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def is_pm_identity(self) -> bool:
        t = (self.a, self.b, self.c, self.d)
        return t == (1, 0, 0, 1) or t == (-1, 0, 0, -1)

    def __mul__(self, other: "MCGClass") -> "MCGClass":
        _check_kind(other, MCGClass, "a class product")
        return MCGClass(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MCGClass":
        s = self.det  # +-1, so the adjugate over det stays integral
        return MCGClass(s * self.d, -s * self.b, -s * self.c, s * self.a)

    def __pow__(self, n: int) -> "MCGClass":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = MCGClass.identity()
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self) -> "MCGClass":
        return MCGClass(-self.a, -self.b, -self.c, -self.d)

    def commutator(self, other: "MCGClass") -> "MCGClass":
        return self * other * self.inverse() * other.inverse()

    def apply(self, v):
        """Image of a 2-vector (any numeric type) under the matrix."""
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MCGClass):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return "MCGClass(%d, %d, %d, %d)" % (self.a, self.b, self.c, self.d)


_ID = MCGClass.identity()
_MINUS_ID = -_ID

# The eight-element dihedral pattern: +-Id, +-diag(1,-1), the order-4 rotation
# and its negative, and the two off-diagonal reflections.
H_LIST = (
    MCGClass(1, 0, 0, 1),
    MCGClass(-1, 0, 0, -1),
    MCGClass(1, 0, 0, -1),
    MCGClass(-1, 0, 0, 1),
    MCGClass(0, -1, 1, 0),
    MCGClass(0, 1, -1, 0),
    MCGClass(0, 1, 1, 0),
    MCGClass(0, -1, -1, 0),
)


@dataclass(frozen=True)
class SpectralClass:
    tag: str
    eigenvalues: tuple


@dataclass(frozen=True)
class SubgroupForm:
    """Shape of the subgroup generated by a finite set of classes.

    tag is one of trivial / cyclic / pair / dihedral_H_conjugate /
    not_nilpotent.  generator carries N for the cyclic and pair forms,
    conjugator the rows of the unimodular matrix X with X G X^-1 equal to
    the H pattern, commutator_chain a list of (a, x, [a,x]) triples
    certifying a non-vanishing iterated commutator.  order is the group
    size when the closure is finite, None when infinite.
    """

    tag: str
    generator: Optional[MCGClass] = None
    conjugator: Optional[tuple] = None
    commutator_chain: Optional[tuple] = None
    order: Optional[int] = None


@dataclass(frozen=True)
class StarStarReport:
    """The averaging-witness decision and the SubgroupForm it came from."""

    satisfied: bool
    witness_S: Optional[tuple]
    failure_form: Optional[str]
    form: SubgroupForm


@dataclass(frozen=True)
class FiniteIndexReport:
    subgroup_generators: tuple
    index: int
    quotient: str
    description: str


def spectral_class(A: MCGClass) -> SpectralClass:
    """Exact (trace, det) tag plus float eigenvalues; RotorError on overflow."""
    _check_kind(A, MCGClass, "spectral_class")
    t, d = A.trace, A.det
    disc = t * t - 4 * d
    try:
        if disc >= 0:
            s = math.sqrt(disc)
            eig = (complex((t + s) / 2.0), complex((t - s) / 2.0))
        else:
            s = math.sqrt(-disc)
            eig = (complex(t / 2.0, s / 2.0), complex(t / 2.0, -s / 2.0))
    except OverflowError:
        raise RotorError("eigenvalues of %r overflow a float" % (A,))
    if d == 1:
        if A.is_identity():
            return SpectralClass("identity", eig)
        if A == _MINUS_ID:
            return SpectralClass("minus_identity", eig)
        if t == 0:
            return SpectralClass("complex_order4", eig)
        if t == 1:
            return SpectralClass("complex_order6", eig)
        if t == -1:
            return SpectralClass("complex_order3", eig)
        if t == 2:
            return SpectralClass("dehn_twist", eig)
        if t == -2:
            return SpectralClass("eigen_minus1_parabolic", eig)
        return SpectralClass("hyperbolic", eig)
    # det = -1: eigenvalues are real with product -1
    if t == 0:
        return SpectralClass("reflection_det_minus1_tr0", eig)
    return SpectralClass("other_real_split", eig)


def has_nontrivial_unity_root(A: MCGClass) -> bool:
    """True iff some eigenvalue is a root of unity other than 1.

    Exact dichotomy: det 1 with trace in {-2,-1,0,1}, or det -1 with trace 0.
    """
    t, d = A.trace, A.det
    return (d == 1 and t in (-2, -1, 0, 1)) or (d == -1 and t == 0)


def torsion_order(A: MCGClass) -> Optional[int]:
    """Smallest k >= 1 with A^k = Id, or None for infinite order.

    Finite orders in GL(2,Z) lie in {1,2,3,4,6} (crystallographic restriction),
    so powering up to 6 decides the question.
    """
    _check_kind(A, MCGClass, "torsion_order")
    p = _ID
    for k in range(1, 7):
        p = p * A
        if p.is_identity():
            return k
    return None


def closure(gens):
    """Breadth-first closure under products and inverses.

    Returns the set of elements of the generated group when it is finite,
    else None.  Every finite subgroup of GL(2,Z) has at most 12 elements: it
    is conjugate into the dihedral group of order 8 or 12 (crystallographic
    restriction; Newman, Integral Matrices, 1972).  So the search stops with
    None once it holds 13 elements, and that answer is exact.
    """
    step = []
    for g in gens:
        step.append(_check_kind(g, MCGClass, "closure"))
        step.append(g.inverse())
    seen = {_ID}
    frontier = [_ID]
    while frontier:
        nxt = []
        for x in frontier:
            for s in step:
                y = x * s
                if y not in seen:
                    if len(seen) == 12:
                        return None
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def _sort_key(A: MCGClass):
    return (A.a, A.b, A.c, A.d)


# ---------------------------------------------------------------------------
# finite branch


def _finite_form(G):
    # The finite subgroups of GL(2,Z) (Newman, Integral Matrices, 1972) are,
    # up to isomorphism: the cyclic C1, C2, C3, C4, C6; the Klein four-group,
    # which is {+-Id, +-s} for a reflection s; and the dihedral D3, D4, D6 of
    # orders 6, 8 and 12.  The tests below take them in that order, so only
    # D3 and D6 reach the last line, and neither is nilpotent.
    n = len(G)
    elems = sorted(G, key=_sort_key)
    if n == 1:
        return SubgroupForm("trivial", order=1)
    for g in elems:
        if torsion_order(g) == n:
            return SubgroupForm("cyclic", generator=g, order=n)
    if _MINUS_ID in G:
        for g in elems:
            if g.is_pm_identity():
                continue
            if closure([g, -g]) == G:
                return SubgroupForm("pair", generator=g, order=n)
    if n == 8:
        return SubgroupForm("dihedral_H_conjugate",
                            conjugator=_conjugator_onto_H(elems), order=n)
    return SubgroupForm("not_nilpotent", commutator_chain=_commutator_cycle(elems),
                        order=n)


def _commutator_cycle(elems):
    """Cycle of (a, x, [a,x]) triples in a dihedral group of order 6 or 12.

    The lower central series of such a group stalls at its order-3 rotation
    subgroup, which no reflection centralizes.  So every order-3 node has a
    nontrivial commutator, again of order 3 (the subgroup is normal), and the
    walk along first commutators closes a cycle: each commutator is the x of
    the next triple and none is the identity, so iterated commutators of
    every weight stay nontrivial.
    """
    nodes = [g for g in elems if torsion_order(g) == 3]
    edges = {}
    for x in nodes:
        for a in elems:
            c = a.commutator(x)
            if not c.is_identity():
                edges[x] = (a, c)
                break
    path, seen_at = [], {}
    x = nodes[0]
    while x not in seen_at:
        seen_at[x] = len(path)
        a, c = edges[x]
        path.append((a, x, c))
        x = c
    return tuple(path[seen_at[x]:])


def _conjugator_onto_H(elems):
    """Unimodular X, as rows, with X G X^-1 equal (as a set) to H_LIST.

    G is dihedral of order 8, so it holds an order-4 class r = (a b; c d)
    with r^2 = -Id.  det[v, rv] is the definite form c x^2 + (d-a) xy - b y^2
    of discriminant -4; Lagrange reduction, tracked by a unimodular basis M,
    ends at a form with |x^2 coefficient| = 1, so v = M e1 has
    det[v, rv] = +-1.  Then Y = [v | rv] is unimodular with Y^-1 r Y =
    R = (0 -1; 1 0), and X = Y^-1 maps G into the normalizer of <R> in
    GL(2,Z), which is H.  The orders agree, so X G X^-1 = H.
    """
    r = next(g for g in elems if torsion_order(g) == 4)
    A, B, C = r.c, r.d - r.a, -r.b
    M = _ID
    while True:
        # x -> x - k y: the second basis vector becomes m2 - k m1, |B| <= |A|
        k = (B + A) // (2 * A)
        B, C = B - 2 * k * A, A * k * k - B * k + C
        M = M * MCGClass(1, -k, 0, 1)
        if abs(A) <= abs(C):
            break
        # (m1, m2) -> (m2, -m1)
        A, B, C = C, -B, A
        M = M * MCGClass(0, -1, 1, 0)
    v = (M.a, M.c)
    rv = r.apply(v)
    return MCGClass(v[0], rv[0], v[1], rv[1]).inverse().rows


# ---------------------------------------------------------------------------
# infinite branch


def _size(A: MCGClass):
    """Grows strictly with |k| along a family +-e^k of infinite order:
    |trace| = r^k +- r^-k with r >= golden ratio for hyperbolic e; trace +-2
    and the largest entry growing linearly for parabolic e."""
    return (abs(A.trace), max(abs(A.a), abs(A.b), abs(A.c), abs(A.d)))


def _infinite_form(gens):
    gens = [g for g in gens if not g.is_identity()]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = gens[i].commutator(gens[j])
            if not c.is_identity():
                chain = ((gens[i], gens[j], c),)
                return SubgroupForm("not_nilpotent", commutator_chain=chain)
    # the generators commute and the closure is infinite, so they lie in one
    # family +-e^k (the centralizer of an infinite-order class) where only
    # -Id has finite order.  Euclid on the exponents, run on the matrices:
    # fold each g into the running generator N by Nielsen moves
    # g -> g N^(+-2^i), which keep the group and halve the exponent of g
    N = next(g for g in gens if not g.is_pm_identity())
    minus = False
    for g in gens:
        while not g.is_pm_identity():
            if _size(g) < _size(N):
                g, N = N, g
            P, Q = N, N * N
            while _size(Q) <= _size(g):
                P, Q = Q, Q * Q
            g = min(g * P.inverse(), g * P,
                    key=lambda h: (not h.is_pm_identity(), _size(h)))
        minus = minus or g == _MINUS_ID
    # the normal form that classify_nilpotent states
    N = max((N, N.inverse()),
            key=lambda M: _sort_key(M if M.trace > 0 else -M))
    if minus and N.trace < 0:
        N = -N
    return SubgroupForm("pair" if minus else "cyclic", generator=N)


def classify_nilpotent(gens) -> SubgroupForm:
    """Match the generated subgroup against the classified nilpotent shapes.

    Finite closures are matched directly (trivial, cyclic, pair, the
    8-element dihedral pattern up to GL(2,Z) conjugacy); the dihedral groups
    of order 6 and 12 are left, and a commutator cycle certifies that they
    are not nilpotent.  Infinite groups are decided
    structurally: the only infinite nilpotent subgroups are <N> and <N,-N>,
    so a non-commuting generator pair already certifies not_nilpotent, and
    an exact Euclid on the matrices finds N otherwise.

    The generator of an infinite form depends only on the group.  For
    cyclic <N> it is whichever of N and N^-1 has the lexicographically
    larger entries once multiplied by the sign of its trace; for the pair
    <N, -Id> it is the larger of the trace-positive versions of N and N^-1.
    """
    gens = list(gens)
    G = closure(gens)
    if G is not None:
        return _finite_form(G)
    return _infinite_form(gens)


def check_condition_star_star(gens) -> StarStarReport:
    """Decide whether the linear-part group admits the averaging witness.

    Satisfied exactly for {Id}, a Dehn-twist cyclic group, or <A> / <A,-A>
    with A free of modulus-1 eigenvalues; the witness generators follow the
    n=1 / n=2 recipe.  Failures are tagged nontrivial_finite, minus_dehn
    (the <-D> form) or dehn_with_minus_id (the <D,-Id> form).
    """
    form = classify_nilpotent(gens)
    if form.tag == "not_nilpotent":
        raise NotNilpotent("generated group is not nilpotent")
    if form.tag == "trivial":
        return StarStarReport(True, (), None, form)
    if form.order is not None:
        return StarStarReport(False, None, "nontrivial_finite", form)
    # infinite: N has no modulus-1 eigenvalue unless it is +-(a Dehn twist)
    N = form.generator
    parabolic = N.det == 1 and abs(N.trace) == 2
    if form.tag == "cyclic":
        if parabolic and N.trace == -2:
            return StarStarReport(False, None, "minus_dehn", form)
        return StarStarReport(True, (N,), None, form)
    if parabolic:
        return StarStarReport(False, None, "dehn_with_minus_id", form)
    return StarStarReport(True, (N, -N), None, form)


def finite_index_subgroup(gens) -> FiniteIndexReport:
    """Largest classified subgroup on which the averaging scheme applies.

    Index 1 when the witness condition holds; index 2 for the <-D> and
    <D,-Id> parabolic failures (squared-twist and twist subgroups); for a
    finite class group the subgroup is the identity class and the index is
    the group order.  The quotient embeds in C6 or in D4.
    """
    rep = check_condition_star_star(gens)
    form = rep.form
    if rep.satisfied:
        gens_out = tuple(rep.witness_S)
        return FiniteIndexReport(gens_out, 1, "subset_of_C6", "the whole group")
    if rep.failure_form == "minus_dehn":
        N = form.generator
        return FiniteIndexReport((N * N,), 2, "subset_of_C6",
                                 "classes generated by the squared twist")
    if rep.failure_form == "dehn_with_minus_id":
        # the pair's generator is trace-positive: the twist itself
        return FiniteIndexReport((form.generator,), 2, "subset_of_C6",
                                 "twist classes, dropping -Id")
    # nontrivial finite class group: only finite closures fail this way,
    # and their forms carry the group order
    n = form.order
    if n == 8 or form.tag == "pair" or (
            form.tag == "cyclic" and torsion_order(form.generator) == 4):
        quotient = "subset_of_D4"
    else:
        quotient = "subset_of_C6"
    return FiniteIndexReport((_ID,), n, quotient,
                             "identity classes (maps isotopic to the identity)")
