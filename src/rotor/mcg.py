"""Exact algebra on GL(2,Z): spectral classes, closures, nilpotent subgroup forms.

All decisions are made in integer or rational arithmetic.  Floating point
shows up only in the eigenvalues that spectral_class attaches to its exact tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotNilpotent, NotUnimodular, RotorError

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


class MCGClass:
    """Integer 2x2 matrix with determinant +1 or -1, acting on column vectors.

    Entries are Python ints, so products of any size stay exact.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = int(a), int(b), int(c), int(d)
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
    not_nilpotent / undecided; undecided comes only from a finite closure
    that matches none of the finite shapes.  generator carries N for the
    cyclic and pair forms, conjugator the integer matrix X with X G X^-1
    equal to the H pattern, commutator_chain a list of (a, x, [a,x])
    triples certifying a non-vanishing iterated commutator.  order is the
    group size when the closure is finite, None when infinite.
    """

    tag: str
    generator: Optional[MCGClass] = None
    conjugator: Optional[tuple] = None
    commutator_chain: Optional[tuple] = None
    order: Optional[int] = None


@dataclass(frozen=True)
class StarStarReport:
    satisfied: bool
    witness_S: Optional[tuple]
    failure_form: Optional[str]


@dataclass(frozen=True)
class FiniteIndexReport:
    subgroup_generators: tuple
    index: int
    quotient: str
    description: str


def spectral_class(A: MCGClass) -> SpectralClass:
    """Exact (trace, det) tag plus float eigenvalues; RotorError on overflow."""
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
        step.append(g)
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
        X = _conjugator_onto_H(G)
        if X is not None:
            return SubgroupForm("dihedral_H_conjugate", conjugator=X, order=n)
        return SubgroupForm("undecided", order=n)
    chain = _lcs_stall_chain(G)
    if chain is not None:
        return SubgroupForm("not_nilpotent", commutator_chain=chain, order=n)
    return SubgroupForm("undecided", order=n)


def _lcs_stall_chain(G):
    """Run the lower central series on a small finite group.

    Returns None when the series reaches {Id} (nilpotent), else a tuple of
    (a, x, [a,x]) triples forming a cycle: each commutator is the x of the
    next triple and none is the identity, so iterated commutators of every
    weight stay nontrivial.
    """
    elems = sorted(G, key=_sort_key)
    gamma = set(G)
    while True:
        comms = {a.commutator(x) for a in elems for x in gamma}
        comms.discard(_ID)
        if not comms:
            return None
        nxt = closure(comms)
        if nxt == gamma:
            break
        gamma = nxt
    # stalled at gamma = [G, gamma]: in GL(2,Z) the order-3 subgroup of a
    # dihedral group of order 6 or 12, which no reflection centralizes.  So
    # every node has a nontrivial commutator, inside gamma (it is normal),
    # and the walk along first commutators closes a cycle
    nodes = sorted(gamma - {_ID}, key=_sort_key)
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


def _rational_nullspace(rows):
    """Basis of the nullspace of a matrix with 4 columns, over Fractions."""
    m = [[Fraction(v) for v in r] for r in rows]
    ncols = 4
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -m[i][f]
        basis.append(v)
    return basis


def _intertwiner_rows(g, target):
    # linear conditions on X = (x1 x2; x3 x4) for X g = target X
    (g11, g12), (g21, g22) = g.rows
    (t11, t12), (t21, t22) = target.rows
    return [
        [g11 - t11, g21, -t12, 0],
        [g12, g22 - t11, 0, -t12],
        [-t21, 0, g11 - t22, g21],
        [0, -t21, g12, g22 - t22],
    ]


def _primitive_int_matrix(vec):
    denoms = [f.denominator for f in vec]
    scale = denoms[0]
    for d in denoms[1:]:
        scale = scale * d // math.gcd(scale, d)
    ints = [int(f * scale) for f in vec]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return ints


def _conjugator_onto_H(G):
    """Integer matrix X with X G X^-1 equal (as a set) to H_LIST, or None.

    The standard 2-dimensional representation of the 8-element pattern is
    irreducible over Q, so for each generator assignment the intertwiner
    space has dimension at most 1 and any nonzero solution is invertible.
    """
    r = next((g for g in sorted(G, key=_sort_key) if torsion_order(g) == 4), None)
    if r is None:
        return None
    r_gen = closure([r])
    s = next((g for g in sorted(G, key=_sort_key)
              if torsion_order(g) == 2 and g not in r_gen), None)
    if s is None:
        return None
    R = MCGClass(0, -1, 1, 0)
    reflections = [MCGClass(1, 0, 0, -1), MCGClass(-1, 0, 0, 1),
                   MCGClass(0, 1, 1, 0), MCGClass(0, -1, -1, 0)]
    h_set = set(H_LIST)
    for Rt in (R, R.inverse()):
        for St in reflections:
            rows = _intertwiner_rows(r, Rt) + _intertwiner_rows(s, St)
            for vec in _candidate_solutions(_rational_nullspace(rows)):
                x1, x2, x3, x4 = vec
                det = x1 * x4 - x2 * x3
                if det == 0:
                    continue
                if _conjugated_set(G, vec, det) == h_set:
                    return ((x1, x2), (x3, x4))
    return None


def _candidate_solutions(basis):
    if not basis:
        return
    if len(basis) == 1:
        yield tuple(_primitive_int_matrix(basis[0]))
        return
    span = range(-2, 3)
    for c0 in span:
        for c1 in span:
            if c0 == 0 and c1 == 0:
                continue
            vec = [c0 * a + c1 * b for a, b in zip(basis[0], basis[1])]
            if any(v != 0 for v in vec):
                yield tuple(_primitive_int_matrix(vec))


def _conjugated_set(G, vec, det):
    x1, x2, x3, x4 = (Fraction(v) for v in vec)
    inv = ((x4 / det, -x2 / det), (-x3 / det, x1 / det))
    out = set()
    for g in G:
        (g11, g12), (g21, g22) = g.rows
        # X g
        p11 = x1 * g11 + x2 * g21
        p12 = x1 * g12 + x2 * g22
        p21 = x3 * g11 + x4 * g21
        p22 = x3 * g12 + x4 * g22
        # (X g) X^-1
        q11 = p11 * inv[0][0] + p12 * inv[1][0]
        q12 = p11 * inv[0][1] + p12 * inv[1][1]
        q21 = p21 * inv[0][0] + p22 * inv[1][0]
        q22 = p21 * inv[0][1] + p22 * inv[1][1]
        if any(q.denominator != 1 for q in (q11, q12, q21, q22)):
            return None
        out.add((int(q11), int(q12), int(q21), int(q22)))
    return {MCGClass(*t) for t in out}


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
    8-element dihedral pattern up to GL(2,Q) conjugacy) with the lower
    central series as the non-nilpotency test.  Infinite groups are decided
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
    if form.tag == "undecided":
        raise NotNilpotent("could not certify the generated group as nilpotent")
    if form.tag == "trivial":
        return StarStarReport(True, (), None)
    if form.order is not None:
        return StarStarReport(False, None, "nontrivial_finite")
    # infinite: N has no modulus-1 eigenvalue unless it is +-(a Dehn twist)
    N = form.generator
    parabolic = N.det == 1 and abs(N.trace) == 2
    if form.tag == "cyclic":
        if parabolic and N.trace == -2:
            return StarStarReport(False, None, "minus_dehn")
        return StarStarReport(True, (N,), None)
    if parabolic:
        return StarStarReport(False, None, "dehn_with_minus_id")
    return StarStarReport(True, (N, -N), None)


def finite_index_subgroup(gens) -> FiniteIndexReport:
    """Largest classified subgroup on which the averaging scheme applies.

    Index 1 when the witness condition holds; index 2 for the <-D> and
    <D,-Id> parabolic failures (squared-twist and twist subgroups); for a
    finite class group the subgroup is the identity class and the index is
    the group order.  The quotient embeds in C6 or in D4.
    """
    form = classify_nilpotent(gens)
    if form.tag in ("not_nilpotent", "undecided"):
        raise NotNilpotent("generated group is not classified nilpotent")
    rep = check_condition_star_star(gens)
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
