"""Exact algebra on GL(2,Z): spectral classes, closures, nilpotent subgroup forms.

All decisions are made in integer or rational arithmetic.  Floating point shows
up only to estimate exponents during the infinite cyclic reduction, and every
estimate is confirmed by an exact matrix identity before it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NotNilpotent, NotUnimodular

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

    def max_entry(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

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
    not_nilpotent / undecided.  generator carries N for the cyclic and
    pair forms, conjugator the integer matrix X with X G X^-1 equal to
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
    """Classify A by the exact (trace, det) dichotomy, with eigenvalues attached."""
    t, d = A.trace, A.det
    disc = t * t - 4 * d
    if disc >= 0:
        s = math.sqrt(disc)
        eig = (complex((t + s) / 2.0), complex((t - s) / 2.0))
    else:
        s = math.sqrt(-disc)
        eig = (complex(t / 2.0, s / 2.0), complex(t / 2.0, -s / 2.0))
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


def closure(gens, entry_bound: int = 10**6, count_bound: int = 10**4):
    """Breadth-first closure under products and inverses.

    Returns the finite set of elements, or None when the group escapes the
    bounds.  The flag is exact for unimodular groups: any element with an
    eigenvalue off the unit circle has powers with unbounded entries, and a
    group whose elements all stay on the unit circle is finite (order <= 12)
    by the crystallographic restriction, far inside the default bounds.
    """
    assert entry_bound >= 1 and count_bound >= 1
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
                if y in seen:
                    continue
                if y.max_entry() > entry_bound:
                    return None
                seen.add(y)
                nxt.append(y)
                if len(seen) > count_bound:
                    return None
        frontier = nxt
    return seen


def _sort_key(A: MCGClass):
    return (A.a, A.b, A.c, A.d)


def _generated_within(elems):
    # closure of a subset of a small finite group; bounds never bind here
    out = closure(list(elems), entry_bound=10**9, count_bound=10**4)
    assert out is not None
    return out


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
            if _generated_within([g, -g]) == G:
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
        nxt = _generated_within(comms)
        if nxt == gamma:
            break
        gamma = nxt
    # stalled at a nontrivial subgroup: find a commutator cycle inside it
    nodes = sorted(gamma - {_ID}, key=_sort_key)
    edges = {}
    for x in nodes:
        for a in elems:
            c = a.commutator(x)
            if not c.is_identity() and c in gamma:
                edges.setdefault(x, []).append((a, c))
    for start in nodes:
        path, seen_at = [], {}
        x = start
        while True:
            if x in seen_at:
                cyc = path[seen_at[x]:]
                return tuple(cyc)
            if x not in edges:
                break
            seen_at[x] = len(path)
            a, c = edges[x][0]
            path.append((a, x, c))
            x = c
    # stall with no cycle cannot happen for groups this small; be defensive
    x = nodes[0]
    a, c = edges[x][0] if x in edges else (elems[0], elems[0].commutator(x))
    return ((a, x, c),)


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
    r_gen = _generated_within([r])
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


def _spectral_radius(A: MCGClass) -> float:
    t, d = A.trace, A.det
    disc = t * t - 4 * d
    if disc < 0:
        return 1.0
    return (abs(t) + math.sqrt(disc)) / 2.0


def _unipotent_part(A: MCGClass):
    """For A = +-(Id + k M0) with M0 primitive nilpotent, return (sigma, k, M0)."""
    if A.det != 1 or A.trace not in (2, -2):
        return None
    sigma = 0 if A.trace == 2 else 1
    U = A if sigma == 0 else -A
    m = (U.a - 1, U.b, U.c, U.d - 1)
    if m == (0, 0, 0, 0):
        return (sigma, 0, None)
    g = 0
    for v in m:
        g = math.gcd(g, v)
    m0 = tuple(v // g for v in m)
    for v in m0:
        if v != 0:
            if v < 0:
                m0 = tuple(-w for w in m0)
                g = -g
            break
    return (sigma, g, m0)


def _cyclic_combine(a: MCGClass, b: MCGClass):
    """For commuting a, b inside a common {+-t^k} family, return a spanning t.

    Euclid on the exponents; the exponent magnitudes are read off spectral
    radii and each candidate step is carried out exactly, keeping whichever
    quotient shrinks the radius most.  Returns None if progress stalls.
    """
    for _ in range(256):
        if b.is_pm_identity():
            return a
        if a.is_pm_identity():
            a, b = b, a
            continue
        if _spectral_radius(a) > _spectral_radius(b):
            a, b = b, a
        la = math.log(_spectral_radius(a))
        lb = math.log(_spectral_radius(b))
        q0 = int(round(lb / la))
        best = None
        for q in {q0 - 1, q0, q0 + 1, -q0 - 1, -q0, -q0 + 1}:
            cand = b * a ** (-q)
            r = _spectral_radius(cand)
            if best is None or r < best[0]:
                best = (r, cand)
        if best[0] >= _spectral_radius(b) and not best[1].is_pm_identity():
            return None
        b = best[1]
    return None


def _express_in_cyclic(g: MCGClass, t: MCGClass):
    """Exact (sigma, k) with g = (-Id)^sigma t^k, or None."""
    rt = math.log(_spectral_radius(t))
    rg = _spectral_radius(g)
    k0 = 0 if rg <= 1.0 else int(round(math.log(rg) / rt))
    for k in (k0 - 1, k0, k0 + 1):
        p = t ** k
        if g == p:
            return (0, k)
        if g == -p:
            return (1, k)
        pm = t ** (-k)
        if g == pm:
            return (0, -k)
        if g == -pm:
            return (1, -k)
    return None


def _extended_gcd(x: int, y: int):
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _fold_sign_exponents(pairs, extra_minus: bool):
    """Subgroup of {+-1} x Z generated by (sigma_i, k_i), plus (-1, 0) if asked.

    Returns (minus_in_group, sigma, d): the subgroup is generated by
    (sigma, d) together with (-1, 0) when minus_in_group is set.
    """
    minus = extra_minus
    sig, dd = 0, 0
    for s, k in pairs:
        if k == 0:
            minus = minus or bool(s)
            continue
        if dd == 0:
            sig, dd = s % 2, k
            continue
        g, x, y = _extended_gcd(dd, k)
        s_new = (x * sig + y * s) % 2
        if (sig - (dd // g) * s_new) % 2 or (s - (k // g) * s_new) % 2:
            minus = True
        sig, dd = s_new, g
    if dd < 0:
        dd = -dd
    return minus, sig, dd


def _infinite_form(gens):
    gens = [g for g in gens if not g.is_identity()]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            c = gens[i].commutator(gens[j])
            if not c.is_identity():
                chain = ((gens[i], gens[j], c),)
                return SubgroupForm("not_nilpotent", commutator_chain=chain)
    torsion = [g for g in gens if torsion_order(g) is not None]
    infinite = [g for g in gens if torsion_order(g) is None]
    if not infinite:
        return SubgroupForm("undecided")
    for t in torsion:
        if not t.is_pm_identity():
            # a torsion class other than +-Id cannot commute with an
            # infinite-order one; reaching here means the closure bound
            # fired on unusual input, so decline to classify
            return SubgroupForm("undecided")
    extra_minus = any(t == _MINUS_ID for t in torsion)

    parabolic = [g for g in infinite if g.det == 1 and abs(g.trace) == 2]
    if parabolic and len(parabolic) != len(infinite):
        return SubgroupForm("undecided")
    if parabolic:
        datas = [_unipotent_part(g) for g in infinite]
        m0 = datas[0][2]
        if any(d is None or d[2] != m0 for d in datas):
            return SubgroupForm("undecided")
        base = MCGClass(1 + m0[0], m0[1], m0[2], 1 + m0[3])
        pairs = [(s, k) for s, k, _ in datas]
    else:
        base = infinite[0]
        for g in infinite[1:]:
            base = _cyclic_combine(base, g)
            if base is None:
                return SubgroupForm("undecided")
        pairs = []
        for g in infinite:
            sk = _express_in_cyclic(g, base)
            if sk is None:
                return SubgroupForm("undecided")
            pairs.append(sk)
    minus, sig, dd = _fold_sign_exponents(pairs, extra_minus)
    assert dd > 0
    N = base ** dd if sig == 0 else -(base ** dd)
    # exact confirmation that every generator lives in <N> (or <N, -Id>)
    for g in infinite + torsion:
        sk = _express_in_cyclic(g, N) if _spectral_radius(N) > 1 else None
        if _spectral_radius(N) <= 1:
            sk = _express_parabolic(g, N)
        if sk is None:
            return SubgroupForm("undecided")
        if sk[0] and not minus:
            return SubgroupForm("undecided")
    if minus:
        return SubgroupForm("pair", generator=N)
    return SubgroupForm("cyclic", generator=N)


def _express_parabolic(g: MCGClass, t: MCGClass):
    """(sigma, k) with g = (-Id)^sigma t^k for parabolic-family t."""
    dt = _unipotent_part(t)
    dg = _unipotent_part(g)
    if dt is None or dg is None or dt[2] is None:
        if g.is_pm_identity():
            return (0 if g.is_identity() else 1, 0)
        return None
    if dg[2] is not None and dg[2] != dt[2]:
        return None
    kg = dg[1] if dg[2] is not None else 0
    if kg % dt[1]:
        return None
    k = kg // dt[1]
    p = t ** k
    if g == p:
        return (0, k)
    if g == -p:
        return (1, k)
    return None


def classify_nilpotent(gens) -> SubgroupForm:
    """Match the generated subgroup against the classified nilpotent shapes.

    Finite closures are matched directly (trivial, cyclic, pair, the
    8-element dihedral pattern up to GL(2,Q) conjugacy) with the lower
    central series as the non-nilpotency test.  Infinite groups are decided
    structurally: the only infinite nilpotent subgroups are <N> and <N,-N>,
    so a non-commuting generator pair already certifies not_nilpotent.
    """
    gens = list(gens)
    G = closure(gens)
    if G is not None:
        return _finite_form(G)
    return _infinite_form(gens)


_FINITE_TAGS = {"identity", "minus_identity", "complex_order4", "complex_order6",
                "complex_order3", "reflection_det_minus1_tr0"}


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
    if form.tag == "dihedral_H_conjugate":
        return StarStarReport(False, None, "nontrivial_finite")
    N = form.generator
    tag = spectral_class(N).tag
    if form.tag == "cyclic":
        if tag == "dehn_twist" or tag in ("hyperbolic", "other_real_split"):
            return StarStarReport(True, (N,), None)
        if tag == "eigen_minus1_parabolic":
            return StarStarReport(False, None, "minus_dehn")
        return StarStarReport(False, None, "nontrivial_finite")
    # pair <N, -N>
    if tag in ("hyperbolic", "other_real_split"):
        return StarStarReport(True, (N, -N), None)
    if tag in ("dehn_twist", "eigen_minus1_parabolic"):
        return StarStarReport(False, None, "dehn_with_minus_id")
    return StarStarReport(False, None, "nontrivial_finite")


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
        N = form.generator
        D = N if N.trace == 2 else -N
        return FiniteIndexReport((D,), 2, "subset_of_C6",
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
