"""Torus maps as exact data: integer linear part plus trig-polynomial displacement.

A Generator is the plane map p -> A p + D(p) with A in GL(2,Z) and D a pair of
finite trigonometric polynomials with integer frequency vectors, so D is
Z^2-periodic and the map descends to the torus composed with the linear class.
Group elements are free words over generators; a lift adds an integer deck
translation in front.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _kernels
from ._kernels import _NEWTON_MAX, _NEWTON_TOL, reduce_batch
from .errors import NewtonDivergence, NotIsotopicToIdentity, RotorError
from .mcg import MCGClass

__all__ = [
    "Generator",
    "MapGroup",
    "Word",
    "LiftedWord",
    "reduce_point",
    "reduce_batch",
    "apply_lift",
    "apply_torus",
    "apply_torus_batch",
    "compose",
    "inverse",
    "commutator",
    "linear_part",
    "displacement_field",
    "torus_grid",
    "compose_lift",
    "inverse_lift",
    "commutator_lift",
    "translate_lift",
    "trig_term",
    "constant_term",
]

def reduce_point(p) -> Tuple[float, float]:
    """Canonical torus representative in [0,1)^2, with a snap at the seam."""
    q = reduce_batch(np.array([p], dtype=float))[0]
    return (float(q[0]), float(q[1]))


def torus_grid(k: int) -> np.ndarray:
    """The k*k grid points (i/k, j/k), i-major ("ij" order), shape (k*k, 2)."""
    axis = np.arange(k) / k
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)


def trig_term(amplitude: float, kx: int, ky: int, phase: float = 0.0):
    """One displacement term amplitude*sin(2pi*(kx*x + ky*y) + phase)."""
    if kx != int(kx) or ky != int(ky):
        raise RotorError("frequencies must be integers")
    return (float(amplitude), int(kx), int(ky), float(phase))


def constant_term(value: float):
    # sin(pi/2) = 1 turns a term into a constant offset
    return (float(value), 0, 0, math.pi / 2)


class Generator:
    """One torus homeomorphism, given exactly.

    disp_x / disp_y are tuples of trig terms (see trig_term).  An explicit
    inverse generator may be supplied and is verified by round trips; with a
    constant-only displacement the inverse is derived in closed form.
    Otherwise inverse evaluation runs Newton iteration, certified by the
    contraction bound  ||A^-1||_inf * max-row-sum of the displacement
    Jacobian < 1  (the bare row bound of the sufficient condition, tightened
    by the linear factor, which is 1 for A = +-Id).
    """

    def __init__(self, name: str, linear: MCGClass, disp_x=(), disp_y=(),
                 inverse: Optional["Generator"] = None, _derive: bool = True):
        self.name = str(name)
        self.linear = linear
        self.disp_x = tuple(trig_term(*t) for t in disp_x)
        self.disp_y = tuple(trig_term(*t) for t in disp_y)

        row_x = sum(abs(a) * 2.0 * math.pi * (abs(kx) + abs(ky))
                    for a, kx, ky, _ in self.disp_x)
        row_y = sum(abs(a) * 2.0 * math.pi * (abs(kx) + abs(ky))
                    for a, kx, ky, _ in self.disp_y)
        self.displacement_lipschitz = max(row_x, row_y)
        inv = linear.inverse()
        self.linear_inf_inv = float(max(abs(inv.a) + abs(inv.b),
                                        abs(inv.c) + abs(inv.d)))
        self.contraction_margin = 1.0 - self.linear_inf_inv * self.displacement_lipschitz

        self.inverse_gen = None
        if inverse is not None:
            self._check_round_trip(inverse)
            self.inverse_gen = inverse
        elif _derive and all(t[1] == 0 and t[2] == 0
                             for t in self.disp_x + self.disp_y):
            self.inverse_gen = self._constant_inverse()
        self.certified = self.inverse_gen is not None or self.contraction_margin > 0.0

    def _constant_inverse(self):
        cx, cy = _run_letters([(self, 1)], np.zeros((1, 2)))[0]
        inv = self.linear.inverse()
        mx = -(inv.a * cx + inv.b * cy)
        my = -(inv.c * cx + inv.d * cy)
        return Generator(self.name + "^-1", inv,
                         disp_x=(constant_term(mx),), disp_y=(constant_term(my),),
                         _derive=False)

    def _check_round_trip(self, other: "Generator"):
        g = np.linspace(0.05, 0.95, 7)
        pts = np.array([(x, y) for x in g for y in g])
        fwd = _run_letters([(other, 1), (self, 1)], pts)
        back = _run_letters([(self, 1), (other, 1)], pts)
        err = max(np.abs(fwd - pts).max(), np.abs(back - pts).max())
        if err > 1e-10:
            raise RotorError(
                "supplied inverse for %r fails round trip (err %.3g)" % (self.name, err))

    def __repr__(self):
        return "Generator(%r, linear=%r, %d+%d terms)" % (
            self.name, self.linear, len(self.disp_x), len(self.disp_y))


class MapGroup:
    """Finitely generated group of torus maps; group elements are Words."""

    def __init__(self, generators: Sequence[Generator]):
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise RotorError("generator names must be distinct")
        self._programs = {}     # reduced letters -> compiled kernel arrays

    def word(self, letters) -> "Word":
        """Build a word from (index, sign) pairs or from a string.

        The string form is whitespace-separated generator names, with a
        trailing apostrophe for an inverse: "dehn tr' dehn".  Letters
        still compose left to right as maps, last letter first.
        """
        if isinstance(letters, str):
            pairs = []
            for tok in letters.split():
                sign = 1
                if tok.endswith("'"):
                    sign, tok = -1, tok[:-1]
                for i, g in enumerate(self.generators):
                    if g.name == tok:
                        pairs.append((i, sign))
                        break
                else:
                    raise RotorError("unknown generator %r in word" % tok)
            letters = pairs
        return Word(self, letters)

    def gen(self, index: int, sign: int = 1) -> "Word":
        return Word(self, [(index, sign)])

    def by_name(self, name: str) -> "Word":
        for i, g in enumerate(self.generators):
            if g.name == name:
                return self.gen(i)
        raise KeyError(name)

    def identity(self) -> "Word":
        return Word(self, [])


def _free_reduce(letters):
    out = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


class Word:
    """A group element as a reduced signed generator sequence.

    Letters compose left to right as maps: the last letter acts first.
    """

    def __init__(self, group: MapGroup, letters):
        self.group = group
        for idx, sign in letters:
            if not (0 <= idx < len(group.generators)):
                raise RotorError("generator index %d out of range" % idx)
            if sign not in (1, -1):
                raise RotorError("letter sign must be +1 or -1")
        self.letters = _free_reduce(letters)

    def is_identity_word(self) -> bool:
        return not self.letters

    def lift(self, extra_translation=(0, 0)) -> "LiftedWord":
        return LiftedWord(self, extra_translation)

    def __mul__(self, other: "Word") -> "Word":
        return compose(self, other)

    def __repr__(self):
        parts = []
        for idx, sign in self.letters:
            name = self.group.generators[idx].name
            parts.append(name if sign > 0 else name + "^-1")
        return "Word(%s)" % (" ".join(parts) or "id")


class LiftedWord:
    """T_v composed with the canonical lift of a word; v integral."""

    def __init__(self, word: Word, extra_translation=(0, 0)):
        v = (int(extra_translation[0]), int(extra_translation[1]))
        if v != (extra_translation[0], extra_translation[1]):
            raise RotorError("deck translation must be integral")
        self.word = word
        self.extra_translation = v

    def __repr__(self):
        return "LiftedWord(%r, v=%r)" % (self.word, self.extra_translation)


def compose(w1: Word, w2: Word) -> Word:
    if w1.group is not w2.group:
        raise RotorError("words over different groups")
    return Word(w1.group, list(w1.letters) + list(w2.letters))


def inverse(w: Word) -> Word:
    return Word(w.group, [(i, -s) for i, s in reversed(w.letters)])


def commutator(w1: Word, w2: Word) -> Word:
    return compose(compose(w1, w2), compose(inverse(w1), inverse(w2)))


def linear_part(w: Word) -> MCGClass:
    out = MCGClass.identity()
    for idx, sign in w.letters:
        a = w.group.generators[idx].linear
        out = out * (a if sign > 0 else a.inverse())
    return out


def compose_lift(l1: LiftedWord, l2: LiftedWord) -> LiftedWord:
    # (T_u W1)(T_v W2) = T_{u + [W1] v} (W1 W2)
    u, v = l1.extra_translation, l2.extra_translation
    a = linear_part(l1.word)
    shift = a.apply(v)
    return LiftedWord(compose(l1.word, l2.word), (u[0] + shift[0], u[1] + shift[1]))


def inverse_lift(lw: LiftedWord) -> LiftedWord:
    # (T_v W)^-1 = T_{-[W]^-1 v} W^-1
    a = linear_part(lw.word).inverse()
    shift = a.apply(lw.extra_translation)
    return LiftedWord(inverse(lw.word), (-shift[0], -shift[1]))


def commutator_lift(l1: LiftedWord, l2: LiftedWord) -> LiftedWord:
    return compose_lift(compose_lift(l1, l2),
                        compose_lift(inverse_lift(l1), inverse_lift(l2)))


def translate_lift(lw: LiftedWord, v) -> LiftedWord:
    """The lift T_v composed with lw; v integral."""
    u = lw.extra_translation
    return LiftedWord(lw.word, (u[0] + v[0], u[1] + v[1]))


def _as_lift(w) -> LiftedWord:
    return w if isinstance(w, LiftedWord) else LiftedWord(w)


def apply_lift_batch(lw, pts: np.ndarray) -> np.ndarray:
    """Evaluate the lift on plane points, shape (n,2).

    Runs the word's compiled program through the vectorized numpy word
    kernel on every backend; an inverse letter whose Newton solve fails
    raises NewtonDivergence.
    """
    lw = _as_lift(lw)
    args = compile_program(lw)
    out = _kernels._apply_word_np(np.asarray(pts, dtype=float), *args)
    # args[1] holds the letter modes; only Newton letters (mode 1) emit NaN
    if args[1].any() and np.isnan(out).any():
        raise _divergence(lw)
    return out


def apply_lift(lw, p) -> Tuple[float, float]:
    q = apply_lift_batch(lw, np.array([p], dtype=float))[0]
    return (float(q[0]), float(q[1]))


def apply_torus_batch(w, pts: np.ndarray) -> np.ndarray:
    lw = _as_lift(w)
    return reduce_batch(apply_lift_batch(lw, reduce_batch(np.asarray(pts, dtype=float))))


def apply_torus(w, p) -> Tuple[float, float]:
    q = apply_torus_batch(w, np.array([p], dtype=float))[0]
    return (float(q[0]), float(q[1]))


def _require_identity(lw, what: str = "word") -> LiftedWord:
    """lw as a lift; raises NotIsotopicToIdentity unless its linear part is Id."""
    lw = _as_lift(lw)
    if not linear_part(lw.word).is_identity():
        raise NotIsotopicToIdentity(
            "%s %r has a nontrivial linear part" % (what, lw.word))
    return lw


def displacement_field(lw, p) -> Tuple[float, float]:
    """The vector apply_lift(p~) - p~, independent of the chosen lift of p."""
    d = displacement_field_batch(lw, np.array([p], dtype=float))[0]
    return (float(d[0]), float(d[1]))


def displacement_field_batch(lw, pts: np.ndarray) -> np.ndarray:
    lw = _require_identity(lw)
    red = reduce_batch(np.asarray(pts, dtype=float))
    return apply_lift_batch(lw, red) - red


def _divergence(lw) -> NewtonDivergence:
    return NewtonDivergence(
        "an inverse letter of %r did not reach residual %g in %d Newton steps"
        % (lw.word, _NEWTON_TOL, _NEWTON_MAX))


# ---------------------------------------------------------------------------
# compiled word programs for the word and orbit kernels


def _compile_letters(letters) -> tuple:
    """Flatten (Generator, sign) letters into the array form the kernels
    consume: (slot, mode, lin, lin_inv, tstart, tend, amps, fkx, fky, phase,
    row).  The last letter acts first.

    Inverse letters of generators carrying an explicit inverse are rewritten
    as forward letters (mode 0) of that inverse; the remaining inverse
    letters (mode 1) run Newton inside the kernel.
    """
    table = []       # Generator objects whose forward data fill the arrays
    table_index = {}
    slot, mode = [], []
    for g, sign in letters:
        if sign < 0 and g.inverse_gen is not None:
            g, sign = g.inverse_gen, 1
        if id(g) not in table_index:
            table_index[id(g)] = len(table)
            table.append(g)
        slot.append(table_index[id(g)])
        mode.append(0 if sign > 0 else 1)

    nslots = max(1, len(table))
    lin = np.zeros((nslots, 2, 2))
    lin_inv = np.zeros((nslots, 2, 2))
    tstart = np.zeros(nslots, dtype=np.int64)
    tend = np.zeros(nslots, dtype=np.int64)
    terms, row = [], []
    for i, g in enumerate(table):
        a, ai = g.linear, g.linear.inverse()
        lin[i] = [[a.a, a.b], [a.c, a.d]]
        lin_inv[i] = [[ai.a, ai.b], [ai.c, ai.d]]
        tstart[i] = len(terms)
        for r, disp in ((0, g.disp_x), (1, g.disp_y)):
            terms.extend(disp)
            row.extend([r] * len(disp))
        tend[i] = len(terms)
    amps, fkx, fky, phase = np.array(terms, dtype=float).reshape(-1, 4).T.copy()
    return (np.array(slot, dtype=np.int64), np.array(mode, dtype=np.int64),
            lin, lin_inv, tstart, tend, amps, fkx, fky, phase,
            np.array(row, dtype=np.int64))


def _run_letters(letters, pts: np.ndarray) -> np.ndarray:
    return _kernels._apply_word_np(pts, *_compile_letters(letters), 0.0, 0.0)


def compile_program(lw) -> tuple:
    """The kernel arguments of a lifted word: its compiled letters (see
    _compile_letters) followed by the deck translation (vx, vy).

    The letters are compiled once per group and reduced letter sequence;
    words built afresh on every call (commutators, transports) reuse them.
    """
    lw = _as_lift(lw)
    programs = lw.word.group._programs
    prog = programs.get(lw.word.letters)
    if prog is None:
        gens = lw.word.group.generators
        prog = programs[lw.word.letters] = _compile_letters(
            [(gens[i], sign) for i, sign in lw.word.letters])
    v = lw.extra_translation
    return prog + (float(v[0]), float(v[1]))


def _orbit_program(w, n: int):
    """(lift, plane_mode, kernel arguments) of an orbit of length n >= 1."""
    lw = _as_lift(w)
    if n < 1:
        raise RotorError("orbit length must be >= 1")
    return lw, not linear_part(lw.word).is_identity(), compile_program(lw)


def _check_orbit(lw, values, plane_mode: bool) -> None:
    # A torus orbit stays in [0,1)^2, so a NaN there can only come from a
    # failed Newton inverse; plane-mode overflow (inf, or NaN from 0 * inf)
    # is reported as is.
    if not plane_mode and np.isnan(values).any():
        raise _divergence(lw)


def orbit_displacement_means(w, seeds: np.ndarray, n: int, threads: int = 1
                             ) -> np.ndarray:
    """n-step displacement means (lift^n(p) - p)/n for each seed, shape (m,2).

    Words with identity linear part iterate on the torus and accumulate the
    per-step displacement with compensated summation; a NaN mean there
    raises NewtonDivergence.  Other words iterate in plane coordinates,
    where overflow is reported as is.  threads splits the seeds over a
    thread pool on the numba backend, whose kernels release the GIL; the
    numpy backend runs all seeds in one vectorized call.  Results are the
    same for every thread count.
    """
    lw, plane_mode, args = _orbit_program(w, n)
    seeds = np.ascontiguousarray(np.asarray(seeds, dtype=float).reshape(-1, 2))

    def run(chunk):
        return _kernels.orbit_mean_batch(chunk, n, plane_mode, *args)

    if threads <= 1 or len(seeds) < 2 or _kernels.get_backend() != "numba":
        means = run(seeds)
    else:
        from concurrent.futures import ThreadPoolExecutor

        chunks = np.array_split(seeds, min(threads * 4, len(seeds)))
        with ThreadPoolExecutor(max_workers=threads) as ex:
            means = np.concatenate(list(ex.map(run, chunks)), axis=0)
    _check_orbit(lw, means, plane_mode)
    return means


def orbit_mean_with_tail(w, seed, n: int):
    """Displacement mean plus the max deviation of the last n//10 partial
    means; the mean and its failures match orbit_displacement_means."""
    lw, plane_mode, args = _orbit_program(w, n)
    mx, my, spread = _kernels.orbit_mean_tail(
        float(seed[0]), float(seed[1]), n, plane_mode, *args)
    _check_orbit(lw, (mx, my), plane_mode)
    return (mx, my), spread


def orbit_segment(w, seed, n: int, burn: int = 0) -> np.ndarray:
    """Torus orbit points w^burn(p), ..., w^{burn+n-1}(p), shape (n,2)."""
    lw = _as_lift(w)
    out = _kernels.orbit_collect(float(seed[0]), float(seed[1]), burn, n,
                                 *compile_program(lw))
    _check_orbit(lw, out, plane_mode=False)
    return out
