"""Torus maps as exact data: integer linear part plus trig-polynomial displacement.

A Generator is the plane map p -> A p + D(p) with A in GL(2,Z) and D a pair of
finite trigonometric polynomials with integer frequency vectors, so D is
Z^2-periodic and the map descends to the torus composed with the linear class.
Group elements are free words over generators; a lift adds an integer deck
translation in front.
"""

from __future__ import annotations

import math
import os
from numbers import Integral
from typing import Sequence, Tuple

import numpy as np

from . import _kernels
from ._args import (FINITE, INTEGRAL, POINT, POINTS, count, each, kind,
                    reads, terms)
from ._kernels import _NEWTON_MAX, _NEWTON_TOL
from .errors import (InvalidArgument, NewtonDivergence,
                     NotIsotopicToIdentity, RotorError)
from .mcg import MCGClass, spectral_class

__all__ = [
    "Generator",
    "MapGroup",
    "Word",
    "LiftedWord",
    "reduce_point",
    "reduce_batch",
    "apply_torus_batch",
    "compose",
    "inverse",
    "commutator",
    "linear_part",
    "torus_grid",
    "compose_lift",
    "inverse_lift",
    "commutator_lift",
    "trig_term",
    "constant_term",
]

# the kernel's own reduce_batch stays bare for the package's hot paths
reduce_batch = reads(pts=POINTS)(_kernels.reduce_batch)


@reads(p=POINT)
def reduce_point(p) -> Tuple[float, float]:
    """Canonical torus representative in [0,1)^2, with a snap at the seam."""
    x, y = _kernels.reduce_batch(np.array(p))
    return (float(x), float(y))


@reads(k=count(1))
def torus_grid(k: int) -> np.ndarray:
    """The k*k grid points (i/k, j/k), i-major ("ij" order), shape (k*k, 2)."""
    axis = np.arange(k) / k
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)


@reads(amplitude=FINITE, kx=INTEGRAL, ky=INTEGRAL, phase=FINITE)
def trig_term(amplitude: float, kx: int, ky: int, phase: float = 0.0):
    """One displacement term amplitude*sin(2pi*(kx*x + ky*y) + phase), with
    a finite amplitude and phase and integral frequencies."""
    return (amplitude, kx, ky, phase)


@reads(value=FINITE)
def constant_term(value: float):
    # sin(pi/2) = 1 turns a term into a constant offset
    return (value, 0, 0, math.pi / 2)


TERMS = terms(trig_term)


class Generator:
    """One torus homeomorphism, given exactly.

    disp_x / disp_y are tuples of trig terms (see trig_term).  With a
    constant-only displacement the inverse is derived in closed form.
    Otherwise inverse evaluation runs Newton iteration, certified by the
    contraction bound  ||A^-1||_inf * max-row-sum of the displacement
    Jacobian < 1  (the bare row bound of the sufficient condition, tightened
    by the linear factor, which is 1 for A = +-Id).
    """

    @reads(linear=MCGClass, disp_x=TERMS, disp_y=TERMS)
    def __init__(self, name: str, linear: MCGClass, disp_x=(), disp_y=(),
                 _derive: bool = True):
        self.name = str(name)
        if max(map(abs, (linear.a, linear.b, linear.c, linear.d))) > 2 ** 53:
            # the float linear parts hold integers exactly only up to 2**53
            raise RotorError("linear part has an entry above 2**53")
        self.linear = linear
        self.disp_x = disp_x
        self.disp_y = disp_y

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
        if _derive and all(t[1] == 0 and t[2] == 0
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

    def __repr__(self):
        return "Generator(%r, linear=%r, %d+%d terms)" % (
            self.name, self.linear, len(self.disp_x), len(self.disp_y))


class MapGroup:
    """Finitely generated group of torus maps; group elements are Words."""

    @reads(generators=each(Generator))
    def __init__(self, generators: Sequence[Generator]):
        self.generators = generators
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise RotorError("generator names must be distinct")
        self._programs = {}     # reduced letters -> compiled word program
        self._linear_parts = {}  # reduced letters -> MCGClass

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
                pairs.append((self._index(tok), sign))
            letters = pairs
        return Word(self, letters)

    def gen(self, index: int, sign: int = 1) -> "Word":
        return Word(self, [(index, sign)])

    def by_name(self, name: str) -> "Word":
        return self.gen(self._index(name))

    def _index(self, name: str) -> int:
        for i, g in enumerate(self.generators):
            if g.name == name:
                return i
        raise InvalidArgument("unknown generator %r in word" % name)

    def identity(self) -> "Word":
        return Word(self, [])


def _free_reduce(letters, size: int) -> tuple:
    """The letters checked and freely reduced in one pass; InvalidArgument
    unless they are iterable and each is an (index, sign) pair with an
    integer index in [0, size) and a sign of +1 or -1."""
    out = []
    try:
        letters = iter(letters)
    except TypeError:
        raise InvalidArgument("letters must be iterable, not %r"
                              % (letters,)) from None
    for letter in letters:
        try:
            idx, sign = letter
        except (TypeError, ValueError):
            raise InvalidArgument("a letter must be an (index, sign) pair, "
                                  "not %r" % (letter,)) from None
        # int first: the Integral check alone costs far more per letter
        if not (isinstance(idx, (int, Integral)) and 0 <= idx < size):
            raise InvalidArgument("generator index %r is not an integer in "
                                  "[0, %d)" % (idx, size))
        if sign not in (1, -1):
            raise InvalidArgument("letter sign must be +1 or -1")
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


class Word:
    """A group element as a reduced signed generator sequence.

    Letters compose left to right as maps: the last letter acts first.
    """

    @reads(group=MapGroup)
    def __init__(self, group: MapGroup, letters):
        self.group = group
        self.letters = _free_reduce(letters, len(group.generators))

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


_WORD = kind(Word)


class LiftedWord:
    """T_v composed with the canonical lift of a word; v integral."""

    @reads(word=Word, extra_translation=each(INTEGRAL, INTEGRAL))
    def __init__(self, word: Word, extra_translation=(0, 0)):
        self.word = word
        self.extra_translation = extra_translation

    def __repr__(self):
        return "LiftedWord(%r, v=%r)" % (self.word, self.extra_translation)


def _lifted(word: Word, v) -> LiftedWord:
    # a lift of a word and an integral translation that were read already
    lw = object.__new__(LiftedWord)
    lw.word, lw.extra_translation = word, v
    return lw


# The word algebra builds its results from arguments it has read: the
# composites call the bodies of the declared parts (__wrapped__), so no
# value is read twice.
@reads(w1=Word, w2=Word)
def compose(w1: Word, w2: Word) -> Word:
    if w1.group is not w2.group:
        raise RotorError("words over different groups")
    return Word(w1.group, w1.letters + w2.letters)


@reads(w=Word)
def inverse(w: Word) -> Word:
    return Word(w.group, [(i, -s) for i, s in reversed(w.letters)])


@reads(w1=Word, w2=Word)
def commutator(w1: Word, w2: Word) -> Word:
    c, i = compose.__wrapped__, inverse.__wrapped__
    return c(c(w1, w2), c(i(w1), i(w2)))


@reads(w=Word)
def linear_part(w: Word) -> MCGClass:
    """The product of the letters' classes, once per group and reduced
    letter sequence; integer products are exact, so the cache changes no
    result."""
    cache = w.group._linear_parts
    out = cache.get(w.letters)
    if out is None:
        out = MCGClass.identity()
        for idx, sign in w.letters:
            a = w.group.generators[idx].linear
            out = out * (a if sign > 0 else a.inverse())
        cache[w.letters] = out
    return out


@reads(l1=LiftedWord, l2=LiftedWord)
def compose_lift(l1: LiftedWord, l2: LiftedWord) -> LiftedWord:
    # (T_u W1)(T_v W2) = T_{u + [W1] v} (W1 W2)
    u, v = l1.extra_translation, l2.extra_translation
    shift = linear_part.__wrapped__(l1.word).apply(v)
    return _lifted(compose.__wrapped__(l1.word, l2.word),
                   (u[0] + shift[0], u[1] + shift[1]))


@reads(lw=LiftedWord)
def inverse_lift(lw: LiftedWord) -> LiftedWord:
    # (T_v W)^-1 = T_{-[W]^-1 v} W^-1
    a = linear_part.__wrapped__(lw.word).inverse()
    shift = a.apply(lw.extra_translation)
    return _lifted(inverse.__wrapped__(lw.word), (-shift[0], -shift[1]))


@reads(l1=LiftedWord, l2=LiftedWord)
def commutator_lift(l1: LiftedWord, l2: LiftedWord) -> LiftedWord:
    c, i = compose_lift.__wrapped__, inverse_lift.__wrapped__
    return c(c(l1, l2), c(i(l1), i(l2)))


def LIFT(w, name) -> LiftedWord:
    # a word as its canonical lift
    return w if isinstance(w, LiftedWord) else _lifted(_WORD(w, name), (0, 0))


def IDENTITY(w, name) -> LiftedWord:
    # a lift whose linear part is the identity
    lw = LIFT(w, name)
    if not linear_part.__wrapped__(lw.word).is_identity():
        raise NotIsotopicToIdentity(
            "%s %r has a nontrivial linear part" % (name, lw.word))
    return lw


@reads(lw=LIFT)
def apply_lift_batch(lw, pts: np.ndarray) -> np.ndarray:
    """Evaluate the lift on plane points, shape (n,2).

    Runs the word's compiled program through the word kernel of the current
    backend (_kernels.apply_word).  A point that is not finite raises
    InvalidArgument before any point is evaluated; an inverse letter whose
    Newton solve fails raises NewtonDivergence.
    """
    prog, vx, vy = compile_program(lw)
    out = _kernels.apply_word(pts, prog, vx, vy)
    # only Newton letters (mode 1) emit NaN
    if prog.mode.any() and np.isnan(out).any():
        raise _divergence(lw)
    return out


@reads(w=LIFT, pts=POINTS)
def apply_torus_batch(w, pts: np.ndarray) -> np.ndarray:
    red = _kernels.reduce_batch(pts)
    return _kernels.reduce_batch(apply_lift_batch(w, red))


@reads(lw=IDENTITY, pts=POINTS)
def displacement_field_batch(lw, pts: np.ndarray) -> np.ndarray:
    """The vectors lift(p~) - p~, independent of the chosen lift of each p."""
    red = _kernels.reduce_batch(pts)
    return apply_lift_batch(lw, red) - red


def _divergence(lw) -> NewtonDivergence:
    return NewtonDivergence(
        "an inverse letter of %r did not reach residual %g in %d Newton steps"
        % (lw.word, _NEWTON_TOL, _NEWTON_MAX))


# ---------------------------------------------------------------------------
# compiled word programs for the word and orbit kernels


def _compile_letters(letters) -> _kernels.Program:
    """Flatten (Generator, sign) letters into the Program the kernels
    consume.  The last letter acts first.

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
    amps, fkx, fky, phase = np.array(terms, dtype=float).reshape(-1, 4).T
    return _kernels.Program(slot=slot, mode=mode, lin=lin, lin_inv=lin_inv,
                            tstart=tstart, tend=tend, amps=amps, fkx=fkx,
                            fky=fky, phase=phase, row=row)


def _run_letters(letters, pts: np.ndarray) -> np.ndarray:
    return _kernels.apply_word(pts, _compile_letters(letters), 0.0, 0.0)


@reads(lw=LIFT)
def compile_program(lw) -> tuple:
    """The kernel arguments (program, vx, vy) of a lifted word: its letters
    compiled to a _kernels.Program (see _compile_letters), and its deck
    translation.

    The letters are compiled once per group and reduced letter sequence;
    words built afresh on every call (commutators, transports) reuse them.
    A Program is never written after it is built, so lifts of one word
    that differ by their deck translation, and the threads of one orbit
    kernel call, share it safely.
    """
    programs = lw.word.group._programs
    prog = programs.get(lw.word.letters)
    if prog is None:
        gens = lw.word.group.generators
        prog = programs[lw.word.letters] = _compile_letters(
            [(gens[i], sign) for i, sign in lw.word.letters])
    v = lw.extra_translation
    return prog, float(v[0]), float(v[1])


def _orbit_program(lw):
    """(plane_mode, kernel arguments) of an orbit mean of a lift.

    An expanding linear part makes the plane orbit overflow, so its word
    is refused rather than returning inf or NaN means.
    """
    a = linear_part(lw.word)
    tag = spectral_class(a).tag
    if tag in ("hyperbolic", "other_real_split"):
        raise RotorError("rotation set undefined for %s linear part: "
                         "displacement means diverge" % tag)
    return not a.is_identity(), compile_program(lw)


def _check_orbit(lw, values) -> None:
    # A torus orbit stays in [0,1)^2 and a plane orbit of a non-expanding
    # class grows at most linearly, so a NaN can only come from a failed
    # Newton inverse.
    if np.isnan(values).any():
        raise _divergence(lw)


def _usable_cpus() -> int:
    # the CPUs this process may run on; not every platform can tell
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@reads(w=LIFT, seeds=POINTS, n=count(1), threads=count(1))
def orbit_displacement_means(w, seeds: np.ndarray, n: int, threads: int = 1
                             ) -> np.ndarray:
    """n-step displacement means (lift^n(p) - p)/n for each seed, shape (m,2).

    Words with identity linear part iterate on the torus and accumulate the
    per-step displacement with compensated summation; other words iterate
    in plane coordinates, and an expanding linear part raises RotorError.
    A NaN mean raises NewtonDivergence.  On the C backend threads > 1 cuts
    the seeds into blocks that one kernel call runs on as many threads,
    each block with its own memo: min(threads, seeds, max(2, usable CPUs))
    blocks, so with one usable CPU threads > 1 still runs two blocks and
    the split path runs on every machine.  The numpy backend runs all seeds
    in one vectorized call.  Results are the same for every thread count.
    """
    plane_mode, args = _orbit_program(w)
    blocks = int(min(threads, len(seeds), max(2, _usable_cpus())))
    means = _kernels.orbit_mean_batch(np.ascontiguousarray(seeds), n,
                                      plane_mode, *args, threads=blocks)
    _check_orbit(w, means)
    return means


@reads(w=LIFT, seed=POINT, n=count(1))
def orbit_mean_with_tail(w, seed, n: int):
    """Displacement mean plus the max deviation of the last n//10 partial
    means; the mean and its failures match orbit_displacement_means."""
    plane_mode, args = _orbit_program(w)
    mx, my, spread = _kernels.orbit_mean_tail(*seed, n, plane_mode, *args)
    _check_orbit(w, (mx, my))
    return (mx, my), spread


@reads(w=LIFT, seed=POINT, n=count(0), burn=count(0))
def orbit_segment(w, seed, n: int, burn: int = 0) -> np.ndarray:
    """Torus orbit points w^burn(p), ..., w^{burn+n-1}(p), shape (n,2)."""
    out = _kernels.orbit_collect(*seed, burn, n, *compile_program(w))
    _check_orbit(w, out)
    return out
