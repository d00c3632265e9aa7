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
from numbers import Integral, Real
from typing import Sequence, Tuple

import numpy as np

from . import _kernels
from ._kernels import _NEWTON_MAX, _NEWTON_TOL, reduce_batch
from .errors import (InvalidArgument, NewtonDivergence,
                     NotIsotopicToIdentity, RotorError)
from .mcg import MCGClass, _check_integral, _check_kind, spectral_class

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

def reduce_point(p) -> Tuple[float, float]:
    """Canonical torus representative in [0,1)^2, with a snap at the seam."""
    x, y = reduce_batch(np.array(_as_point(p, "p")))
    return (float(x), float(y))


def torus_grid(k: int) -> np.ndarray:
    """The k*k grid points (i/k, j/k), i-major ("ij" order), shape (k*k, 2)."""
    _check_count(k, 1, "grid size")
    axis = np.arange(k) / k
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)


def trig_term(amplitude: float, kx: int, ky: int, phase: float = 0.0):
    """One displacement term amplitude*sin(2pi*(kx*x + ky*y) + phase), with
    a finite amplitude and phase and integral frequencies."""
    msg = "frequencies must be integers"
    return (_check_finite(amplitude, "amplitude"), _check_integral(kx, msg),
            _check_integral(ky, msg), _check_finite(phase, "phase"))


def constant_term(value: float):
    # sin(pi/2) = 1 turns a term into a constant offset
    return (_check_finite(value, "constant"), 0, 0, math.pi / 2)


def _read_terms(terms, make, form: str) -> tuple:
    # terms as tuples of make's arguments; a term of the wrong length, or
    # terms that are not a sequence of tuples, would leak TypeError
    try:
        return tuple(make(*t) for t in terms)
    except TypeError:
        raise InvalidArgument("terms must be tuples %s, not %r"
                              % (form, terms)) from None


class Generator:
    """One torus homeomorphism, given exactly.

    disp_x / disp_y are tuples of trig terms (see trig_term).  With a
    constant-only displacement the inverse is derived in closed form.
    Otherwise inverse evaluation runs Newton iteration, certified by the
    contraction bound  ||A^-1||_inf * max-row-sum of the displacement
    Jacobian < 1  (the bare row bound of the sufficient condition, tightened
    by the linear factor, which is 1 for A = +-Id).
    """

    def __init__(self, name: str, linear: MCGClass, disp_x=(), disp_y=(),
                 _derive: bool = True):
        self.name = str(name)
        _check_kind(linear, MCGClass, "Generator")
        if max(map(abs, (linear.a, linear.b, linear.c, linear.d))) > 2 ** 53:
            # the float linear parts hold integers exactly only up to 2**53
            raise RotorError("linear part has an entry above 2**53")
        self.linear = linear
        form = "(amplitude, kx, ky[, phase])"
        self.disp_x = _read_terms(disp_x, trig_term, form)
        self.disp_y = _read_terms(disp_y, trig_term, form)

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

    def __init__(self, generators: Sequence[Generator]):
        self.generators = tuple(_check_kind(g, Generator, "MapGroup")
                                for g in generators)
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
        raise RotorError("unknown generator %r in word" % name)

    def identity(self) -> "Word":
        return Word(self, [])


def _free_reduce(letters, size: int) -> tuple:
    """The letters checked and freely reduced in one pass; RotorError
    unless each is an (index, sign) pair with an integer index in
    [0, size) and a sign of +1 or -1."""
    out = []
    for letter in letters:
        try:
            idx, sign = letter
        except (TypeError, ValueError):
            raise RotorError("a letter must be an (index, sign) pair, not %r"
                             % (letter,)) from None
        # int first: the Integral check alone costs far more per letter
        if not (isinstance(idx, (int, Integral)) and 0 <= idx < size):
            raise RotorError("generator index %r is not an integer in [0, %d)"
                             % (idx, size))
        if sign not in (1, -1):
            raise RotorError("letter sign must be +1 or -1")
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


class LiftedWord:
    """T_v composed with the canonical lift of a word; v integral."""

    def __init__(self, word: Word, extra_translation=(0, 0)):
        msg = "deck translation must be integral"
        self.word = _check_kind(word, Word, "a lift")
        self.extra_translation = (_check_integral(extra_translation[0], msg),
                                  _check_integral(extra_translation[1], msg))

    def __repr__(self):
        return "LiftedWord(%r, v=%r)" % (self.word, self.extra_translation)


def compose(w1: Word, w2: Word) -> Word:
    _check_kind(w1, Word, "compose")
    _check_kind(w2, Word, "compose")
    if w1.group is not w2.group:
        raise RotorError("words over different groups")
    return Word(w1.group, list(w1.letters) + list(w2.letters))


def inverse(w: Word) -> Word:
    _check_kind(w, Word, "inverse")
    return Word(w.group, [(i, -s) for i, s in reversed(w.letters)])


def commutator(w1: Word, w2: Word) -> Word:
    return compose(compose(w1, w2), compose(inverse(w1), inverse(w2)))


def linear_part(w: Word) -> MCGClass:
    """The product of the letters' classes, once per group and reduced
    letter sequence; integer products are exact, so the cache changes no
    result."""
    cache = _check_kind(w, Word, "linear_part").group._linear_parts
    out = cache.get(w.letters)
    if out is None:
        out = MCGClass.identity()
        for idx, sign in w.letters:
            a = w.group.generators[idx].linear
            out = out * (a if sign > 0 else a.inverse())
        cache[w.letters] = out
    return out


def compose_lift(l1: LiftedWord, l2: LiftedWord) -> LiftedWord:
    # (T_u W1)(T_v W2) = T_{u + [W1] v} (W1 W2)
    _check_kind(l1, LiftedWord, "compose_lift")
    _check_kind(l2, LiftedWord, "compose_lift")
    u, v = l1.extra_translation, l2.extra_translation
    a = linear_part(l1.word)
    shift = a.apply(v)
    return LiftedWord(compose(l1.word, l2.word), (u[0] + shift[0], u[1] + shift[1]))


def inverse_lift(lw: LiftedWord) -> LiftedWord:
    # (T_v W)^-1 = T_{-[W]^-1 v} W^-1
    _check_kind(lw, LiftedWord, "inverse_lift")
    a = linear_part(lw.word).inverse()
    shift = a.apply(lw.extra_translation)
    return LiftedWord(inverse(lw.word), (-shift[0], -shift[1]))


def commutator_lift(l1: LiftedWord, l2: LiftedWord) -> LiftedWord:
    return compose_lift(compose_lift(l1, l2),
                        compose_lift(inverse_lift(l1), inverse_lift(l2)))


def _as_lift(w) -> LiftedWord:
    return w if isinstance(w, LiftedWord) else LiftedWord(w)


def apply_lift_batch(lw, pts: np.ndarray) -> np.ndarray:
    """Evaluate the lift on plane points, shape (n,2).

    Runs the word's compiled program through the word kernel of the current
    backend (_kernels.apply_word).  A point that is not finite raises
    InvalidArgument before any point is evaluated; an inverse letter whose
    Newton solve fails raises NewtonDivergence.
    """
    lw = _as_lift(lw)
    prog, vx, vy = compile_program(lw)
    out = _kernels.apply_word(pts, prog, vx, vy)
    # only Newton letters (mode 1) emit NaN
    if prog.mode.any() and np.isnan(out).any():
        raise _divergence(lw)
    return out


def apply_torus_batch(w, pts: np.ndarray) -> np.ndarray:
    pts = reduce_batch(_as_points(pts, "points"))
    return reduce_batch(apply_lift_batch(w, pts))


def _require_identity(lw, what: str = "word") -> LiftedWord:
    """lw as a lift; raises NotIsotopicToIdentity unless its linear part is Id."""
    lw = _as_lift(lw)
    if not linear_part(lw.word).is_identity():
        raise NotIsotopicToIdentity(
            "%s %r has a nontrivial linear part" % (what, lw.word))
    return lw


def displacement_field_batch(lw, pts: np.ndarray) -> np.ndarray:
    """The vectors lift(p~) - p~, independent of the chosen lift of each p."""
    lw = _require_identity(lw)
    red = reduce_batch(_as_points(pts, "points"))
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
    lw = _as_lift(lw)
    programs = lw.word.group._programs
    prog = programs.get(lw.word.letters)
    if prog is None:
        gens = lw.word.group.generators
        prog = programs[lw.word.letters] = _compile_letters(
            [(gens[i], sign) for i, sign in lw.word.letters])
    v = lw.extra_translation
    return prog, float(v[0]), float(v[1])


def _as_points(values, what: str) -> np.ndarray:
    """The one reader of point arguments: values as finite float points
    (m, 2), a lone pair (2,) as one point.  Any other shape, or a coordinate
    that is not finite, raises InvalidArgument before any reduction or orbit.
    """
    try:
        pts = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument("%s: %s" % (what, exc)) from None
    if pts.shape == (2,):
        pts = pts.reshape(1, 2)
    elif pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidArgument("%s must have shape (m, 2) or (2,), got %s"
                              % (what, pts.shape))
    if not np.isfinite(pts).all():
        raise InvalidArgument("%s must be finite" % what)
    return pts


def _as_point(value, what: str) -> Tuple[float, float]:
    """value as one finite point (x, y) of floats; see _as_points."""
    pts = _as_points(value, what)
    if len(pts) != 1:
        raise InvalidArgument("%s must be one point" % what)
    return float(pts[0, 0]), float(pts[0, 1])


def _check_count(value, least: int, what: str) -> None:
    # the one check of counts (orbit lengths, burn-ins, windows, threads,
    # grid sizes, atoms, L, samples, P, powers of t): a float, a string or
    # an integer below least raises
    if not isinstance(value, Integral) or value < least:
        raise InvalidArgument("%s must be an integer >= %d" % (what, least))


def _check_finite(value, what: str) -> float:
    # the one check of term amplitudes and phases: a NaN would read as a
    # Lipschitz bound of 0 and certify a generator whose maps return NaN
    try:
        if isinstance(value, Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise InvalidArgument("%s must be a finite number, not %r"
                          % (what, value))


def _check_positive(value, what: str) -> None:
    # the one check of tolerances and radii: NaN, inf, zero, a negative
    # value or a non-number would make every comparison with it meaningless
    if not (isinstance(value, Real) and 0.0 < value < math.inf):
        raise InvalidArgument("%s must be a finite number > 0" % what)


def _orbit_program(w, n: int):
    """(lift, plane_mode, kernel arguments) of an orbit mean of length n >= 1.

    An expanding linear part makes the plane orbit overflow, so its word
    is refused rather than returning inf or NaN means.
    """
    _check_count(n, 1, "orbit length")
    lw = _as_lift(w)
    a = linear_part(lw.word)
    tag = spectral_class(a).tag
    if tag in ("hyperbolic", "other_real_split"):
        raise RotorError("rotation set undefined for %s linear part: "
                         "displacement means diverge" % tag)
    return lw, not a.is_identity(), compile_program(lw)


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
    threads must be an integer >= 1, else InvalidArgument is raised.
    """
    _check_count(threads, 1, "threads")
    seeds = np.ascontiguousarray(_as_points(seeds, "orbit seeds"))
    lw, plane_mode, args = _orbit_program(w, n)
    blocks = int(min(threads, len(seeds), max(2, _usable_cpus())))
    means = _kernels.orbit_mean_batch(seeds, n, plane_mode, *args,
                                      threads=blocks)
    _check_orbit(lw, means)
    return means


def orbit_mean_with_tail(w, seed, n: int):
    """Displacement mean plus the max deviation of the last n//10 partial
    means; the mean and its failures match orbit_displacement_means."""
    seed = _as_point(seed, "orbit seeds")
    lw, plane_mode, args = _orbit_program(w, n)
    mx, my, spread = _kernels.orbit_mean_tail(*seed, n, plane_mode, *args)
    _check_orbit(lw, (mx, my))
    return (mx, my), spread


def orbit_segment(w, seed, n: int, burn: int = 0) -> np.ndarray:
    """Torus orbit points w^burn(p), ..., w^{burn+n-1}(p), shape (n,2)."""
    lw = _as_lift(w)
    seed = _as_point(seed, "orbit seeds")
    _check_count(n, 0, "orbit length")
    _check_count(burn, 0, "burn-in")
    out = _kernels.orbit_collect(*seed, burn, n, *compile_program(lw))
    _check_orbit(lw, out)
    return out
