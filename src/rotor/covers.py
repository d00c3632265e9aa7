"""Klein-bottle double cover and annulus doubling.

The torus double-covers the Klein bottle with deck maps T1(x,y) =
(x+1/2, -y) and T2(x,y) = (x, y+1); T1 induces the torus involution
sigma.  Maps lifted from the Klein bottle commute with sigma, which is
measured here on a grid rather than enforced symbolically.  The rho_bar
invariant (a mod 1, |b|) quotients the rotation vector by exactly the
ambiguity sigma introduces.

Annulus maps double across a mirror into torus maps.  The collar
parametrization is t = sin^2(pi*y), which is mirror symmetric and turns
polynomials in t into trig polynomials in y, so doubled maps are honest
generators of this package's algebra and every downstream tool applies
to them.  The price is that only fiber-preserving annulus maps double
exactly; the vertical displacement b is validated but not doubled.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (BoundaryViolation, NotSigmaEquivariant, RotorError)
from .maps import (Generator, LiftedWord, MapGroup, Word, _as_lift,
                   apply_torus_batch, reduce_batch, torus_grid, trig_term)
from .mcg import MCGClass
from .measures import EmpiricalMeasure, rotation_vector

__all__ = [
    "AnnulusMapSpec",
    "KleinMapSpec",
    "annulus_term",
    "apply_annulus_batch",
    "check_sigma_commute",
    "compose_annulus",
    "double_annulus",
    "double_annulus_family",
    "doubled_displacement_terms",
    "klein_symmetrize",
    "rho_bar",
    "sigma_apply",
    "sigma_pushforward",
]


def sigma_apply(pts: np.ndarray) -> np.ndarray:
    """The involution (x, y) -> (x + 1/2, -y) on torus representatives."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    out = np.column_stack([pts[:, 0] + 0.5, -pts[:, 1]])
    return reduce_batch(out)


def _torus_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b)
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[:, 0], d[:, 1])


def check_sigma_commute(w: Word, grid_n: int = 64) -> float:
    """Max torus distance between f(sigma(p)) and sigma(f(p)) on a grid."""
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    pts = torus_grid(grid_n)
    left = apply_torus_batch(w, sigma_apply(pts))
    right = sigma_apply(apply_torus_batch(w, pts))
    return float(_torus_gap(left, right).max())


class KleinMapSpec:
    """A torus word certified to commute with sigma within tol."""

    def __init__(self, torus_word: Word, grid_n: int = 64, tol: float = 1e-9):
        defect = check_sigma_commute(torus_word, grid_n)
        if not defect < tol:
            raise NotSigmaEquivariant(
                "word %r has sigma defect %.3e at grid %d, tol %.3e"
                % (torus_word, defect, grid_n, tol))
        self.torus_word = torus_word
        self.equivariance_defect = defect
        self.grid_n = grid_n
        self.tol = tol

    def __repr__(self):
        return "KleinMapSpec(%r, defect=%.3e)" % (
            self.torus_word, self.equivariance_defect)


def rho_bar(mu: EmpiricalMeasure, lw, grid_n: int = 64,
            sigma_tol: float = 1e-9) -> Tuple[float, float]:
    """The Klein rotation invariant (a mod 1, |b|) of a lifted word.

    The x component of the deck translation never enters, so replacing
    the lift by T_(m,0) composed with it leaves both coordinates bitwise
    unchanged; the y component shifts b before the absolute value.
    """
    base = _as_lift(lw)
    defect = check_sigma_commute(base.word, grid_n)
    if not defect < sigma_tol:
        raise NotSigmaEquivariant(
            "rho_bar needs a sigma-commuting word; defect %.3e" % defect)
    rho0 = rotation_vector(mu, LiftedWord(base.word))
    a = float(rho0[0]) % 1.0
    b = float(rho0[1]) + base.extra_translation[1]
    return (a, abs(b))


def sigma_pushforward(mu: EmpiricalMeasure) -> EmpiricalMeasure:
    return EmpiricalMeasure(sigma_apply(mu.points), mu.weights)


def klein_symmetrize(mu: EmpiricalMeasure) -> EmpiricalMeasure:
    """The sigma-symmetric measure (mu + sigma_*mu)/2.

    For an invariant measure of a sigma-commuting map this is again
    invariant, and its rotation vector has second coordinate zero: the
    computable shadow of averaging over the deck involution.
    """
    pts = np.concatenate([np.asarray(mu.points), sigma_apply(mu.points)])
    w = np.concatenate([mu.weights, mu.weights]) * 0.5
    return EmpiricalMeasure(pts, w)


# --- annulus doubling


def annulus_term(amplitude: float, k: int = 0, phase: float = 0.0,
                 ypow: int = 0):
    """One displacement term amplitude*sin(2pi*k*x + phase)*t^ypow."""
    if k != int(k) or ypow != int(ypow) or ypow < 0:
        raise RotorError("frequency must be integral and ypow >= 0")
    return (float(amplitude), int(k), float(phase), int(ypow))


def constant_rotation(alpha: float):
    return annulus_term(alpha, 0, math.pi / 2.0, 0)


class AnnulusMapSpec:
    """Displacements (a, b) on S^1 x [0,1], trig in x, polynomial in t.

    b must vanish on both boundary circles.  Grouping b terms by their x
    profile, each group's t-polynomial needs zero constant term (t=0)
    and zero coefficient sum (t=1); the check is exact on coefficients.
    """

    def __init__(self, a_terms: Sequence = (), b_terms: Sequence = ()):
        self.a_terms = tuple(annulus_term(*t) for t in a_terms)
        self.b_terms = tuple(annulus_term(*t) for t in b_terms)
        groups = {}
        for amp, k, phase, p in self.b_terms:
            key = (k, phase)
            at_zero, total = groups.get(key, (0.0, 0.0))
            if p == 0:
                at_zero += amp
            groups[key] = (at_zero, total + amp)
        for (k, phase), (at_zero, total) in sorted(groups.items()):
            if at_zero != 0.0 or total != 0.0:
                raise BoundaryViolation(
                    "b profile (k=%d, phase=%g) takes value %g at t=0 "
                    "and %g at t=1; both must vanish" % (k, phase, at_zero, total))

    def is_fiber_preserving(self) -> bool:
        return all(amp == 0.0 for amp, _, _, _ in self.b_terms)


def _eval_annulus_terms(terms, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for amp, k, phase, p in terms:
        out += amp * np.sin(2.0 * math.pi * k * x + phase) * t ** p
    return out


def apply_annulus_batch(spec: AnnulusMapSpec, pts: np.ndarray) -> np.ndarray:
    """Images of (x, t) points; x wraps mod 1, t is the [0,1] coordinate."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, t = pts[:, 0], pts[:, 1]
    nx = (x + _eval_annulus_terms(spec.a_terms, x, t)) % 1.0
    nt = t + _eval_annulus_terms(spec.b_terms, x, t)
    return np.column_stack([nx, nt])


def _t_power_cosine_coeffs(p: int) -> List[float]:
    """Coefficients of t^p = (1/2 - cos(2 pi y)/2)^p in the basis
    cos(2 pi m y); all values are dyadic rationals, hence exact."""
    c = [1.0]
    for _ in range(p):
        nxt = [0.0] * (len(c) + 1)
        for m, cm in enumerate(c):
            nxt[m] += 0.5 * cm
            if m == 0:
                nxt[1] -= 0.5 * cm
            else:
                nxt[m + 1] -= 0.25 * cm
                nxt[m - 1] -= 0.25 * cm
        c = nxt
    return c


def doubled_displacement_terms(spec: "AnnulusMapSpec") -> List[tuple]:
    """The trig terms of the doubled map's x displacement, ready to drop
    into a Generator; the caller picks the group."""
    if not spec.is_fiber_preserving():
        raise RotorError("only fiber-preserving annulus maps (b = 0) "
                         "stay inside the trig algebra")
    return _doubled_terms(spec.a_terms)


def _doubled_terms(a_terms) -> List[tuple]:
    acc = {}

    def add(amp, kx, ky, phase):
        if amp == 0.0:
            return
        key = (kx, ky, phase)
        acc[key] = acc.get(key, 0.0) + amp

    for amp, k, phase, p in a_terms:
        coeffs = _t_power_cosine_coeffs(p)
        add(amp * coeffs[0], k, 0, phase)
        for m in range(1, len(coeffs)):
            # sin(2pi k x + phase) * cos(2pi m y) splits into the two
            # sidebands k x +- m y at half amplitude
            half = amp * coeffs[m] * 0.5
            add(half, k, m, phase)
            add(half, k, -m, phase)
    return [trig_term(a, kx, ky, ph)
            for (kx, ky, ph), a in sorted(acc.items()) if a != 0.0]


def double_annulus_family(named_specs) -> MapGroup:
    """Double several annulus maps into one shared group so their
    doubles compose as words."""
    gens = []
    for name, spec in named_specs:
        gens.append(Generator(name, MCGClass.identity(),
                              disp_x=doubled_displacement_terms(spec)))
    return MapGroup(gens)


def double_annulus(spec: AnnulusMapSpec, name: str = "doubled") -> Word:
    """Mirror-double an annulus map into a torus word.

    The lower half y in [0, 1/2] carries the annulus through the collar
    t = sin^2(pi*y) and the upper half its mirror; the doubled word
    commutes with y -> 1-y by construction.
    """
    group = double_annulus_family([(name, spec)])
    return group.by_name(name)


def compose_annulus(f: AnnulusMapSpec, g: AnnulusMapSpec) -> AnnulusMapSpec:
    """The composite f after g, when it stays in the displacement class.

    Supported: both maps x-independent (displacements add), or g a rigid
    rotation (f's trig profiles pick up a phase shift).
    """
    if not (f.is_fiber_preserving() and g.is_fiber_preserving()):
        raise RotorError("composition is implemented for fiber-preserving maps")
    g_x_indep = all(k == 0 for _, k, _, _ in g.a_terms)
    f_x_indep = all(k == 0 for _, k, _, _ in f.a_terms)
    if g_x_indep and f_x_indep:
        return AnnulusMapSpec(a_terms=f.a_terms + g.a_terms)
    g_rigid = g_x_indep and all(p == 0 for _, _, _, p in g.a_terms)
    if g_rigid:
        c = sum(amp * math.sin(phase) for amp, _, phase, _ in g.a_terms)
        shifted = [(amp, k, phase + 2.0 * math.pi * k * c, p)
                   for amp, k, phase, p in f.a_terms]
        return AnnulusMapSpec(a_terms=tuple(shifted) + g.a_terms)
    raise RotorError(
        "composite displacement leaves the trig-polynomial class; "
        "only x-independent pairs or a rigid inner rotation compose")
