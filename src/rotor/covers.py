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
exactly, so an annulus map carries a horizontal displacement only.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ._args import (FINITE, INTEGRAL, POINTS, POSITIVE, count, each, reads,
                    terms)
from ._kernels import reduce_batch
from .errors import NotSigmaEquivariant
from .maps import (LIFT, Generator, LiftedWord, MapGroup, Word,
                   apply_torus_batch, torus_grid, trig_term)
from .mcg import MCGClass
from .measures import EmpiricalMeasure, rotation_vector

__all__ = [
    "AnnulusMapSpec",
    "annulus_term",
    "check_sigma_commute",
    "double_annulus",
    "double_annulus_family",
    "doubled_displacement_terms",
    "klein_symmetrize",
    "rho_bar",
    "sigma_apply",
]


@reads(pts=POINTS)
def sigma_apply(pts: np.ndarray) -> np.ndarray:
    """The involution (x, y) -> (x + 1/2, -y) on torus representatives."""
    out = np.column_stack([pts[:, 0] + 0.5, -pts[:, 1]])
    return reduce_batch(out)


def _torus_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b)
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[:, 0], d[:, 1])


@reads(w=LIFT)
def check_sigma_commute(w: Word) -> float:
    """Max torus distance between f(sigma(p)) and sigma(f(p)) on the
    64 x 64 grid."""
    pts = torus_grid(64)
    left = apply_torus_batch(w, sigma_apply(pts))
    right = sigma_apply(apply_torus_batch(w, pts))
    return float(_torus_gap(left, right).max())


@reads(mu=EmpiricalMeasure, lw=LIFT, sigma_tol=POSITIVE)
def rho_bar(mu: EmpiricalMeasure, lw,
            sigma_tol: float = 1e-9) -> Tuple[float, float]:
    """The Klein rotation invariant (a mod 1, |b|) of a lifted word.

    The x component of the deck translation never enters, so replacing
    the lift by T_(m,0) composed with it leaves both coordinates bitwise
    unchanged; the y component shifts b before the absolute value.
    """
    defect = check_sigma_commute(lw.word)
    if not defect < sigma_tol:
        raise NotSigmaEquivariant(
            "rho_bar needs a sigma-commuting word; defect %.3e" % defect)
    rho0 = rotation_vector(mu, LiftedWord(lw.word))
    a = float(rho0[0]) % 1.0
    b = float(rho0[1]) + lw.extra_translation[1]
    return (a, abs(b))


@reads(mu=EmpiricalMeasure)
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


@reads(amplitude=FINITE, k=INTEGRAL, phase=FINITE, ypow=count(0))
def annulus_term(amplitude: float, k: int = 0, phase: float = 0.0,
                 ypow: int = 0):
    """One displacement term amplitude*sin(2pi*k*x + phase)*t^ypow."""
    return (amplitude, k, phase, int(ypow))


class AnnulusMapSpec:
    """A fiber-preserving map (x + a(x, t), t) of S^1 x [0,1], with a trig
    in x and polynomial in t."""

    @reads(a_terms=terms(annulus_term))
    def __init__(self, a_terms: Sequence = ()):
        self.a_terms = a_terms


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


@reads(spec=AnnulusMapSpec)
def doubled_displacement_terms(spec: "AnnulusMapSpec") -> List[tuple]:
    """The trig terms of the doubled map's x displacement, ready to drop
    into a Generator; the caller picks the group."""
    acc = {}

    def add(amp, kx, ky, phase):
        if amp == 0.0:
            return
        key = (kx, ky, phase)
        acc[key] = acc.get(key, 0.0) + amp

    for amp, k, phase, p in spec.a_terms:
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


@reads(named_specs=each(each(str, AnnulusMapSpec)))
def double_annulus_family(named_specs) -> MapGroup:
    """Double several annulus maps into one shared group so their
    doubles compose as words."""
    gens = []
    for name, spec in named_specs:
        gens.append(Generator(name, MCGClass.identity(),
                              disp_x=doubled_displacement_terms(spec)))
    return MapGroup(gens)


@reads(spec=AnnulusMapSpec, name=str)
def double_annulus(spec: AnnulusMapSpec, name: str = "doubled") -> Word:
    """Mirror-double an annulus map into a torus word.

    The lower half y in [0, 1/2] carries the annulus through the collar
    t = sin^2(pi*y) and the upper half its mirror; the doubled word
    commutes with y -> 1-y by construction.
    """
    group = double_annulus_family([(name, spec)])
    return group.by_name(name)
