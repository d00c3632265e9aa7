"""Built-in example maps and measure pairings.

One shared group holds every map the documentation, the examples
subcommand, and the verification suite refer to, so catalog words
compose freely: the odd shear h and the point reflection phi, the Dehn
and Anosov automorphisms, translations, the skews, and the doubled
annulus twist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .covers import AnnulusMapSpec, annulus_term, doubled_displacement_terms
from .maps import (Generator, MapGroup, Word, _check_count, constant_term,
                   trig_term)
from .mcg import MCGClass
from .measures import EmpiricalMeasure

__all__ = [
    "ALPHA",
    "FranksCase",
    "annulus_twist_spec",
    "build_catalog",
    "circle_measure",
    "franks_cases",
    "horizontal_circle_measure",
    "orbit_measure",
]

# the irrational translation slope used throughout the examples
ALPHA = math.sqrt(2.0) - 1.0

_ID = MCGClass.identity()


def annulus_twist_spec() -> AnnulusMapSpec:
    """The boundary-fixing twist (x + 0.4*t*(1-t), t)."""
    return AnnulusMapSpec(a_terms=[annulus_term(0.4, 0, math.pi / 2, 1),
                                   annulus_term(-0.4, 0, math.pi / 2, 2)])


def build_catalog() -> MapGroup:
    gens = [
        # odd shear with fixed circles x in {0, 1/2} and rho = (0, 0.1)
        # on the invariant circle x = 1/4
        Generator("h", _ID,
                  disp_x=[trig_term(0.05, 2, 0)],
                  disp_y=[trig_term(0.1, 1, 0)]),
        # point reflection, lift (-x, -y)
        Generator("phi", -_ID),
        Generator("dehn", MCGClass(1, 0, 1, 1)),
        Generator("anosov", MCGClass(2, 1, 1, 1)),
        Generator("tr", _ID,
                  disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3)]),
        Generator("halftr", _ID, disp_x=[constant_term(0.5)]),
        Generator("skew", _ID, disp_y=[trig_term(0.1, 1, 0)]),
        # irrational base rotation driving a mean-zero shear: the rotation
        # set collapses to the single point (ALPHA, 0.3)
        Generator("irrskew", _ID,
                  disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3), trig_term(0.1, 1, 0)]),
        Generator("twist", _ID,
                  disp_x=doubled_displacement_terms(annulus_twist_spec())),
    ]
    return MapGroup(gens)


def circle_measure(x0: float, atoms: int = 16) -> EmpiricalMeasure:
    """Uniform atoms on the vertical circle x = x0."""
    _check_count(atoms, 1, "atoms")
    return EmpiricalMeasure([(x0, j / atoms) for j in range(atoms)])


def horizontal_circle_measure(y0: float, atoms: int = 16) -> EmpiricalMeasure:
    _check_count(atoms, 1, "atoms")
    return EmpiricalMeasure([(j / atoms, y0) for j in range(atoms)])


def orbit_measure(n: int = 2048) -> EmpiricalMeasure:
    """Orbit of the irrational translation; invariance defect ~ 1/n."""
    k = np.arange(n)
    return EmpiricalMeasure(
        np.column_stack([(ALPHA * k) % 1.0, (0.3 * k) % 1.0]))


@dataclass(frozen=True)
class FranksCase:
    """One (map, invariant measure) pair for the consistency sweep."""

    label: str
    word: Word
    measure: EmpiricalMeasure


def franks_cases(group: MapGroup = None) -> List[FranksCase]:
    """Every catalog pair the fixed-point consistency sweep runs over.

    Only words with identity linear part appear: the rotation vector,
    hence the hypothesis, is undefined for the others.
    """
    g = group if group is not None else build_catalog()
    mix = EmpiricalMeasure(
        [(0.125, j / 32) for j in range(32)]
        + [(0.875, j / 32) for j in range(32)])
    return [
        FranksCase("identity on the uniform grid",
                   g.identity(), EmpiricalMeasure.uniform_grid(8)),
        FranksCase("skew with an atom on its fixed circle",
                   g.by_name("skew"), EmpiricalMeasure.dirac((0.0, 0.37))),
        FranksCase("skew on the transported circle x=1/4",
                   g.by_name("skew"), circle_measure(0.25)),
        FranksCase("skew mixture with cancelling speeds",
                   g.by_name("skew"), mix),
        FranksCase("odd shear on the circle x=1/4",
                   g.by_name("h"), circle_measure(0.25)),
        FranksCase("odd shear with an atom at the origin",
                   g.by_name("h"), EmpiricalMeasure.dirac((0.0, 0.0))),
        FranksCase("irrational translation orbit closure",
                   g.by_name("tr"), orbit_measure()),
        FranksCase("half translation on the uniform grid",
                   g.by_name("halftr"), EmpiricalMeasure.uniform_grid(16)),
        FranksCase("doubled twist on a boundary circle",
                   g.by_name("twist"), horizontal_circle_measure(0.0)),
        FranksCase("doubled twist on the fast circle y=1/4",
                   g.by_name("twist"), horizontal_circle_measure(0.25)),
    ]
