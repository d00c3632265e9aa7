import math

import numpy as np
import pytest

from rotor.catalog import build_catalog, horizontal_circle_measure
from rotor.covers import (AnnulusMapSpec, annulus_term, check_sigma_commute,
                          double_annulus, double_annulus_family,
                          klein_symmetrize, rho_bar, sigma_apply)
from rotor.errors import (InvalidArgument, NotIsotopicToIdentity,
                          NotSigmaEquivariant)
from rotor.maps import (Generator, LiftedWord, MapGroup, apply_torus_batch,
                        compose, constant_term, trig_term)
from rotor.measures import (EmpiricalMeasure, estimate_rotation_set,
                            invariance_defect, rotation_vector)
from rotor.mcg import MCGClass

ID = MCGClass.identity()


def build_group():
    gens = [
        Generator("trx", ID, disp_x=[constant_term(0.3)]),
        Generator("trq", ID, disp_x=[constant_term(0.25)]),
        Generator("try", ID, disp_y=[constant_term(0.3)]),
        Generator("half", ID, disp_y=[constant_term(0.5)]),
        Generator("skew1", ID, disp_y=[trig_term(0.1, 1, 0)]),
        Generator("skew2", ID, disp_y=[trig_term(0.1, 2, 0)]),
        Generator("refl", -ID),
    ]
    return MapGroup(gens)


G = build_group()


def test_sigma_is_an_involution_on_atoms():
    pts = np.array([(0.1, 0.2), (0.6, 0.0), (0.3, 0.85)])
    back = sigma_apply(sigma_apply(pts))
    assert np.abs(back - pts).max() < 1e-15


@pytest.mark.parametrize("bad", [[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]],
                                 [0.1, 0.2, 0.3, 0.4], [[[0.1, 0.2]]], []])
def test_sigma_refuses_points_of_the_wrong_shape(bad):
    with pytest.raises(InvalidArgument):
        sigma_apply(bad)
    assert sigma_apply((0.25, 0.5)).tolist() == [[0.75, 0.5]]


def test_x_translation_commutes():
    # dyadic shift: every intermediate sum is exact, defect comes out 0.0
    assert check_sigma_commute(G.by_name("trq")) == 0.0
    # nondyadic shift: addition order costs one ulp, nothing more
    assert check_sigma_commute(G.by_name("trx")) < 1e-15


def test_y_translation_fails_by_wrapped_2b():
    d = check_sigma_commute(G.by_name("try"))
    assert abs(d - 0.4) < 1e-15
    # b = 1/2 is the deck translation T2 composed in; that one commutes
    assert check_sigma_commute(G.by_name("half")) == 0.0


def test_frequency_one_skew_commutes():
    # sigma negates the y displacement AND shifts x by 1/2, which flips
    # sin(2 pi x) right back: the two signs cancel and the defect is
    # noise-level, not 2*epsilon
    assert check_sigma_commute(G.by_name("skew1")) < 1e-14


def test_frequency_two_skew_defect_is_2eps():
    # sin(4 pi x) survives the half shift unchanged, so only the y flip
    # acts and the grid sees the full 2*epsilon at |sin| = 1
    d = check_sigma_commute(G.by_name("skew2"))
    assert abs(d - 0.2) < 1e-14


def test_rho_bar_identity():
    assert rho_bar(EmpiricalMeasure.uniform_grid(8), G.identity()) == (0.0, 0.0)


def test_rho_bar_translation_closed_form():
    mu = EmpiricalMeasure.uniform_grid(16)
    a, b = rho_bar(mu, G.by_name("trq"))
    assert (a, b) == (0.25, 0.0)
    a, b = rho_bar(mu, G.by_name("trx"))
    assert abs(a - 0.3) < 1e-15 and b == 0.0


def test_rho_bar_ignores_horizontal_deck_shift_bitwise():
    mu = EmpiricalMeasure.uniform_grid(16)
    lw = LiftedWord(G.by_name("trx"))
    base = rho_bar(mu, lw)
    for m in (1, -3, 7):
        assert rho_bar(mu, LiftedWord(lw.word, (m, 0))) == base


def test_rho_bar_snaps_a_hair_below_one_to_zero():
    # h's mean x displacement over these atoms rounds to a tiny negative
    # float (-1.7e-18 on the 32 grid), which a bare % 1.0 turns into 1.0
    h = build_catalog().by_name("h")
    assert rho_bar(EmpiricalMeasure.uniform_grid(32), h)[0] == 0.0
    measures = [EmpiricalMeasure.uniform_grid(k) for k in range(2, 41)]
    measures += [horizontal_circle_measure(y0, n)
                 for y0 in (0.0, 0.1, 0.25, 0.3) for n in range(3, 40)]
    for mu in measures:
        assert 0.0 <= rho_bar(mu, h)[0] < 1.0, mu


def test_rho_bar_vertical_deck_shift_moves_b():
    mu = EmpiricalMeasure.uniform_grid(16)
    lw = LiftedWord(G.by_name("trx"))
    assert rho_bar(mu, LiftedWord(lw.word, (0, 2)))[1] == 2.0
    assert rho_bar(mu, LiftedWord(lw.word, (0, -1)))[1] == 1.0


def test_rho_bar_error_paths():
    mu = EmpiricalMeasure.uniform_grid(8)
    with pytest.raises(NotSigmaEquivariant):
        rho_bar(mu, G.by_name("skew2"))
    # the point reflection commutes with sigma exactly but has linear
    # part -Id, so the rotation vector itself is undefined
    with pytest.raises(NotIsotopicToIdentity):
        rho_bar(mu, G.by_name("refl"))


def circle_measure(x0):
    return EmpiricalMeasure([(x0, j / 16) for j in range(16)])


def test_sigma_conjugate_measure_flips_b():
    mu = circle_measure(0.25)
    lw = LiftedWord(G.by_name("skew1"))
    a, b = rotation_vector(mu, lw)
    sigma_mu = EmpiricalMeasure(sigma_apply(mu.points), mu.weights)
    a2, b2 = rotation_vector(sigma_mu, lw)
    assert abs(a2 - a) < 1e-8 and abs(b2 + b) < 1e-8
    assert abs(b - 0.1) < 1e-12


def test_symmetrization_kills_second_coordinate():
    nu = circle_measure(0.25)
    tau = klein_symmetrize(nu)
    assert len(tau) == 32
    assert invariance_defect(G.by_name("skew1"), tau) < 1e-12
    rho = rotation_vector(tau, LiftedWord(G.by_name("skew1")))
    assert abs(rho[1]) < 1e-8
    # rho_bar of the symmetrized measure is the honest Klein invariant
    assert rho_bar(tau, G.by_name("skew1")) == (0.0, 0.0)


def test_rho_bar_zero_iff_rotation_vector_integral():
    mu = EmpiricalMeasure.uniform_grid(8)
    group = MapGroup([
        Generator("a0", ID),
        Generator("a1", ID, disp_x=[constant_term(0.25)]),
        Generator("a2", ID, disp_x=[constant_term(0.5)]),
        Generator("a3", ID, disp_x=[constant_term(1.0)]),
    ])
    for name in ("a0", "a1", "a2", "a3"):
        w = group.by_name(name)
        a, b = rho_bar(mu, w)
        bar_zero = b < 1e-9 and min(a, 1.0 - a) < 1e-9
        rv = rotation_vector(mu, LiftedWord(w))
        vec_zero = np.abs(rv - np.round(rv)).max() < 1e-9
        assert bar_zero == vec_zero, name


# --- annulus doubling


def _eval_annulus_terms(terms, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    for amp, k, phase, p in terms:
        out += amp * np.sin(2.0 * math.pi * k * x + phase) * t ** p
    return out


def apply_annulus_batch(spec: AnnulusMapSpec, pts: np.ndarray) -> np.ndarray:
    """Oracle for the doubled maps: images of (x, t) points evaluated
    directly on the annulus; x wraps mod 1, t is the [0,1] coordinate."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, t = pts[:, 0], pts[:, 1]
    nx = (x + _eval_annulus_terms(spec.a_terms, x, t)) % 1.0
    return np.column_stack([nx, t])


def twist_spec(beta):
    return AnnulusMapSpec(a_terms=[annulus_term(beta, 0, math.pi / 2, 1),
                                   annulus_term(-beta, 0, math.pi / 2, 2)])


def rotation_spec(alpha):
    return AnnulusMapSpec(a_terms=[annulus_term(alpha, 0, math.pi / 2, 0)])


def test_double_identity_and_rigid_rotation():
    rng = np.random.default_rng(3)
    pts = rng.random((60, 2))
    wid = double_annulus(AnnulusMapSpec(), "id")
    assert np.abs(apply_torus_batch(wid, pts) - pts).max() == 0.0
    wr = double_annulus(rotation_spec(0.25), "r")
    img = apply_torus_batch(wr, pts)
    want = np.column_stack([(pts[:, 0] + 0.25) % 1.0, pts[:, 1]])
    assert np.abs(img - want).max() < 1e-15


def test_double_restricts_to_the_annulus_map():
    spec = twist_spec(0.4)
    w = double_annulus(spec, "tw")
    ys = np.linspace(0.0, 0.5, 21)
    pts = np.column_stack([np.full_like(ys, 0.13), ys])
    img = apply_torus_batch(w, pts)
    t = np.sin(math.pi * ys) ** 2
    ann = apply_annulus_batch(spec, np.column_stack([pts[:, 0], t]))
    assert np.abs(img[:, 0] - ann[:, 0]).max() < 1e-14
    assert np.abs(img[:, 1] - pts[:, 1]).max() == 0.0


def test_double_commutes_with_mirror():
    w = double_annulus(twist_spec(0.4), "tw")
    rng = np.random.default_rng(5)
    pts = rng.random((100, 2))
    mirrored = np.column_stack([pts[:, 0], (1.0 - pts[:, 1]) % 1.0])
    left = apply_torus_batch(w, mirrored)
    right = apply_torus_batch(w, pts)
    right = np.column_stack([right[:, 0], (1.0 - right[:, 1]) % 1.0])
    assert np.abs(left - right).max() < 1e-14


def test_doubled_twist_fixes_boundary_circles():
    from rotor.fixed_points import find_fixed_points
    w = double_annulus(twist_spec(0.4), "tw")
    r = find_fixed_points(w, 32, 1e-9)
    assert sorted(c.points[0][1] for c in r.chains) == [0.0, 0.5]
    assert all(c.cell_count == 32 for c in r.chains)


def test_doubled_twist_rotation_segment():
    # fiberwise rotation beta*t*(1-t) sweeps [0, beta/4]; the doubled
    # map's rotation set is that segment on the x axis
    w = double_annulus(twist_spec(0.4), "tw")
    seeds = np.array([(0.0, j / 64) for j in range(64)])
    est = estimate_rotation_set(w, seeds, 2000)
    xs = est.hull[:, 0]
    assert np.abs(est.hull[:, 1]).max() < 1e-12
    assert abs(xs.min()) < 1e-12
    assert abs(xs.max() - 0.1) < 1e-12


def test_doubling_functoriality():
    # the double of f after g, on the lower half y in [0, 1/2], is the
    # annulus map f after g in the collar coordinate t = sin^2(pi y)
    rng = np.random.default_rng(11)
    pts = rng.random((100, 2)) * (1.0, 0.5)
    t = np.sin(math.pi * pts[:, 1]) ** 2
    tw, rot = twist_spec(0.4), rotation_spec(0.3)
    xdep = AnnulusMapSpec(a_terms=[annulus_term(0.03, 1, 0.0, 1)])
    for f, g in [(tw, rot), (rot, tw), (tw, tw), (xdep, rot), (xdep, xdep)]:
        grp = double_annulus_family([("f", f), ("g", g)])
        img = apply_torus_batch(grp.word("f g"), pts)
        ann = apply_annulus_batch(
            f, apply_annulus_batch(g, np.column_stack([pts[:, 0], t])))
        dx = np.abs(img[:, 0] - ann[:, 0])
        assert np.minimum(dx, 1.0 - dx).max() < 1e-14
        assert np.abs(img[:, 1] - pts[:, 1]).max() == 0.0


def test_family_doubles_into_one_group():
    grp = double_annulus_family([
        ("tw", twist_spec(0.4)),
        ("rot", rotation_spec(0.3)),
    ])
    w = compose(grp.by_name("tw"), grp.by_name("rot"))
    rng = np.random.default_rng(7)
    pts = rng.random((40, 2))
    step = apply_torus_batch(grp.by_name("rot"), pts)
    want = apply_torus_batch(grp.by_name("tw"), step)
    assert np.abs(apply_torus_batch(w, pts) - want).max() < 1e-14
