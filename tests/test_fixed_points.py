import csv
import json
import math

import numpy as np
import pytest

from rotor import _kernels, fixed_points, maps
from rotor._io import write_json
from rotor.catalog import build_catalog, franks_cases
from rotor.errors import (AmbiguousWinding, DefectExceeded, InvalidArgument,
                          NewtonDivergence, NonIsolated,
                          NotIsotopicToIdentity)
from rotor.fixed_points import (_combined_norm, _grid_components,
                                _local_min_seeds, _min_torus_dist, _refine,
                                _residual_fields, common_fixed_points,
                                find_fixed_points, fixed_point_index,
                                franks_certificate)
from rotor.maps import (Generator, LiftedWord, MapGroup, apply_lift_batch,
                        displacement_field_batch, reduce_point, torus_grid,
                        trig_term, constant_term)
from rotor.measures import EmpiricalMeasure, irrotational_lift
from rotor.mcg import MCGClass

ID = MCGClass.identity()
ALPHA = math.sqrt(2.0) - 1.0


def build_group():
    gens = [
        Generator("skew", ID, disp_y=[trig_term(0.1, 1, 0)]),
        Generator("skew2", ID, disp_x=[trig_term(0.1, 0, 1)]),
        Generator("hmap", ID, disp_x=[trig_term(0.05, 2, 0)],
                  disp_y=[trig_term(0.1, 1, 0)]),
        Generator("prod", ID, disp_x=[trig_term(0.1, 1, 0)],
                  disp_y=[trig_term(0.1, 0, 1)]),
        # same product structure with the zeros pushed off every grid line
        Generator("prodoff", ID,
                  disp_x=[trig_term(0.1, 1, 0, -2.0 * math.pi * 0.3)],
                  disp_y=[trig_term(0.1, 0, 1, -2.0 * math.pi * 0.15)]),
        Generator("refl", -ID),
        Generator("dehn", MCGClass(1, 0, 1, 1)),
        Generator("tr", ID, disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3)]),
    ]
    return MapGroup(gens)


G = build_group()
SKEW = G.by_name("skew")
SKEW2 = G.by_name("skew2")
HMAP = G.by_name("hmap")
PROD = G.by_name("prod")
PRODOFF = G.by_name("prodoff")
REFL = G.by_name("refl")
TR = G.by_name("tr")


def test_identity_flagged_all_fixed():
    r = find_fixed_points(G.identity(), 16, 1e-9)
    assert r.all_points_fixed
    assert r.points == [] and r.chains == []
    assert not r.is_empty()


def test_grid_too_coarse_rejected():
    with pytest.raises(InvalidArgument):
        find_fixed_points(SKEW, 7, 1e-9)


def test_nonisotopic_word_rejected():
    with pytest.raises(NotIsotopicToIdentity):
        find_fixed_points(G.by_name("dehn"), 16, 1e-9)


def test_skew_fixed_circles_are_two_chains():
    r = find_fixed_points(SKEW, 32, 1e-9)
    assert len(r.chains) == 2
    assert r.points == []
    xs = sorted(c.points[0][0] for c in r.chains)
    assert xs == [0.0, 0.5]
    for c in r.chains:
        assert c.cell_count == 32
        assert c.max_residual < 1e-10
        assert all(p[0] == c.points[0][0] for p in c.points)


def test_odd_shear_fixes_the_same_circles():
    r = find_fixed_points(HMAP, 32, 1e-9)
    assert sorted(c.points[0][0] for c in r.chains) == [0.0, 0.5]
    # x = 1/4 kills the first component only, so no chain there
    assert all(abs(c.points[0][0] - 0.25) > 0.2 for c in r.chains)
    assert r.points == []


def test_newton_points_within_one_and_a_half_cells_of_a_chain_are_dropped(
        monkeypatch):
    # a Newton run seeded beside a fixed circle lands on the circle; the
    # chains of hmap (the catalog's h) at grid 32 are the columns x = 0
    # and x = 1/2, and 1.5 cells is 0.046875
    on_chain, beyond, far = (0.0, 0.3), (0.05, 0.3), (0.25, 0.5)
    monkeypatch.setattr(fixed_points, "_local_min_seeds",
                        lambda norms, exclude: [(8, 16)])
    monkeypatch.setattr(fixed_points, "_refine", lambda lifts, seeds, tol: [
        (on_chain, 0.0), (beyond, 0.0), (far, 0.0)])
    r = find_fixed_points(HMAP, 32, 1e-9)
    assert sorted(c.points[0][0] for c in r.chains) == [0.0, 0.5]
    assert [p.point for p in r.points] == [beyond, far]


def test_product_map_four_isolated_zeros():
    r = find_fixed_points(PROD, 32, 1e-9)
    assert len(r.chains) == 0
    got = sorted(p.point for p in r.points)
    assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    for p in r.points:
        assert p.residual < 1e-12


def test_newton_finds_zeros_off_the_grid():
    # zeros at x in {0.3, 0.8}, y in {0.15, 0.65}: none on a 32-grid line
    r = find_fixed_points(PRODOFF, 32, 1e-9)
    want = [(0.3, 0.15), (0.3, 0.65), (0.8, 0.15), (0.8, 0.65)]
    got = sorted(p.point for p in r.points)
    assert len(got) == 4
    for g, w in zip(got, sorted(want)):
        assert math.hypot(g[0] - w[0], g[1] - w[1]) < 1e-9


def test_reported_points_reevaluate_below_tol():
    r = find_fixed_points(PRODOFF, 32, 1e-9)
    pts = np.array([p.point for p in r.points])
    d = displacement_field_batch(PRODOFF, pts)
    assert np.hypot(d[:, 0], d[:, 1]).max() < 1e-9


def test_report_is_deterministic():
    a = find_fixed_points(PRODOFF, 32, 1e-9)
    b = find_fixed_points(PRODOFF, 32, 1e-9)
    assert [p.point for p in a.points] == [p.point for p in b.points]
    assert [p.residual for p in a.points] == [p.residual for p in b.points]
    assert [c.points for c in a.chains] == [c.points for c in b.chains]


def test_singular_jacobian_stops_refinement():
    # irrskew's constant x-translation makes the Jacobian of h' irrskew
    # singular; least squares then proposes a huge step that used to run
    # the Newton inverse far out of reach.  No seed converges.
    from rotor.catalog import build_catalog
    cat = build_catalog()
    for word in ("irrskew h'", "h' irrskew", "h' tr", "tr h'"):
        for grid_n in (8, 16, 32):
            r = find_fixed_points(cat.word(word), grid_n, 1e-9)
            assert r.is_empty(), (word, grid_n)


# --- winding numbers


def test_source_index_plus_one():
    assert fixed_point_index(PROD, (0.0, 0.0), 0.05, 256) == 1


def test_saddle_index_minus_one():
    assert fixed_point_index(PROD, (0.5, 0.0), 0.05, 256) == -1
    assert fixed_point_index(PROD, (0.0, 0.5), 0.05, 256) == -1


def test_index_sum_is_euler_characteristic():
    for s in (0.05, 0.1, 0.2):
        g = MapGroup([Generator("p", ID, disp_x=[trig_term(s, 1, 0)],
                                disp_y=[trig_term(s, 0, 1)])])
        w = g.by_name("p")
        r = find_fixed_points(w, 32, 1e-9)
        assert len(r.points) == 4
        total = sum(fixed_point_index(w, p.point, 0.05, 256) for p in r.points)
        assert total == 0


def test_index_on_fixed_circle_raises():
    with pytest.raises(NonIsolated):
        fixed_point_index(SKEW, (0.0, 0.3), 0.05, 256)


def test_coarse_sampling_near_reversal_is_refused():
    # consecutive samples antipodal about the saddle see the field flip
    # by exactly half a turn; the odd symmetry of sin makes this exact
    r = 0.2
    c = (0.5 - r * math.cos(math.pi / 8) ** 2,
         -r * math.cos(math.pi / 8) * math.sin(math.pi / 8))
    with pytest.raises(AmbiguousWinding):
        fixed_point_index(PROD, c, r, 8)
    assert fixed_point_index(PROD, c, r, 256) == -1


def test_index_parameter_validation():
    with pytest.raises(InvalidArgument):
        fixed_point_index(PROD, (0.0, 0.0), 0.05, 4)
    with pytest.raises(InvalidArgument):
        fixed_point_index(PROD, (0.0, 0.0), 0.0, 256)


# each bad argument with the entry point it goes to.  Before the checks,
# float and string grid sizes raised a plain TypeError; a NaN, negative or
# zero tol gave an empty report, which reads as "no fixed point";
# samples=8.5 gave index 0 and samples=nan a plain ValueError; and a NaN
# tol made franks_certificate raise DefectExceeded
_CIRCLE = EmpiricalMeasure([(0.25, j / 16) for j in range(16)])
BAD_FIXED_POINT_CALLS = {
    "grid_n=64.0": lambda: find_fixed_points(SKEW, grid_n=64.0),
    "grid_n=64.5": lambda: find_fixed_points(SKEW, grid_n=64.5),
    "grid_n='64'": lambda: find_fixed_points(SKEW, grid_n="64"),
    "tol=nan": lambda: find_fixed_points(SKEW, tol=math.nan),
    "tol=-1.0": lambda: find_fixed_points(SKEW, tol=-1.0),
    "tol=0.0": lambda: find_fixed_points(SKEW, tol=0.0),
    "tol=inf": lambda: find_fixed_points(SKEW, tol=math.inf),
    "common grid_n=32.0": lambda: common_fixed_points([SKEW], grid_n=32.0),
    "common tol=nan": lambda: common_fixed_points([SKEW], tol=math.nan),
    "samples=8.5": lambda: fixed_point_index(PROD, (0.0, 0.0), samples=8.5),
    "samples=nan": lambda: fixed_point_index(PROD, (0.0, 0.0),
                                             samples=math.nan),
    "radius=nan": lambda: fixed_point_index(PROD, (0.0, 0.0),
                                            radius=math.nan),
    "radius=inf": lambda: fixed_point_index(PROD, (0.0, 0.0),
                                            radius=math.inf),
    "franks tol=nan": lambda: franks_certificate(SKEW, _CIRCLE, tol=math.nan),
    "franks tol=-1.0": lambda: franks_certificate(SKEW, _CIRCLE, tol=-1.0),
    "franks grid_n=64.5": lambda: franks_certificate(SKEW, _CIRCLE,
                                                     grid_n=64.5),
}


@pytest.mark.parametrize("call", list(BAD_FIXED_POINT_CALLS.values()),
                         ids=list(BAD_FIXED_POINT_CALLS))
def test_bad_fixed_point_arguments_raise_before_any_evaluation(call,
                                                                monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("the word was evaluated")

    for name in ("apply_lift_batch", "displacement_field_batch",
                 "invariance_defect", "orbit_displacement_means"):
        monkeypatch.setattr(fixed_points, name, no_evaluation)
    with pytest.raises(InvalidArgument):
        call()


# --- simultaneous fixed points


def test_common_identity_pair_all_fixed():
    r = common_fixed_points([G.identity(), G.identity()], 16, 1e-9)
    assert r.all_points_fixed


def test_common_crossed_skews():
    r = common_fixed_points([SKEW, SKEW2], 32, 1e-9)
    got = sorted(p.point for p in r.points)
    assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
    assert all(p.residual < 1e-10 for p in r.points)
    assert r.chains == []


def test_common_with_point_reflection():
    # the reflection is not isotopic to the identity but its torus fixed
    # points are still well-defined; they cut the fixed circles down to
    # the four half-lattice points
    r = common_fixed_points([HMAP, REFL], 32, 1e-9)
    got = sorted(p.point for p in r.points)
    assert (0.0, 0.0) in got and (0.5, 0.0) in got
    assert got == [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def test_common_requires_a_word():
    with pytest.raises(InvalidArgument):
        common_fixed_points([], 16, 1e-9)


def test_irrotational_lift_fixed_points_project():
    # all orbits sink toward (1/2,1/2), so the rotation set is {0} and
    # the canonical lift is the irrotational one; its plane fixed points
    # must sit over the torus fixed points
    seeds = np.array([(0.13, 0.62), (0.71, 0.24), (0.4, 0.9)])
    lw = irrotational_lift(PROD, seeds, 4000, 1e-2)
    assert lw is not None
    r = find_fixed_points(PROD, 32, 1e-9)
    pts = np.array([p.point for p in r.points])
    d = displacement_field_batch(lw, pts)
    assert np.hypot(d[:, 0], d[:, 1]).max() < 1e-9


# --- serialization


def test_report_json_and_chain_csv(tmp_path):
    r = find_fixed_points(SKEW, 32, 1e-9)
    jpath = tmp_path / "fp.json"
    write_json(jpath, r.to_json_dict())
    data = json.loads(jpath.read_text())
    assert data["grid_n"] == 32 and data["all_points_fixed"] is False
    assert len(data["chains"]) == 2
    assert data["chains"][0]["cell_count"] == 32

    cpath = tmp_path / "chains.csv"
    r.chains_to_csv(cpath)
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain", "x", "y"]
    assert len(rows) == 1 + 64
    assert {row[0] for row in rows[1:]} == {"0", "1"}
    assert float(rows[1][1]) == 0.0


# --- empirical Franks reports


def orbit_measure(n):
    return EmpiricalMeasure(
        [((ALPHA * k) % 1.0, (0.3 * k) % 1.0) for k in range(n)])


def test_franks_translation_hypothesis_not_met():
    rep = franks_certificate(TR, orbit_measure(2048), tol=2e-3, grid_n=32)
    assert rep.certificate == "hypothesis not met"
    assert not rep.hypothesis_met
    assert rep.fixed_points.is_empty()
    assert rep.support_distance is None
    assert abs(rep.rho[0] - ALPHA) < 2e-3 and abs(rep.rho[1] - 0.3) < 2e-3
    # constant displacement: every atom sees the same time average
    assert rep.birkhoff_spread < 1e-12


def test_franks_skew_on_fixed_circle_consistent():
    rep = franks_certificate(SKEW, EmpiricalMeasure.dirac((0.0, 0.37)),
                             tol=1e-8, grid_n=32)
    assert rep.certificate == "consistent with Franks"
    assert rep.hypothesis_met
    assert rep.rho == (0.0, 0.0)
    assert len(rep.fixed_points.chains) == 2
    # the atom sits on a fixed circle, close to a sampled chain point
    assert rep.support_distance < 0.02


def test_franks_balanced_mixture_consistent():
    # circles x=1/8 and x=7/8 carry opposite vertical speeds; the mixture
    # has zero rotation vector without being supported on the fixed set
    atoms = [(0.125, j / 32) for j in range(32)]
    atoms += [(0.875, j / 32) for j in range(32)]
    mu = EmpiricalMeasure(atoms)
    rep = franks_certificate(SKEW, mu, tol=1e-8, grid_n=32)
    assert rep.certificate == "consistent with Franks"
    assert abs(rep.rho[0]) < 1e-12 and abs(rep.rho[1]) < 1e-12
    assert abs(rep.support_distance - 0.125) < 1e-12


def test_franks_nonzero_rho_with_fixed_points_is_no_contradiction():
    mu = EmpiricalMeasure([(0.25, j / 16) for j in range(16)])
    rep = franks_certificate(HMAP, mu, tol=1e-8, grid_n=32)
    assert rep.certificate == "hypothesis not met"
    assert abs(rep.rho[1] - 0.1) < 1e-12
    assert not rep.fixed_points.is_empty()
    assert "no contradiction" in rep.note


def test_franks_rejects_drifting_measure():
    with pytest.raises(DefectExceeded):
        franks_certificate(SKEW, EmpiricalMeasure.dirac((0.25, 0.0)),
                           tol=1e-8, grid_n=32)


def test_franks_json_round_trip(tmp_path):
    rep = franks_certificate(SKEW, EmpiricalMeasure.dirac((0.0, 0.37)),
                             tol=1e-8, grid_n=32)
    path = tmp_path / "franks.json"
    write_json(path, rep.to_json_dict())
    data = json.loads(path.read_text())
    assert data["certificate"] == "consistent with Franks"
    assert data["nearest_lattice"] == [0, 0]
    assert data["fixed_points"]["grid_n"] == 32


# --- batched refinement, components and distances against per-item loops


def _refine_one_seed_at_a_time(lifts, seeds, tol):
    """The refinement as a loop over seeds, one evaluator call per residual,
    per Jacobian and per step halving: the oracle for _refine."""
    def flat(p):
        return _residual_fields(lifts, p[None, :]).reshape(-1)

    def jacobian(p):
        h = 1e-6
        probes = np.array([[p[0] + h, p[1]], [p[0] - h, p[1]],
                           [p[0], p[1] + h], [p[0], p[1] - h]])
        rows = []
        for lw in lifts:
            d = apply_lift_batch(lw, probes) - probes
            jx = (d[0] - d[1]) / (2.0 * h)
            jy = (d[2] - d[3]) / (2.0 * h)
            rows.append(np.stack([jx, jy], axis=1))
        return np.vstack(rows)

    kept = []
    for p0 in seeds:
        p = np.array(p0, dtype=float)
        f = flat(p)
        best = math.sqrt(float(f @ f))
        for _ in range(50):
            if best < 1e-14:
                break
            step, *_ = np.linalg.lstsq(jacobian(p), -f, rcond=None)
            if not math.hypot(step[0], step[1]) <= 1.0:
                break
            for _ in range(31):
                cand = p + step
                fc = flat(cand)
                rc = math.sqrt(float(fc @ fc))
                if rc < best:
                    break
                step = step * 0.5
            else:
                break
            p, f, best = cand, fc, rc
        per_word = f.reshape(len(lifts), 2)
        worst = float(np.sqrt((per_word * per_word).sum(axis=1)).max())
        if worst < tol:
            kept.append((reduce_point((float(p[0]), float(p[1]))), worst))
    return kept


CAT = build_catalog()
IDENTITY_CLASS = [g.name for g in CAT.generators if g.linear.is_identity()] + [
    "skew twist'", "twist' skew", "h skew h'", "h' irrskew", "h' tr"]


@pytest.mark.parametrize("word", IDENTITY_CLASS)
@pytest.mark.parametrize("grid_n", [8, 16, 32])
def test_batched_refine_matches_seed_loop(word, grid_n, monkeypatch):
    w = CAT.word(word)
    batched = find_fixed_points(w, grid_n, 1e-9).to_json_dict()
    monkeypatch.setattr(fixed_points, "_refine", _refine_one_seed_at_a_time)
    assert find_fixed_points(w, grid_n, 1e-9).to_json_dict() == batched


def test_batched_refine_matches_seed_loop_for_two_words(monkeypatch):
    ws = [CAT.word("h"), CAT.word("phi")]
    batched = common_fixed_points(ws, 32, 1e-9).to_json_dict()
    assert batched["points"]
    monkeypatch.setattr(fixed_points, "_refine", _refine_one_seed_at_a_time)
    assert common_fixed_points(ws, 32, 1e-9).to_json_dict() == batched


def test_batched_refine_matches_seed_loop_from_random_seeds():
    # off-grid seeds need step halvings, which grid seeds rarely do
    rng = np.random.default_rng(2)
    for w in [CAT.word(x) for x in IDENTITY_CLASS] + [PRODOFF]:
        lifts = [LiftedWord(w)]
        seeds = rng.random((20, 2))
        assert _refine(lifts, seeds, 1e-9) == _refine_one_seed_at_a_time(
            lifts, seeds, 1e-9)


def _bad_inverse():
    # not a homeomorphism: Newton solves of its inverse fail at some points
    g = Generator("bad", ID, disp_x=[trig_term(0.3, 1, 0)],
                  disp_y=[trig_term(0.3, 0, 1)])
    return MapGroup([g]).word("bad'")


def test_batched_refine_diverges_when_the_seed_loop_does():
    lifts = [LiftedWord(_bad_inverse())]
    seeds = np.random.default_rng(1).random((80, 2))
    ok, diverged = [], 0
    for seed in seeds:
        try:
            apply_lift_batch(lifts[0], seed[None, :])
        except NewtonDivergence:
            continue            # fails before any refinement
        try:
            want = _refine_one_seed_at_a_time(lifts, seed[None, :], 1e-9)
        except NewtonDivergence:
            diverged += 1
            with pytest.raises(NewtonDivergence):
                _refine(lifts, seed[None, :], 1e-9)
            continue
        assert _refine(lifts, seed[None, :], 1e-9) == want
        ok.append(seed)
    assert diverged and len(ok) > 10
    ok = np.array(ok)
    assert _refine(lifts, ok, 1e-9) == _refine_one_seed_at_a_time(lifts, ok,
                                                                   1e-9)


def _rung_map(seeds, rungs, diverge_like=None, c=0.2):
    """A stand-in evaluator under which the line search from seeds[i]
    first lowers the residual at rung rungs[i] (None: at no rung).

    Its displacement is (0, psi), psi a function of d, the height above
    the seed nearest in x: c at the seed, c + d at the Jacobian's probes
    a distance 1e-6 above and below it (so the Newton step is about
    (0, -c) and rung r lies about c / 2**r below the seed), c / 2 nearer
    to the seed than rung rungs[i] - 1 and 2c from there on.  With
    diverge_like, each call first evaluates that lift on the same points,
    and so raises NewtonDivergence where it diverges."""
    x0, y0 = np.asarray(seeds, dtype=float).T
    t = np.array([0.0 if r is None else 1.5 * c / 2.0 ** r for r in rungs])

    def lift(lw, pts):
        if diverge_like is not None:
            maps.apply_lift_batch(diverge_like, pts)
        i = np.abs(pts[:, :1] - x0).argmin(axis=1)
        d = pts[:, 1] - y0[i]
        psi = np.where(np.abs(d) < t[i], 0.5 * c, 2.0 * c)
        probe = np.abs(np.abs(d) - fixed_points._FD_STEP) < 1e-12
        psi[probe] = c + d[probe]
        psi[d == 0.0] = c
        out = pts.copy()
        out[:, 1] += psi
        return out
    return lift


def _patch_evaluator(monkeypatch, lift):
    # _refine and the oracle both evaluate through apply_lift_batch
    monkeypatch.setattr(fixed_points, "apply_lift_batch", lift)
    monkeypatch.setitem(globals(), "apply_lift_batch", lift)


# the first and the last rung of each block of _RUNG_BLOCKS, and a seed
# that lowers its residual at no rung
BLOCK_EDGE_RUNGS = [0, 1, 2, 3, 6, 7, 14, 15, 30, None]


def test_refine_takes_each_block_edge_rung_as_the_seed_loop(monkeypatch):
    k = len(BLOCK_EDGE_RUNGS)
    seeds = np.column_stack([(np.arange(k) + 0.5) / k, np.full(k, 0.5)])
    _patch_evaluator(monkeypatch, _rung_map(seeds, BLOCK_EDGE_RUNGS))
    lifts = [LiftedWord(PRODOFF)]      # evaluated by the rung map only
    got = _refine(lifts, seeds, 1.0)
    assert got == _refine_one_seed_at_a_time(lifts, seeds, 1.0)
    for (pt, res), r, (x, y) in zip(got, BLOCK_EDGE_RUNGS, seeds):
        assert pt[0] == x
        if r is None:       # all 31 rungs rejected: the seed stays put
            assert pt == (x, y) and res == pytest.approx(0.2)
        else:
            assert pt[1] == pytest.approx(y - 0.2 / 2.0 ** r, rel=0,
                                          abs=1e-9 / 2.0 ** r)
            assert res == pytest.approx(0.1)
    # one seed at a time, each alone in its block calls
    for seed in seeds:
        one = _refine(lifts, seed[None, :], 1.0)
        assert one == _refine_one_seed_at_a_time(lifts, seed[None, :], 1.0)


@pytest.mark.parametrize("rung", [1, 3, 7])
def test_refine_retries_a_diverging_block_one_rung_per_call(rung,
                                                           monkeypatch):
    # seeds under the rung map that diverges wherever _bad_inverse() does
    bad = LiftedWord(_bad_inverse())
    failed, outcomes = [], set()
    flat = fixed_points._flat_residuals

    def spy(lifts, pts):
        try:
            return flat(lifts, pts)
        except NewtonDivergence:
            failed.append(len(pts))
            raise

    monkeypatch.setattr(fixed_points, "_flat_residuals", spy)
    for y0 in np.linspace(0.3, 0.7, 1201):
        seed = np.array([[0.1, y0]])
        _patch_evaluator(monkeypatch,
                         _rung_map(seed, [rung], diverge_like=bad))
        try:
            want = _refine_one_seed_at_a_time([bad], seed, 1.0)
        except NewtonDivergence:
            failed.clear()
            with pytest.raises(NewtonDivergence):
                _refine([bad], seed, 1.0)
            outcomes.add(("raised", tuple(failed)))
            continue
        failed.clear()
        assert _refine([bad], seed, 1.0) == want
        outcomes.add(("returned", tuple(failed)))
    block = 2 ** rung.bit_length()
    # a rung past the taken one diverged: the block raised, its one-rung
    # retry did not, and the seed ended where the seed loop ends it
    assert ("returned", (block,)) in outcomes
    # a rung the seed loop reaches diverged: a block raised, then that rung
    assert any(how == "raised" and len(f) == 2 and f[0] > 1 == f[1]
               for how, f in outcomes)
    assert all(f in [(), (block,)] for how, f in outcomes
               if how == "returned")


def test_refine_matches_seed_loop_for_two_words_from_random_seeds():
    rng = np.random.default_rng(3)
    for ws in [(CAT.word("h"), CAT.word("phi")), (PRODOFF, HMAP),
               (CAT.word("h' tr"), CAT.word("skew"))]:
        lifts = [LiftedWord(w) for w in ws]
        seeds = rng.random((20, 2))
        assert _refine(lifts, seeds, 1.0) == _refine_one_seed_at_a_time(
            lifts, seeds, 1.0)


def _systems(rng, rows, n):
    """n random (rows, 2) systems with right-hand sides: a quarter with a
    zero column, a quarter with proportional columns, and a quarter with
    columns proportional up to about 1e-13, where rcond decides the rank."""
    jac = rng.standard_normal((n, rows, 2))
    jac[0::4, :, 1] = 0.0
    jac[1::4, :, 1] = 3.0 * jac[1::4, :, 0] * (
        1.0 + 1e-13 * rng.standard_normal((len(jac[1::4]), rows)))
    jac[2::4, :, 1] = 3.0 * jac[2::4, :, 0]
    return jac, rng.standard_normal((n, rows))


@pytest.mark.parametrize("rows", [2, 4, 6])
def test_batched_lstsq_and_row_norms_match_per_row_bitwise(rows):
    jac, rhs = _systems(np.random.default_rng(rows), rows, 2000)
    want = np.array([np.linalg.lstsq(a, b, rcond=None)[0]
                     for a, b in zip(jac, rhs)])
    assert fixed_points._lstsq(jac, rhs).tobytes() == want.tobytes()
    norms = [math.sqrt(float(r @ r)) for r in rhs]
    assert fixed_points._row_norms(rhs).tolist() == norms


def test_batched_lstsq_fails_as_lstsq_does():
    jac = np.full((2, 2, 2), np.nan)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.lstsq(jac[0], np.ones(2), rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as got:
        fixed_points._lstsq(jac, np.ones((2, 2)))
    assert str(got.value) == str(want.value)


def test_newton_word_evaluator_calls_are_pinned(monkeypatch):
    # neither word has a fixed point; at grid 8 their seeds settle on local
    # minima of the residual norm well above tol, and the stall test stops
    # each a few rounds after its norm stops falling (108 and 202 calls
    # when every seed ran all 50 rounds).  The calls are the scan, the
    # first residuals, then per round the probes and the rung blocks
    calls = []

    def spy(lw, pts):
        calls.append(len(pts))
        return apply_lift_batch(lw, pts)

    monkeypatch.setattr(fixed_points, "apply_lift_batch", spy)
    for word, want in (("h' tr", 22), ("h' irrskew", 26)):
        calls.clear()
        assert find_fixed_points(CAT.word(word), 8, 1e-9).is_empty()
        assert len(calls) == want, word


def test_refine_calls_do_not_grow_with_the_seeds(monkeypatch):
    calls = []

    def spy(lw, pts):
        calls.append(len(pts))
        return apply_lift_batch(lw, pts)

    monkeypatch.setattr(fixed_points, "apply_lift_batch", spy)
    lifts = [LiftedWord(PRODOFF)]
    seed = np.array([[0.28, 0.17]])
    one = _refine(lifts, seed, 1e-9)
    n_one = len(calls)
    calls.clear()
    many = _refine(lifts, np.repeat(seed, 20, axis=0), 1e-9)
    assert n_one > 3          # the seed needs several Newton rounds
    assert len(calls) == n_one
    assert len(one) == 1 and many == one * 20


# --- the stall stop against all _REFINE_MAX rounds


STALL_WORDS = IDENTITY_CLASS + ["skew tr skew' tr'",
                                "twist irrskew twist' irrskew'",
                                "h twist h' twist'"]


def _without_stall_stop(monkeypatch):
    monkeypatch.setattr(fixed_points, "_STALL_ROUNDS",
                        fixed_points._REFINE_MAX + 1)


def _stall_reports():
    out = [find_fixed_points(CAT.word(w), n, tol).to_json_dict()
           for w in STALL_WORDS for n in (8, 16, 32, 64)
           for tol in (1e-9, 1e-3)]
    out.append(common_fixed_points([CAT.word("h"), CAT.word("phi")], 32,
                                   1e-9).to_json_dict())
    for case in franks_cases():
        try:
            out.append(franks_certificate(case.word, case.measure)
                       .to_json_dict())
        except DefectExceeded as e:
            out.append(str(e))
    return out


def test_stall_stop_leaves_every_report_unchanged(monkeypatch):
    stopped = _stall_reports()
    _without_stall_stop(monkeypatch)
    assert _stall_reports() == stopped


def test_stall_stop_keeps_every_point_from_random_seeds(monkeypatch):
    rng = np.random.default_rng(32)
    cases = [([LiftedWord(CAT.word(w))], rng.random((40, 2)))
             for w in STALL_WORDS]
    cases.append(([LiftedWord(PRODOFF)], rng.random((200, 2))))
    cases.append(([LiftedWord(CAT.word(w)) for w in ("h", "phi")],
                  rng.random((40, 2))))
    # at tol 1.0 most seeds sit below tol, where they must never stop
    runs = [(lifts, seeds, tol) for lifts, seeds in cases
            for tol in (1e-9, 1e-3, 1.0)]
    stopped = [_refine(*run) for run in runs]
    _without_stall_stop(monkeypatch)
    assert [_refine(*run) for run in runs] == stopped


@pytest.mark.parametrize("word, seed", [
    # the residual norm of h creeps down, 0.09996 to 0.0963 over ten
    # rounds, while the step grows every round; it converges to x = 0.5 in
    # round 14.  A stop that ignored the growing step would drop it
    ("h", (0.27496937268, 0.65743301)),
    # these fall by 30% to 45% in five rounds, slowing down, then converge
    # in rounds 9 to 17.  A stop at a norm not halved in five rounds would
    # drop them
    ("prodoff", (0.44093298844268625, 0.3518761011902296)),
    ("twist irrskew twist' irrskew'", (0.2679052214394303,
                                       0.5297194804162239)),
    ("twist irrskew twist' irrskew'", (0.8236726583489591,
                                       0.5466354924673619)),
    ("twist' skew", (0.20096902508950742, 0.10604141672892253))])
def test_stall_stop_keeps_seeds_that_converge_late(word, seed):
    lifts = [LiftedWord(PRODOFF if word == "prodoff" else CAT.word(word))]
    seeds = np.array([seed])
    got = _refine(lifts, seeds, 1e-9)
    assert len(got) == 1
    assert got == _refine_one_seed_at_a_time(lifts, seeds, 1e-9)


def _components_all_cells(mask):
    """The component walk started from every grid cell in turn."""
    n = mask.shape[0]
    seen = np.zeros_like(mask)
    comps = []
    for i in range(n):
        for j in range(n):
            if not mask[i, j] or seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            cells = []
            while stack:
                a, b = stack.pop()
                cells.append((a, b))
                for da in (-1, 0, 1):
                    for db in (-1, 0, 1):
                        if da == 0 and db == 0:
                            continue
                        na, nb = (a + da) % n, (b + db) % n
                        if mask[na, nb] and not seen[na, nb]:
                            seen[na, nb] = True
                            stack.append((na, nb))
            cells.sort()
            comps.append(cells)
    comps.sort(key=lambda c: c[0])
    return comps


def _wrapping_mask(n):
    mask = np.zeros((n, n), dtype=bool)
    mask[0, 3] = mask[n - 1, 4] = True            # across the row seam
    mask[5, 0] = mask[6, n - 1] = True            # across the column seam
    mask[0, 0] = mask[n - 1, n - 1] = True        # the corner diagonal
    mask[n - 1, 0] = True
    mask[3, 5:n - 1] = True                       # a long run
    return mask


def _snake_mask(n):
    # every even row but its last cell, the rows joined at alternate ends
    # by one cell of the odd row between them: one path through n*n/2 cells
    mask = np.zeros((n, n), dtype=bool)
    mask[::2, :n - 1] = True
    mask[1:n - 1:4, n - 2] = True
    mask[3:n - 1:4, 0] = True
    return mask


def _diagonal_mask(n):
    # two diagonal loops, each crossing both seams; every pair of
    # neighbouring cells in them touches only at a corner
    mask = np.zeros((n, n), dtype=bool)
    for offset in (3, 3 + n // 2):
        mask[np.arange(n), (np.arange(n) + offset) % n] = True
    return mask


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_grid_components_match_all_cells_walk(n):
    rng = np.random.default_rng(n)
    masks = [np.ones((n, n), dtype=bool), np.zeros((n, n), dtype=bool),
             _wrapping_mask(n), _snake_mask(n), _diagonal_mask(n)]
    masks += [rng.random((n, n)) < p for p in (0.02, 0.2, 0.45)]
    for mask in masks:
        assert _grid_components(mask) == _components_all_cells(mask)


def test_grid_components_join_across_the_seams():
    comps = _grid_components(_wrapping_mask(16))
    assert [(0, 0), (15, 0), (15, 15)] in comps
    assert [(0, 3), (15, 4)] in comps
    assert [(5, 0), (6, 15)] in comps
    assert len(_grid_components(_snake_mask(16))) == 1
    assert len(_grid_components(_diagonal_mask(16))) == 2


def _local_min_seeds_by_rolls(norms, exclude):
    """The local-minimum test with one rolled copy of the grid per
    neighbour: the oracle for _local_min_seeds."""
    le_all = np.ones_like(norms, dtype=bool)
    lt_any = np.zeros_like(norms, dtype=bool)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            if da == 0 and db == 0:
                continue
            nb = np.roll(np.roll(norms, -da, axis=0), -db, axis=1)
            le_all &= norms <= nb
            lt_any |= norms < nb
    mask = le_all & lt_any & ~exclude
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


@pytest.mark.parametrize("n", [8, 9, 64, 256])
def test_local_min_seeds_match_rolled_neighbours(n):
    rng = np.random.default_rng(n)
    grids = [rng.random((n, n)), np.zeros((n, n)),
             # plateaus and ties everywhere
             rng.integers(0, 3, (n, n)).astype(float),
             np.round(rng.random((n, n)), 1)]
    with_nan = rng.integers(0, 4, (n, n)).astype(float)
    with_nan[rng.random((n, n)) < 0.05] = math.nan
    grids.append(with_nan)
    none = np.zeros((n, n), dtype=bool)
    for norms in grids:
        for exclude in (none, rng.random((n, n)) < 0.2):
            seeds = _local_min_seeds(norms, exclude)
            assert seeds == _local_min_seeds_by_rolls(norms, exclude)
    assert _local_min_seeds(grids[0], none)     # random norms have seeds


def _residual_fields_by_copies(lifts, pts):
    # the residual and norm expressions with a temporary per operation
    out = np.empty((len(lifts), len(pts), 2))
    for i, lw in enumerate(lifts):
        d = apply_lift_batch(lw, pts) - pts
        out[i] = d - np.round(d)
    return out


@pytest.mark.parametrize("words", [["skew"], ["h", "phi"],
                                   ["skew", "twist'", "h skew h'"]])
def test_residuals_and_norms_match_the_expressions_bitwise(words, backends):
    lifts = [LiftedWord(CAT.word(w)) for w in words]
    rng = np.random.default_rng(len(words))
    pts = np.vstack([torus_grid(32), rng.random((500, 2)),
                     rng.uniform(-50.0, 50.0, (500, 2))])
    for backend in backends:
        _kernels.set_backend(backend)
        res = _residual_fields_by_copies(lifts, pts)
        norm = np.sqrt((res * res).sum(axis=2)).max(axis=0)
        assert _residual_fields(lifts, pts).tobytes() == res.tobytes()
        assert _combined_norm(lifts, pts).tobytes() == norm.tobytes()


def _torus_dist(a, b) -> float:
    # the per-pair oracle of _min_torus_dist
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    dx = min(dx, 1.0 - dx)
    dy = min(dy, 1.0 - dy)
    return math.hypot(dx, dy)


def _pairwise_min(a, b):
    return min(_torus_dist(s, (float(t[0]), float(t[1]))) for s in a
               for t in b)


def test_min_torus_dist_matches_pairwise_loop():
    rng = np.random.default_rng(7)
    seam = [(1 - 1e-13, -1e-13), (-1e-13, 0.5), (0.5, 1 - 1e-13),
            (0.0, 0.0), (0.25, 0.75)]
    cases = [
        (seam, np.array(seam[::-1])),
        (rng.random((40, 2)).tolist(), np.array(seam)),
        (rng.random((50, 2)).tolist(), rng.random((70, 2))),
        ([(1e-200, 0.5)], np.array([[0.0, 0.5], [3e-200, 0.5]])),
    ]
    # atoms on a circle around a sample: all pairs tie to within rounding,
    # and the smallest squared distance is often not the smallest hypot
    misordered = 0
    for _ in range(300):
        c = rng.random(2)
        theta = rng.random(64) * 2.0 * math.pi
        ring = (c + rng.uniform(1e-3, 0.3) * np.column_stack(
            [np.cos(theta), np.sin(theta)])) % 1.0
        cases.append(([tuple(c.tolist())], ring))
        dist = [_torus_dist(tuple(c), tuple(t)) for t in ring.tolist()]
        d = np.abs(c - ring)
        d = np.minimum(d, 1.0 - d)
        misordered += dist[int(np.argmin((d * d).sum(axis=1)))] != min(dist)
    assert misordered > 0
    for a, b in cases:
        assert _min_torus_dist(np.array(a), b) == _pairwise_min(a, b)


def test_support_distance_matches_pairwise_loop():
    atoms = [(0.125, j / 32) for j in range(32)]
    atoms += [(0.875, j / 32) for j in range(32)]
    atoms += [(1 - 1e-13, 0.3), (0.5, 1 - 1e-13)]
    mu = EmpiricalMeasure(atoms)
    rep = franks_certificate(SKEW, mu, tol=1e-8, grid_n=32)
    samples = [e.point for e in rep.fixed_points.points]
    for c in rep.fixed_points.chains:
        samples.extend(c.points)
    assert rep.support_distance == _pairwise_min(samples, mu.points)


def _pair_spread_loop(means):
    """The ergodicity spread as a loop over the pairs of rows."""
    spread = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            spread = max(spread, float(np.hypot(*(means[i] - means[j]))))
    return spread


def test_pair_spread_matches_pair_loop():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for scale in (1e-9, 1e-3, 1.0, 10.0):
            means = rng.standard_normal((n, 2)) * scale
            assert fixed_points._pair_spread(means) == _pair_spread_loop(
                means)
    assert fixed_points._pair_spread(np.zeros((1, 2))) == 0.0


def test_franks_spread_matches_pair_loop(monkeypatch):
    cases = franks_cases(CAT)
    got = [franks_certificate(c.word, c.measure, 1e-2, 16).to_json_dict()
           for c in cases]
    assert any(len(c.measure.points) == 1 for c in cases)
    monkeypatch.setattr(fixed_points, "_pair_spread", _pair_spread_loop)
    assert got == [franks_certificate(c.word, c.measure, 1e-2, 16)
                   .to_json_dict() for c in cases]
    one = franks_certificate(SKEW, EmpiricalMeasure.dirac((0.0, 0.37)))
    assert one.birkhoff_spread == 0.0

