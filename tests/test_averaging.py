import math

import numpy as np
import pytest

from rotor import _kernels, averaging
from rotor._io import write_json
from rotor.averaging import (GroupSpec, _cesaro_stage, bounded_orbit_check,
                             construct_invariant, rotev_residual)
from rotor.errors import (ConditionStarStarViolated, ConfigError,
                          DefectExceeded, InvalidArgument,
                          NotIsotopicToIdentity, RotorError)
from rotor.maps import (IDENTITY, LIFT, Generator, LiftedWord, MapGroup,
                        apply_torus_batch, commutator_lift, constant_term,
                        inverse, inverse_lift, linear_part, trig_term)
from rotor.mcg import MCGClass
from rotor.measures import EmpiricalMeasure, pushforward, rotation_vector

ID = MCGClass.identity()
DEHN = MCGClass(1, 0, 1, 1)
ALPHA = math.sqrt(2.0) - 1.0


def build_group():
    gens = [
        Generator("h", ID, disp_y=[trig_term(0.1, 1, 0)]),
        Generator("refl", -ID),
        Generator("tr", ID, disp_x=[constant_term(ALPHA)],
                  disp_y=[constant_term(0.3)]),
        Generator("dehn", DEHN),
    ]
    return MapGroup(gens)


G = build_group()
W_H = G.by_name("h")
W_REFL = G.by_name("refl")
W_TR = G.by_name("tr")
W_DEHN = G.by_name("dehn")


def circle_measure():
    return EmpiricalMeasure([(0.25, j / 16) for j in range(16)])


# --- GroupSpec validation


def test_spec_rejects_nonisotopic_g0():
    with pytest.raises(ConfigError):
        GroupSpec(generators_G0=(W_DEHN,))


def test_spec_rejects_mismatched_class():
    with pytest.raises(ConfigError):
        GroupSpec(generators_G0=(), extension_gens=((W_DEHN, -ID),))


# --- construct_invariant


def test_no_extension_gens_returns_initial_stage_only():
    spec = GroupSpec(generators_G0=(W_H,))
    tr = construct_invariant(spec, LiftedWord(W_H), circle_measure(), tol=1e-8)
    assert len(tr.stages) == 1
    assert tr.final_measure is tr.stages[0].measure
    assert abs(tr.rho_final[0]) < 1e-12
    assert abs(tr.rho_final[1] - 0.1) < 1e-12


def test_order_two_extension_refused_without_force():
    spec = GroupSpec(generators_G0=(W_H,), extension_gens=((W_REFL, -ID),))
    with pytest.raises(ConditionStarStarViolated):
        construct_invariant(spec, LiftedWord(W_H), circle_measure(), tol=1e-8)


def test_forced_run_shows_rotation_loss():
    # averaging over the point reflection symmetrizes the circle measure
    # and kills the vertical rotation: the refusal above is not spurious
    spec = GroupSpec(generators_G0=(W_H,), extension_gens=((W_REFL, -ID),))
    tr = construct_invariant(spec, LiftedWord(W_H), circle_measure(),
                             tol=1e-8, force=True)
    assert len(tr.stages) == 2
    assert abs(tr.rho_initial[1] - 0.1) < 1e-12
    assert abs(tr.rho_final[0]) < 1e-12 and abs(tr.rho_final[1]) < 1e-12
    assert math.hypot(tr.rho_final[0] - tr.rho_initial[0],
                      tr.rho_final[1] - tr.rho_initial[1]) > 0.09
    assert len(tr.final_measure) == 32
    # the symmetrized measure is genuinely invariant for the whole group
    assert max(tr.stages[1].defects.values()) < 1e-12


def test_dehn_stage_preserves_rotation_vector():
    grid = EmpiricalMeasure.uniform_grid(64)
    spec = GroupSpec(generators_G0=(W_TR,), extension_gens=((W_DEHN, DEHN),))
    tr = construct_invariant(spec, LiftedWord(W_TR), grid, L=16, tol=1e-8)
    for s in tr.stages:
        assert math.hypot(s.rho[0] - ALPHA, s.rho[1] - 0.3) < 1e-6
        assert max(s.defects.values()) <= 10.0 * 1e-8
    assert len(tr.stages) == 2


def test_rejects_noninvariant_seed_measure():
    spec = GroupSpec(generators_G0=(W_TR,))
    with pytest.raises(InvalidArgument, match="not invariant enough"):
        construct_invariant(spec, LiftedWord(W_TR),
                            EmpiricalMeasure.dirac((0.0, 0.0)), tol=1e-9)
    with pytest.raises(InvalidArgument, match="L must be an integer >= 1"):
        construct_invariant(spec, LiftedWord(W_TR),
                            EmpiricalMeasure.uniform_grid(8), L=0)


def test_rejects_nonisotopic_tracked_word():
    spec = GroupSpec(generators_G0=())
    with pytest.raises(NotIsotopicToIdentity):
        construct_invariant(spec, LiftedWord(W_DEHN),
                            EmpiricalMeasure.uniform_grid(8))


def test_doubling_retry_settles():
    # orbit-average boundary defect decays like 1/L: 7.8e-3 at 256,
    # 3.9e-3 at 512, 2.0e-3 at 1024; tol=3e-4 forces exactly two doublings
    spec = GroupSpec(generators_G0=(), extension_gens=((W_TR, ID),))
    tr = construct_invariant(spec, LiftedWord(G.identity()),
                             EmpiricalMeasure.dirac((0.0, 0.0)),
                             L=256, tol=3e-4)
    assert tr.stages[1].L_used == 1024
    assert max(tr.stages[1].defects.values()) <= 3e-3


def test_defect_exceeded_after_doublings():
    spec = GroupSpec(generators_G0=(), extension_gens=((W_TR, ID),))
    with pytest.raises(DefectExceeded):
        construct_invariant(spec, LiftedWord(G.identity()),
                            EmpiricalMeasure.dirac((0.0, 0.0)),
                            L=256, tol=1e-9)


def test_trace_json_shape(tmp_path):
    spec = GroupSpec(generators_G0=(W_H,), extension_gens=((W_REFL, -ID),))
    tr = construct_invariant(spec, LiftedWord(W_H), circle_measure(),
                             tol=1e-8, force=True)
    path = tmp_path / "trace.json"
    write_json(path, tr.to_json_dict())
    import json
    data = json.loads(path.read_text())
    assert [s["index"] for s in data["stages"]] == [0, 1]
    assert data["stages"][1]["generator"] == "g1"
    assert data["stages"][1]["atom_count"] == 32
    assert set(data["stages"][1]["defects"]) == {"phi", "G0[0]", "g1"}


# --- Cesaro stage against a plain dict loop


def dict_stage(word, mu, L, cap=10 ** 6):
    """Reference stage: every atom of every image added to a dict of
    1e-10 grid cells; above cap atoms, re-binned on the 1/4096 grid."""
    def merge(acc, pts, w, scale, cells):
        for (x, y), wt in zip(pts, w):
            key = (round(x * scale) % cells, round(y * scale) % cells)
            acc[key] = acc.get(key, 0.0) + float(wt)

    def cells_of(acc, scale):
        keys = sorted(acc)
        return (np.array([(x / scale, y / scale) for x, y in keys]),
                np.array([acc[k] for k in keys]))

    acc = {}
    pts = mu.points
    w = mu.weights / L
    for p in range(L):
        if p:
            pts = apply_torus_batch(word, pts)
        merge(acc, pts, w, 1.0 / 1e-10, 10 ** 10)
    pts, w = cells_of(acc, 1.0 / 1e-10)
    if len(w) > cap:
        coarse = {}
        merge(coarse, pts, w, 4096.0, 4096)
        pts, w = cells_of(coarse, 4096.0)
    return EmpiricalMeasure(pts, w)


def counted_merges(monkeypatch):
    """Records the size of every grid merge of a stage, on any backend."""
    calls = []
    real = averaging.grid_merge

    def spy(points, weights, scale, cells):
        calls.append(len(weights))
        return real(points, weights, scale, cells)

    monkeypatch.setattr(averaging, "grid_merge", spy)
    return calls


def assert_same_measure(a, b):
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def test_stage_on_distinct_atoms_matches_dict_reference(monkeypatch,
                                                        backends):
    mu = EmpiricalMeasure(np.random.default_rng(2).random((64, 2)))
    calls = counted_merges(monkeypatch)
    for backend in backends:
        _kernels.set_backend(backend)
        calls.clear()
        got = _cesaro_stage(W_DEHN, mu, 40)
        assert len(calls) >= 5
        assert len(got) == 64 * 40
        assert_same_measure(got, dict_stage(W_DEHN, mu, 40))


def test_heavily_merging_stage_matches_dict_reference(monkeypatch, backends):
    # the Dehn twist permutes the 16x16 grid, so every image merges back;
    # weights over 16 decades make each cell sum depend on the order
    rng = np.random.default_rng(3)
    grid = EmpiricalMeasure.uniform_grid(16)
    mu = EmpiricalMeasure(grid.points,
                          rng.random(256) * 10.0 ** rng.uniform(-8, 8, 256))
    calls = counted_merges(monkeypatch)
    for backend in backends:
        _kernels.set_backend(backend)
        calls.clear()
        got = _cesaro_stage(W_DEHN, mu, 33)
        assert len(calls) > 10
        assert len(got) == 256
        assert_same_measure(got, dict_stage(W_DEHN, mu, 33))


def test_coarse_rebin_matches_dict_reference(monkeypatch, backends):
    rng = np.random.default_rng(4)
    mu = EmpiricalMeasure(rng.random((64, 2)), rng.random(64))
    monkeypatch.setattr(averaging, "_ATOM_CAP", 100)
    for backend in backends:
        _kernels.set_backend(backend)
        got = _cesaro_stage(W_DEHN, mu, 40)
        ref = dict_stage(W_DEHN, mu, 40, cap=100)
        assert_same_measure(got, ref)
        # the re-bin ran: every atom sits on the 1/4096 grid
        keys = got.points * 4096
        assert np.array_equal(keys, np.round(keys))


# --- rotation transport recurrences


def test_rotev_identity_g_is_exact():
    grid = EmpiricalMeasure.uniform_grid(16)
    r = rotev_residual(LiftedWord(G.identity()), LiftedWord(W_TR), grid, 3)
    assert r.tolist() == [0.0, 0.0]


def test_rotev_closed_form_family():
    # commutator of the Dehn lift inverse with the translation lift is the
    # translation (0,-alpha); the transported sum telescopes back to
    # (alpha, beta) for every p, which the measured side must match
    grid = EmpiricalMeasure.uniform_grid(64)
    for p in range(-5, 6):
        r = rotev_residual(LiftedWord(W_DEHN), LiftedWord(W_TR), grid, p)
        assert np.abs(r).max() < 1e-8, (p, r)


def rotev_oracle(g, h, mu, p):
    """Reference single-power transport residual: every pushforward,
    rotation vector and matrix power computed afresh for p alone."""
    g = LIFT(g, "g")
    h = IDENTITY(h, "h")
    a = linear_part(g.word)

    mu_p = mu
    step = g.word if p >= 0 else inverse(g.word)
    for _ in range(abs(p)):
        mu_p = pushforward(step, mu_p)
    lhs = rotation_vector(mu_p, h)

    rho_h = rotation_vector(mu, h)
    comm = commutator_lift(inverse_lift(g), h)
    c = rotation_vector(mu, comm)

    def mat_pow_apply(p, v):
        m = a ** p
        return np.array([m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1]],
                        dtype=float)

    rhs = mat_pow_apply(p, rho_h)
    if p >= 1:
        for k in range(1, p + 1):
            rhs = rhs + mat_pow_apply(k, c)
    elif p <= -1:
        for k in range(1, -p + 1):
            rhs = rhs - mat_pow_apply(-(k - 1), c)
    return lhs - rhs


def transport_group():
    return MapGroup([
        Generator("t1", ID, disp_x=[constant_term(0.37)],
                  disp_y=[constant_term(0.21)]),
        Generator("skew", ID, disp_y=[trig_term(0.1, 1, 0)]),
        Generator("dehn", DEHN),
        Generator("anosov", MCGClass(2, 1, 1, 1)),
    ])


def test_rotev_power_sequence_matches_single_power_oracle_bitwise():
    tg = transport_group()
    rng = np.random.default_rng(2024)
    powers = [3, -2, 0, 5, -5, 3, 1, -1, 0, 2, -2]
    for _ in range(4):
        atoms = int(rng.integers(1, 50))
        mu = EmpiricalMeasure(rng.uniform(0.0, 1.0, size=(atoms, 2)),
                              rng.uniform(0.1, 1.0, size=atoms))
        for g in (tg.word("dehn"), tg.word("dehn'"), tg.word("anosov")):
            for h in (tg.word("t1"), tg.word("t1 skew")):
                got = rotev_residual(LiftedWord(g), LiftedWord(h), mu, powers)
                assert got.shape == (len(powers), 2)
                for q, row in zip(powers, got):
                    want = rotev_oracle(LiftedWord(g), LiftedWord(h), mu, q)
                    assert row.tobytes() == want.tobytes(), (atoms, g, h, q)
                    single = rotev_residual(LiftedWord(g), LiftedWord(h),
                                            mu, q)
                    assert single.shape == (2,)
                    assert single.tobytes() == row.tobytes()


def test_rotev_zero_and_empty_powers():
    grid = EmpiricalMeasure.uniform_grid(8)
    g, h = LiftedWord(W_DEHN), LiftedWord(W_TR)
    assert rotev_residual(g, h, grid, 0).tolist() == [0.0, 0.0]
    assert rotev_residual(g, h, grid, [0]).tolist() == [[0.0, 0.0]]
    empty = rotev_residual(g, h, grid, [])
    assert empty.shape == (0, 2) and empty.dtype == float


@pytest.mark.parametrize("p", [1.5, "2", np.float64(2.0), [1, 1.5], ["2"],
                               [2, None]])
def test_rotev_non_integer_power_is_refused_before_any_pushforward(
        monkeypatch, p):
    pushed = []
    monkeypatch.setattr(averaging, "pushforward",
                        lambda *args: pushed.append(args))
    with pytest.raises(InvalidArgument, match="powers must be integers"):
        rotev_residual(LiftedWord(W_DEHN), LiftedWord(W_TR),
                       EmpiricalMeasure.uniform_grid(8), p)
    assert pushed == []


def test_defect_table_evaluates_each_distinct_word_once(monkeypatch):
    seen = []
    real = averaging.invariance_defect

    def spy(w, mu, moments=None):
        seen.append(w.letters)
        return real(w, mu, moments)

    monkeypatch.setattr(averaging, "invariance_defect", spy)
    mu = circle_measure()
    # phi and G0[0] are separately built words with the same letters
    table = averaging._defect_table(
        {"phi": G.by_name("h"), "G0[0]": G.by_name("h"),
         "g1": G.by_name("tr")}, mu)
    assert seen == [W_H.letters, W_TR.letters]
    assert table["phi"] == table["G0[0]"] == real(W_H, mu)
    assert table["g1"] == real(W_TR, mu)


def test_rotev_requires_isotopic_h():
    with pytest.raises(NotIsotopicToIdentity):
        rotev_residual(LiftedWord(W_TR), LiftedWord(W_DEHN),
                       EmpiricalMeasure.uniform_grid(8), 1)


# --- affine orbit dichotomy


def test_orbit_identity_constant():
    c = bounded_orbit_check(ID, (0.3, 0.4), (0.0, 0.0), 100)
    assert c.bounded and c.max_norm == 0.5


def test_orbit_dehn_grows_linearly():
    c = bounded_orbit_check(DEHN, (0.5, 0.2), (0.0, 0.0), 1000)
    assert not c.bounded
    assert c.max_norm > 400


def test_orbit_dehn_first_coordinate_zero_stays():
    c = bounded_orbit_check(DEHN, (0.0, 0.2), (0.0, 0.0), 1000)
    assert c.bounded and abs(c.max_norm - 0.2) < 1e-12


def test_orbit_hyperbolic_zero_is_fixed():
    c = bounded_orbit_check(MCGClass(2, 1, 1, 1), (0.0, 0.0), (0.0, 0.0), 1000)
    assert c.bounded and c.max_norm == 0.0


def test_orbit_hyperbolic_overflow_reported_unbounded():
    c = bounded_orbit_check(MCGClass(2, 1, 1, 1), (0.1, 0.0), (0.0, 0.0), 1000)
    assert not c.bounded
    assert c.max_norm == math.inf


def test_orbit_dehn_dichotomy():
    # bounded over [-P,P] exactly when w1 = 0 and rho0_1 + w2 = 0 (m=1)
    cases = [((0.5, 0.2), (0.0, -0.5)), ((0.5, 0.2), (0.0, 0.0)),
             ((0.0, 0.7), (0.0, 0.0)), ((0.3, 0.1), (0.2, -0.3)),
             ((-0.25, 0.9), (0.0, 0.25))]
    for rho0, w in cases:
        c = bounded_orbit_check(DEHN, rho0, w, 1000)
        want = (w[0] == 0.0) and (rho0[0] + w[1] == 0.0)
        assert c.bounded == want, (rho0, w, c)


@pytest.mark.parametrize("g_class,rho0,w", [
    # the threshold overflows: these once came back bounded=True
    (MCGClass(0, -1, 1, 0), (1.28e308, 0.0), (0.0, 1.28e308)),
    (DEHN, (1e308, 1e308), (0.0, 0.0)),
    # non-finite input: this once came back bounded=False
    (DEHN, (math.nan, 0.0), (0.0, 0.0)),
    (DEHN, (0.0, 0.0), (0.0, -math.inf)),
], ids=["rotation_overflow", "dehn_overflow", "nan_rho0", "inf_w"])
def test_orbit_check_rejects_nonfinite_threshold(g_class, rho0, w):
    with pytest.raises(RotorError, match="finite"):
        bounded_orbit_check(g_class, rho0, w, 3)


def _orbit_check_matmul(g_class, rho0, w, P):
    # the 2x2 numpy-matmul scan that bounded_orbit_check must match bitwise
    rho0, w = np.asarray(rho0, dtype=float), np.asarray(w, dtype=float)
    a = np.array(g_class.rows, dtype=float)
    a_inv = np.array(g_class.inverse().rows, dtype=float)
    bound = 10.0 * (1.0 + float(np.hypot(*rho0)) + float(np.hypot(*w)))
    max_norm = float(np.hypot(*rho0))
    with np.errstate(over="ignore", invalid="ignore"):
        r = rho0.copy()
        for _ in range(P):
            r = a @ (r + w)
            n = float(np.hypot(*r))
            if not math.isfinite(n):
                max_norm = math.inf
                break
            max_norm = max(max_norm, n)
        r = rho0.copy()
        if math.isfinite(max_norm):
            for _ in range(P):
                r = a_inv @ r - w
                n = float(np.hypot(*r))
                if not math.isfinite(n):
                    max_norm = math.inf
                    break
                max_norm = max(max_norm, n)
    return max_norm <= bound, max_norm


def test_orbit_check_matches_matmul_reference(backends):
    rng = np.random.default_rng(20261018)
    cases = [(DEHN, (v1, 0.3), (w1, w2), 1000) for v1 in (-1.0, 0.0, 0.5)
             for w1 in (-0.5, 0.0) for w2 in (-0.5, 0.5)]
    # a norm that overflows while both coordinates stay finite (the
    # threshold must stay finite too, see test_orbit_check_rejects_*)
    cases.append((MCGClass(2, 1, 1, 1), (1.25e307, 0.0), (0.0, 0.0), 3))
    while len(cases) < 300:
        m = rng.integers(-2, 3, size=4)
        if m[0] * m[3] - m[1] * m[2] in (1, -1):
            cases.append((MCGClass(*m), tuple(rng.uniform(-1, 1, 2)),
                          tuple(rng.uniform(-1, 1, 2)),
                          int(rng.choice([10, 100, 1000]))))
    want = [_orbit_check_matmul(*case) for case in cases]
    assert sum(max_norm == math.inf for _, max_norm in want) >= 10
    for backend in backends:
        _kernels.set_backend(backend)
        for case, (bounded, max_norm) in zip(cases, want):
            c = bounded_orbit_check(*case)
            assert c.bounded == bounded, (backend, *case)
            assert c.max_norm.hex() == max_norm.hex(), (backend, *case)


@pytest.mark.parametrize("P", [-3, 1.5, "5", None, 2.0])
def test_orbit_check_rejects_bad_P(P, backends):
    # P=-3 once scanned rho0 alone and came back bounded
    for backend in backends:
        _kernels.set_backend(backend)
        with pytest.raises(InvalidArgument, match="P must be"):
            bounded_orbit_check(DEHN, (0.5, 0.2), (0.0, 0.0), P)


def test_orbit_check_takes_P_zero_and_numpy_ints(backends):
    for backend in backends:
        _kernels.set_backend(backend)
        c = bounded_orbit_check(DEHN, (0.3, 0.4), (0.7, 0.0), 0)
        assert c.bounded and c.max_norm == 0.5
        c = bounded_orbit_check(DEHN, (0.3, 0.4), (0.7, 0.0), np.int64(1))
        u = 0.3 + 0.7
        assert c.max_norm == float(np.hypot(u, u + 0.4))
