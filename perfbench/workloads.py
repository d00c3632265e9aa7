"""The four benchmark workloads: seeded inputs, job lists, output checks.

Each ``build_<name>(seed, outdir, threads_t2)`` is the workload's set-up:
it makes the inputs from the seed and returns the workload's fixed job
list.  ``outdir`` takes files the jobs write; ``threads_t2`` is the
thread count of the orbits workload's threaded job.
A job runs one timed unit of work and returns the messages of the output
checks it failed, one per failed operation.  ``ops`` is the number of
operations a run of the job attempts; ``work`` counts the unit of the
workload's throughput metric that one run completes, and ``group`` names
which of the two throughput metrics (``a`` or ``b``) it feeds.

All rotor calls go through module attributes (``maps.apply_lift_batch``),
so the tracer's patches see the benchmark's own calls as well.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from rotor import (_kernels, averaging, catalog, cli, covers, fixed_points,
                   geometry, maps, measures, verify)
from rotor.errors import RotorError


class Job:
    __slots__ = ("name", "run", "ops", "work", "group", "threads", "extras")

    def __init__(self, name, run, ops=1, work=0, group=None, threads=1):
        self.name = name
        self.run = run
        self.ops = ops
        self.work = work
        self.group = group
        self.threads = threads
        self.extras = {}     # filled by runs that report program-side data


def _mass_error(mu):
    return abs(float(mu.weights.sum()) - 1.0)


def _mass_fail(label, mu):
    err = _mass_error(mu)
    return ["%s: total mass off by %.3g" % (label, err)] if err > 1e-12 else []


# --- orbits: the orbit kernel does nearly all the work


ORBIT_N_T1 = 2000          # irrskew rotation set: 16 seeds x n, both twins


def build_orbits(seed, outdir, threads_t2):
    cat = catalog.build_catalog()
    rng = np.random.default_rng(seed)
    irrskew = cat.word("irrskew")
    target = np.array([catalog.ALPHA, 0.3])
    irr_seeds = rng.random((16, 2))
    many = rng.random((4096, 2))
    mid = rng.random((256, 2))
    single = tuple(rng.random(2))
    twin = {}

    def irr_t1():
        est = measures.estimate_rotation_set(irrskew, irr_seeds, ORBIT_N_T1)
        twin["t1"] = est.samples
        gap = float(np.hypot(*(est.samples - target).T).max())
        return [] if gap < 5e-3 else ["irrskew mean %.3g from (sqrt2-1, 0.3)"
                                      % gap]

    def finite_means(word, pts, n):
        def job():
            out = maps.orbit_displacement_means(cat.word(word), pts, n)
            return [] if np.isfinite(out).all() else ["%s: NaN means" % word]
        return job

    def birkhoff():
        rec = measures.birkhoff_mean(irrskew, single, 5000)
        gap = math.hypot(rec.mean[0] - target[0], rec.mean[1] - target[1])
        return [] if gap < 5e-3 else ["birkhoff mean %.3g off" % gap]

    def krylov():
        mu = measures.krylov_bogolyubov(cat.word("twist"), single, 5000, 500)
        ok = np.isfinite(mu.points).all()
        return _mass_fail("krylov", mu) + ([] if ok else ["krylov: NaN"])

    def irr_t2():
        est = measures.estimate_rotation_set(irrskew, irr_seeds, ORBIT_N_T1,
                                             threads=threads_t2)
        if "t1" not in twin:
            return ["threads=1 twin missing"]
        same = est.samples.tobytes() == twin["t1"].tobytes()
        return [] if same else ["threads=%d means differ from threads=1"
                                % threads_t2]

    steps = {   # seeds x n x word letters, from the job sizes
        "irr": 16 * ORBIT_N_T1 * 1,
        "thtw": 4096 * 200 * 3,
        "hsk": 256 * 800 * 2,
        "bm": 5000 * 1,
        "kb": 5000 * 1,
    }
    return [
        Job("irrskew.t1", irr_t1, work=steps["irr"], group="a"),
        Job("twist_h_twist", finite_means("twist h twist", many, 200),
            work=steps["thtw"], group="a"),
        Job("h_skew_inv", finite_means("h skew'", mid, 800),
            work=steps["hsk"], group="a"),
        Job("birkhoff_mean", birkhoff, work=steps["bm"], group="a"),
        Job("krylov_bogolyubov", krylov, work=steps["kb"], group="a"),
        Job("irrskew.t2", irr_t2, work=steps["irr"], group="b",
            threads=threads_t2),
    ]


GATE_N = 20000             # the backend comparison's default orbit length
GATE_SEEDS = 32            # and seed grid side, where long-orbit drift shows


def backend_agreement():
    """The 1e-9 numba-vs-numpy agreement gate on the orbit-kernel cases of
    the backend comparison, at its default sizes.  Without numba the gate
    is recorded as skipped, never dropped."""
    selected = _kernels.get_backend()
    try:
        _kernels.set_backend("numba")
    except RotorError as exc:
        return {"status": "skipped", "reason": str(exc)}
    n = GATE_N
    ax = np.arange(GATE_SEEDS) / GATE_SEEDS
    grid = np.stack(np.meshgrid(ax, ax, indexing="ij"), -1).reshape(-1, 2)

    def tail(w):
        (mx, my), spread = maps.orbit_mean_with_tail(w, (0.2, 0.7), 10 * n)
        return [mx, my, spread]

    cases = [
        ("h", lambda w: maps.orbit_displacement_means(w, grid, n)),
        ("twist h twist", lambda w: maps.orbit_displacement_means(w, grid, n)),
        ("h skew'", lambda w: maps.orbit_displacement_means(w, grid, n)),
        ("irrskew", tail),
        ("twist", lambda w: maps.orbit_segment(w, (0.1, 0.3), 10 * n,
                                               burn=n)),
    ]
    cat = catalog.build_catalog()
    gate = {"status": "pass", "max_gap": 0.0, "n": n, "seeds": len(grid)}
    try:
        for word, fn in cases:
            w = cat.word(word)
            outs = []
            for b in ("numba", "numpy"):
                _kernels.set_backend(b)
                outs.append(np.asarray(fn(w), dtype=float))
            gap = float(np.max(np.abs(outs[0] - outs[1])))
            gate["max_gap"] = max(gate["max_gap"], gap)
            if gap > 1e-9:
                gate["status"] = "fail"
    finally:
        _kernels.set_backend(selected)
    return gate


# --- atoms: measure construction and averaging on the object evaluator


ATOMS_LARGE = 40000        # distinct and 64x64-grid measures; klein doubles
ATOMS_CHAIN = 8000         # atoms pushed through the 10-step chain
ORBIT_ATOMS = 1024         # tr orbit seeding construct_invariant
STAGE_L = 32               # its Cesaro length
SMALL_MEASURES = 200       # 40-atom measures, 3 operations each
KLEIN_SMALL = 8            # of them also symmetrized and given rho_bar
ORBIT_CASES = 8            # bounded_orbit_check cases, half of them bounded
HULL_POINTS = 2000         # inner points of the convex_hull case


def build_atoms(seed, outdir, threads_t2):
    cat = catalog.build_catalog()
    rng = np.random.default_rng(seed)
    distinct = rng.random((ATOMS_LARGE, 2))
    gridded = rng.integers(0, 64, size=(ATOMS_LARGE, 2)) / 64.0
    pool = ["h", "skew", "twist", "tr", "dehn", "halftr"]
    chain_words = [cat.word(pool[i]) for i in rng.integers(0, len(pool), 10)]
    chain_mu = measures.EmpiricalMeasure(rng.random((ATOMS_CHAIN, 2)))
    x0, y0 = rng.random(2)
    k = np.arange(ORBIT_ATOMS)
    orbit_mu = measures.EmpiricalMeasure(np.column_stack(
        [(x0 + catalog.ALPHA * k) % 1.0, (y0 + 0.3 * k) % 1.0]))
    tr, dehn = cat.word("tr"), cat.word("dehn")
    spec = averaging.GroupSpec(generators_G0=(tr,), extension_gens=(
        (dehn, maps.linear_part(dehn)),))
    small = []
    for _ in range(SMALL_MEASURES):
        w = rng.uniform(0.1, 1.0, 40)
        mu = measures.EmpiricalMeasure(rng.random((40, 2)), w / w.sum())
        g = cat.word(["dehn", "dehn'"][rng.integers(2)])
        h = cat.word(["tr", "halftr", "tr halftr"][rng.integers(3)])
        push = cat.word(pool[rng.integers(len(pool))])
        p = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        small.append((mu, g, h, push, p))
    skew, dehn_class = cat.word("skew"), maps.linear_part(dehn)
    # (rho0, w, bounded) under the dehn class: the orbit of rho0 = (v1, .)
    # is bounded iff w1 = 0 and v1 + w2 = 0, as in criterion 5
    orbit_cases = []
    for i in range(ORBIT_CASES):
        v1, w2 = rng.choice([-1.0, -0.5, 0.5, 1.0], 2)
        if i % 2 == 0:
            orbit_cases.append(((v1, 0.3), (0.0, -v1), True))
        else:
            orbit_cases.append(((v1, 0.3), (0.5, w2), False))
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    hull_in = np.concatenate([rng.uniform(0.01, 0.99, (HULL_POINTS, 2)),
                              corners])
    last = {}

    def distinct_job():
        mu = measures.EmpiricalMeasure(distinct)
        last["distinct"] = mu
        merged = len(distinct) - len(mu)
        return _mass_fail("distinct", mu) + (
            ["distinct atoms merged: %d" % merged] if merged > 100 else [])

    def grid_job():
        mu = measures.EmpiricalMeasure(gridded)
        return _mass_fail("grid", mu) + (
            [] if len(mu) <= 64 * 64 else ["grid atoms did not merge"])

    def chain_job():
        mu = chain_mu
        fails = []
        for w in chain_words:
            mu = measures.pushforward(w, mu)
            fails += _mass_fail("pushforward", mu)
        return fails

    def klein_job():
        if "distinct" not in last:
            return ["no input measure"]
        return _mass_fail("klein", covers.klein_symmetrize(last["distinct"]))

    def invariant_job():
        trace = averaging.construct_invariant(spec, tr.lift(), orbit_mu,
                                              L=STAGE_L, tol=2e-3)
        a, b = np.array(trace.rho_initial), np.array(trace.rho_final)
        gap = float(np.abs(a - b).max())
        return _mass_fail("invariant", trace.final_measure) + (
            [] if gap < 1e-6 else ["rho moved by %.3g" % gap])

    def small_job():
        fails = []
        for mu, g, h, push, p in small:
            fails += _mass_fail("pushforward", measures.pushforward(push, mu))
            if not np.isfinite(measures.rotation_vector(mu, h)).all():
                fails.append("rotation vector not finite")
            res = float(np.abs(averaging.rotev_residual(g, h, mu, p)).max())
            if not res < 1e-8:
                fails.append("transport residual %.3g" % res)
        return fails

    def covers_geometry_job():
        fails = []
        defect = covers.check_sigma_commute(skew)
        if not defect < 1e-9:
            fails.append("skew sigma defect %.3g" % defect)
        for mu, _, _, _, _ in small[:KLEIN_SMALL]:
            sym = covers.klein_symmetrize(mu)
            a, b = covers.rho_bar(sym, skew.lift())
            if not (0.0 <= a < 1.0 and b < 1e-8):
                fails.append("rho_bar of a symmetrized measure: %r"
                             % ((a, b),))
        for rho0, w, bounded in orbit_cases:
            if averaging.bounded_orbit_check(dehn_class, rho0, w).bounded \
                    != bounded:
                fails.append("orbit %r + %r: bounded should be %s"
                             % (rho0, w, bounded))
        hull = geometry.convex_hull(hull_in)
        if sorted(map(tuple, hull)) != sorted(map(tuple, corners)):
            fails.append("hull is not the unit square")
        return fails

    return [
        Job("measure.distinct", distinct_job, work=len(distinct), group="a"),
        Job("measure.grid64", grid_job, work=len(gridded), group="a"),
        Job("pushforward_chain", chain_job, ops=len(chain_words),
            work=len(chain_words) * len(chain_mu), group="a"),
        Job("klein_symmetrize", klein_job, work=2 * len(distinct), group="a"),
        Job("construct_invariant", invariant_job, work=len(orbit_mu) * STAGE_L,
            group="a"),
        Job("small_measures", small_job, ops=3 * len(small),
            work=3 * len(small), group="b"),
        Job("covers_geometry", covers_geometry_job,
            ops=2 + KLEIN_SMALL + ORBIT_CASES),
    ]


# --- fixed: fixed_points driving the evaluator with tiny batches


def build_fixed(seed, outdir, threads_t2):
    cat = catalog.build_catalog()
    rng = np.random.default_rng(seed)

    def pick(pool):
        return pool[rng.integers(len(pool))]

    chains = ["h", "skew", "twist", "h skew h'"]
    isolated = pick(["skew twist'", "twist skew'", "skew' twist",
                     "twist' skew"])
    newton = pick(["h' irrskew", "h' tr"])
    tol = 1e-9

    def residual_fails(label, rep):
        return ["%s: residual %.3g above tol" % (label, e.residual)
                for e in rep.points if not e.residual < tol]

    def chain_job():
        fails = []
        for w in chains:
            rep = fixed_points.find_fixed_points(cat.word(w), grid_n=256,
                                                 tol=tol)
            fails += residual_fails(w, rep)
            if not rep.chains:
                fails.append("%s: no chain found" % w)
            if w == "h":
                xs = {p[0] for c in rep.chains for p in c.points}
                if xs != {0.0, 0.5}:
                    fails.append("h chains not at x in {0, 1/2}")
        return fails

    def isolated_job():
        w = cat.word(isolated)
        rep = fixed_points.find_fixed_points(w, tol=tol)
        fails = residual_fails(isolated, rep)
        if not rep.points:
            fails.append("%s: no isolated point" % isolated)
        for e in rep.points:
            fixed_points.fixed_point_index(w, e.point)
        return fails

    def newton_job():
        rep = fixed_points.find_fixed_points(cat.word(newton), grid_n=8,
                                             tol=tol)
        return [] if rep.is_empty() else ["%s: unexpected fixed set" % newton]

    def common_job():
        rep = fixed_points.common_fixed_points(
            [cat.word("h"), cat.word("phi")], tol=tol)
        return residual_fails("h,phi", rep) + (
            [] if rep.points else ["h,phi: no common point"])

    cases = catalog.franks_cases(cat)

    def franks_job():
        bad = 0
        for case in cases:
            rep = fixed_points.franks_certificate(case.word, case.measure,
                                                  tol=1e-3)
            proxy_ok = rep.birkhoff_spread < verify.BIRKHOFF_SPREAD_LIMIT
            if rep.hypothesis_met and proxy_ok and rep.fixed_points.is_empty():
                bad += 1
        return ["franks counterexample"] * bad

    return [
        Job("chain_scans", chain_job, ops=len(chains),
            work=len(chains) * 256 * 256, group="a"),
        Job("isolated_points", isolated_job, work=1, group="b"),
        Job("newton_no_points", newton_job, work=1, group="b"),
        Job("common_h_phi", common_job, work=1, group="b"),
        Job("franks_sweep", franks_job, ops=len(cases), work=len(cases),
            group="b"),
    ]


# --- cli: shipped example scenarios and the verify suite, in-process


VERIFY_CRITERIA = range(1, 11)   # 11 asks for 8 threads and repeats 8


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _digest_dir(path):
    h = hashlib.sha256()
    size = 0
    errors = []
    for root, _, files in sorted(os.walk(path)):
        for f in sorted(files):
            p = os.path.join(root, f)
            with open(p, "rb") as fh:
                data = fh.read()
            size += len(data)
            h.update(p.encode() + b"\0" + data)
            if f.endswith(".json") and f != "run_meta.json" and \
                    "error" in json.loads(data):
                errors.append("%s carries an error payload" % f)
    return h.hexdigest(), size, errors


def build_cli(seed, outdir, threads_t2):
    exdir = os.path.join(outdir, "examples")
    if _quiet_main(["examples", "--out", exdir]) != 0:
        raise RuntimeError("rotor examples failed")
    jobs = []
    for fname, text in cli._example_files():
        kinds = {r.kind for r in cli.parse_scenario(
            os.path.join(exdir, fname)).analyses}
        subs = [s for s, k in cli._SUBCOMMAND_KIND.items() if k in kinds]
        jobs.append(_example_job(fname, subs, exdir, outdir))
    for k in VERIFY_CRITERIA:
        jobs.append(_criterion_job(k))
    return jobs


def _example_job(fname, subs, exdir, outdir):
    first = {}
    target = os.path.join(outdir, "reports", fname)
    job = None

    def run():
        fails = []
        for sub in subs:
            rc = _quiet_main([sub, os.path.join(exdir, fname), "--out",
                              os.path.join(target, sub)])
            if rc != 0:
                fails.append("%s %s exited %d" % (sub, fname, rc))
        digest, size, errors = _digest_dir(target)
        job.extras["bytes_written"] = size
        first.setdefault("digest", digest)
        if digest != first["digest"]:
            fails.append("%s reports differ between passes" % fname)
        return fails + errors

    job = Job("examples." + fname.split(".")[0], run, ops=len(subs),
              work=len(subs), group="a")
    return job


def _criterion_job(k):
    first = {}
    job = None

    def run():
        report = verify.run_suite(threads=1, only=[k])
        (res,) = report.results
        job.extras["elapsed_s"] = res.elapsed_s
        first.setdefault("text", report.json_text())
        fails = [] if res.passed else ["criterion %d failed" % k]
        if report.json_text() != first["text"]:
            fails.append("criterion %d report differs between passes" % k)
        return fails

    job = Job("verify.c%02d" % k, run, work=1, group="b")
    return job


WORKLOADS = {
    "orbits": build_orbits,
    "atoms": build_atoms,
    "fixed": build_fixed,
    "cli": build_cli,
}
