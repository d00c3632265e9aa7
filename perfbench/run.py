"""rotor's benchmark: four batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rotor is imported from ./src.
Each workload runs in its own process with at most nproc (and at most 2)
threads.  With --trace 0 the workload's fixed job list is run round after
round for --seconds (two whole rounds at least; a threaded job runs again
after each single-threaded one) and every job's time is the median of its
runs.

Times are normalised to a reference CPU speed.  On the 2-vCPU Xeon KVM
guest the benchmark was defined on, co-tenants slow the same job by up to
2x in phases lasting seconds to minutes; CPU time tracks wall time and
steal time stays near zero, so repeats alone do not make a run steady
(raw medians spread 0.2-0.3 across runs).  A fixed pure-Python probe that
touches no rotor code is therefore timed before and after every job run
and every 0.1 s during it (from a SIGALRM handler whose time is taken off
the job); the job's time is scaled by REF_PROBE_S over the probes' mean.
The threads=2 job slows under contention more than single-threaded code
(its pool threads hand the GIL to each other across CPUs), so that probe
left its normalised time up to 27% high in contended runs.  It is
normalised instead by a probe of its own shape, a two-thread pool looping
over tiny numpy arrays without rotor, run before and after it and scaled
by REF_POOL_PROBE_S.
setup_s is normalised by probes run in the set-up process.  Raw times
are kept in the record line.

With --trace 1 untraced and traced passes alternate and the last traced
pass yields the per-layer metrics.  The last line of stdout is the result
object; the line before it holds the full record (environment, checks,
per-job raw and normalised times).  The traced orbits run ends, after its
passes, with the 1e-9 numba-vs-numpy agreement gate of the orbit kernels
at n=20000 on a 32x32 seed grid; a missing numba is recorded as a skipped
gate.

Workloads (why each is here):
  orbits  the orbit kernel does nearly all the work: few-seed/long-orbit and
          many-seed/short-orbit jobs at threads=1, then the irrskew rotation
          set at threads=2, byte-compared with its threads=1 twin
  atoms   measure construction and averaging on the object evaluator, never
          the kernel: 4e4 distinct atoms, 4e4 atoms merging onto a 64x64
          grid, a pushforward chain, klein_symmetrize, construct_invariant,
          and 200 small measures for per-call overhead, plus a few cheap
          rho_bar, sigma-commute, bounded-orbit and convex-hull calls
  fixed   fixed_points with big vectorised grid scans and Newton refinement
          that calls the evaluator with tiny batches
  cli     the user-facing mix: the seven shipped example scenarios through
          cli.main and verify criteria 1-10 through run_suite

End-to-end metrics (--trace 0; every workload reports all of them):
  setup_s       process start to first timed job (import, catalog, backend,
                inputs); median of 9 fresh processes, normalised
  wall_s        one pass over the job list: sum of per-job medians
  peak_rss_mb   peak resident memory of the workload process
  work_a_per_s  work per second over the workload's group-a jobs:
                orbits letter steps at threads=1 (letter_steps_per_s),
                atoms input atoms handed to measure construction by the
                large-measure jobs (atoms_per_s),
                fixed grid points of the 256x256 chain scans,
                cli example subcommand runs (7 scenarios; examples_s is
                group_s.a in the record line)
  work_b_per_s  work per second over the group-b jobs:
                orbits letter steps at threads=2 (letter_steps_per_s.t2),
                atoms 40-atom pushforward/rotation/transport ops
                (small_ops_per_s), fixed fixed-point searches (isolated,
                Newton-heavy, common, Franks sweep), cli verify criteria
                (verify_s is group_s.b)

Per-layer metrics (--trace 1): call counts, self times (span time minus
the union of child spans) and work counts of kernels, maps, measures,
averaging, fixed_points, mcg, covers, geometry, scenario, cli and verify,
plus trace.overhead (traced over untraced pass wall).  See tracer.py.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROCESSES = 9
# The probe's time on an uncontended vCPU of the 2-vCPU Xeon KVM guest the
# benchmark was defined on; normalised times are seconds at that speed.
REF_PROBE_S = 2.5e-3
# pool_probe(2)'s fastest time on the same guest.
REF_POOL_PROBE_S = 3.2e-2
PROBE_EVERY_S = 0.1
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "work_a_per_s": "1/s", "work_b_per_s": "1/s"}


def _import_rotor():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rotor", "__init__.py")):
        sys.exit("perfbench: no rotor sources under %s" % src)
    sys.path.insert(0, src)
    import rotor
    if not os.path.abspath(rotor.__file__).startswith(src + os.sep):
        sys.exit("perfbench: imported rotor from %s, not %s"
                 % (rotor.__file__, src))


def nproc():
    return len(os.sched_getaffinity(0))


def environment(seed, threads):
    import numpy as np
    from rotor import _kernels
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except Exception:          # layout differs across numpy versions
        blas = "unknown"
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            revision = rev.stdout.strip() if rev.returncode == 0 else None
        except OSError:
            pass
    return {
        "backend": _kernels.get_backend(), "nproc": nproc(),
        "python": platform.python_version(), "numpy": np.__version__,
        "numba": numba_version, "blas": blas,
        "git_revision": revision or "unavailable (not a git checkout)",
        "threads": threads, "seed": seed, "machine": platform.machine(),
    }


def build(workload, seed, outdir):
    from workloads import WORKLOADS
    threads_t2 = min(2, nproc())
    return WORKLOADS[workload](seed, outdir, threads_t2), threads_t2


def probe():
    """Fixed pure-Python work (dict updates) that touches no rotor code."""
    t0 = time.perf_counter()
    d = {}
    for i in range(20000):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0.0) + 0.5
    return time.perf_counter() - t0


def pool_probe(threads):
    """Fixed numpy work on 16 seeds in 8 chunks over a thread pool, the
    shape of the threaded orbit job: tiny arrays, so the threads contend
    for the GIL.  Touches no rotor code."""
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    def loop(p):
        acc = np.zeros_like(p)
        for _ in range(800):
            q = np.sin(p) * 0.1 + p + 0.3
            acc = acc + (q - p)
            p = q - np.floor(q)
        return acc

    chunks = np.array_split(np.linspace(0.0, 1.0, 32).reshape(16, 2), 8)
    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=threads) as ex:
        list(ex.map(loop, chunks))
    return time.perf_counter() - t0


class SpeedMeter:
    """Runs the probe every PROBE_EVERY_S from a SIGALRM handler while a
    single-threaded job runs, so long jobs are normalised by the speed
    during the whole run, not only at its ends.  The handler's own time is
    kept in ``spent`` and taken off the job's time."""

    def __init__(self):
        self.probes = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False


def run_job(job, record):
    """One timed run of a job; failures are counted, never raised."""
    t0 = time.perf_counter()
    try:
        fails = job.run()
    except Exception as exc:
        fails = ["%s: %s" % (type(exc).__name__, exc)] * job.ops
        record["errors"].append(traceback.format_exc(limit=3))
    dt = time.perf_counter() - t0
    record["attempted"] += job.ops
    record["failed"] += min(len(fails), job.ops)
    for msg in fails[:3]:
        if len(record["fail_msgs"]) < 20:
            record["fail_msgs"].append("%s: %s" % (job.name, msg))
    return dt


def run_pass(jobs, record):
    return [run_job(j, record) for j in jobs]


def measure_setup(args, outdir):
    """Per fresh process: wall time from spawn to its first job, and the
    median of three probes run right after."""
    times = []
    for i in range(SETUP_PROCESSES):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--outdir", os.path.join(outdir, "setup%d" % i),
               "--spawned-at", repr(time.time())]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise RuntimeError("set-up process failed: " + out.stderr[-500:])
        times.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(jobs, record, seconds):
    """Rounds over the job list until the time is up, and at least two
    whole rounds, so every job has two runs or more.  A threaded job's
    runs spread the most, so within a round it runs again after every
    single-threaded job.  Each run of a job is normalised by the mean of
    the probes timed before, during and after it; a job's time is the
    median of its normalised runs."""
    raw = [[] for _ in jobs]
    norm = [[] for _ in jobs]
    pooled = [i for i, j in enumerate(jobs) if j.threads > 1]
    order = []
    for i, job in enumerate(jobs):
        if job.threads == 1:
            order += [i] + pooled
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        for i in order:
            job = jobs[i]
            if job.threads > 1:   # a handler would fight the pool for the GIL
                probes = [pool_probe(job.threads)]
                dt = run_job(job, record)
                probes.append(pool_probe(job.threads))
                speed = REF_POOL_PROBE_S / statistics.mean(probes)
            else:
                probes = [probe()]
                with SpeedMeter() as meter:
                    dt = run_job(job, record)
                dt -= meter.spent
                probes += meter.probes + [probe()]
                speed = REF_PROBE_S / statistics.mean(probes)
            raw[i].append(dt)
            norm[i].append(dt * speed)
            if rounds >= 2 and time.perf_counter() - start >= seconds:
                break
        rounds += 1
    med = [statistics.median(s) for s in norm]
    metrics = {"wall_s": sum(med)}
    record["group_s"] = {}
    for g in ("a", "b"):
        idx = [i for i, j in enumerate(jobs) if j.group == g]
        record["group_s"][g] = sum(med[i] for i in idx)
        metrics["work_%s_per_s" % g] = (sum(jobs[i].work for i in idx)
                                        / record["group_s"][g])
    record["rounds"] = rounds
    record["raw_wall_s"] = sum(statistics.median(s) for s in raw)
    record["jobs"] = {
        j.name: {"runs": len(r), "median_s": m,
                 "raw_median_s": statistics.median(r), "raw_min_s": min(r),
                 "raw_s": [round(x, 6) for x in r]}
        for j, r, m in zip(jobs, raw, med)}
    return metrics


def traced(jobs, record, seconds, workload):
    from tracer import REQUIRED, Tracer, layer_metrics
    plain, timed = [], []
    start = time.perf_counter()
    while not timed or (time.perf_counter() - start
                        + plain[-1] + timed[-1] <= seconds):
        plain.append(sum(run_pass(jobs, record)))
        untraced = {j.name: dict(j.extras) for j in jobs}
        with Tracer() as tr:
            timed.append(sum(run_pass(jobs, record)))
        spans = tr.spans
    metrics, calls = layer_metrics(spans, threading.get_ident())
    for k in range(1, 11):   # the program's own timing, from the untraced pass
        extras = untraced.get("verify.c%02d" % k, {})
        metrics["verify.c%02d_s" % k] = extras.get("elapsed_s", 0.0)
    metrics["cli.bytes_written"] = sum(j.extras.get("bytes_written", 0)
                                       for j in jobs)
    metrics["trace.overhead"] = (statistics.median(timed)
                                 / statistics.median(plain))
    missed = [n for n in REQUIRED[workload] if not calls.get(n)]
    record["trace_pairs"] = len(timed)
    record["checks"]["trace_hit"] = {"status": "fail" if missed else "pass",
                                     "not_hit": missed}
    return metrics


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=__doc__[__doc__.index("Workloads"):],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=["orbits", "atoms", "fixed", "cli"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--outdir", help=argparse.SUPPRESS)
    args = ap.parse_args()

    _import_rotor()
    if args.workload is None:
        ap.error("--workload is required")

    if args.setup_only:
        os.makedirs(args.outdir, exist_ok=True)
        build(args.workload, args.seed, args.outdir)
        setup = time.time() - args.spawned_at
        print(json.dumps({"raw_s": setup, "probe_s": statistics.median(
            [probe() for _ in range(3)])}))
        return 0

    outdir = os.path.join(ROOT, ".perfbench_out", "%s-%d"
                          % (args.workload, os.getpid()))
    os.makedirs(outdir, exist_ok=True)
    try:
        return measure(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(outdir))
        except OSError:
            pass


def measure(args, outdir):
    record = {"workload": args.workload, "attempted": 0, "failed": 0,
              "fail_msgs": [], "errors": [], "checks": {}}
    if not args.trace:
        setup = measure_setup(args, outdir)
    jobs, threads_t2 = build(args.workload, args.seed, outdir)
    threads = [1, threads_t2] if args.workload == "orbits" else [1]
    record["environment"] = environment(args.seed, threads)

    if args.trace:
        metrics = traced(jobs, record, args.seconds, args.workload)
        units = {}
    else:
        metrics = end_to_end(jobs, record, args.seconds)
        metrics["setup_s"] = statistics.median(
            x["raw_s"] * REF_PROBE_S / x["probe_s"] for x in setup)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
        record["setup_samples_s"] = setup
        units = UNITS
    if args.workload == "orbits":
        # the gate's numpy side took about a minute on the 2-vCPU guest,
        # too long to repeat in each timed run
        from workloads import backend_agreement
        record["checks"]["backend_agreement"] = backend_agreement() \
            if args.trace else {"status": "skipped",
                                "reason": "runs in the --trace 1 run"}
    checks_ok = all(c["status"] != "fail" for c in record["checks"].values())
    correct = record["failed"] == 0 and checks_ok
    result = {
        "correct": correct, "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, _layer_unit(k))}
                    for k, v in sorted(metrics.items())},
    }
    record["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def _layer_unit(name):
    if name.endswith(("_s", "_s_sum")):
        return "s"
    if name.endswith("ns_per_letter_step"):
        return "ns"
    if name.endswith(("ratio", "overhead", "utilisation", "points_per_call")):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
