"""Span tracer for the traced benchmark pass.

Wraps the public entry points of each rotor layer from outside the
package and records one span per call: name, thread, start, end, parent
span and the work counts the call carries (letter steps, points, atoms).
Modules bind many of these functions by name (``from .maps import
apply_lift_batch`` in fixed_points, ``orbit_displacement_means`` in
measures, fixed_points and verify), so every ``rotor.*`` namespace that
holds the function object gets the wrapper; ``EmpiricalMeasure.__init__``
is wrapped on the class.  Kernel calls made by the seed thread pool run
on worker threads with an empty span stack; they are attributed to the
enclosing ``orbit_displacement_means`` span.  Spans stay in memory and
are reduced to per-layer metrics when the pass ends.
"""

import functools
import inspect
import math
import sys
import threading
import time

import numpy as np


def _kernel_steps(name, args):
    # signatures from rotor._kernels: the word program's letter array is
    # the first of the trailing *args, so its length is the word length
    if name == "orbit_mean_batch":       # (seeds, n, plane_mode, slot, ...)
        return len(args[0]) * args[1] * len(args[3])
    if name == "orbit_mean_tail":        # (sx, sy, n, plane_mode, slot, ...)
        return args[2] * len(args[4])
    return (args[2] + args[3]) * len(args[4])  # (sx, sy, burn, count, slot)


def _counts(name, fn, args, kwargs, out):
    """Work counts of one call, by span name; empty for plain calls."""
    if name.startswith("_kernels."):
        return {"letter_steps": _kernel_steps(name.split(".", 1)[1], args)}
    if name == "maps.apply_lift_batch":
        return {"points": len(args[1])}
    if name == "maps.orbit_displacement_means":  # (w, seeds, n, threads=1)
        threads = args[3] if len(args) > 3 else kwargs.get("threads", 1)
        return {"threads": int(threads), "seeds": len(out)}
    if name == "measures.EmpiricalMeasure":     # __init__(self, points, ...)
        points = args[1] if len(args) > 1 else kwargs["points"]
        return {"atoms_in": len(np.asarray(points, dtype=float).reshape(-1, 2)),
                "atoms_out": len(args[0].weights)}
    if name == "averaging.construct_invariant":
        ba = inspect.signature(fn).bind(*args, **kwargs)
        ba.apply_defaults()
        L = ba.arguments["L"]
        stages = out.stages[1:]
        return {"stage_atoms": sum(len(s.measure) for s in stages),
                "L_doublings": sum(int(round(math.log2(s.L_used / L)))
                                   for s in stages)}
    if name == "fixed_points.scan":
        grid_n = args[1]
        return {"grid_points": grid_n * grid_n, "points_found": len(out.points),
                "chains_found": len(out.chains)}
    if name == "geometry.convex_hull":
        return {"points": len(np.asarray(args[0]).reshape(-1, 2))}
    return {}


# (span name, module, attribute); "EmpiricalMeasure" is patched on the class
TARGETS = [
    ("_kernels.orbit_mean_batch", "rotor._kernels", "orbit_mean_batch"),
    ("_kernels.orbit_mean_tail", "rotor._kernels", "orbit_mean_tail"),
    ("_kernels.orbit_collect", "rotor._kernels", "orbit_collect"),
    ("maps.apply_lift_batch", "rotor.maps", "apply_lift_batch"),
    ("maps.compile_program", "rotor.maps", "compile_program"),
    ("maps.orbit_displacement_means", "rotor.maps", "orbit_displacement_means"),
    ("measures.EmpiricalMeasure", "rotor.measures", "EmpiricalMeasure"),
    ("measures.pushforward", "rotor.measures", "pushforward"),
    ("measures.rotation_vector", "rotor.measures", "rotation_vector"),
    ("measures.invariance_defect", "rotor.measures", "invariance_defect"),
    ("averaging.construct_invariant", "rotor.averaging", "construct_invariant"),
    ("averaging.rotev_residual", "rotor.averaging", "rotev_residual"),
    ("averaging.bounded_orbit_check", "rotor.averaging", "bounded_orbit_check"),
    ("fixed_points.scan", "rotor.fixed_points", "_scan"),
    ("fixed_points.franks_certificate", "rotor.fixed_points",
     "franks_certificate"),
    ("fixed_points.fixed_point_index", "rotor.fixed_points",
     "fixed_point_index"),
    ("mcg.spectral_class", "rotor.mcg", "spectral_class"),
    ("mcg.closure", "rotor.mcg", "closure"),
    ("mcg.classify_nilpotent", "rotor.mcg", "classify_nilpotent"),
    ("mcg.check_condition_star_star", "rotor.mcg", "check_condition_star_star"),
    ("covers.klein_symmetrize", "rotor.covers", "klein_symmetrize"),
    ("covers.rho_bar", "rotor.covers", "rho_bar"),
    ("covers.check_sigma_commute", "rotor.covers", "check_sigma_commute"),
    ("geometry.convex_hull", "rotor.geometry", "convex_hull"),
    ("scenario.parse_scenario", "rotor.scenario", "parse_scenario"),
    ("cli.main", "rotor.cli", "main"),
]

KERNELS = [t[0] for t in TARGETS[:3]]

# Span names each workload must hit in its traced pass: the layers whose
# end-to-end metric on that workload the per-layer table says they move.
# "kernels" stands for any of the three kernel entry points.  Two entries
# of the table cannot be hit: only the orbit-kernel path calls
# maps.compile_program, and atoms never enters it; no code path of cli.main
# or verify calls fixed_points.fixed_point_index.
REQUIRED = {
    "orbits": ["kernels", "maps.compile_program",
               "maps.orbit_displacement_means"],
    "atoms": ["maps.apply_lift_batch", "measures.EmpiricalMeasure",
              "measures.pushforward", "measures.rotation_vector",
              "measures.invariance_defect", "averaging.construct_invariant",
              "averaging.rotev_residual", "averaging.bounded_orbit_check",
              "covers.klein_symmetrize", "covers.rho_bar",
              "covers.check_sigma_commute", "geometry.convex_hull"],
    "fixed": ["maps.apply_lift_batch", "maps.compile_program",
              "fixed_points.scan", "fixed_points.franks_certificate",
              "fixed_points.fixed_point_index"],
    "cli": ["kernels"] + [t[0] for t in TARGETS[3:] if t[0] not in (
        "maps.orbit_displacement_means", "fixed_points.fixed_point_index")],
}


class Tracer:
    """Patches the targets on enter, restores them on exit."""

    def __init__(self):
        self.spans = []          # [name, thread id, t0, t1, parent, counts]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pool_parent = None
        self._undo = []

    def _wrap(self, name, fn, is_init=False):
        tracer = self
        pool = name == "maps.orbit_displacement_means"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._pool_parent
            span = [name, threading.get_ident(), 0.0, 0.0, parent, {}]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            if pool:
                saved_pool, tracer._pool_parent = tracer._pool_parent, idx
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if pool:
                    tracer._pool_parent = saved_pool
            span[5] = _counts(name, fn, args, kwargs,
                              args[0] if is_init else out)
            return out
        return traced

    def __enter__(self):
        rotor_mods = [m for k, m in list(sys.modules.items())
                      if (k == "rotor" or k.startswith("rotor.")) and m]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if attr == "EmpiricalMeasure":
                cls = getattr(owner, attr)
                orig = cls.__init__
                cls.__init__ = self._wrap(name, orig, is_init=True)
                self._undo.append((cls, "__init__", orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in rotor_mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        return self

    def __exit__(self, *exc):
        for obj, key, orig in reversed(self._undo):
            setattr(obj, key, orig)
        self._undo = []
        return False


def self_times(spans):
    """Per span: duration minus the union of its direct children."""
    children = {}
    for i, s in enumerate(spans):
        if s[4] is not None:
            children.setdefault(s[4], []).append(i)
    out = []
    for i, (_, _, t0, t1, _, _) in enumerate(spans):
        covered = 0.0
        end = t0
        for a, b in sorted((spans[c][2], spans[c][3])
                           for c in children.get(i, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out.append((t1 - t0) - covered)
    return out


def layer_metrics(spans, main_thread):
    """Reduce one traced pass to the per-layer metric dict (no extras)."""
    selfs = self_times(spans)
    calls, self_s, counts = {}, {}, {}
    chunk_s = 0.0
    pool_threads = 0.0
    for s, st in zip(spans, selfs):
        name, tid, t0, t1, _, c = s
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + st
        for k, v in c.items():
            key = name + "." + k
            counts[key] = counts.get(key, 0) + v
        if name in KERNELS and tid != main_thread:
            chunk_s += t1 - t0
        if name == "maps.orbit_displacement_means" and c["threads"] > 1 \
                and c["seeds"] > 1:
            pool_threads += c["threads"] * (t1 - t0)

    def ratio(a, b):
        return a / b if b else 0.0

    k_calls = sum(calls.get(k, 0) for k in KERNELS)
    k_self = sum(self_s.get(k, 0.0) for k in KERNELS)
    k_steps = sum(counts.get(k + ".letter_steps", 0) for k in KERNELS)
    m = {
        "kernels.calls": k_calls,
        "kernels.letter_steps": k_steps,
        "kernels.self_s": k_self,
        "kernels.ns_per_letter_step": ratio(1e9 * k_self, k_steps),
        "kernels.chunk_s_sum": chunk_s,
        "maps.pool_utilisation": ratio(chunk_s, pool_threads),
        "maps.apply_lift_batch.points":
            counts.get("maps.apply_lift_batch.points", 0),
        "maps.points_per_call": ratio(
            counts.get("maps.apply_lift_batch.points", 0),
            calls.get("maps.apply_lift_batch", 0)),
        "measures.EmpiricalMeasure.atoms_in":
            counts.get("measures.EmpiricalMeasure.atoms_in", 0),
        "measures.EmpiricalMeasure.atoms_out":
            counts.get("measures.EmpiricalMeasure.atoms_out", 0),
        "measures.merge_ratio": ratio(
            counts.get("measures.EmpiricalMeasure.atoms_out", 0),
            counts.get("measures.EmpiricalMeasure.atoms_in", 0)),
        "averaging.stage_atoms":
            counts.get("averaging.construct_invariant.stage_atoms", 0),
        "averaging.L_doublings":
            counts.get("averaging.construct_invariant.L_doublings", 0),
        "fixed_points.scan.grid_points":
            counts.get("fixed_points.scan.grid_points", 0),
        "fixed_points.points_found":
            counts.get("fixed_points.scan.points_found", 0),
        "fixed_points.chains_found":
            counts.get("fixed_points.scan.chains_found", 0),
        "geometry.convex_hull.points":
            counts.get("geometry.convex_hull.points", 0),
    }
    for name, _, _ in TARGETS:
        if name in KERNELS or name == "maps.orbit_displacement_means":
            continue
        m[name + ".calls"] = calls.get(name, 0)
        m[name + ".self_s"] = self_s.get(name, 0.0)
    calls["kernels"] = k_calls
    return m, calls
