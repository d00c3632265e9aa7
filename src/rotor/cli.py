"""Batch command line: run scenario analyses, emit reports, verify.

Usage:

    rotor classify SCENARIO [--threads N] [--out DIR]
    rotor rotate   SCENARIO [--threads N] [--out DIR]
    rotor measure  SCENARIO [--threads N] [--out DIR]
    rotor fix      SCENARIO [--threads N] [--out DIR]
    rotor rotev    SCENARIO [--threads N] [--out DIR]
    rotor klein    SCENARIO [--threads N] [--out DIR]
    rotor verify             [--threads N] [--out DIR]
    rotor examples           [--out DIR]

Each subcommand runs the matching analysis sections of the scenario and
writes one JSON report per section, plus CSV tables and an SVG hull
polyline where they apply.  Exit status: 0 on success, 1 when an
analysis fails (the error is recorded in its report), 2 on a scenario
validation error.

Reports are deterministic: no timestamps, no thread counts, keys sorted.
The thread setting is recorded separately in run_meta.json, which is
metadata rather than a report.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

import numpy as np

from ._io import _f, write_json
from .averaging import construct_invariant, rotev_residual
from .catalog import build_catalog
from .covers import check_sigma_commute, klein_symmetrize, rho_bar
from .errors import ConfigError, RotorError
from .fixed_points import common_fixed_points, franks_certificate
from .maps import LiftedWord, torus_grid
from .mcg import (H_LIST, check_condition_star_star, has_nontrivial_unity_root,
                  spectral_class, torsion_order)
from .measures import estimate_rotation_set, invariance_defect
from .scenario import (AnalysisRequest, generator_section_text,
                       parse_scenario, parse_scenario_text)
from .verify import run_suite

__all__ = ["main"]

_SUBCOMMAND_KIND = {
    "classify": "classify",
    "rotate": "rotation_set",
    "measure": "invariant_measure",
    "fix": "fixed_points",
    "rotev": "rotev",
    "klein": "klein",
}


def _hull_svg(vertices: np.ndarray) -> str:
    """A closed polyline of the hull, y axis pointing up."""
    xmin, ymin = vertices.min(axis=0)
    xmax, ymax = vertices.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-3)
    pad = 0.1 * span
    closed = np.vstack([vertices, vertices[:1]])
    pts = " ".join("%s,%s" % (_f(x), _f(-y)) for x, y in closed)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="%s %s %s %s">\n'
        '  <polyline points="%s" fill="none" stroke="black" '
        'stroke-width="%s"/>\n'
        "</svg>\n"
        % (_f(xmin - pad), _f(-ymax - pad), _f(span + 2 * pad),
           _f(span + 2 * pad), pts, _f(span / 200.0))
    )


# --- per-analysis runners; each returns (payload, extra files written)


def _run_classify(req: AnalysisRequest, outdir: str,
                  threads: int) -> Tuple[dict, List[str]]:
    gens = req.params["generators"]
    per = {}
    for name, cls in gens:
        sc = spectral_class(cls)
        per[name] = {
            "matrix": [cls.a, cls.b, cls.c, cls.d],
            "spectral": sc.tag,
            "has_nontrivial_unity_root": has_nontrivial_unity_root(cls),
            "torsion_order": torsion_order(cls),
        }
    classes = [cls for _, cls in gens]
    verdict = check_condition_star_star(classes)
    form = verdict.form
    payload = {
        "analysis": "classify",
        "generators": per,
        "subgroup": {
            "tag": form.tag,
            "generator": None if form.generator is None else [
                form.generator.a, form.generator.b,
                form.generator.c, form.generator.d],
            "order": form.order,
        },
        "averaging_precondition": {
            "satisfied": verdict.satisfied,
            "failure_form": verdict.failure_form,
        },
    }
    return payload, []


def _run_rotation_set(req: AnalysisRequest, outdir: str,
                      threads: int) -> Tuple[dict, List[str]]:
    p = req.params
    lw = LiftedWord(p["word"], p["deck"])
    est = estimate_rotation_set(lw, torus_grid(p["seeds"]), p["n"],
                                threads=threads)
    cx, cy = est.centroid()
    payload = {
        "analysis": "rotation_set",
        "word": p["word_text"],
        "deck": list(p["deck"]),
        "n": p["n"],
        "seed_grid": p["seeds"],
        "hull": [[_f(x), _f(y)] for x, y in est.hull],
        "diameter": _f(est.diameter()),
        "centroid": [_f(cx), _f(cy)],
        "samples": int(len(est.samples)),
    }
    files = []
    csv_path = os.path.join(outdir, req.slug + ".csv")
    est.to_csv(csv_path)
    files.append(csv_path)
    svg_path = os.path.join(outdir, req.slug + ".svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(_hull_svg(est.hull))
    files.append(svg_path)
    return payload, files


def _run_invariant_measure(req: AnalysisRequest, outdir: str,
                           threads: int) -> Tuple[dict, List[str]]:
    p = req.params
    trace = construct_invariant(p["spec"], LiftedWord(p["phi"]), p["seed"],
                                L=p["L"], tol=p["tol"], force=p["force"])
    payload = {
        "analysis": "invariant_measure",
        "phi": p["phi_text"],
        "seed_measure": p["seed_name"],
        "forced": p["force"],
        "trace": trace.to_json_dict(),
        "rho_initial": [_f(trace.rho_initial[0]), _f(trace.rho_initial[1])],
        "rho_final": [_f(trace.rho_final[0]), _f(trace.rho_final[1])],
        "final_atoms": len(trace.final_measure),
    }
    csv_path = os.path.join(outdir, req.slug + "_measure.csv")
    trace.final_measure.to_csv(csv_path)
    return payload, [csv_path]


def _run_fixed_points(req: AnalysisRequest, outdir: str,
                      threads: int) -> Tuple[dict, List[str]]:
    p = req.params
    if p["measure"] is not None:
        rep = franks_certificate(p["words"][0], p["measure"], tol=p["tol"],
                                 grid_n=p["grid"])
        payload = {
            "analysis": "fixed_points",
            "mode": "franks_certificate",
            "word": p["word_texts"][0],
            "measure": p["measure_name"],
            "report": rep.to_json_dict(),
        }
        fp = rep.fixed_points
    else:
        fp = common_fixed_points(p["words"], grid_n=p["grid"], tol=p["tol"])
        payload = {
            "analysis": "fixed_points",
            "mode": "residual_scan",
            "words": list(p["word_texts"]),
            "grid": p["grid"],
            "tol": _f(p["tol"]),
            "report": fp.to_json_dict(),
        }
    files = []
    if fp.chains:
        csv_path = os.path.join(outdir, req.slug + "_chains.csv")
        fp.chains_to_csv(csv_path)
        files.append(csv_path)
    return payload, files


def _run_rotev(req: AnalysisRequest, outdir: str,
               threads: int) -> Tuple[dict, List[str]]:
    p = req.params
    powers = [q for q in range(-p["pmax"], p["pmax"] + 1) if q != 0]
    residuals = rotev_residual(LiftedWord(p["g"]), LiftedWord(p["h"]),
                               p["measure"], powers)
    rows = []
    worst = 0.0
    for q, res in zip(powers, residuals):
        norm = float(np.hypot(res[0], res[1]))
        worst = max(worst, norm)
        rows.append({"p": q, "residual": [_f(res[0]), _f(res[1])],
                     "norm": _f(norm)})
    payload = {
        "analysis": "rotev",
        "g": p["g_text"],
        "h": p["h_text"],
        "measure": p["measure_name"],
        "residuals": rows,
        "max_norm": _f(worst),
    }
    return payload, []


def _run_klein(req: AnalysisRequest, outdir: str,
               threads: int) -> Tuple[dict, List[str]]:
    p = req.params
    defect = check_sigma_commute(p["word"])
    payload: dict = {
        "analysis": "klein",
        "word": p["word_text"],
        "deck": list(p["deck"]),
        "sigma_defect": _f(defect),
        "equivariant": defect < p["sigma_tol"],
    }
    if p["measure"] is not None:
        lw = LiftedWord(p["word"], p["deck"])
        a, b = rho_bar(p["measure"], lw, sigma_tol=p["sigma_tol"])
        payload["rho_bar"] = [_f(a), _f(b)]
        if p["symmetrize"]:
            sym = klein_symmetrize(p["measure"])
            sa, sb = rho_bar(sym, lw, sigma_tol=p["sigma_tol"])
            payload["symmetrized"] = {
                "atoms": len(sym),
                "invariance_defect": _f(invariance_defect(p["word"], sym)),
                "rho_bar": [_f(sa), _f(sb)],
            }
    return payload, []


_RUNNERS = {
    "classify": _run_classify,
    "rotation_set": _run_rotation_set,
    "invariant_measure": _run_invariant_measure,
    "fixed_points": _run_fixed_points,
    "rotev": _run_rotev,
    "klein": _run_klein,
}


# --- example scenario files


def _example_files() -> List[Tuple[str, str]]:
    cat = build_catalog()

    def gens(*names):
        return "".join(
            generator_section_text(g) + "\n"
            for g in cat.generators if g.name in names)

    odd_shear = gens("h", "phi") + """\
[measure circ]
kind = circle
x0 = 0.25

[classify]
generators = h phi

[rotation_set]
word = h
n = 500
seeds = 16

[fixed_points]
word = h

[fixed_points franks]
word = h
measure = circ

# averaging over the order-two reflection: rotation is not preserved,
# which is the point; force runs the construction anyway
[invariant_measure]
seed = circ
phi = h
extension = phi
force = true
"""

    dehn_twist = gens("dehn", "tr") + """\
[measure grid]
kind = grid
k = 16

[classify]
generators = dehn

[rotation_set]
word = dehn
n = 1000
seeds = 64

[rotev]
g = dehn
h = tr
measure = grid

[invariant_measure]
seed = grid
phi = tr
g0 = tr
extension = dehn
L = 16
tol = 1e-8
"""

    # no rotation_set here: a hyperbolic linear part has no rotation set
    anosov = gens("anosov", "tr") + """\
[measure grid]
kind = grid
k = 16

[classify]
generators = anosov

[rotev]
g = anosov
h = tr
measure = grid
"""

    translations = gens("tr", "halftr") + """\
[measure grid]
kind = grid
k = 16

[measure orbit]
kind = orbit
word = tr
n = 2048

[rotation_set]
word = tr
n = 2000
seeds = 8

[fixed_points]
word = tr

[klein]
word = halftr
measure = grid

[fixed_points franks]
word = tr
measure = orbit
tol = 2e-3
"""

    skews = gens("skew", "irrskew") + """\
[measure onaxis]
kind = dirac
at = 0.0 0.37

[measure circ]
kind = circle
x0 = 0.25

[rotation_set]
word = skew
n = 800
seeds = 32

[rotation_set point]
word = irrskew
n = 20000
seeds = 4

[fixed_points franks]
word = skew
measure = onaxis

[klein]
word = skew
measure = circ
"""

    annulus_twist = gens("twist") + """\
[measure slow]
kind = hcircle
y0 = 0.0

[measure fast]
kind = hcircle
y0 = 0.25

[rotation_set]
word = twist
n = 2000
seeds = 64

[fixed_points]
word = twist

[klein]
word = twist
measure = fast

[fixed_points franks]
word = twist
measure = slow
"""

    dihedral = ""
    names = []
    for i, m in enumerate(H_LIST):
        nm = "m%d" % i
        names.append(nm)
        dihedral += "[generator %s]\n" % nm
        if not m.is_identity():
            dihedral += "matrix = %d %d %d %d\n" % (m.a, m.b, m.c, m.d)
        dihedral += "\n"
    dihedral += "[classify]\ngenerators = %s\n" % " ".join(names)

    return [
        ("odd_shear.scn", odd_shear),
        ("dehn_twist.scn", dehn_twist),
        ("anosov.scn", anosov),
        ("translations.scn", translations),
        ("skews.scn", skews),
        ("annulus_twist.scn", annulus_twist),
        ("dihedral_forms.scn", dihedral),
    ]


def _cmd_examples(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    written = []
    for fname, text in _example_files():
        parse_scenario_text(text, fname)  # every shipped file must load
        path = os.path.join(outdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(fname)
    for fname in written:
        print(fname)
    return 0


# --- drivers


def _cmd_analysis(sub: str, path: str, outdir: str, threads: int) -> int:
    scn = parse_scenario(path)
    kind = _SUBCOMMAND_KIND[sub]
    requests = [r for r in scn.analyses if r.kind == kind]
    if not requests:
        raise ConfigError("%s: no [%s] section for subcommand %s"
                          % (path, kind, sub))
    os.makedirs(outdir, exist_ok=True)
    failed = 0
    outputs = []
    for req in requests:
        json_path = os.path.join(outdir, req.slug + ".json")
        try:
            payload, files = _RUNNERS[kind](req, outdir, threads)
        except ConfigError:
            raise
        except (RotorError, ValueError) as exc:
            failed += 1
            payload = {
                "analysis": kind,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
            files = []
        write_json(json_path, payload)
        outputs.append(json_path)
        outputs.extend(files)
    meta = {
        "command": sub,
        "scenario": os.path.basename(path),
        "threads": threads,
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    write_json(os.path.join(outdir, "run_meta.json"), meta)
    for p in outputs:
        print(p)
    return 1 if failed else 0


def _cmd_verify(outdir: str, threads: int) -> int:
    os.makedirs(outdir, exist_ok=True)
    report = run_suite(threads=threads)
    path = os.path.join(outdir, "verify_report.json")
    write_json(path, report.to_json_dict())
    meta = {
        "command": "verify",
        "threads": threads,
        "outputs": ["verify_report.json"],
    }
    write_json(os.path.join(outdir, "run_meta.json"), meta)
    for r in report.results:
        print("%2d %-32s %s %8.3f s" % (r.index, r.name,
                                        "PASS" if r.passed else "FAIL",
                                        r.elapsed_s))
    print(path)
    return 0 if report.all_passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rotor",
        description="Torus map analyses driven by scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _SUBCOMMAND_KIND.items():
        p = sub.add_parser(name, help="run [%s] sections" % kind)
        p.add_argument("scenario", help="scenario file")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=".")
    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=".")
    p = sub.add_parser("examples", help="write ready-to-run scenario files")
    p.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    try:
        if args.command == "examples":
            return _cmd_examples(args.out)
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        if args.command == "verify":
            return _cmd_verify(args.out, args.threads)
        return _cmd_analysis(args.command, args.scenario, args.out,
                             args.threads)
    except (ConfigError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
