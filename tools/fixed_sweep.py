"""Print one SHA-256 over a sweep of fixed-point reports.

The sweep is every report of the fixed-point layer that a change to the
grid scan or the Newton refinement could move:

- find_fixed_points on WORDS at grids 8, 16, 32, 64 and 128 and tols
  1e-9, 1e-6 and 1e-3;
- common_fixed_points on PAIRS at grids 8, 32 and 64 and tols 1e-9 and
  1e-3;
- franks_certificate on every catalog.franks_cases() entry at grids 16
  and 64 and tols 1e-6 and 1e-2 (a case whose measure is not invariant
  enough at a tol records its error instead).

Each report is written as one line, its arguments and its
to_json_dict() as sorted JSON, and the digest is taken over the lines in
sweep order.  Run it on two trees and compare the digests:

    PYTHONPATH=src python tools/fixed_sweep.py [--backend c|numpy]

prints the digest and the number of reports.  Reports hold the bits of
the C library's sin and cos, so digests from machines with other libm
builds need not agree.
"""

import argparse
import hashlib
import json

from rotor import _kernels, fixed_points
from rotor.catalog import build_catalog, franks_cases
from rotor.errors import RotorError

_GENERATORS = ("h", "tr", "halftr", "skew", "irrskew", "twist")
WORDS = [*_GENERATORS, *(g + "'" for g in _GENERATORS),
         "skew tr skew' tr'", "irrskew tr'", "tr twist tr' twist'",
         "twist irrskew twist' irrskew'", "skew twist'", "twist' skew",
         "h' tr", "h' irrskew", "h skew h'", "h twist h' twist'", "h twist",
         "h skew", "h' halftr", "tr skew", "skew irrskew", "irrskew h",
         "skew' twist", "twist h'", "h' tr skew"]
PAIRS = [("h", "phi"), ("skew", "twist"), ("h", "skew"),
         ("skew tr skew' tr'", "skew"), ("h", "h skew h'"),
         ("irrskew", "twist")]
GRIDS = (8, 16, 32, 64, 128)
TOLS = (1e-9, 1e-6, 1e-3)
PAIR_GRIDS = (8, 32, 64)
PAIR_TOLS = (1e-9, 1e-3)
FRANKS_GRIDS = (16, 64)
FRANKS_TOLS = (1e-6, 1e-2)


def reports():
    """(arguments, report JSON or error) for every report of the sweep, in
    sweep order."""
    cat = build_catalog()
    for word in WORDS:
        for grid_n in GRIDS:
            for tol in TOLS:
                yield (["find", word, grid_n, tol], fixed_points
                       .find_fixed_points(cat.word(word), grid_n, tol)
                       .to_json_dict())
    for pair in PAIRS:
        for grid_n in PAIR_GRIDS:
            for tol in PAIR_TOLS:
                yield (["common", *pair, grid_n, tol], fixed_points
                       .common_fixed_points([cat.word(w) for w in pair],
                                            grid_n, tol).to_json_dict())
    for case in franks_cases(cat):
        for grid_n in FRANKS_GRIDS:
            for tol in FRANKS_TOLS:
                args = ["franks", case.label, grid_n, tol]
                try:
                    yield (args, fixed_points.franks_certificate(
                        case.word, case.measure, tol, grid_n).to_json_dict())
                except RotorError as e:
                    yield (args, [type(e).__name__, str(e)])


def digest():
    """(SHA-256 hex digest of the sweep, number of reports)."""
    h = hashlib.sha256()
    count = 0
    for args, report in reports():
        h.update(json.dumps([args, report], sort_keys=True).encode() + b"\n")
        count += 1
    return h.hexdigest(), count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--backend", choices=("c", "numpy"),
                        default=_kernels.get_backend())
    args = parser.parse_args(argv)
    _kernels.set_backend(args.backend)
    value, count = digest()
    print("%s  %d reports, backend %s" % (value, count, args.backend))


if __name__ == "__main__":
    main()
