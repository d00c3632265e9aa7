"""Write REPORTS.sha256: the SHA-256 of every report rotor ships.

The reports are the seven example scenarios run under all six analysis
subcommands, and `rotor verify`, each at threads 1 and 2, plus the seven
.scn files themselves.  Reports hold the bits of the C library's sin and
cos, so the manifest also records a fingerprint of them: on a machine with
another fingerprint the reports may differ with no fault in rotor, and
the check skips there.

    PYTHONPATH=src python tools/report_hashes.py [MANIFEST]

regenerates the reports in a temporary directory and writes MANIFEST
(default: REPORTS.sha256 at the repository root).  tests/test_reports.py
regenerates them and compares each file with the manifest.
"""

import contextlib
import hashlib
import io
import math
import os
import struct
import sys
import tempfile

import numpy as np

from rotor import cli

THREADS = (1, 2)
DEFAULT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "REPORTS.sha256")


def write_reports(outdir):
    """Write every report under outdir: the .scn files in examples/, each
    scenario's runs in t<threads>/<scenario>/<subcommand>/ and the verify
    runs in t<threads>/verify/.  A subcommand whose section the scenario
    lacks writes nothing."""
    scn = os.path.join(outdir, "examples")
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        cli.main(["examples", "--out", scn])
        for threads in THREADS:
            top = os.path.join(outdir, "t%d" % threads)
            for name in sorted(os.listdir(scn)):
                for sub in cli._SUBCOMMAND_KIND:
                    cli.main([sub, os.path.join(scn, name), "--threads",
                          str(threads), "--out",
                          os.path.join(top, name[:-len(".scn")], sub)])
            cli.main(["verify", "--threads", str(threads), "--out",
                  os.path.join(top, "verify")])


def hashes(outdir):
    """{path relative to outdir, with / separators: SHA-256 hex digest}."""
    out = {}
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, outdir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def libm_fingerprint():
    """SHA-256 of math.sin, math.cos, np.sin and np.cos at 4096 fixed
    arguments: the C word step calls the first two, the numpy backend the
    others."""
    x = np.random.default_rng(4).uniform(-50.0, 50.0, 4096)
    h = hashlib.sha256()
    for f in (math.sin, math.cos):
        h.update(struct.pack("<4096d", *(f(v) for v in x)))
    for f in (np.sin, np.cos):
        h.update(f(x).astype("<f8").tobytes())
    return h.hexdigest()


def read_manifest(path):
    """(libm fingerprint, {path: digest}) of a manifest file."""
    fingerprint, files = None, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# libm "):
                fingerprint = line.split()[2]
            elif line.strip() and not line.startswith("#"):
                digest, rel = line.rstrip("\n").split("  ", 1)
                files[rel] = digest
    return fingerprint, files


def main(path=DEFAULT):
    with tempfile.TemporaryDirectory() as tmp:
        write_reports(tmp)
        files = hashes(tmp)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# SHA-256 of every example and verify report; written by "
                 "tools/report_hashes.py\n")
        fh.write("# libm %s\n" % libm_fingerprint())
        for rel in sorted(files):
            fh.write("%s  %s\n" % (files[rel], rel))
    print("%s: %d files" % (path, len(files)))


if __name__ == "__main__":
    main(*sys.argv[1:])
