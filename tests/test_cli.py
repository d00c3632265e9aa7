"""Command line driver: subcommands, exit codes, report determinism."""

import csv
import json
import os
import subprocess
import sys

import pytest

from rotor.cli import main
from rotor.scenario import parse_scenario

EXAMPLE_NAMES = [
    "odd_shear.scn", "dehn_twist.scn", "anosov.scn", "translations.scn",
    "skews.scn", "annulus_twist.scn", "dihedral_forms.scn",
]


@pytest.fixture(scope="module")
def examples_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scn")
    assert main(["examples", "--out", str(d)]) == 0
    return d


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_examples_written_and_parseable(examples_dir):
    got = sorted(p.name for p in examples_dir.iterdir())
    assert got == sorted(EXAMPLE_NAMES)
    for name in EXAMPLE_NAMES:
        parse_scenario(examples_dir / name)


def test_classify_dihedral_forms(examples_dir, tmp_path):
    rc = main(["classify", str(examples_dir / "dihedral_forms.scn"),
               "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "classify.json")
    assert rep["subgroup"]["tag"] == "dihedral_H_conjugate"
    assert rep["subgroup"]["order"] == 8
    assert rep["averaging_precondition"]["satisfied"] is False
    assert len(rep["generators"]) == 8


def test_rotate_dehn_hull_extremes(examples_dir, tmp_path):
    rc = main(["rotate", str(examples_dir / "dehn_twist.scn"),
               "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "rotation_set.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ys = [float(r["y"]) for r in rows if r["kind"] == "hull"]
    assert min(ys) < 2e-2
    assert max(ys) > 1 - 2e-2
    svg = (tmp_path / "rotation_set.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_measure_forced_averaging(examples_dir, tmp_path):
    rc = main(["measure", str(examples_dir / "odd_shear.scn"),
               "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "invariant_measure.json")
    assert rep["forced"] is True
    assert abs(float(rep["rho_final"][0])) < 1e-8
    assert abs(float(rep["rho_final"][1])) < 1e-8
    assert abs(float(rep["rho_initial"][1]) - 0.1) < 1e-8
    assert (tmp_path / "invariant_measure_measure.csv").exists()


def test_fix_writes_chain_csv(examples_dir, tmp_path):
    rc = main(["fix", str(examples_dir / "odd_shear.scn"),
               "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "fixed_points.json")
    assert rep["mode"] == "residual_scan"
    cols = sorted(float(c["points"][0][0]) for c in rep["report"]["chains"])
    assert cols == [0.0, 0.5]
    with open(tmp_path / "fixed_points_chains.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain", "x", "y"]
    assert len(rows) > 2
    franks = read_json(tmp_path / "fixed_points_franks.json")
    assert franks["mode"] == "franks_certificate"
    assert franks["report"]["hypothesis_met"] is False


def test_rotev_and_klein(examples_dir, tmp_path):
    assert main(["rotev", str(examples_dir / "dehn_twist.scn"),
                 "--out", str(tmp_path)]) == 0
    rep = read_json(tmp_path / "rotev.json")
    assert len(rep["residuals"]) == 10
    assert float(rep["max_norm"]) < 1e-12
    assert main(["klein", str(examples_dir / "translations.scn"),
                 "--out", str(tmp_path)]) == 0
    k = read_json(tmp_path / "klein.json")
    assert k["equivariant"] is True
    assert [float(v) for v in k["rho_bar"]] == [0.5, 0.0]


def test_run_meta_fields(examples_dir, tmp_path):
    main(["classify", str(examples_dir / "dihedral_forms.scn"),
          "--out", str(tmp_path), "--threads", "3"])
    meta = read_json(tmp_path / "run_meta.json")
    assert meta == {
        "command": "classify",
        "scenario": "dihedral_forms.scn",
        "threads": 3,
        "outputs": ["classify.json"],
    }


# --- exit codes


def test_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[generator g]\nmatrix = 1 0 0 0\n\n"
                   "[classify]\ngenerators = g\n")
    assert main(["classify", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "generator 'g'" in err
    assert "det" in err


def test_bad_measure_value_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[generator g]\nx = const(0.1)\n\n"
                   "[measure circ]\nkind = circle\nx0 = 0.25\natoms = 0\n\n"
                   "[classify]\ngenerators = g\n")
    assert main(["classify", str(bad), "--out", str(tmp_path)]) == 2
    assert "error: line 7: " in capsys.readouterr().err


def test_missing_section_exit_2(tmp_path, capsys):
    scn = tmp_path / "s.scn"
    scn.write_text("[generator g]\nx = const(0.1)\n\n"
                   "[classify]\ngenerators = g\n")
    assert main(["rotate", str(scn), "--out", str(tmp_path)]) == 2
    assert "no [rotation_set] section" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "absent.scn"),
                 "--out", str(tmp_path)]) == 2


def test_bad_threads_exit_2(examples_dir, tmp_path, capsys):
    assert main(["rotate", str(examples_dir / "dehn_twist.scn"),
                 "--out", str(tmp_path), "--threads", "0"]) == 2


def test_analysis_failure_exit_1_with_report(examples_dir, tmp_path, capsys):
    # the unforced variant of the forced example hits the averaging
    # precondition at run time: recorded in the report, exit 1
    text = (examples_dir / "odd_shear.scn").read_text()
    scn = tmp_path / "noforce.scn"
    scn.write_text(text.replace("force = true", "force = false"))
    assert main(["measure", str(scn), "--out", str(tmp_path)]) == 1
    rep = read_json(tmp_path / "invariant_measure.json")
    assert rep["error"]["type"] == "ConditionStarStarViolated"


def test_hyperbolic_rotation_set_exit_1(tmp_path):
    scn = tmp_path / "hyp.scn"
    scn.write_text("[generator a]\nmatrix = 2 1 1 1\n\n"
                   "[rotation_set]\nword = a\nn = 10\nseeds = 2\n")
    assert main(["rotate", str(scn), "--out", str(tmp_path)]) == 1
    rep = read_json(tmp_path / "rotation_set.json")
    assert "diverge" in rep["error"]["message"]


# --- determinism


def _tree(d):
    return {p.name: p.read_bytes() for p in d.iterdir()}


def test_reports_identical_across_threads(examples_dir, tmp_path):
    d1, d8 = tmp_path / "t1", tmp_path / "t8"
    for d, n in ((d1, "1"), (d8, "8")):
        assert main(["rotate", str(examples_dir / "dehn_twist.scn"),
                     "--out", str(d), "--threads", n]) == 0
    t1, t8 = _tree(d1), _tree(d8)
    assert sorted(t1) == sorted(t8)
    for name in t1:
        if name == "run_meta.json":
            continue
        assert t1[name] == t8[name], name
    m1 = json.loads(t1["run_meta.json"])
    m8 = json.loads(t8["run_meta.json"])
    m1.pop("threads"), m8.pop("threads")
    assert m1 == m8


def test_rerun_identical_including_meta(examples_dir, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["fix", str(examples_dir / "annulus_twist.scn"),
                     "--out", str(d)]) == 0
    assert _tree(d1) == _tree(d2)


# --- verify subcommand


def test_verify_subcommand(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    rep = read_json(tmp_path / "verify_report.json")
    assert rep["all_passed"] is True
    assert len(rep["criteria"]) == 11
    for c in rep["criteria"]:
        assert c["passed"] is True
        assert "elapsed" not in json.dumps(c)
        assert ("%2d %-32s PASS" % (c["index"], c["name"])) in out
    meta = read_json(tmp_path / "run_meta.json")
    assert meta["command"] == "verify"


# --- installed entry point


def test_console_script_runs():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.abspath(src), env.get("PYTHONPATH")] if p)
    proc = subprocess.run([sys.executable, "-m", "rotor.cli"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "usage" in proc.stderr.lower()
