"""Every shipped report, byte for byte, against REPORTS.sha256."""

import importlib.util
import os

import pytest

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "report_hashes.py")
_spec = importlib.util.spec_from_file_location("report_hashes", _TOOL)
report_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_hashes)


def test_reports_match_the_manifest(tmp_path):
    fingerprint, want = report_hashes.read_manifest(report_hashes.DEFAULT)
    if report_hashes.libm_fingerprint() != fingerprint:
        pytest.skip("this machine's sin and cos differ from those the "
                    "manifest was written with, so its reports differ too")
    report_hashes.write_reports(tmp_path)
    got = report_hashes.hashes(tmp_path)
    assert len(want) == 137
    wrong = sorted(["missing " + p for p in set(want) - set(got)]
                   + ["not in the manifest " + p for p in set(got) - set(want)]
                   + ["differs " + p for p in set(want) & set(got)
                      if want[p] != got[p]])
    assert not wrong, "\n".join(wrong)
