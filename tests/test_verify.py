"""Verification suite plumbing: shapes, subsets, report stability."""

import json

import pytest

from rotor import verify
from rotor._io import json_text
from rotor.errors import InvalidArgument
from rotor.verify import BIRKHOFF_SPREAD_LIMIT, run_suite


def test_subset_run_shapes():
    rep = run_suite(only=(2, 10))
    assert [r.index for r in rep.results] == [2, 10]
    assert rep.all_passed == all(r.passed for r in rep.results)
    d = rep.to_json_dict()
    assert set(d) == {"all_passed", "criteria"}
    names = [c["name"] for c in d["criteria"]]
    assert len(names) == len(set(names))


def test_json_omits_timings():
    rep = run_suite(only=(2,))
    assert rep.results[0].elapsed_s > 0.0
    text = rep.json_text()
    assert "elapsed" not in text
    assert text.endswith("\n")
    assert json.loads(text)["criteria"][0]["index"] == 2


def test_json_text_is_stable():
    a = run_suite(only=(5,)).json_text()
    b = run_suite(only=(5,)).json_text()
    assert a == b


def test_spread_limit_constant():
    assert 0.0 < BIRKHOFF_SPREAD_LIMIT < 1.0


def test_suite_order_and_thread_report_size(suite_report):
    rep = suite_report
    assert [(r.index, r.name) for r in rep.results] == [
        (1, "mcg_exhaustive_consistency"),
        (2, "subgroup_classification_table"),
        (3, "rotation_identities"),
        (4, "transport_recurrence"),
        (5, "orbit_dichotomy"),
        (6, "averaging_preserves_rotation"),
        (7, "odd_shear_example"),
        (8, "rotation_set_hulls"),
        (9, "fixed_point_consistency_sweep"),
        (10, "klein_closed_forms"),
        (11, "thread_determinism"),
    ]
    # criterion 11 compares the whole criterion-8 entry, not its bare details
    hulls = json_text(rep.results[7].to_json_dict())
    assert rep.results[10].details["report_bytes"] == len(hulls) == 268


@pytest.mark.parametrize("kwargs", [
    {"only": [99]}, {"only": [0]}, {"only": [2.0]}, {"only": ["2"]},
    {"only": 2}, {"threads": 2.5}, {"threads": 0}], ids=str)
def test_bad_arguments_raise_before_any_criterion(kwargs, monkeypatch):
    # only=[99] once ran nothing and passed; threads=2.5 once ran criteria
    # 1 to 7 and failed in criterion 8
    monkeypatch.setattr(verify, "_CRITERIA",
                        [lambda: pytest.fail("a criterion ran")])
    with pytest.raises(InvalidArgument):
        run_suite(**kwargs)
