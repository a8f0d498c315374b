"""Acceptance gate: every criterion runs at its stated tolerance.

Each test executes one criterion from the acceptance module and prints its
pass/fail line; the assertions pin the tolerances, bands and budgets the
library must meet.  `hexch verify full` runs the same criteria from the
command line.
"""

import math
import re

import pytest

from hexch import acceptance


def _check(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_1_wedge_preservation():
    res = acceptance.criterion_wedge_preservation()
    _check(res)
    assert "1000/1000" in res.details
    assert res.seconds < 10.0


def test_criterion_2_group_laws():
    res = acceptance.criterion_group_laws()
    _check(res)
    assert res.seconds < 1.0


def test_criterion_3_calibration():
    res = acceptance.criterion_calibration()
    _check(res)
    assert res.seconds < 180.0


def test_criterion_4_power():
    res = acceptance.criterion_power()
    _check(res)
    assert res.seconds < 300.0


def test_criterion_5_extraction_consistency():
    res = acceptance.criterion_extraction_consistency()
    _check(res)
    errors = [float(e) for e in re.findall(r"nested error (\S+?)(?:;|$)", res.details)]
    assert len(errors) == 3
    assert all(math.isfinite(e) and e >= 0.0 for e in errors)
    assert res.seconds < 60.0


def test_criterion_6_roundtrip():
    res = acceptance.criterion_roundtrip()
    _check(res)
    assert res.seconds < 180.0


def test_criterion_7_joint_replica():
    res = acceptance.criterion_joint_replica()
    _check(res)
    assert res.seconds < 120.0


def test_criterion_8_determinism():
    res = acceptance.criterion_determinism()
    _check(res)
    assert res.seconds < 60.0


def test_criterion_9_field_quality():
    res = acceptance.criterion_field_quality()
    _check(res)
    assert res.seconds < 30.0


def test_suites_cover_all_criteria():
    assert set(acceptance.SUITES["full"]) == set(acceptance.CRITERIA)
    assert set(acceptance.SUITES["fast"]) <= set(acceptance.SUITES["full"])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        acceptance.run_suite("nope")
