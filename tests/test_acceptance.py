"""Acceptance gate: every criterion runs at its stated tolerance.

Each test executes one criterion from the acceptance module and prints its
pass/fail line; the assertions pin the tolerances, bands and budgets the
library must meet.  `hexch verify full` runs the same criteria from the
command line.
"""

import math
import re

import numpy as np
import pytest

from hexch import acceptance


def _check(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_1_wedge_preservation():
    res = acceptance.criterion_wedge_preservation()
    _check(res)
    assert "1000/1000" in res.details
    assert "all 2016 leaf-pair wedges on {1..4}^3" in res.details
    assert res.seconds < 10.0


def test_criterion_2_group_laws():
    res = acceptance.criterion_group_laws()
    _check(res)
    assert res.details.endswith("exact on 100 random triples")
    assert res.seconds < 1.0


def test_wedge_check_refuses_maps_outside_the_group():
    # criteria 1 and 2 would pass vacuously if the check passed everything
    coords = np.indices((4,) * 3).reshape(3, -1).T + 1
    ident = np.arange(64)
    swap = ident.copy()
    swap[[0, 4]] = 4, 0  # leaves (1,1,1) and (1,2,1), under different parents
    repeat = ident.copy()
    repeat[1] = 0  # not a bijection
    keeps = acceptance._keeps_wedges(coords, [ident, swap, repeat, ident[::-1]])
    assert keeps.tolist() == [True, False, False, True]


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
