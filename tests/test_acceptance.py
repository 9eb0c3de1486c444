"""Acceptance gate: every criterion at its stated tolerance.

The suite runs once per session; each test asserts one criterion and
prints its pass/fail line to the live terminal.  Criterion protocols,
seeds, and tolerances live in trigroots.acceptance so the CLI ``verify``
command runs the exact same checks.
"""

import hashlib
import json

import pytest

from trigroots import acceptance

SEED = 2026

#: sha256 of ``report.to_json()`` at SEED, the same with one BLAS thread and
#: with the default count: a changed number anywhere in the report moves it
REPORT_SHA256 = "5e20cb301da60ee6ff5440b748b6098e49be92d2dec4e083c6c7a052d36fb255"


@pytest.fixture(scope="session")
def report():
    return acceptance.run_all(seed=SEED, parallelism=1)


def _result(report, cid):
    for r in report.results:
        if r.cid == cid:
            return r
    raise AssertionError(f"criterion {cid} missing from report")


def _assert_criterion(report, cid, capsys):
    r = _result(report, cid)
    with capsys.disabled():
        print(f"\n{r.line()}")
    assert r.passed, f"criterion {cid} failed: {json.dumps(r.measured, default=str)[:2000]}"


def test_criterion_01_cg_quadrature(report, capsys):
    _assert_criterion(report, 1, capsys)


def test_criterion_02_gaussian_expectation(report, capsys):
    _assert_criterion(report, 2, capsys)


def test_criterion_03_gaussian_slope(report, capsys):
    _assert_criterion(report, 3, capsys)


def test_criterion_04_rademacher_slope(report, capsys):
    _assert_criterion(report, 4, capsys)


def test_criterion_05_kacrice_equivalence(report, capsys):
    _assert_criterion(report, 5, capsys)


def test_criterion_06_edgeworth_limits(report, capsys):
    _assert_criterion(report, 6, capsys)


def test_criterion_07_gaussian_functional_limit(report, capsys):
    _assert_criterion(report, 7, capsys)


def test_criterion_08_covariance_limit(report, capsys):
    _assert_criterion(report, 8, capsys)


def test_criterion_09_charfn_inequality(report, capsys):
    _assert_criterion(report, 9, capsys)


def test_criterion_10_small_ball(report, capsys):
    _assert_criterion(report, 10, capsys)


def test_criterion_11_bad_set_scaling(report, capsys):
    _assert_criterion(report, 11, capsys)


def test_criterion_12_variance_scaling(report, capsys):
    _assert_criterion(report, 12, capsys)


def test_criterion_13_determinism(report, capsys):
    _assert_criterion(report, 13, capsys)


def test_report_serialization_is_deterministic(report):
    # identical bytes on re-serialization; runtimes are excluded by default
    a = report.to_json()
    b = report.to_json()
    assert a == b
    assert "runtime" not in json.loads(a)["criteria"][0]


@pytest.mark.parametrize("kwargs, message", [
    ({"parallelism": -5, "only": [1]}, "parallelism must be >= 1, got -5"),
    ({"parallelism": 0, "only": [1, 2]}, "parallelism must be >= 1, got 0"),
    ({"seed": -1, "only": [1]}, "seed must be >= 0, got -1"),
], ids=["no-worker-criterion", "before-criterion-1", "seed"])
def test_run_all_refuses_bad_input_before_any_criterion(kwargs, message):
    lines = []
    with pytest.raises(ValueError, match=message):
        acceptance.run_all(progress=lines.append, **kwargs)
    assert lines == []


def test_report_bytes_are_pinned(report):
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256
