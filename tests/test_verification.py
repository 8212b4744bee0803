"""Self-check suites: shape of the reports and the flags each one reads.

A runner's keyword parameters are the `verify` flags of the same names, so
renaming one changes the command line; the flag table below pins them.
"""

import inspect

import pytest

from motifdiff.errors import InputError
from motifdiff.verification import (SUITE_NAMES, run_basis,
                                    run_count_identity, run_equivariance,
                                    run_finitediff, run_series, run_suites)

# the verify flags each suite reads, as the README lists them
SUITE_FLAGS = {
    "count-identity": {"n", "trials", "seed"},
    "finitediff": {"seed", "tolerance"},
    "series": {"k", "trials", "seed", "tolerance"},
    "basis": {"n", "k", "seed", "tolerance"},
    "equivariance": {"n", "trials", "seed", "tolerance"},
}
REPORT_KEYS = {"suite", "passed", "checks", "failures", "failure_examples",
               "max_error", "tolerance", "params"}


def test_suite_registry():
    assert set(SUITE_NAMES) == {"count-identity", "finitediff", "series",
                                "basis", "equivariance"}
    with pytest.raises(InputError):
        run_suites("nope", {})


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_reads_its_flags(name):
    from motifdiff.verification import _RUNNERS

    keywords = set(inspect.signature(_RUNNERS[name]).parameters)
    assert keywords & {"n", "k", "trials", "seed", "tolerance"} == SUITE_FLAGS[name]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_negative_seed_is_refused(name):
    with pytest.raises(InputError, match="seed must be non-negative"):
        run_suites(name, {"seed": -1})


def test_count_identity_small():
    rep = run_count_identity(n=4, trials=30, seed=2)
    assert set(rep) == REPORT_KEYS
    assert rep["passed"] and rep["failures"] == 0
    assert rep["tolerance"] == 0.0
    assert rep["checks"] == 30 * len(rep["params"]["patterns"])
    assert [rep] == run_suites("count-identity",
                               {"n": 4, "trials": 30, "seed": 2})


def test_basis_small():
    rep = run_basis(n=3, k=2)
    assert rep["passed"]
    assert rep["checks"] == 3
    assert rep["max_error"] <= 1e-9


def test_equivariance_small():
    rep = run_equivariance(n=3, trials=1)
    assert rep["passed"]
    assert rep["max_error"] <= 1e-12


def test_equivariance_is_exact_under_permutation():
    # seed 209 draws a W whose l5 sum, added in array order, moves by
    # 1.1e-12 under relabeling; a correctly rounded sum does not move
    rep = run_equivariance(seed=209)
    assert rep["passed"]
    assert rep["max_error"] == 0.0


def test_series_reports_regime():
    rep = run_series(trials=2)
    assert rep["passed"]
    assert rep["params"]["max_series_ratio"] > 0


def test_finitediff_small_tolerance_failure_mode():
    # with an absurd tolerance the suite must report failure examples
    rep = run_finitediff(tolerance=1e-18)
    assert not rep["passed"]
    assert rep["failures"] > 0
    assert rep["failure_examples"]
    assert len(rep["failure_examples"]) <= 8
