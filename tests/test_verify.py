"""The invariant suites themselves run clean at a small scale."""
import pytest

from homing.verify import SUITES, PropertyResult, _property, run_suite, suite_names


def test_suite_names():
    names = suite_names()
    assert names[0] == "all"
    assert set(names[1:]) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite):
    for result in run_suite(suite, nmax=5):
        assert result.passed, f"{result.name}: {result.detail}"


def test_all_runs_everything():
    results = run_suite("all", nmax=4)
    assert len(results) == sum(len(v) for v in SUITES.values())
    assert all(r.passed and r.cases > 0 for r in results)


def test_failure_stops_at_the_first_counterexample():
    @_property("demo/evens")
    def check_evens(nmax):
        for v in range(nmax):
            yield None if v % 2 == 0 else f"{v} is odd"

    assert check_evens(1) == PropertyResult("demo/evens", True, "", 1)
    assert check_evens(5) == PropertyResult("demo/evens", False, "1 is odd", 1)
    assert check_evens.__name__ == "check_evens"


def test_a_check_with_no_case_fails():
    @_property("demo/evens")
    def check_evens(nmax):
        for v in range(0, nmax, 2):
            yield None

    assert check_evens(0) == PropertyResult("demo/evens", False, "no case checked at nmax=0", 0)
    assert check_evens(1).passed


@pytest.mark.parametrize("nmax", [0, 1, 2])
def test_small_nmax_fails_the_checks_it_starves(nmax):
    results = run_suite("all", nmax=nmax)
    starved = [r for r in results if r.detail == f"no case checked at nmax={nmax}"]
    assert starved and not any(r.passed or r.cases for r in starved)
    assert all(r.cases > 0 for r in results if r.passed)


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")
