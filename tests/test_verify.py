"""The invariant suites themselves run clean at a small scale."""
import pytest

from homing.verify import SUITES, PropertyResult, _property, run_suite, suite_names


def test_suite_names():
    names = suite_names()
    assert names[0] == "all"
    assert set(names[1:]) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite):
    for result in run_suite(suite, nmax=5, cap=7):
        assert result.passed, f"{result.name}: {result.detail}"


def test_all_runs_everything():
    results = run_suite("all", nmax=4, cap=6)
    assert len(results) == sum(len(v) for v in SUITES.values())
    assert all(r.passed and r.cases > 0 for r in results)


def test_failure_stops_at_the_first_counterexample():
    @_property("demo/evens")
    def check_evens(nmax, cap):
        for v in range(nmax):
            yield None if v % 2 == 0 else f"{v} is odd"

    assert check_evens(1, 0) == PropertyResult("demo/evens", True, "", 1)
    assert check_evens(5, 0) == PropertyResult("demo/evens", False, "1 is odd", 1)
    assert check_evens.__name__ == "check_evens"


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")
