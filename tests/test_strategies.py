"""Strategy runs, shortest sorts, and random homing."""
from fractions import Fraction

import pytest

from homing import (
    CapacityError,
    all_perms,
    identity,
    place,
    placeable_values,
    rank,
    reverse,
    rotation,
    stage,
)
from homing.strategies import (
    ALTERNATING_EXTREMAL,
    LARGEST_FIRST,
    LEFTMOST_NOT_HOME,
    RANDOM,
    SMALLEST_FIRST,
    Trace,
    min_placements,
    min_placements_table,
    random_homing_bound,
    random_homing_mean,
    run_strategy,
    smallest_first_steps,
    unique_worst_case_check,
)
from homing.verify import check_extremes_placed_once, check_lis_lower_bound

EXTREMAL = (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL)


def assert_valid_trace(trace: Trace):
    p = trace.initial
    for v in trace.moves:
        assert p[v - 1] != v  # move was legal
        p = place(p, v)
    assert p == trace.final == identity(len(p))


# -- run_strategy -------------------------------------------------------------

@pytest.mark.parametrize("strategy", EXTREMAL + (LEFTMOST_NOT_HOME,))
def test_identity_gives_empty_trace(strategy):
    t = run_strategy(identity(5), strategy)
    assert len(t) == 0 and t.final == identity(5)


@pytest.mark.parametrize("n", range(2, 11))
def test_rotation_leftmost_is_hanoi(n):
    t = run_strategy(rotation(n), LEFTMOST_NOT_HOME)
    assert len(t) == (1 << (n - 1)) - 1
    assert_valid_trace(t)


@pytest.mark.parametrize("n", range(2, 9))
def test_reverse_smallest_first_takes_n_minus_1(n):
    t = run_strategy(reverse(n), SMALLEST_FIRST)
    assert len(t) == n - 1
    assert_valid_trace(t)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("strategy", EXTREMAL)
def test_extremal_strategies_bounded_and_stage_monotone(n, strategy):
    for p in all_perms(n):
        t = run_strategy(p, strategy)
        assert len(t) <= n - 1 or (n == 1 and len(t) == 0)
        assert_valid_trace(t)
        s = stage(p)
        for q in t.states():
            s2 = stage(q)
            assert s2 >= s  # a settled extreme is never dislodged
            s = s2


@pytest.mark.parametrize("n", range(2, 7))
def test_extremes_placed_at_most_once(n):
    assert check_extremes_placed_once(n, 0).passed


def test_random_strategy_needs_seed():
    with pytest.raises(ValueError, match="seed"):
        run_strategy(reverse(4), RANDOM)


def test_random_strategy_reproducible():
    a = run_strategy(rotation(7), RANDOM, seed=12345)
    b = run_strategy(rotation(7), RANDOM, seed=12345)
    c = run_strategy(rotation(7), RANDOM, seed=54321)
    assert a.moves == b.moves
    assert a.moves != c.moves  # seeds chosen to differ
    assert_valid_trace(a)
    assert_valid_trace(c)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        run_strategy((2, 1), "bogus")


def test_trace_lines_format():
    t = run_strategy((4, 1, 3, 5, 2), SMALLEST_FIRST)
    lines = list(t.lines())
    assert len(lines) == len(t)
    first = lines[0].split("\t")
    assert len(first) == 7
    assert first[0] == "1"
    assert first[1] == first[3]  # target position equals the placed value


# -- shortest sorts ------------------------------------------------------------

def bfs_oracle(p):
    """Independent shortest path over an explicitly built digraph."""
    from collections import deque

    target = identity(len(p))
    seen = {p}
    queue = deque([(p, 0)])
    while queue:
        state, d = queue.popleft()
        if state == target:
            return d
        for v in placeable_values(state):
            q = place(state, v)
            if q not in seen:
                seen.add(q)
                queue.append((q, d + 1))
    raise AssertionError


def test_min_placements_examples():
    assert min_placements(identity(6)) == 0
    assert min_placements(reverse(6)) == 5
    assert min_placements((4, 1, 3, 5, 2)) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_min_placements_matches_bfs_oracle(n):
    table = min_placements_table(n)
    for p in all_perms(n):
        d = bfs_oracle(p)
        assert min_placements(p) == d
        assert table[rank(p)] == d


@pytest.mark.parametrize("n", range(1, 8))
def test_min_placements_bounds(n):
    assert check_lis_lower_bound(n, 0).passed


@pytest.mark.parametrize("n", range(2, 7))
def test_unique_worst_case(n):
    assert unique_worst_case_check(n)


def test_capacity_errors():
    with pytest.raises(CapacityError):
        min_placements(identity(12))
    with pytest.raises(CapacityError, match=r"about 8,143 MB"):
        min_placements_table(12)
    assert min_placements(identity(12), cap=12) == 0


# -- hand-sort pass length -------------------------------------------------------

def test_smallest_first_steps_examples():
    assert smallest_first_steps(identity(5)) == 0
    assert smallest_first_steps(reverse(6)) == 6 - 1
    assert smallest_first_steps((1, 3, 2)) == 2
    # ... but only one actual placement is possible from (1,3,2):
    assert len(run_strategy((1, 3, 2), SMALLEST_FIRST)) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_smallest_first_steps_is_largest_value_placed(n):
    for p in all_perms(n):
        t = run_strategy(p, SMALLEST_FIRST)
        j = smallest_first_steps(p)
        assert j == (max(t.moves) if t.moves else 0)
        assert len(t) <= j
        skipped = [v for v in range(1, j + 1) if v not in t.moves]
        assert len(t) == j - len(skipped)


# -- random homing -----------------------------------------------------------------

def test_random_homing_trivia():
    est = random_homing_mean(1, 10, seed=7)
    assert est.mean == 0
    est2 = random_homing_mean(2, 200, seed=7)
    assert est2.mean <= 1 == random_homing_bound(2)


def test_random_homing_bound_n8():
    est = random_homing_mean(8, 2000, seed=99)
    assert est.bound == Fraction(8 * 9 - 2, 4)
    assert est.mean <= est.bound
    assert est.margin >= 0
    assert est.max_steps <= (1 << 7) - 1


def test_random_homing_reproducible():
    a = random_homing_mean(6, 500, seed=1234)
    b = random_homing_mean(6, 500, seed=1234)
    assert a.mean == b.mean and a.max_steps == b.max_steps
    assert isinstance(a.mean, Fraction)


def test_random_homing_validation():
    with pytest.raises(ValueError):
        random_homing_mean(4, 0, seed=1)
    with pytest.raises(ValueError):
        random_homing_mean(0, 5, seed=1)
