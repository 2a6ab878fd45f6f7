"""Strategy runs, step tables, shortest sorts, and random homing."""
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from homing import (
    CapacityError,
    InputError,
    all_perms,
    code_of,
    identity,
    place,
    placeable_values,
    rank,
    reverse,
    rotation,
    stage,
    weight,
)
from homing import strategies, verify
from homing.strategies import (
    ALTERNATING_EXTREMAL,
    LARGEST_FIRST,
    LEFTMOST_NOT_HOME,
    RANDOM,
    SMALLEST_FIRST,
    STRATEGIES,
    Trace,
    TraceStep,
    min_placements,
    min_placements_table,
    random_homing_bound,
    random_homing_mean,
    run_strategy,
    smallest_first_steps,
    step_counts,
    step_table,
    unique_worst_case_check,
)
from homing.verify import check_extremes_placed_once, check_lis_lower_bound, extremes_evicted

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
        for v in t.moves:
            p = place(p, v)
            s2 = stage(p)
            assert s2 >= s  # a settled extreme is never dislodged
            s = s2


@pytest.mark.parametrize("n", range(2, 7))
def test_extremes_placed_at_most_once(n):
    assert check_extremes_placed_once(n).passed


def placed_an_extreme_twice(p, strategy):
    """The oracle: the run from ``p`` places 1 more than once or n more than
    once."""
    moves = run_strategy(p, strategy).moves
    return moves.count(1) > 1 or moves.count(len(p)) > 1


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("strategy", EXTREMAL + (LEFTMOST_NOT_HOME,))
def test_extremes_verdict_matches_per_run_oracle(n, strategy):
    """The step-table verdict on the run from each state -- some step on its
    path through the table moves an extreme from home -- is the oracle's."""
    table, evicted = step_table(n, strategy), extremes_evicted(n, strategy)
    for p in all_perms(n):
        r, flagged = rank(p), False
        while r:
            flagged |= bool(evicted[r])
            r = table[r]
        assert flagged == placed_an_extreme_twice(p, strategy)


def test_extremes_check_names_a_step_that_moves_a_home_1_away(monkeypatch):
    table = step_table(4, LARGEST_FIRST)
    table[rank((1, 3, 2, 4))] = rank((3, 1, 2, 4))  # 1 leaves home
    shared = verify._steps
    monkeypatch.setattr(
        verify, "_steps", lambda n, s: table if (n, s) == (4, LARGEST_FIRST) else shared(n, s)
    )
    result = check_extremes_placed_once(6)
    assert not result.passed
    assert result.detail == "largest-first on 1,3,2,4 moves an extreme from home"


def test_random_strategy_needs_seed():
    with pytest.raises(InputError, match="seed"):
        run_strategy(reverse(4), RANDOM)


@pytest.mark.parametrize("strategy", EXTREMAL + (LEFTMOST_NOT_HOME,))
def test_deterministic_strategy_refuses_seed(strategy):
    with pytest.raises(InputError, match="takes no seed"):
        run_strategy(reverse(4), strategy, seed=99)


def test_random_strategy_draws_are_pinned():
    assert run_strategy((5, 4, 3, 2, 1), RANDOM, seed=99).moves == (1, 2, 5, 4)


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


def test_traces_compare_by_their_public_fields():
    a = run_strategy(rotation(6), LEFTMOST_NOT_HOME)
    b = run_strategy(rotation(6), LEFTMOST_NOT_HOME)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != run_strategy(rotation(6), SMALLEST_FIRST)
    assert repr(a) == (
        f"Trace(initial={a.initial!r}, moves={a.moves!r}, final={a.final!r})"
    )


def test_trace_lines_format():
    t = run_strategy((4, 1, 3, 5, 2), SMALLEST_FIRST)
    lines = b"".join(t.text()).decode().splitlines()
    assert len(lines) == len(t)
    first = lines[0].split("\t")
    assert len(first) == 7
    assert first[0] == "1"
    assert first[1] == first[3]  # target position equals the placed value


def oracle_steps(trace):
    """Per-step records built one placement at a time from ``place``,
    ``code_of`` and ``weight``."""
    p = trace.initial
    for i, v in enumerate(trace.moves, 1):
        source = p.index(v) + 1
        p = place(p, v)
        code = code_of(p)
        yield TraceStep(i, v, source, v, p, code, weight(code))


def oracle_line(s):
    fields = (s.step, s.value, s.source, s.target, ",".join(map(str, s.result)), s.code, s.weight)
    return "\t".join(map(str, fields))


def assert_blocks_match_oracle(trace):
    """Steps, text and the final state, each read from the packed rows,
    against ``place`` replaying the moves from the initial state."""
    expected = list(oracle_steps(trace))
    steps = list(trace.steps())
    assert steps == expected
    assert b"".join(trace.text()).decode() == "".join(oracle_line(s) + "\n" for s in expected)
    assert all(type(v) is int for s in steps for v in s.result)
    assert trace.final == (expected[-1].result if expected else trace.initial)


def runs(n):
    for p in all_perms(n):
        for strategy in STRATEGIES:
            for seed in (1, 2, 3) if strategy == RANDOM else (None,):
                yield run_strategy(p, strategy, seed=seed)


@pytest.mark.parametrize("n", range(1, 7))
def test_blocks_match_per_step_oracle(n):
    """Every strategy on all of S_n (random under three seeds), including
    n = 1 and 2, whose codes are empty, and the identity, which has no
    lines."""
    for trace in runs(n):
        assert_blocks_match_oracle(trace)
    assert list(run_strategy(identity(n), SMALLEST_FIRST).text()) == []


@pytest.mark.parametrize("n", range(2, 15))
def test_rotation_blocks_match_per_step_oracle(n):
    trace = run_strategy(rotation(n), LEFTMOST_NOT_HOME)
    assert_blocks_match_oracle(trace)


def test_blocks_for_n_above_255():
    """States no longer fit in a byte, and codes are longer than 63."""
    p = (6, 5, 4, 3, 2, 1) + tuple(range(7, 300)) + (301, 300)
    for strategy in (SMALLEST_FIRST, LARGEST_FIRST, LEFTMOST_NOT_HOME):
        assert_blocks_match_oracle(run_strategy(p, strategy))


@pytest.mark.parametrize("n, row_bytes", [(255, 1), (256, 2), (65535, 2), (65536, 4)])
def test_packed_row_widths(n, row_bytes):
    """A run keeps one packed row per state, initial included, at n bytes
    a row below n = 256, 2n below 65,536 and 4n beyond."""
    p = (2, 1) + tuple(range(3, n + 1))
    trace = run_strategy(p, SMALLEST_FIRST)
    assert trace.moves == (1,) and trace.final == identity(n)
    assert array(strategies._row_type(n), trace._rows).tolist() == list(p + identity(n))
    assert len(trace._rows) == 2 * n * row_bytes


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_blocks_split_anywhere(block, monkeypatch):
    """Small blocks put block boundaries at every kind of step."""
    monkeypatch.setattr(strategies, "_BLOCK", block)
    assert_blocks_match_oracle(run_strategy(rotation(8), LEFTMOST_NOT_HOME))
    for trace in runs(4):
        assert_blocks_match_oracle(trace)


# -- the steppers against per-step value choosers ----------------------------------

def remainder_is_reverse(p):
    rem = placeable_values(p)
    return len(rem) >= 2 and all(a > b for a, b in zip(rem, rem[1:]))


def choose_alternating(p):
    lo, hi = min(placeable_values(p)), max(placeable_values(p))
    return hi if remainder_is_reverse(place(p, lo)) and not remainder_is_reverse(place(p, hi)) else lo


def choose_leftmost(p):
    return next(v for q, v in enumerate(p, 1) if v != q)  # rescanned from position 1


CHOOSERS = {
    SMALLEST_FIRST: lambda p: min(placeable_values(p)),
    LARGEST_FIRST: lambda p: max(placeable_values(p)),
    ALTERNATING_EXTREMAL: choose_alternating,
    LEFTMOST_NOT_HOME: choose_leftmost,
}


def random_chooser(seed):
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)

    def choose(p):
        candidates = placeable_values(p)
        return candidates[rng.randrange(len(candidates))]

    return choose


def oracle_run(p, strategy, seed):
    """The values a run places, each chosen from the whole state and
    replayed with ``place``, and the states it passes through."""
    choose = random_chooser(seed) if strategy == RANDOM else CHOOSERS[strategy]
    moves, states = [], [p]
    while p != identity(len(p)):
        v = choose(p)
        p = place(p, v)
        moves.append(v)
        states.append(p)
    return tuple(moves), states


def assert_run_matches_choosers(p, strategy, seed=None):
    trace = run_strategy(p, strategy, seed=seed)
    moves, states = oracle_run(p, strategy, seed)
    assert trace.moves == moves
    assert trace.final == states[-1]
    assert trace._rows == array(strategies._row_type(len(p)), [v for q in states for v in q]).tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_steppers_match_per_step_choosers(n):
    """Every strategy on all of S_n, random under three seeds: the same
    value at every step, and the same packed rows."""
    for p in all_perms(n):
        for strategy in STRATEGIES:
            for seed in (1, 2, 3) if strategy == RANDOM else (None,):
                assert_run_matches_choosers(p, strategy, seed)


@pytest.mark.parametrize("n", range(1, 15))
def test_steppers_match_per_step_choosers_on_the_rotation(n):
    for strategy in STRATEGIES:
        assert_run_matches_choosers(rotation(n), strategy, 1 if strategy == RANDOM else None)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_that_cycles_stops_at_the_step_bound(strategy, monkeypatch):
    """A placement that swaps the last two values back and forth never
    homes the rotation; the run raises after 2^(n-1) - 1 placements on its
    row.  Alternating-extremal also places on copies of the row to look
    ahead, so each row is counted on its own."""
    n, rows = 6, []

    def swap_last_two(row, q):
        rows.append(row)  # held, so no two rows share an id
        row[-1], row[-2] = row[-2], row[-1]
        return row[q]

    monkeypatch.setattr(strategies, "place_at", swap_last_two)
    with pytest.raises(AssertionError, match="homing exceeded its proven step bound"):
        run_strategy(rotation(n), strategy, seed=1 if strategy == RANDOM else None)
    assert max(Counter(map(id, rows)).values()) == (1 << (n - 1)) - 1


# -- step tables ----------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("strategy", EXTREMAL + (LEFTMOST_NOT_HOME,))
def test_step_table_matches_run_strategy(n, strategy):
    """``run_strategy`` is the oracle: from every state its first move
    lands on the table's entry, and its length is the step count."""
    table = step_table(n, strategy)
    steps = step_counts(table, (1 << (n - 1)) - 1)
    assert table.dtype == np.int32
    for r, p in enumerate(all_perms(n)):
        trace = run_strategy(p, strategy)
        assert steps[r] == len(trace)
        assert table[r] == rank(place(p, trace.moves[0]) if trace.moves else p)


def test_step_counts_read_limit_plus_one_beyond_the_limit():
    table = np.array([0, 0, 3, 2], np.int32)  # rank 1 goes home, 2 and 3 swap forever
    assert step_counts(table, 0).tolist() == [0, 1, 1, 1]
    assert step_counts(table, 5).tolist() == [0, 1, 6, 6]


@pytest.mark.parametrize("n", range(1, 9))
def test_observed_only_the_rotation_walks_the_hanoi_path(n):
    """Observed for n <= 8, not proven: leftmost-not-home takes
    2^(n-1) - 1 steps on the rotation 2,...,n,1 and on no other state."""
    top = (1 << (n - 1)) - 1
    steps = step_counts(step_table(n, LEFTMOST_NOT_HOME), top)
    assert np.flatnonzero(steps == top).tolist() == [rank(rotation(n))]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("strategy", [SMALLEST_FIRST, LARGEST_FIRST])
def test_observed_one_sided_strategies_need_n_minus_1_steps_on_n_minus_1_factorial_states(n, strategy):
    """Observed for n <= 8, not proven: smallest-first and largest-first
    each take all n - 1 steps on exactly (n-1)! states."""
    steps = step_counts(step_table(n, strategy), n - 1)
    assert np.count_nonzero(steps == n - 1) == factorial(n - 1)


@pytest.mark.parametrize("strategy", [RANDOM, "bogus"])
def test_step_table_needs_a_deterministic_strategy(strategy):
    with pytest.raises(InputError, match="has no step table"):
        step_table(4, strategy)


def test_step_table_refuses_n_beyond_its_cap_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the step table was allocated")

    for name in ("empty", "zeros"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(CapacityError, match="n=11 exceeds the cap 10"):
        step_table(11, SMALLEST_FIRST)


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
    assert isinstance(table, np.ndarray) and table.dtype == np.uint8
    for p in all_perms(n):
        d = bfs_oracle(p)
        assert min_placements(p) == d
        assert table[rank(p)] == d


@pytest.mark.parametrize("n", range(1, 8))
def test_min_placements_bounds(n):
    assert check_lis_lower_bound(n).passed


@pytest.mark.parametrize("n", range(2, 7))
def test_unique_worst_case(n):
    assert unique_worst_case_check(n)


def test_a_one_placement_search_allocates_nothing_sized_by_n_factorial():
    tracemalloc.start()
    try:
        assert min_placements((2, 1) + tuple(range(3, 12))) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # 11! bytes would be 38 MB


def test_capacity_errors():
    assert min_placements(identity(12)) == 0
    with pytest.raises(CapacityError, match=r"about 8,143 MB"):
        min_placements_table(12)


def test_min_placements_beyond_the_tables():
    assert min_placements(rotation(14)) == 1


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


@pytest.mark.parametrize(
    "n, mean, max_steps",
    [(8, Fraction(10587, 1250), 27), (12, Fraction(163123, 10000), 43)],
    ids=["n=8", "n=12"],
)
def test_random_homing_draws_are_pinned(n, mean, max_steps):
    """The Monte Carlo and the random strategy draw with one rule; these
    figures pin both to the draws the rule has always made."""
    est = random_homing_mean(n, 10000, 20240917)
    assert (est.mean, est.max_steps) == (mean, max_steps)
