"""The successor layer, checked against the tuple-level moves and ranking."""
import tracemalloc
from math import factorial

import numpy as np
import pytest

from homing import (
    CapacityError,
    CycleError,
    InputError,
    all_perms,
    code_of,
    displace,
    displacement_successors,
    heights,
    lis_length,
    place,
    rank,
    stage,
    strategies,
    successors,
    unrank,
    verify,
    weight,
)
from homing.heights import build_height_table
from homing.strategies import (
    ALTERNATING_EXTREMAL,
    LARGEST_FIRST,
    LEFTMOST_NOT_HOME,
    SMALLEST_FIRST,
    min_placements_table,
    step_table,
)
from homing.successors import (
    check_cap,
    code_signs,
    code_weights,
    displacement_ranks,
    displacement_sources,
    lis_rows,
    perm_matrix,
    place_rows,
    rank_rows,
    release_rounds,
    stage_rows,
    step_ranks,
    unrank_rows,
)

TABLES = [build_height_table, min_placements_table]


@pytest.mark.parametrize("n", range(1, 8))
def test_perm_matrix_is_s_n_in_rank_order(n):
    rows = perm_matrix(n)
    assert rows.dtype == np.int8
    assert rows.tolist() == [list(p) for p in all_perms(n)]
    ranks = rank_rows(rows)
    assert ranks.dtype == np.int32
    assert np.array_equal(ranks, np.arange(factorial(n)))


@pytest.mark.parametrize("n", range(1, 6))
def test_displacement_ranks_match_successors(n):
    rows = perm_matrix(n)
    for r in range(len(rows)):
        got = sorted(displacement_ranks(rows[r : r + 1]).tolist())
        expected = sorted(rank(q) for _, q in displacement_successors(unrank(n, r)))
        assert got == expected
    # a batch yields the evictions of all its rows, with multiplicity
    assert sorted(displacement_ranks(rows).tolist()) == sorted(
        rank(q) for p in all_perms(n) for _, q in displacement_successors(p)
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_displacement_sources_pair_with_ranks(n):
    """Each eviction's source row and target rank, as one edge multiset."""
    rows = perm_matrix(n)
    edges = sorted(zip(displacement_sources(rows).tolist(), displacement_ranks(rows).tolist()))
    assert edges == sorted(
        (rank(p), rank(q)) for p in all_perms(n) for _, q in displacement_successors(p)
    )
    # sources index the batch given, not S_n
    batch = rows[1::2]
    edges = zip(displacement_sources(batch).tolist(), displacement_ranks(batch).tolist())
    assert sorted((1 + 2 * s, r) for s, r in edges) == sorted(
        (rank(p), rank(q)) for p in list(all_perms(n))[1::2] for _, q in displacement_successors(p)
    )
    # a batch of no rows evicts nothing, and one row evicts as a batch of one
    assert len(displacement_sources(rows[:0])) == len(displacement_ranks(rows[:0])) == 0
    first = rows[:1]  # the identity: every value home
    edges = sorted(zip(displacement_sources(first).tolist(), displacement_ranks(first).tolist()))
    assert edges == sorted((0, rank(q)) for _, q in displacement_successors(unrank(n, 0)))


@pytest.mark.parametrize("n", range(1, 6))
def test_evictions_come_by_home_value_then_target_then_row(n):
    """Entry by entry, in the documented order: every home value v, every
    target position t other than v, every row with v home."""
    rows = perm_matrix(n)
    expected = [
        (s, rank(displace(p, v, t)))
        for v in range(1, n + 1)
        for t in range(1, n + 1)
        if t != v
        for s, p in enumerate(all_perms(n))
        if p[v - 1] == v
    ]
    assert list(zip(displacement_sources(rows).tolist(), displacement_ranks(rows).tolist())) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_place_rows_matches_place(n):
    """Every out-of-place value of every state, one value for a batch of
    rows and one value per row, against the tuple-level ``place``."""
    rows, perms = perm_matrix(n), list(all_perms(n))
    for v in range(1, n + 1):
        away = rows[:, v - 1] != v
        placed = place_rows(rows[away], v)
        assert placed.dtype == np.int8
        assert placed.tolist() == [list(place(p, v)) for p, a in zip(perms, away) if a]
    leftmost = [next(v for i, v in enumerate(p, 1) if v != i) for p in perms[1:]]
    placed = place_rows(rows[1:], np.array(leftmost, np.int8))
    assert placed.tolist() == [list(place(p, v)) for p, v in zip(perms[1:], leftmost)]


def test_place_rows_leaves_a_home_value_where_it_is():
    rows = perm_matrix(4)
    assert np.array_equal(place_rows(rows[rows[:, 2] == 3], 3), rows[rows[:, 2] == 3])


@pytest.mark.parametrize("n", range(1, 9))
def test_stage_and_lis_rows_match_the_tuple_measures(n):
    rows = perm_matrix(n)
    assert stage_rows(rows).tolist() == [stage(p) for p in all_perms(n)]
    assert lis_rows(rows).tolist() == [lis_length(p) for p in all_perms(n)]


@pytest.mark.parametrize("n", range(1, 6))
def test_step_ranks_rank_the_stepped_rows(n):
    """The identity maps to itself, and every other state to the rank of
    its row as ``step`` leaves it."""
    def reverse(rows):  # any map of rows to rows
        return rows[:, ::-1]

    expected = [0] + [rank(p[::-1]) for p in list(all_perms(n))[1:]]
    assert step_ranks(n, reverse).tolist() == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_weighs_every_state(n):
    positions = np.array([[p.index(v) + 1 for v in range(1, n + 1)] for p in all_perms(n)], np.int8)
    signs = code_signs(positions)
    assert signs.dtype == np.int8 and signs.shape == (factorial(n), max(n - 2, 0))
    assert code_weights(signs).tolist() == [weight(code_of(p)) for p in all_perms(n)]


@pytest.mark.parametrize("n", range(1, 10))
def test_unrank_rows_is_perm_matrix(n):
    rows = unrank_rows(n, np.arange(factorial(n)))
    assert rows.dtype == np.int8 and rows.shape == (factorial(n), n)
    assert np.array_equal(rows, perm_matrix(n))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_unrank_rows_round_trips_through_rank_rows(n):
    """Sampled ranks, both ends of S_n among them, with the tuple-level
    unrank on a few."""
    sample = np.random.default_rng(n).integers(0, factorial(n), 5000)
    ranks = np.concatenate([[0, factorial(n) - 1], sample])
    rows = unrank_rows(n, ranks)
    assert np.array_equal(rank_rows(rows), ranks)
    assert [tuple(r) for r in rows[:20].tolist()] == [unrank(n, int(r)) for r in ranks[:20]]


def test_unrank_rows_of_no_ranks_and_of_s_1():
    assert unrank_rows(4, []).shape == (0, 4)
    assert unrank_rows(4, np.array([], np.int64)).shape == (0, 4)
    assert unrank_rows(1, [0]).tolist() == [[1]]


@pytest.mark.parametrize(
    "n, ranks, error, match",
    [
        (3, [0, 6], InputError, r"0\.\.6 leave 0\.\.5"),
        (3, [-1], InputError, "the ranks of S_3"),
        (12, [factorial(12)], InputError, "the ranks of S_12"),
        (3, [1.0], InputError, "one integer per row"),
        (3, [[0, 1]], InputError, "one integer per row"),
        (0, [], InputError, "n must be >= 1"),
        (13, [0], CapacityError, "n <= 12"),
    ],
)
def test_unrank_rows_refuses_before_allocating(monkeypatch, n, ranks, error, match):
    def no_allocation(*args, **kwargs):
        raise AssertionError("unrank_rows allocated before refusing its input")

    monkeypatch.setattr(np, "ones", no_allocation)
    with pytest.raises(error, match=match):
        unrank_rows(n, ranks)


def test_rank_rows_rejects_ranks_beyond_int32():
    with pytest.raises(CapacityError, match="int32"):
        rank_rows(np.arange(1, 14, dtype=np.int8).reshape(1, 13))


def test_displacement_ranks_rejects_ranks_beyond_int32():
    """The evictions of the identity of 1..13 would wrap int32 silently, and
    for 100,000 rows they take 405 MB: the refusal comes before any."""
    rows = np.tile(np.arange(1, 14, dtype=np.int8), (100_000, 1))
    orders = successors._eviction_orders.cache_info().misses
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="n <= 12"):
            displacement_ranks(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert successors._eviction_orders.cache_info().misses == orders


def test_perm_matrix_rejects_empty_n():
    with pytest.raises(ValueError):
        perm_matrix(0)


def test_perm_matrix_refuses_ranks_beyond_int32_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("perm_matrix allocated before refusing n")

    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(CapacityError, match="n <= 12"):
        perm_matrix(13)


@pytest.mark.parametrize("shortest", [False, True])
@pytest.mark.parametrize("n", range(1, 9))
def test_release_rounds_release_every_rank_once(n, shortest):
    rounds = [r.tolist() for r in release_rounds(n, shortest)]
    assert sorted(r for ranks in rounds for r in ranks) == list(range(factorial(n)))
    assert all(ranks == sorted(ranks) for ranks in rounds)
    if shortest:  # a BFS: only the reversal needs n - 1 placements
        assert len(rounds) == n and rounds[-1] == [factorial(n) - 1]
    else:  # heights 0 .. 2^(n-1) - 1
        assert len(rounds) == 1 << (n - 1)


STEPPED = (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL, LEFTMOST_NOT_HOME)


def every_table(n, steps=STEPPED):
    """The height table, the shortest-sort table and the step tables of
    ``steps`` over S_n, as bytes."""
    return [
        build_height_table(n).heights.tobytes(),
        bytes(min_placements_table(n)),
        *(step_table(n, s).tobytes() for s in steps),
    ]


@pytest.mark.parametrize("size", [1, 2, 7])
def test_slices_split_anywhere(size, monkeypatch):
    """Slices of 1, 2 and 7 rows put slice boundaries inside every round
    and every step, and give the tables one slice of all of S_n gives.
    The step tables take one- and two-row slices to n = 6, where a boundary
    already falls between every pair of rows; at n = 7 those would add 6 s
    and 3 s to the suite."""
    for n in range(1, 8):
        steps = STEPPED if size == 7 or n < 7 else ()
        monkeypatch.setattr(successors, "_SLICE", factorial(n))
        whole = every_table(n, steps)
        monkeypatch.setattr(successors, "_SLICE", size)
        assert every_table(n, steps) == whole


@pytest.mark.parametrize("n, size", [(7, 7), (9, successors._SLICE)])
def test_no_call_sees_more_than_a_slice(n, size, monkeypatch):
    """The rounds rank, and ``step_ranks`` steps, at most ``_SLICE`` rows
    per call, and every row once: the widest BFS round at n = 9, and every
    step, span several slices."""
    monkeypatch.setattr(successors, "_SLICE", size)
    ranked, stepped = [], []
    real = successors.displacement_ranks

    def ranking(rows):
        ranked.append(len(rows))
        return real(rows)

    def stepping(rows):
        stepped.append(len(rows))
        return rows

    monkeypatch.setattr(successors, "displacement_ranks", ranking)
    for shortest in (False, True):
        ranked.clear()
        assert sum(map(len, release_rounds(n, shortest))) == factorial(n)
        assert sum(ranked) == factorial(n) and max(ranked) <= size
    assert max(ranked) == size  # the BFS has a round wider than a slice
    step_ranks(n, stepping)
    assert sum(stepped) == factorial(n) - 1 and max(stepped) == size


@pytest.mark.parametrize("build", TABLES)
def test_both_tables_raise_one_cycle_error(monkeypatch, build):
    """Every eviction into the reversal of 1..5 is sent to the identity
    instead, so the reversal is never released by either table."""
    real = successors.displacement_ranks
    last = factorial(5) - 1

    def without_the_reversal(rows):
        ranks = real(rows)
        ranks[ranks == last] = 0
        return ranks

    monkeypatch.setattr(successors, "displacement_ranks", without_the_reversal)
    with pytest.raises(CycleError, match="at n=5: .* never released"):
        build(5)
    with pytest.raises(CycleError, match=f"1 states never released, the first at rank {last}"):
        list(release_rounds(5, shortest=True))


@pytest.mark.parametrize("build", TABLES)
def test_tables_refuse_ranks_beyond_int32_before_allocating(monkeypatch, build):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the 13! table was allocated")

    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(CapacityError, match="n <= 12"):
        build(13, cap=13)


@pytest.mark.parametrize("module", [heights, strategies], ids=lambda m: m.__name__)
def test_tables_take_their_rounds_from_release_rounds(module):
    """One round loop: the table modules neither build the matrix nor rank
    evictions themselves."""
    assert not {"perm_matrix", "displacement_ranks"} & vars(module).keys()


def test_verify_names_states_from_rows_not_by_unranking():
    """A counterexample is a row of a matrix the check already holds."""
    assert "unrank" not in vars(verify)


def test_capacity_estimates_below_a_megabyte_are_in_bytes():
    with pytest.raises(CapacityError, match=r"\(2 states, about 14 bytes: "):
        check_cap(2, 1)
    with pytest.raises(CapacityError, match=r"about 524,160 bytes"):
        check_cap(8, 7)
    with pytest.raises(CapacityError, match=r"about 5 MB"):
        check_cap(9, 8)
