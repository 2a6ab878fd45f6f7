"""The successor layer, checked against the tuple-level moves and ranking."""
from math import factorial

import numpy as np
import pytest

from homing import CapacityError, all_perms, code_of, displacement_successors, rank, unrank, weight
from homing.successors import (
    code_signs,
    code_weights,
    displacement_ranks,
    displacement_sources,
    perm_matrix,
    rank_rows,
)


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


@pytest.mark.parametrize("n", range(1, 7))
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


@pytest.mark.parametrize("n", range(1, 8))
def test_kernel_weighs_every_state(n):
    positions = np.array([[p.index(v) + 1 for v in range(1, n + 1)] for p in all_perms(n)], np.int8)
    signs = code_signs(positions)
    assert signs.dtype == np.int8 and signs.shape == (factorial(n), max(n - 2, 0))
    assert code_weights(signs).tolist() == [weight(code_of(p)) for p in all_perms(n)]


def test_rank_rows_rejects_ranks_beyond_int32():
    with pytest.raises(ValueError, match="int32"):
        rank_rows(np.arange(1, 14, dtype=np.int8).reshape(1, 13))


def test_perm_matrix_rejects_empty_n():
    with pytest.raises(ValueError):
        perm_matrix(0)


def test_perm_matrix_refuses_ranks_beyond_int32_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("perm_matrix allocated before refusing n")

    monkeypatch.setattr(np, "empty", no_allocation)
    with pytest.raises(CapacityError, match="n <= 12"):
        perm_matrix(13)
