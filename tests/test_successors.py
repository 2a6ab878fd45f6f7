"""The successor layer, checked against the tuple-level moves and ranking."""
from math import factorial

import numpy as np
import pytest

from homing import all_perms, displacement_successors, rank, unrank
from homing.successors import displacement_ranks, perm_matrix, rank_rows


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


def test_rank_rows_rejects_ranks_beyond_int32():
    with pytest.raises(ValueError, match="int32"):
        rank_rows(np.arange(1, 14, dtype=np.int8).reshape(1, 13))


def test_perm_matrix_rejects_empty_n():
    with pytest.raises(ValueError):
        perm_matrix(0)
