"""The successor layer for S_n: all permutations as one int8 matrix, ranked
in bulk.

Row r of :func:`perm_matrix` is the permutation of rank r (see
:func:`homing.perms.rank`).  :func:`rank_rows` ranks many rows at once, and
:func:`displacement_ranks` ranks every eviction out of a batch of rows, so
a search over the placement digraph handles one whole frontier per numpy
call instead of one state per Python loop.  The exhaustive passes in
:mod:`homing.heights` and :mod:`homing.strategies` both run on it.

The layer lives apart from :mod:`homing.perms` so that the tuple-level API
stays importable without numpy.  Everything here is pure; the one cache
holds read-only index arrays.
"""
from __future__ import annotations

from functools import cache
from math import factorial

import numpy as np

from .errors import CapacityError, InputError

_MAX_RANK_N = 12  # 12! - 1 is the largest rank that fits in int32


def layer_bytes(n: int) -> int:
    """Bytes an exhaustive pass over S_n holds for its n! states, before the
    per-round frontier: the n-column int8 matrix, an int32 result and an
    int8 counter, n!*(n+5) in all."""
    return factorial(n) * (n + 5)


def check_cap(n: int, cap: int) -> None:
    """Refuse an exhaustive pass over S_n beyond ``cap``, before allocating,
    naming the :func:`layer_bytes` estimate."""
    if n > cap:
        raise CapacityError(
            f"n={n} exceeds the cap {cap} ({factorial(n)} states, "
            f"about {layer_bytes(n) / 1e6:,.0f} MB: n!*(n+5) bytes plus the frontier); "
            f"raise the cap explicitly to proceed"
        )


def perm_matrix(n: int) -> np.ndarray:
    """All n! permutations of 1..n as the rows of an int8 matrix, in rank
    (lexicographic) order.

    Built first value by first value: the block of rows starting with v is
    S_(n-1) read through a lookup table that shifts every value >= v up by
    one.

    >>> perm_matrix(3).tolist()
    [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]]
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    rows = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        block = len(rows)
        out = np.empty((block * m, m), dtype=np.int8)
        for v in range(1, m + 1):
            skip_v = np.array([k + (k >= v) for k in range(m)], dtype=np.int8)
            part = out[(v - 1) * block : v * block]
            part[:, 0] = v
            part[:, 1:] = skip_v[rows]
        rows = out
    return rows


def rank_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`homing.perms.rank` of every row of a 2-D array of
    permutations, as int32.

    >>> rank_rows(perm_matrix(3)).tolist()
    [0, 1, 2, 3, 4, 5]
    """
    count, n = rows.shape
    if n > _MAX_RANK_N:
        raise ValueError(f"rank_rows needs n <= {_MAX_RANK_N} for int32 ranks, got {n}")
    cols = np.ascontiguousarray(rows.T)
    ranks = np.zeros(count, dtype=np.int32)
    for i in range(n - 1):
        ranks *= n - i
        for j in range(i + 1, n):
            ranks += cols[j] < cols[i]
    return ranks


@cache
def _eviction_orders(n: int) -> tuple[np.ndarray, ...]:
    """Per home value v, the column orders that move column v-1 to each
    other position, as a read-only (n-1) x n index array."""
    orders = []
    for v in range(1, n + 1):
        rest = [c for c in range(n) if c != v - 1]
        order = np.array(
            [rest[:t] + [v - 1] + rest[t:] for t in range(n) if t != v - 1], dtype=np.intp
        ).reshape(n - 1, n)
        order.flags.writeable = False
        orders.append(order)
    return tuple(orders)


def displacement_ranks(rows: np.ndarray) -> np.ndarray:
    """Ranks of every eviction from every row of ``rows``, with multiplicity.

    There is one entry per (row, home value, target) triple, so each rank
    appears once for every placement that leads from it into ``rows``.

    >>> displacement_ranks(perm_matrix(2)[:1]).tolist()  # both evictions give 2,1
    [1, 1]
    """
    n = rows.shape[1]
    moved = [
        rows[rows[:, v - 1] == v][:, order].reshape(-1, n)
        for v, order in enumerate(_eviction_orders(n), 1)
    ]
    return rank_rows(np.concatenate(moved))
