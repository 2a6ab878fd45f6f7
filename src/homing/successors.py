"""The successor layer for S_n: all permutations as one int8 matrix, ranked
and weighed in bulk.

Row r of :func:`perm_matrix` is the permutation of rank r (see
:func:`homing.perms.rank`).  :func:`rank_rows` ranks many rows at once, and
:func:`displacement_ranks` ranks every eviction out of a batch of rows
(:func:`displacement_sources` names the row each leaves), so a search over
the placement digraph handles one whole frontier per numpy call instead of
one state per Python loop.  :func:`place_rows` is the other direction, one
placement per row, and :func:`step_ranks` ranks one such step from every
state of S_n, which is how the strategy step tables of
:mod:`homing.strategies` are built; :func:`stage_rows` and :func:`lis_rows`
measure many states at once.  :func:`code_signs` and :func:`code_weights`
are the weight kernel, the code and weight of many states at once.  Height
and BFS tables come from :func:`release_rounds`; traces and the lemma checks
run on this layer too, and :mod:`homing.codes` defines codes and weights.

Ranking runs on columns: one kernel ranks an n x count matrix whose
column is a permutation, so each comparison reads two unit-stride rows.
:func:`rank_rows` hands it its rows transposed, and :func:`unrank_rows`
gives rows back the same way, as the transpose of the columns it decodes.
:func:`displacement_ranks` transposes its batch once and builds every
eviction as a column: per home value v, the columns with v home,
reordered once per target.  Its entries therefore come per home value,
then per target position, then per row, and :func:`displacement_sources`
pairs with them in that order.  Ranks are int32, so :func:`perm_matrix`,
ranking, unranking and :func:`displacement_ranks` refuse n > 12 on entry,
before they allocate, with a :class:`~homing.errors.CapacityError`.

Every pass over S_n holds the n-column matrix of its states and a little
more per state, and works through them in slices of at most ``_SLICE``
rows: :func:`release_rounds` ranks each round's evictions slice by slice,
and :func:`step_ranks` steps one slice at a time.  So a pass holds about
the :func:`layer_bytes` that :func:`check_cap` names, whatever its widest
round, and every table is the one an unsliced pass gives.

The layer lives apart from :mod:`homing.perms` and :mod:`homing.codes` so
that the tuple-level API stays importable without numpy.  Everything here
is pure; the one cache holds read-only index arrays.
"""
from __future__ import annotations

from functools import cache
from math import factorial
from typing import Callable, Iterator

import numpy as np

from .errors import CapacityError, CycleError, InputError
from .perms import _check_n

_MAX_RANK_N = 12  # 12! - 1 is the largest rank that fits in int32
_SLICE = 1 << 15  # rows ranked or stepped per call in a pass over S_n

DEFAULT_CAP = 10  # the largest n every exhaustive pass and search accepts by default


def _check_int32_ranks(n: int, what: str) -> None:
    """Refuse n > 12, whose ranks leave int32, before ``what`` allocates."""
    if n > _MAX_RANK_N:
        raise CapacityError(f"{what} needs n <= {_MAX_RANK_N} for int32 ranks, got {n}")


def layer_bytes(n: int) -> int:
    """Bytes an exhaustive pass over S_n holds for its n! states, before the
    per-round frontier: the n-column int8 matrix, an int32 result and an
    int8 counter, n!*(n+5) in all."""
    return factorial(n) * (n + 5)


def check_cap(n: int, cap: int) -> None:
    """Refuse n < 1, or n beyond ``cap``, before allocating, naming the
    :func:`layer_bytes` estimate.  Every table over S_n holds about that
    plus one slice's work: at n = 10 the estimate is 54 MB, and the peak
    RSS of a fresh process is 89 MB for the height table, 108 MB for the
    shortest-sort table and 84 MB for the alternating-extremal step table.
    The per-state searches refuse a permutation longer than their cap,
    though they keep only the states they reach from it, and no table."""
    _check_n(n)
    if n > cap:
        held = layer_bytes(n)
        size = f"{held / 1e6:,.0f} MB" if held >= 1e6 else f"{held:,} bytes"
        raise CapacityError(
            f"n={n} exceeds the cap {cap} ({factorial(n)} states, "
            f"about {size}: n!*(n+5) bytes plus the frontier); "
            f"raise the cap explicitly to proceed"
        )


def perm_matrix(n: int) -> np.ndarray:
    """All n! permutations of 1..n as the rows of an int8 matrix, in rank
    (lexicographic) order.

    Built first value by first value: the block of rows starting with v is
    S_(n-1) read through a lookup table that shifts every value >= v up by
    one.  Beyond n = 12 ranks leave int32, and n is refused unallocated.

    >>> perm_matrix(3).tolist()
    [[1, 2, 3], [1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2], [3, 2, 1]]
    """
    _check_n(n)
    _check_int32_ranks(n, "perm_matrix")
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
    _check_int32_ranks(rows.shape[1], "rank_rows")
    return _rank_cols(rows.T)


def _rank_cols(cols: np.ndarray) -> np.ndarray:
    """The rank, as int32, of every column of an n x count matrix of
    permutations.  Each Lehmer digit, the count of later entries smaller
    than entry i, is summed in int8 and only then folded into the rank."""
    n, count = cols.shape
    cols = np.ascontiguousarray(cols)  # a row per position: the compares run unit-stride
    ranks = np.zeros(count, dtype=np.int32)
    digit = np.empty(count, dtype=np.int8)
    less = np.empty(count, dtype=np.int8)
    for i in range(n - 1):
        ranks *= n - i
        np.less(cols[i + 1], cols[i], out=digit)
        for j in range(i + 2, n):
            np.less(cols[j], cols[i], out=less)
            digit += less
        ranks += digit
    return ranks


def unrank_rows(n: int, ranks) -> np.ndarray:
    """The permutations of 1..n with the given ranks, as the int8 rows of a
    len(ranks) x n matrix: :func:`homing.perms.unrank` of every rank.

    The mixed-radix digits come from ``np.divmod``; the Lehmer code
    is then decoded from the right, each entry placed among the entries
    after it by bumping those at or above it.  n beyond 12 and any rank
    outside 0..n!-1 are refused before anything is allocated.

    >>> unrank_rows(3, [0, 3, 5]).tolist()
    [[1, 2, 3], [2, 3, 1], [3, 2, 1]]
    """
    _check_n(n)
    _check_int32_ranks(n, "unrank_rows")
    ranks = np.asarray(ranks)
    if ranks.ndim != 1 or (ranks.size and ranks.dtype.kind not in "iu"):
        raise InputError(f"ranks must be one integer per row, got {ranks.dtype} {ranks.shape}")
    if ranks.size and not 0 <= ranks.min() <= ranks.max() < factorial(n):
        raise InputError(
            f"ranks {ranks.min()}..{ranks.max()} leave 0..{factorial(n) - 1}, the ranks of S_{n}"
        )
    cols = np.ones((n, len(ranks)), dtype=np.int8)  # the last entry is 1 among itself
    rest = ranks.astype(np.int64)
    for i in range(n - 2, -1, -1):
        rest, digit = np.divmod(rest, n - i)
        cols[i] = digit + 1
        cols[i + 1 :] += cols[i + 1 :] >= cols[i]
    return cols.T


@cache
def _eviction_orders(n: int) -> tuple[np.ndarray, ...]:
    """Per home value v, the n x (n-1) read-only index array whose column t
    reorders a permutation's positions to evict v to its t-th other
    position: entry c names the position the evicted state reads at c."""
    orders = []
    for v in range(1, n + 1):
        rest = [c for c in range(n) if c != v - 1]
        order = np.array(
            [rest[:t] + [v - 1] + rest[t:] for t in range(n) if t != v - 1], dtype=np.intp
        ).reshape(n - 1, n).T.copy()
        order.flags.writeable = False
        orders.append(order)
    return tuple(orders)


def displacement_ranks(rows: np.ndarray) -> np.ndarray:
    """Ranks of every eviction from every row of ``rows``, with multiplicity.

    There is one entry per (home value, target, row) triple, in that order,
    so each rank appears once for every placement that leads from it into
    ``rows``.  Every eviction is built and ranked as a column.

    >>> displacement_ranks(perm_matrix(2)[:1]).tolist()  # both evictions give 2,1
    [1, 1]
    """
    n = rows.shape[1]
    _check_int32_ranks(n, "displacement_ranks")
    cols = rows.T
    moved = np.concatenate(
        [
            cols[:, cols[v - 1] == v][order].reshape(n, -1)
            for v, order in enumerate(_eviction_orders(n), 1)
        ],
        axis=1,
    )
    return _rank_cols(moved)


def displacement_sources(rows: np.ndarray) -> np.ndarray:
    """The index into ``rows`` of the row each entry of
    :func:`displacement_ranks` evicts from, in the same order.

    >>> displacement_sources(perm_matrix(3)[:2]).tolist()  # 1,2,3 has 3 homes, 1,3,2 one
    [0, 1, 0, 1, 0, 0, 0, 0]
    """
    n = rows.shape[1]
    return np.concatenate(
        [np.tile(np.flatnonzero(rows[:, v - 1] == v), n - 1) for v in range(1, n + 1)]
    )


def place_rows(rows: np.ndarray, values) -> np.ndarray:
    """Every row of ``rows`` with its value from ``values`` placed: moved to
    its home column, the entries it passes shifting one column towards the
    one it left.  ``values`` holds one value per row, or one for all rows.
    A value already home leaves its row as it is.  This is the placement
    dual of :func:`displacement_ranks`, row by row what
    :func:`homing.perms.place` does to a tuple.

    Built one output column at a time, with no temporary wider than a
    column.

    >>> place_rows(np.array([[4, 1, 3, 5, 2], [2, 3, 1, 5, 4]], np.int8), [1, 5]).tolist()
    [[1, 4, 3, 5, 2], [2, 3, 1, 4, 5]]
    """
    m, n = rows.shape
    values = np.asarray(values, rows.dtype)
    home = values - 1
    source = np.zeros(m, np.int8)  # the column each value leaves
    for c in range(1, n):
        source[rows[:, c] == values] = c
    out = np.empty_like(rows)
    for c in range(n):
        column = rows[:, c]
        if c + 1 < n:  # moving right past c: the entry on its right shifts left
            column = np.where((source <= c) & (c < home), rows[:, c + 1], column)
        if c:  # moving left past c: the entry on its left shifts right
            column = np.where((home < c) & (c <= source), rows[:, c - 1], column)
        out[:, c] = np.where(home == c, values, column)
    return out


def step_ranks(n: int, step: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """The rank, as int32, of the state each state of S_n moves to, indexed
    by rank.  ``step`` maps the rows of every state but the identity to the
    rows one placement on, as :func:`place_rows` does; the identity, rank 0,
    maps to itself.

    >>> step_ranks(3, lambda rows: place_rows(rows, rows[:, 0])).tolist()  # place the first value
    [0, 1, 0, 5, 0, 2]
    """
    rows = perm_matrix(n)
    ranks = np.zeros(len(rows), np.int32)
    for start in range(1, len(rows), _SLICE):
        ranks[start : start + _SLICE] = rank_rows(step(rows[start : start + _SLICE]))
    return ranks


def stage_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`homing.perms.stage` of every row, as int8: its home prefix
    plus its home suffix, and n for the identity.

    >>> stage_rows(np.array([[1, 3, 2, 4], [2, 1, 3, 4], [1, 2, 3, 4]], np.int8)).tolist()
    [2, 2, 4]
    """
    m, n = rows.shape
    prefix, suffix = np.ones(m, bool), np.ones(m, bool)
    level = np.zeros(m, np.int8)
    for c in range(n):
        prefix &= rows[:, c] == c + 1
        suffix &= rows[:, n - 1 - c] == n - c
        level += prefix
        level += suffix
    level[prefix] = n  # the identity counted both ends in full
    return level


def lis_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`homing.perms.lis_length` of every row, as int8: the longest
    increasing subsequence ending at each column is one more than the
    longest ending at an earlier, smaller entry.

    >>> lis_rows(np.array([[4, 1, 3, 5, 2], [3, 2, 1, 4, 5]], np.int8)).tolist()
    [3, 3]
    """
    m, n = rows.shape
    longest = np.zeros(m, np.int8)
    ending: list[np.ndarray] = []  # per column, the longest ending there
    for c in range(n):
        here = np.ones(m, np.int8)
        for i, run in enumerate(ending):
            np.maximum(here, np.where(rows[:, i] < rows[:, c], run + 1, 1), out=here)
        ending.append(here)
        np.maximum(longest, here, out=longest)
    return longest


def release_rounds(n: int, shortest: bool = False) -> Iterator[np.ndarray]:
    """The ranks of S_n released in each round of Kahn's topological sort
    (Kahn, CACM 5(11), 1962) of the placement digraph, ascending in a round.

    A state's count of placements still to be released starts at one per
    out-of-place value, so that round h holds the states of height h; with
    ``shortest`` it starts at 1 for all but the identity, so that round d
    holds the states d placements sort (a BFS).  A round releases the
    states at count zero, and each eviction q -> p out of them, a placement
    p -> q, takes one off p's count.  All states but the identity have a
    placement, so one never released lies on or above a cycle (there are
    none) and raises :class:`CycleError`.  n is refused before any round.

    >>> [r.tolist() for r in release_rounds(3, shortest=True)]
    [[0], [1, 2, 3, 4], [5]]
    """
    return _rounds(n, perm_matrix(n), shortest)


def _rounds(n: int, rows: np.ndarray, shortest: bool) -> Iterator[np.ndarray]:
    remaining = np.zeros(len(rows), dtype=np.int8)
    if shortest:
        remaining[1:] = 1  # all but the identity, rank 0
    else:
        for i in range(n):
            remaining += rows[:, i] != i + 1
    while len(frontier := np.flatnonzero(remaining <= 0)):
        yield frontier
        remaining[frontier] = 127  # released: above n after the <= n hits still to come
        for start in range(0, len(frontier), _SLICE):
            # an int8 step keeps ufunc.at on its no-cast fast path, ~30x a Python 1
            np.subtract.at(
                remaining, displacement_ranks(rows[frontier[start : start + _SLICE]]), np.int8(1)
            )
    stuck = np.flatnonzero(remaining <= n)  # unreleased counts lie in 1..n
    if len(stuck):
        raise CycleError(
            f"placement digraph cycle at n={n}: {len(stuck)} states never released, "
            f"the first at rank {stuck[0]}"
        )


def code_signs(positions: np.ndarray) -> np.ndarray:
    """The code of every row of a matrix of positions, where column v-1
    holds the position of value v: one int8 per interior value 2..n-1,
    1 for '+' (right of home), -1 for '-' (left of it), 0 for '0'.

    >>> code_signs(np.array([[4, 2, 1, 3]])).tolist()  # positions of 3,2,4,1
    [[0, -1]]
    """
    n = positions.shape[1]
    interior = positions[:, 1 : n - 1]
    home = np.arange(2, n, dtype=positions.dtype)
    return (interior > home).view(np.int8) - (interior < home).view(np.int8)


def code_weights(signs: np.ndarray) -> np.ndarray:
    """The weight of every row of a matrix of codes (-1, 0, 1 for '-', '0',
    '+'): :func:`homing.codes.weight`, ties to the '-', in closed form.

    In a code of length k, let Z(j) count the non-'+' symbols before index j
    and Y(i) the non-'-' symbols after index i.  Then

        w = sum over '-' at i of 2^(i - #{'+' at j < i : Z(j) < Y(i)})
          + sum over '+' at j of 2^(k-1-j - #{'-' at i > j : Y(i) <= Z(j)}).

    Why: the recursion strips the rightmost '-' or the leftmost '+', so a
    '-' at i loses reach only to the '+'s at j < i stripped before it, and
    a '+' at j only to the '-'s at i > j.  With x '-'s and y '+'s gone, the
    leftmost '+' at l and the rightmost '-' at r > l reach k-1-l-x and r-y;
    as r + x = k-1-Y(r) and l - y = Z(l), the '-' goes first iff
    Y(r) <= Z(l).  When the first of a '+' at j and a '-' at i > j goes,
    l <= j < i <= r with one of them a candidate, and Z rises and Y falls
    with the index, so the '+' went first iff Z(j) < Y(i).

    One comparison per offset d = 1..k-1 decides the pairs (j, j + d) of
    every code at once.  A weight is below 2^k, so it fits int64 up to
    k = 63 and is a Python int beyond.

    >>> code_weights(np.array([[1, 0, 1], [1, -1, 0], [-1, 1, 0], [1, -1, -1]], np.int8)).tolist()
    [5, 5, 3, 7]
    """
    m, k = signs.shape
    by_index = np.ascontiguousarray(signs.T)  # row c: symbol c of every code
    not_plus, not_minus = by_index <= 0, by_index >= 0
    small = np.min_scalar_type(k)
    before = np.zeros((k, m), small)  # Z
    after = np.zeros((k, m), small)  # Y
    for c in range(1, k):  # a running sum: np.cumsum down the rows is ~15x slower
        np.add(before[c - 1], not_plus[c - 1], out=before[c])
        np.add(after[k - c], not_minus[k - c], out=after[k - c - 1])
    # a '+' at j reaches k-1-j less every '-' after it, Y(j), plus one per
    # '-' it is stripped before; a '-' at i reaches i less the '+'s stripped first
    reach = np.where(not_plus, np.arange(k, dtype=small)[:, None], after)
    np.copyto(before, k, where=not_plus)  # so Z < Y holds only for a '+' before a '-'
    np.copyto(after, 0, where=not_minus)
    plus_first = np.empty((k, m), bool)
    step = plus_first.view(np.uint8)
    for d in range(1, k):
        np.less(before[:-d], after[d:], out=plus_first[d:])
        reach[d:] -= step[d:]
        reach[:-d] += step[d:]
    dtype = np.int64 if k <= 63 else object
    total = np.zeros(m, dtype)
    live = by_index != 0
    for c in range(k):
        total += np.left_shift(live[c], reach[c], dtype=dtype)
    return total
