"""Exhaustive analysis of slow homing: heights and the worst-case set.

The height of a permutation is the length of the longest placement
sequence from it to the identity -- the longest path to the sink of the
placement digraph, which is acyclic.  The maximum over all of S_n is
2^(n-1) - 1, and the states achieving it are the pessimal starting points.

Heights for all of S_n are the rounds of Kahn's topological sort in
:func:`homing.successors.release_rounds`.  Tables are int32 arrays over
immutable bytes, freely shareable between threads, and can be written to
disk in a small binary format (8-byte header ``HOMH`` + version + n, then
little-endian int32 heights in rank order).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from math import factorial

import numpy as np

from .atomic import write_atomic
from .errors import CycleError, InputError, ParseError
from .perms import Perm, as_perm, placement_successors, rank
from .successors import DEFAULT_CAP, check_cap, check_search, release_rounds, unrank_rows

_MAGIC = b"HOMH"
_VERSION = 1


@dataclass(frozen=True, eq=False)
class HeightTable:
    """Heights of every permutation of 1..n, indexed by factorial rank.

    The table marks its array read-only, so it can be shared freely.  Two
    tables are equal when their n and every height agree, and the hash
    reads n alone, so it copies nothing."""

    n: int
    heights: np.ndarray  # int32, length n!, read-only

    def __post_init__(self) -> None:
        if len(self.heights) != factorial(self.n):
            raise InputError(
                f"a table for n = {self.n} holds {factorial(self.n):,} heights, got {len(self.heights):,}"
            )
        self.heights.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeightTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.heights, other.heights)

    def __hash__(self) -> int:
        return hash(self.n)

    def height_of(self, p: Perm) -> int:
        if len(p) != self.n:
            raise InputError(f"the table is for n = {self.n}, got a permutation of length {len(p)}")
        return int(self.heights[rank(as_perm(p))])

    def max(self) -> int:
        return int(self.heights.max())

    def histogram(self) -> list[int]:
        """Count of permutations at each height 0..max."""
        return np.bincount(self.heights).tolist()

    def members_at(self, h: int) -> list[Perm]:
        """All permutations of the given height, in lexicographic order."""
        return list(map(tuple, unrank_rows(self.n, np.flatnonzero(self.heights == h)).tolist()))


def build_height_table(n: int, cap: int = DEFAULT_CAP) -> HeightTable:
    """Heights for all of S_n by Kahn's topological sort in rounds."""
    check_cap(n, cap)
    rounds = release_rounds(n)
    heights = np.empty(factorial(n), dtype=np.int32)
    for h, frontier in enumerate(rounds):
        heights[frontier] = h
    return HeightTable(n, np.frombuffer(heights.tobytes(), np.int32))


def height(p: Perm) -> int:
    """Height of a single permutation, exploring only its reachable states.

    A depth-first search: a pending entry ``(state, None)`` enters its state
    and pushes its successors, and the entry ``(state, successors)`` left
    beneath them finishes it.  ``memo[state]`` is None while the state is
    entered but unfinished, and its height once done, so popping a pending
    entry for a state marked None is a cycle.  The search holds the states
    of ``memo``, and refuses once they exceed
    :data:`homing.successors.SEARCH_LIMIT` over n (3,024,000 at n = 12),
    which no state of n <= 10 can reach."""
    p = as_perm(p)
    n = len(p)
    memo: dict[Perm, int | None] = {}
    stack: list[tuple[Perm, set[Perm] | None]] = [(p, None)]
    while stack:
        state, succs = stack.pop()
        if succs is not None:
            memo[state] = 1 + max(memo[q] for q in succs) if succs else 0
        elif state not in memo:
            memo[state] = None
            check_search(n, len(memo))
            succs = placement_successors(state)
            stack.append((state, succs))
            stack.extend((q, None) for q in succs if memo.get(q) is None)
        elif memo[state] is None:
            raise CycleError(f"placement digraph cycle through {state}")
    return memo[p]


def worst_case_permutations(n: int) -> list[Perm]:
    """All permutations at the maximum height 2^(n-1) - 1, in lex order, as
    tuples: the oracle the tests compare the ``enum-mn`` listing with."""
    return build_height_table(n).members_at((1 << (n - 1)) - 1)


def stage1_longest(n: int) -> int:
    """Longest eviction run from the identity that leaves value 1 untouched.

    Untouched means 1 is never evicted and never shifted: moves neither
    displace value 1 nor insert at position 1.  With 1 pinned, the rest is
    an eviction process on n-1 values, so the answer is 2^(n-2) - 1; any
    longer run must have moved both end values.

    Read off the height table: ranks below (n-1)! are the states with 1 in
    front, which no placement leaves, so their heights are these runs.
    """
    return int(build_height_table(n).heights[: factorial(n - 1)].max())


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_height_table(table: HeightTable, path) -> None:
    """Write the binary table format: HOMH, version, n, 2 reserved bytes,
    then n! little-endian int32 heights in rank order.

    The write is atomic: an interrupted save leaves any earlier file whole."""
    header = _MAGIC + bytes((_VERSION, table.n, 0, 0))
    write_atomic(path, (header, table.heights.astype("<i4").tobytes()))


def load_height_table(path) -> HeightTable:
    """Read a table written by :func:`save_height_table`.

    The header is checked, and the file's size compared with the size the
    header implies, before the body is read."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8 or header[:4] != _MAGIC:
            raise ParseError(f"{path}: not a height table (bad magic)")
        version, n = header[4], header[5]
        if version != _VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        if n < 1:
            raise ParseError(f"{path}: n must be >= 1, got {n}")
        expected = 8 + 4 * factorial(n)
        size = os.fstat(fh.fileno()).st_size
        if size == expected:
            body = fh.read(expected - 8)
            size = 8 + len(body)  # short if the file shrank meanwhile
    if size != expected:
        raise ParseError(f"{path}: a table for n = {n} is {expected:,} bytes, found {size:,}")
    return HeightTable(n, np.frombuffer(body, dtype="<i4"))
