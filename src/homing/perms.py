"""Permutations in one-line notation, with placement and displacement moves.

A permutation of {1, ..., n} is a tuple of the values 1..n, where the entry
at index i (0-based) is the value sitting at position i+1.  Positions and
values are 1-based throughout, matching the usual description of the
sorting process: think of n numbered balls in a trough.

``place`` moves a value that is out of place into its home position; the
balls it passes over shift by one to make room.  ``displace`` is the exact
inverse: it evicts a value that currently sits at home.  Both are pure
functions on tuples, so everything here is safe to share across threads.
``place_at`` is the one placement routine: it places the value at a given
position of a mutable row (a list, a ``bytearray`` or an ``array.array``).
``place`` runs it on a copy, from the position of the value it names, and
``placement_successors`` on a copy per out-of-place position, with no check.
``as_perm`` is the one validity check, which every search or run toward the
identity makes on the state it is given.
"""
from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from math import factorial
from typing import Iterable, Iterator, MutableSequence, NamedTuple, SupportsIndex

from .errors import InputError, InvalidMoveError, ParseError

Perm = tuple[int, ...]


class DisplacementMove(NamedTuple):
    """Evict ``value`` (currently home) and reinsert it at ``target``."""

    value: int
    target: int


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def as_perm(values: Iterable[SupportsIndex]) -> Perm:
    """Validate ``values`` and freeze them into a tuple of Python ints.

    Any integer :func:`operator.index` accepts will do, numpy's included.
    A :class:`ParseError` names the first entry that is not an integer,
    lies outside 1..n or repeats, and no values at all are refused with
    :class:`InputError`: n must be >= 1.

    >>> as_perm([2, 1, 3])
    (2, 1, 3)
    """
    values = tuple(values)
    n = len(values)
    _check_n(n)
    seen: dict[int, None] = {}  # the entries so far, in order
    for v in values:
        try:
            v = operator.index(v)
        except TypeError:
            raise ParseError(f"not a permutation of 1..{n}: entry {v!r} is not an integer") from None
        if not 1 <= v <= n:
            raise ParseError(f"not a permutation of 1..{n}: entry {v} out of range")
        if v in seen:
            raise ParseError(f"not a permutation of 1..{n}: entry {v} repeated")
        seen[v] = None
    return tuple(seen)


def identity(n: int) -> Perm:
    """The sorted arrangement 1, 2, ..., n."""
    _check_n(n)
    return tuple(range(1, n + 1))


def reverse(n: int) -> Perm:
    """The reversed arrangement n, n-1, ..., 1.

    >>> reverse(3)
    (3, 2, 1)
    """
    _check_n(n)
    return tuple(range(n, 0, -1))


def rotation(n: int) -> Perm:
    """The one-step cyclic shift 2, 3, ..., n, 1.

    Homing it with the leftmost-not-home rule walks the tower-of-Hanoi
    pattern and takes the maximum possible 2^(n-1) - 1 steps.

    >>> rotation(4)
    (2, 3, 4, 1)
    """
    _check_n(n)
    return tuple(range(2, n + 1)) + (1,)


def swap_ends(n: int) -> Perm:
    """The identity with its two end values exchanged: n, 2, 3, ..., n-1, 1.

    This is the single gateway state of every worst-case eviction run, so
    it anchors the firing machinery in :mod:`homing.firings`.

    >>> swap_ends(5)
    (5, 2, 3, 4, 1)
    """
    if n < 2:
        raise InputError(f"swap_ends needs n >= 2, got {n}")
    return (n,) + tuple(range(2, n)) + (1,)


def _check_n(n: int) -> None:
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")


def all_perms(n: int) -> Iterator[Perm]:
    """All n! permutations of 1..n in lexicographic order."""
    _check_n(n)
    return itertools.permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# the two moves
# ---------------------------------------------------------------------------

def placeable_values(p: Perm) -> list[int]:
    """Values that are out of place, listed in positional order."""
    return [v for pos, v in enumerate(p, 1) if v != pos]


def place_at(row: MutableSequence[int], q: int) -> int:
    """Move the value at 0-based position ``q`` of ``row`` to its home
    position in ``row`` itself, shifting what it passes over, and return
    that value.

    >>> row = bytearray((4, 1, 3, 5, 2))
    >>> place_at(row, 1)
    1
    >>> list(row)
    [1, 4, 3, 5, 2]
    """
    value = row[q]
    if value == q + 1:
        raise InvalidMoveError(f"cannot place {value}: already home")
    del row[q]
    row.insert(value - 1, value)
    return value


def _move_index(what: str, x: SupportsIndex) -> int:
    """``x`` as an int, by :func:`operator.index` as in :func:`as_perm`, or
    an :class:`InvalidMoveError` that reads ``what`` and names ``x``."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidMoveError(f"{what} {x!r}: not an integer") from None


def place(p: Perm, value: int) -> Perm:
    """Move ``value`` to its home position, shifting what it passes over.

    >>> place((1, 4, 2, 3), 4)
    (1, 2, 3, 4)
    >>> place((4, 1, 3, 5, 2), 1)
    (1, 4, 3, 5, 2)
    """
    value = _move_index("cannot place", value)
    if not 1 <= value <= len(p):
        raise InvalidMoveError(f"cannot place {value}: not a value of 1..{len(p)}")
    return _placed(p, p.index(value))


def _placed(p: Perm, q: int) -> Perm:
    """``p`` with the value at 0-based position ``q`` placed, by
    :func:`place_at` on a copy."""
    row = list(p)
    place_at(row, q)
    return tuple(row)


def displace(p: Perm, value: int, target: int) -> Perm:
    """Evict the home value ``value`` to the 1-based ``target`` position.

    Inverse of :func:`place`: placing ``value`` afterwards restores ``p``.

    >>> displace((1, 2, 3), 3, 1)
    (3, 1, 2)
    >>> displace((1, 2, 3), 1, 3)
    (2, 3, 1)
    """
    value = _move_index("cannot displace", value)
    target = _move_index("target position", target)
    home = value - 1
    if not 0 <= home < len(p) or p[home] != value:
        raise InvalidMoveError(f"cannot displace {value}: not home")
    if not 1 <= target <= len(p):
        raise InvalidMoveError(f"target position {target} out of range 1..{len(p)}")
    if target == value:
        raise InvalidMoveError(f"cannot displace {value} onto its own position")
    items = list(p)
    del items[home]
    items.insert(target - 1, value)
    return tuple(items)


def placement_successors(p: Perm) -> set[Perm]:
    """All states reachable by a single placement (deduplicated).

    >>> placement_successors((2, 1))
    {(1, 2)}
    """
    # every value and position comes from p itself: nothing to validate
    return {_placed(p, q) for q, v in enumerate(p) if v != q + 1}


def displacement_successors(p: Perm) -> list[tuple[DisplacementMove, Perm]]:
    """Every legal eviction paired with its resulting state.

    The identity on n values admits exactly n(n-1) evictions.
    """
    return [
        (DisplacementMove(v, target), displace(p, v, target))
        for home, v in enumerate(p, 1) if v == home
        for target in range(1, len(p) + 1) if target != v
    ]


# ---------------------------------------------------------------------------
# derived measures
# ---------------------------------------------------------------------------

def lis_length(p: Perm) -> int:
    """Length of the longest increasing subsequence (patience method).

    >>> lis_length((4, 1, 3, 5, 2))
    3
    """
    tails: list[int] = []
    for v in p:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def stage(p: Perm) -> int:
    """How many extremal values are already settled at the two ends.

    Counts the longest home prefix 1..a plus the longest home suffix; the
    identity counts as stage n by convention.

    >>> stage((1, 2, 3, 7, 4, 6, 5, 8, 9))
    5
    """
    n = len(p)
    a = 0
    while a < n and p[a] == a + 1:
        a += 1
    if a == n:
        return n
    b = 0
    while b < n and p[n - 1 - b] == n - b:
        b += 1
    return a + b


def reverse_complement(p: Perm) -> Perm:
    """Conjugate by end-for-end reflection: value v at position q becomes
    n+1-v at position n+1-q.  An involution that swaps left and right in
    every statement about homing."""
    n = len(p)
    return tuple(n + 1 - v for v in reversed(p))


# ---------------------------------------------------------------------------
# dense ranking (factorial number system)
# ---------------------------------------------------------------------------

def rank(p: Perm) -> int:
    """Lexicographic index of ``p`` among all permutations of its length.

    ``p`` is trusted to be a permutation: anything else gets a number, not
    an error.  Validate outside input with :func:`as_perm` first, as the
    one library caller, :meth:`homing.heights.HeightTable.height_of`, does.

    >>> rank((1, 2, 3)), rank((3, 2, 1))
    (0, 5)
    """
    r = 0
    n = len(p)
    for i in range(n - 1):
        pi = p[i]
        smaller = 0
        for j in range(i + 1, n):
            if p[j] < pi:
                smaller += 1
        r = r * (n - i) + smaller
    return r


def unrank(n: int, r: int) -> Perm:
    """Inverse of :func:`rank`, one state at a time: the oracle for
    :func:`homing.successors.unrank_rows`, which decodes many ranks at once.

    >>> unrank(3, 5)
    (3, 2, 1)
    """
    if not 0 <= r < factorial(n):
        raise InputError(f"rank {r} is outside 0..{factorial(n) - 1}, the ranks of S_{n}")
    digits = []
    for radix in range(1, n + 1):
        digits.append(r % radix)
        r //= radix
    digits.reverse()
    pool = list(range(1, n + 1))
    return tuple(pool.pop(d) for d in digits)


# ---------------------------------------------------------------------------
# text form: comma-separated decimal values, e.g. "4,1,3,5,2"
# ---------------------------------------------------------------------------

def parse_perm(text: str) -> Perm:
    """Parse the comma-separated text form, rejecting non-bijections.

    >>> parse_perm("4,1,3,5,2")
    (4, 1, 3, 5, 2)
    """
    values = []
    for token in text.split(","):
        try:
            values.append(int(token))
        except ValueError:
            raise ParseError(f"invalid permutation entry {token.strip()!r}") from None
    return as_perm(values)


def format_perm(p: Perm) -> str:
    """Inverse of :func:`parse_perm`."""
    return ",".join(str(v) for v in p)
