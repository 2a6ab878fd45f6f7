"""Homing strategies, shortest sorts, and random homing.

A strategy picks which out-of-place value to place next.  The extremal
strategies (smallest-first, largest-first, and the alternating variant)
finish in at most n-1 steps because an extremal value, once home, is never
dislodged.  The leftmost-not-home rule on the rotation 2,3,...,n,1 walks
the tower-of-Hanoi pattern and realizes the global maximum 2^(n-1)-1.

Shortest sorts are found by breadth-first search over the placement
digraph, with states packed into a dense index space by the factorial
ranking from :mod:`homing.perms`.  The table for all of S_n is one BFS
from the identity along evictions, run in rounds over
:mod:`homing.successors`: each round ranks every eviction out of the
frontier at once and keeps the states not reached before.

All functions are pure given their arguments; the random strategy takes an
explicit 64-bit seed and uses the Mersenne Twister (``random.Random``) with
uniform choice among the out-of-place values, so traces are reproducible
across platforms.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .codes import code_of, weight
from .perms import Perm, identity, place, placeable_values, rank
from .successors import check_cap, displacement_ranks, perm_matrix

SMALLEST_FIRST = "smallest-first"
LARGEST_FIRST = "largest-first"
ALTERNATING_EXTREMAL = "alternating-extremal"
LEFTMOST_NOT_HOME = "leftmost-not-home"
RANDOM = "random"

STRATEGIES = (
    SMALLEST_FIRST,
    LARGEST_FIRST,
    ALTERNATING_EXTREMAL,
    LEFTMOST_NOT_HOME,
    RANDOM,
)

DEFAULT_SEARCH_CAP = 9


class TraceStep(NamedTuple):
    step: int
    value: int
    source: int  # position the value left
    target: int  # position it was placed into (== value)
    result: Perm
    code: str
    weight: int


@dataclass(frozen=True)
class Trace:
    """A placement run: the initial state and the values placed, in order.

    Intermediate states are replayed on demand rather than stored, so a
    half-million-step tower-of-Hanoi run stays cheap to hold.
    """

    initial: Perm
    moves: tuple[int, ...]
    final: Perm

    def __len__(self) -> int:
        return len(self.moves)

    def states(self) -> Iterator[Perm]:
        """The state after each move (``len(self)`` states, ending at final)."""
        p = self.initial
        for v in self.moves:
            p = place(p, v)
            yield p

    def steps(self) -> Iterator[TraceStep]:
        """Full per-step records, with codes and weights computed lazily."""
        p = self.initial
        for i, v in enumerate(self.moves, 1):
            source = p.index(v) + 1
            p = place(p, v)
            c = code_of(p)
            yield TraceStep(i, v, source, v, p, c, weight(c))

    def lines(self) -> Iterator[str]:
        """The tab-separated text form, one line per step."""
        for s in self.steps():
            yield "\t".join(
                (
                    str(s.step),
                    str(s.value),
                    str(s.source),
                    str(s.target),
                    ",".join(map(str, s.result)),
                    s.code,
                    str(s.weight),
                )
            )


# ---------------------------------------------------------------------------
# choosers
# ---------------------------------------------------------------------------

def _choose_smallest(p: Perm) -> int:
    return min(placeable_values(p))


def _choose_largest(p: Perm) -> int:
    return max(placeable_values(p))


def _remainder_is_reverse(p: Perm) -> bool:
    """True if the out-of-place values read in decreasing positional order."""
    rem = placeable_values(p)
    return len(rem) >= 2 and all(a > b for a, b in zip(rem, rem[1:]))


def _choose_alternating(p: Perm) -> int:
    # Place 1 or n (the extremal candidates), preferring whichever leaves a
    # non-reverse remainder; ties go to the smaller value.
    vals = placeable_values(p)
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return lo
    if _remainder_is_reverse(place(p, lo)) and not _remainder_is_reverse(place(p, hi)):
        return hi
    return lo


def _choose_leftmost(p: Perm) -> int:
    for pos, v in enumerate(p, 1):
        if v != pos:
            return v
    raise AssertionError("no out-of-place value in a non-identity state")


_CHOOSERS: dict[str, Callable[[Perm], int]] = {
    SMALLEST_FIRST: _choose_smallest,
    LARGEST_FIRST: _choose_largest,
    ALTERNATING_EXTREMAL: _choose_alternating,
    LEFTMOST_NOT_HOME: _choose_leftmost,
}


def run_strategy(p: Perm, strategy: str, seed: int | None = None) -> Trace:
    """Home ``p`` with the named strategy and return the full trace.

    The random strategy demands an explicit ``seed``.  Every strategy
    terminates; the step count can never exceed 2^(n-1) - 1.
    """
    initial = p
    n = len(p)
    if strategy == RANDOM:
        if seed is None:
            raise ValueError("the random strategy requires an explicit seed")
        rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)

        def choose(state: Perm) -> int:
            candidates = placeable_values(state)
            return candidates[rng.randrange(len(candidates))]

    else:
        try:
            choose = _CHOOSERS[strategy]
        except KeyError:
            raise ValueError(f"unknown strategy {strategy!r}") from None

    limit = (1 << (n - 1)) - 1 if n >= 1 else 0
    target = identity(n)
    moves = []
    while p != target:
        v = choose(p)
        p = place(p, v)
        moves.append(v)
        if len(moves) > limit:
            raise AssertionError("homing exceeded its proven step bound")
    return Trace(initial, tuple(moves), p)


# ---------------------------------------------------------------------------
# shortest sorts
# ---------------------------------------------------------------------------

def min_placements(p: Perm, cap: int = DEFAULT_SEARCH_CAP) -> int:
    """Fewest placements that sort ``p``, by BFS over the placement digraph.

    Always lies between n - lis_length(p) and n - 1.
    """
    n = len(p)
    check_cap(n, cap)
    target = identity(n)
    if p == target:
        return 0
    visited = bytearray(factorial(n))
    visited[rank(p)] = 1
    frontier = [p]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for v in placeable_values(state):
                q = place(state, v)
                if q == target:
                    return depth
                r = rank(q)
                if not visited[r]:
                    visited[r] = 1
                    nxt.append(q)
        frontier = nxt
    raise AssertionError("identity unreachable; placement digraph broken")


def min_placements_table(n: int, cap: int = DEFAULT_SEARCH_CAP) -> bytearray:
    """``min_placements`` for every permutation at once, indexed by rank.

    One BFS from the identity along displacements covers all states,
    because a displacement is exactly a placement run backwards.
    """
    check_cap(n, cap)
    perms = perm_matrix(n)
    dist = np.full(len(perms), 255, dtype=np.uint8)
    dist[0] = 0  # the identity has rank 0
    frontier = np.flatnonzero(dist == 0)
    depth = 0
    while len(frontier):
        depth += 1
        reached = displacement_ranks(perms[frontier])
        dist[reached[dist[reached] == 255]] = depth
        frontier = np.flatnonzero(dist == depth)
    table = bytearray(dist)
    assert 255 not in table
    return table


def unique_worst_case_check(n: int, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """True iff the reversal is the only permutation needing n-1 placements."""
    dist = min_placements_table(n, cap)
    worst = [r for r, d in enumerate(dist) if d == n - 1]
    return worst == [factorial(n) - 1]  # the reversal ranks last


def smallest_first_steps(p: Perm) -> int:
    """Closed-form pass length of the hand-sort: the smallest j such that the
    values j+1, ..., n already appear in increasing order.

    This counts every value 1..j the hand-sorter examines, including those
    found already in place, so it equals the largest value the
    smallest-first strategy ever places and upper-bounds the strategy's
    actual placement count (with equality when no examined value was
    already home).

    >>> smallest_first_steps((1, 3, 2))
    2
    """
    n = len(p)
    pos = [0] * (n + 2)
    for q, v in enumerate(p, 1):
        pos[v] = q
    v = n
    while v >= 2 and pos[v - 1] < pos[v]:
        v -= 1
    return v - 1


# ---------------------------------------------------------------------------
# random homing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomHomingEstimate:
    """Monte Carlo estimate of the mean number of random-homing steps."""

    n: int
    trials: int
    seed: int
    mean: Fraction
    bound: Fraction  # proven ceiling (n(n+1) - 2) / 4
    max_steps: int

    @property
    def margin(self) -> Fraction:
        return self.bound - self.mean


def random_homing_bound(n: int) -> Fraction:
    """The proven ceiling on the expected number of random-homing steps."""
    return Fraction(n * (n + 1) - 2, 4)


def _trial_seed(seed: int, index: int) -> int:
    # stable per-trial derivation, so trials are order- and schedule-independent
    data = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little") + index.to_bytes(8, "little")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def random_homing_mean(n: int, trials: int, seed: int) -> RandomHomingEstimate:
    """Mean random-homing step count over uniform start states (seeded)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    worst = 0
    base = list(range(1, n + 1))
    target = identity(n)
    for i in range(trials):
        rng = random.Random(_trial_seed(seed, i))
        start = base[:]
        rng.shuffle(start)
        p = tuple(start)
        steps = 0
        while p != target:
            candidates = placeable_values(p)
            p = place(p, candidates[rng.randrange(len(candidates))])
            steps += 1
        total += steps
        if steps > worst:
            worst = steps
    return RandomHomingEstimate(
        n=n,
        trials=trials,
        seed=seed,
        mean=Fraction(total, trials),
        bound=random_homing_bound(n),
        max_steps=worst,
    )
