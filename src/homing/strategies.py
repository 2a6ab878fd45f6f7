"""Homing strategies and their step tables, shortest sorts, and random homing.

A strategy picks which out-of-place value to place next: each is a
stepper, a generator over the live row that yields the position of the next
value to place and stops once the row is the identity.  The extremal
strategies (smallest-first, largest-first, and the alternating variant)
are one walk that settles the row's two ends, the home prefix 1..h and the
home suffix t+2..n, whose lengths sum to the stage; each differs only in
how it chooses between h+1 and t+1.  They finish in at most n-1 steps
because an extremal value, once home, is never dislodged.  The
leftmost-not-home rule on the rotation 2,3,...,n,1 walks the
tower-of-Hanoi pattern and realizes the global maximum 2^(n-1)-1.

A deterministic strategy also has a step table over all of S_n
(:func:`step_table`): the rank each state moves to, built by one
:func:`homing.successors.place_rows` step over every state at once from
the ends that :func:`homing.successors.away_columns` reads, with step
counts by pointer doubling (:func:`step_counts`).  The exhaustive
strategy checks of :mod:`homing.verify` read these tables, and
:func:`run_strategy` is the oracle the tests compare them with.

Shortest sorts are breadth-first searches over the placement digraph: the
search from one state keeps the set of states it has reached, and the table
for all of S_n takes the rounds of :func:`homing.successors.release_rounds`.

A run places from each position its stepper yields, with
:func:`homing.perms.place_at` on one packed row, and appends the row to a
packed buffer that the trace keeps: n bytes per step, or 2n for
256 <= n < 65,536.  Leftmost-not-home keeps a pointer that never moves
left, so its search for the next position costs O(n) over the whole run,
not per step; the extremal walk keeps one such pointer at each end.
The run's codes, weights and text are computed per block of up to
``_BLOCK`` steps of that buffer, read as a matrix: one scatter gives the
positions, the weight kernel of :mod:`homing.successors` the codes and
weights (:func:`code_signs`, :func:`code_weights`), and tables of
NUL-padded value cells the text; the same cell tables render the
``enum-mn`` listing of :mod:`homing.cli`.  A trace has two readers:
:meth:`Trace.steps`, one record per step, and :meth:`Trace.text`, ASCII
bytes per block, which the CLI writes as they come, with no round trip
through ``str``.
:func:`homing.codes.code_of` and :func:`homing.codes.weight` stay the
definition, and the tests compare the blocks with them.

All functions are pure given their arguments; the random strategy takes an
explicit 64-bit seed and uses the Mersenne Twister (``random.Random``) with
uniform choice among the out-of-place values, so traces are reproducible
across platforms.
"""
from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import factorial
from typing import Callable, Iterator, MutableSequence, NamedTuple

import numpy as np

from .errors import InputError
from .perms import Perm, _check_n, as_perm, identity, place_at, placeable_values, placement_successors
from .successors import (
    DEFAULT_CAP,
    away_columns,
    check_cap,
    check_search,
    code_signs,
    code_weights,
    place_rows,
    release_rounds,
    step_ranks,
)

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

_BLOCK = 1 << 13  # trace steps per block of codes, weights and text


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
    """A placement run: the initial state, the values placed in order, and
    the final state.

    Every state is kept, packed one row per state from the initial one on,
    so the half-million-step tower-of-Hanoi run at n = 20 holds 10.5 MB of
    rows.  The rows are private: they follow from the public fields, and
    equality and ``repr`` ignore them.  Codes, weights and text are computed
    per block of up to ``_BLOCK`` steps.
    """

    initial: Perm
    moves: tuple[int, ...]
    final: Perm
    _rows: bytes = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.moves)

    def steps(self) -> Iterator[TraceStep]:
        """Full per-step records, with codes and weights computed per block."""
        for b in self._blocks():
            k = b.code.shape[1]
            codes = b.code.tobytes().decode()
            states = map(tuple, b.matrix.tolist())
            rows = zip(b.values.tolist(), b.sources.tolist(), states, b.weights.tolist())
            for r, (v, source, state, w) in enumerate(rows):
                yield TraceStep(b.start + r, v, source, v, state, codes[r * k : (r + 1) * k], w)

    def text(self) -> Iterator[bytes]:
        """The tab-separated text form, one line per step: index, value,
        source, target, state, code, weight.  ASCII bytes, one chunk per
        block of up to ``_BLOCK`` steps, each line ending in a newline."""
        n = len(self.initial)
        comma, tab = _cells(n, b","), _cells(n, b"\t")
        for b in self._blocks():
            m = len(b.matrix)
            state = comma[b.matrix]
            state[:, -1] = tab[b.matrix[:, -1]]
            separator = np.full((m, 1), ord("\t"), np.uint8)
            cells = np.concatenate(
                (
                    _digits(np.arange(b.start, b.start + m)),
                    separator,
                    tab[np.column_stack((b.values, b.sources, b.values))].view(np.uint8),
                    state.view(np.uint8),
                    b.code,
                    separator,
                    _digits(b.weights),
                    np.full((m, 1), ord("\n"), np.uint8),
                ),
                axis=1,
            )
            yield cells.tobytes().translate(None, b"\0")

    def _blocks(self) -> Iterator[_Block]:
        n = len(self.initial)
        all_rows = np.frombuffer(self._rows, _row_type(n)).reshape(-1, n)
        dtype = all_rows.dtype
        for start in range(0, len(self.moves), _BLOCK):
            # row 0 is the state before the block, rows 1..m the states after each move
            rows = all_rows[start : start + _BLOCK + 1]
            m = len(rows) - 1
            pos = np.empty(rows.size, dtype)
            pos[np.arange(0, rows.size, n)[:, None] - 1 + rows] = np.arange(1, n + 1, dtype=dtype)
            pos = pos.reshape(-1, n)
            values = np.array(self.moves[start : start + m], dtype)
            sources = pos[np.arange(m), values - 1]
            signs = code_signs(pos[1:])
            code = (48 - signs - 4 * signs * signs).view(np.uint8)  # ASCII '-', '0', '+'
            yield _Block(start + 1, values, sources, rows[1:], code, code_weights(signs))


class _Block(NamedTuple):
    start: int  # step number of the first row
    values: np.ndarray  # value placed at each step
    sources: np.ndarray  # position it left
    matrix: np.ndarray  # the state after each step, one row each
    code: np.ndarray  # each state's code, one ASCII symbol per column
    weights: np.ndarray  # each code's weight


def _row_type(n: int) -> str:
    """The ``array`` type code of a packed row of n values."""
    return "B" if n < 256 else "H" if n < 65536 else "I"


def _cells(n: int, separator: bytes) -> np.ndarray:
    """The text cell of every value 0..n followed by ``separator``, indexed
    by value: its digits right-aligned, NUL-padded to a power-of-two width
    so that one gather copies a whole cell.  An array of void cells; a
    gather by a matrix of values, viewed as uint8, is its rows' text once
    ``translate(None, b"\\0")`` drops the padding."""
    digits = _digits(np.arange(n + 1))
    d = digits.shape[1]
    table = np.zeros((n + 1, 1 << (d + len(separator) - 1).bit_length()), np.uint8)
    table[:, :d] = digits
    table[:, d : d + len(separator)] = np.frombuffer(separator, np.uint8)
    return table.view(f"V{table.shape[1]}")[:, 0]


def _digits(values: np.ndarray) -> np.ndarray:
    """The decimal text of non-negative integers: a uint8 array with one
    more axis, the ASCII digits right-aligned along it and NUL-padded."""
    width = len(str(values.max(initial=0)))
    out = np.zeros(values.shape + (width,), np.uint8)
    out[..., -1] = values % 10 + ord("0")
    rest = values // 10
    for d in range(width - 2, -1, -1):
        out[..., d] = (rest % 10 + ord("0")) * (rest > 0)
        rest = rest // 10
    return out


# ---------------------------------------------------------------------------
# steppers: each walks the live row, yields the 0-based position of the next
# value to place, and stops once the row is the identity
# ---------------------------------------------------------------------------

def _extremal(choose: Callable[..., int], row: MutableSequence[int]) -> Iterator[int]:
    """The extremal steppers' one walk: it moves h past the home prefix and
    t past the home suffix, so that positions left of h hold 1..h and
    positions right of t hold t+2..n, and yields ``choose(row, h, t)``, the
    position to place from.  h+1 is then the smallest value away and t+1
    the largest.  h never moves left and t never moves right: a placement
    shifts only the entries between its source and its home, and both lie
    in h..t."""
    h, t = 0, len(row) - 1
    while True:
        while h <= t and row[h] == h + 1:
            h += 1
        if h > t:
            return
        while row[t] == t + 1:  # stops at h at the latest
            t -= 1
        yield choose(row, h, t)


def _reverse_after(row: MutableSequence[int], q: int) -> bool:
    """True if, once the value at ``q`` is placed, the out-of-place values
    of ``row`` are two or more and read in decreasing positional order."""
    after = row[:]
    place_at(after, q)
    rem = placeable_values(after)
    return len(rem) >= 2 and all(a > b for a, b in zip(rem, rem[1:]))


def _alternating_choice(row: MutableSequence[int], h: int, t: int) -> int:
    # place the smallest or the largest value away, preferring whichever
    # leaves a non-reverse remainder; ties go to the smaller value
    lo, hi = row.index(h + 1, h), row.index(t + 1, h)
    return hi if _reverse_after(row, lo) and not _reverse_after(row, hi) else lo


def _leftmost_not_home(row: MutableSequence[int]) -> Iterator[int]:
    # positions left of q hold 1..q, so the value found at q is larger than
    # q+1 and moves right, leaving them home: q never moves left
    q, n = 0, len(row)
    while True:
        while q < n and row[q] == q + 1:
            q += 1
        if q == n:
            return
        yield q


def _random_steps(rng: random.Random, row: MutableSequence[int]) -> Iterator[int]:
    """The one random rule, of runs and the Monte Carlo: uniform among the
    out-of-place values, drawn by position in positional order."""
    while True:
        away = [q for q, v in enumerate(row, 1) if v != q]  # 1-based
        if not away:
            return
        yield away[rng.randrange(len(away))] - 1


_STEPPERS: dict[str, Callable[[MutableSequence[int]], Iterator[int]]] = {
    SMALLEST_FIRST: partial(_extremal, lambda row, h, t: row.index(h + 1, h)),
    LARGEST_FIRST: partial(_extremal, lambda row, h, t: row.index(t + 1, h)),
    ALTERNATING_EXTREMAL: partial(_extremal, _alternating_choice),
    LEFTMOST_NOT_HOME: _leftmost_not_home,
}


# the steppers' rules over many rows at once, for the step tables: with f
# and l a row's first and last out-of-place columns (away_columns),
# smallest-first places f+1, largest-first l+1 and leftmost-not-home the
# value at f

def _remainder_is_reverse_rows(rows: np.ndarray) -> np.ndarray:
    """Whether the out-of-place values of each row are two or more and read
    in decreasing positional order: the test of :func:`_reverse_after`."""
    m, n = rows.shape
    last = np.full(m, n + 1, rows.dtype)  # the last out-of-place value so far
    falling = np.ones(m, bool)
    count = np.zeros(m, np.int8)
    for home, column in enumerate(rows.T, 1):
        away = column != home
        falling &= ~away | (column < last)
        last = np.where(away, column, last)
        count += away
    return falling & (count >= 2)


def _alternating_rows(rows: np.ndarray) -> np.ndarray:
    # both placements, then the rule of _alternating_choice row by row; a
    # state that is not the identity has two out-of-place values at least
    f, l = away_columns(rows)
    lo, hi = place_rows(rows, f + 1), place_rows(rows, l + 1)
    take_hi = _remainder_is_reverse_rows(lo) & ~_remainder_is_reverse_rows(hi)
    return np.where(take_hi[:, None], hi, lo)


_ROW_STEPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    SMALLEST_FIRST: lambda rows: place_rows(rows, away_columns(rows)[0] + 1),
    LARGEST_FIRST: lambda rows: place_rows(rows, away_columns(rows)[1] + 1),
    ALTERNATING_EXTREMAL: _alternating_rows,
    LEFTMOST_NOT_HOME: lambda rows: place_rows(rows, rows[np.arange(len(rows)), away_columns(rows)[0]]),
}


def run_strategy(p: Perm, strategy: str, seed: int | None = None) -> Trace:
    """Home ``p`` with the named strategy and return the full trace.

    The random strategy demands an explicit ``seed``, and the others, which
    draw nothing, refuse one.  Every strategy terminates; the step count can
    never exceed 2^(n-1) - 1.
    """
    if strategy == RANDOM:
        if seed is None:
            raise InputError("the random strategy requires an explicit seed")
        steps = partial(_random_steps, random.Random(seed & 0xFFFFFFFFFFFFFFFF))
    else:
        try:
            steps = _STEPPERS[strategy]
        except KeyError:
            raise InputError(f"unknown strategy {strategy!r}") from None
        if seed is not None:
            raise InputError(f"the {strategy} strategy draws nothing, so it takes no seed")

    p = as_perm(p)
    n = len(p)
    row = array(_row_type(n), p)
    rows = row[:]
    moves = []
    # the bound goes first, so that zip stops at it without asking for one more step
    for _, q in zip(range((1 << (n - 1)) - 1), steps(row)):
        moves.append(place_at(row, q))
        rows += row
    if row != array(row.typecode, range(1, n + 1)):
        raise AssertionError("homing exceeded its proven step bound")
    # one copy at a time, each source freed once its copy is made: on the
    # n = 20 rotation a list still alive while the bytes are made adds 4 MB
    # to the peak
    moves = tuple(moves)
    rows = bytes(rows)
    return Trace(p, moves, tuple(row), rows)


def step_table(n: int, strategy: str) -> np.ndarray:
    """The step of a deterministic strategy from every state of S_n at
    once: entry r is the rank of the state it moves the state of rank r to
    (int32), and the identity, rank 0, maps to itself.

    Each strategy is one :func:`homing.successors.place_rows` step over all
    of S_n, and alternating-extremal two.  :func:`run_strategy`, one state
    at a time, is the oracle the tests compare it with.  n is refused
    beyond :data:`homing.successors.DEFAULT_CAP` before anything is
    allocated.

    >>> step_table(3, SMALLEST_FIRST).tolist()  # 3,1,2 and 3,2,1 place 1 into 1,3,2
    [0, 0, 0, 0, 1, 1]
    """
    try:
        step = _ROW_STEPS[strategy]
    except KeyError:
        raise InputError(f"the {strategy!r} strategy has no step table") from None
    check_cap(n, DEFAULT_CAP)
    return step_ranks(n, step)


def step_counts(table: np.ndarray, limit: int) -> np.ndarray:
    """Steps from every state to the identity along a :func:`step_table`,
    where a count above ``limit`` reads ``limit + 1``, as does a state that
    never gets home.

    By pointer doubling: after j rounds ``jump`` is 2^j steps on from each
    state and ``steps`` counts those steps that leave a state other than
    the identity, so ``limit.bit_length()`` rounds settle every count up to
    ``limit``.

    >>> step_counts(step_table(3, SMALLEST_FIRST), 2).tolist()
    [0, 1, 1, 1, 2, 2]
    """
    steps = (np.arange(len(table)) != 0).astype(np.int32)
    jump = table
    for _ in range(limit.bit_length()):
        steps += steps[jump]
        jump = jump[jump]
    return np.minimum(steps, limit + 1)


# ---------------------------------------------------------------------------
# shortest sorts
# ---------------------------------------------------------------------------

def min_placements(p: Perm) -> int:
    """Fewest placements that sort ``p``, by BFS over the placement digraph,
    keeping the states it has reached.  It refuses once those exceed
    :data:`homing.successors.SEARCH_LIMIT` over n (3,024,000 at n = 12),
    which no state of n <= 10 can reach.

    Always lies between n - lis_length(p) and n - 1.
    """
    p = as_perm(p)
    n = len(p)
    target = identity(n)
    if p == target:
        return 0
    seen = {p}
    frontier = [p]
    depth = 0
    while True:  # every state but the identity has a placement, and there is no cycle
        depth += 1
        nxt = []
        for state in frontier:
            for q in placement_successors(state):
                if q == target:
                    return depth
                if q not in seen:
                    seen.add(q)
                    check_search(n, len(seen))
                    nxt.append(q)
        frontier = nxt


def min_placements_table(n: int) -> np.ndarray:
    """``min_placements`` of every permutation, a uint8 array by rank: BFS
    rounds from the identity along displacements, placements run backwards.
    n is refused beyond :data:`homing.successors.DEFAULT_CAP` before
    anything is allocated."""
    check_cap(n, DEFAULT_CAP)
    rounds = release_rounds(n, shortest=True)
    dist = np.empty(factorial(n), dtype=np.uint8)
    for depth, frontier in enumerate(rounds):
        dist[frontier] = depth
    return dist


def unique_worst_case_check(n: int) -> bool:
    """True iff the reversal is the only permutation needing n-1 placements."""
    dist = min_placements_table(n)  # the reversal ranks last
    return np.count_nonzero(dist == n - 1) == 1 and int(dist[-1]) == n - 1


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
    """Mean random-homing step count over uniform start states (seeded).

    Each trial shuffles a packed row and homes it with the random
    strategy's stepper, the one :func:`run_strategy` draws from."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    _check_n(n)
    total = 0
    worst = 0
    base = array(_row_type(n), range(1, n + 1))
    for i in range(trials):
        rng = random.Random(_trial_seed(seed, i))
        row = base[:]
        rng.shuffle(row)
        steps = 0
        for q in _random_steps(rng, row):
            place_at(row, q)
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
