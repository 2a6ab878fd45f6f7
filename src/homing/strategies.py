"""Homing strategies and their step tables, shortest sorts, and random homing.

A strategy picks which out-of-place value to place next.  The extremal
strategies (smallest-first, largest-first, and the alternating variant)
finish in at most n-1 steps because an extremal value, once home, is never
dislodged.  The leftmost-not-home rule on the rotation 2,3,...,n,1 walks
the tower-of-Hanoi pattern and realizes the global maximum 2^(n-1)-1.

A deterministic strategy also has a step table over all of S_n
(:func:`step_table`): the rank each state moves to, built by one
:func:`homing.successors.place_rows` step over every state at once, with
step counts by pointer doubling (:func:`step_counts`).  The exhaustive
strategy checks of :mod:`homing.verify` read these tables, and
:func:`run_strategy` is the oracle the tests compare them with.

Shortest sorts are breadth-first searches over the placement digraph: the
search from one state keeps the set of states it has reached, and the table
for all of S_n takes the rounds of :func:`homing.successors.release_rounds`.

A run places each state once, with :func:`homing.perms.place_inplace` on
one packed row, and appends the row to a packed buffer that the trace
keeps: n bytes per step, or 2n for 256 <= n < 65,536.  Its codes, weights
and text are computed per block of up to ``_BLOCK`` steps of that buffer,
read as a matrix: one scatter gives the positions, the weight kernel of
:mod:`homing.successors` the codes and weights (:func:`code_signs`,
:func:`code_weights`), and byte tables the text, which the CLI writes
as it comes, with no round trip through ``str``.
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
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .perms import Perm, _check_n, as_perm, identity, place, place_inplace, placeable_values
from .successors import (
    DEFAULT_CAP,
    check_cap,
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

    def states(self) -> Iterator[Perm]:
        """The state after each move (``len(self)`` states, ending at final)."""
        n = len(self.initial)
        values = iter(memoryview(self._rows).cast(_row_type(n))[n:])
        return zip(*[values] * n)  # each tuple takes the next n values

    def steps(self) -> Iterator[TraceStep]:
        """Full per-step records, with codes and weights computed per block."""
        for b in self._blocks():
            k = b.code.shape[1]
            codes = b.code.tobytes().decode()
            states = map(tuple, b.matrix.tolist())
            rows = zip(b.values.tolist(), b.sources.tolist(), states, b.weights.tolist())
            for r, (v, source, state, w) in enumerate(rows):
                yield TraceStep(b.start + r, v, source, v, state, codes[r * k : (r + 1) * k], w)

    def lines(self) -> Iterator[str]:
        """The tab-separated text form, one line per step: index, value,
        source, target, state, code, weight."""
        for chunk in self.text_blocks():
            yield from chunk.splitlines()

    def text_blocks(self) -> Iterator[str]:
        """The lines of :meth:`lines`, each ending in a newline, joined into
        one string per block of up to ``_BLOCK`` steps."""
        return (chunk.decode() for chunk in self._text())

    def _text(self) -> Iterator[bytes]:
        """:meth:`text_blocks` as ASCII bytes, which the CLI writes as they
        are."""
        n = len(self.initial)
        # every value's text followed by "," or a tab, NUL-padded to a
        # power-of-two width so that one gather copies a whole cell
        digits = _digits(np.arange(n + 1))
        d = digits.shape[1]
        comma = np.zeros((n + 1, 1 << d.bit_length()), np.uint8)
        comma[:, :d] = digits
        tab = comma.copy()
        comma[:, d], tab[:, d] = ord(","), ord("\t")
        comma, tab = comma.view(f"V{comma.shape[1]}")[:, 0], tab.view(f"V{tab.shape[1]}")[:, 0]
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
# choosers
# ---------------------------------------------------------------------------

def _choose_smallest(p: Sequence[int]) -> int:
    return min(placeable_values(p))


def _choose_largest(p: Sequence[int]) -> int:
    return max(placeable_values(p))


def _remainder_is_reverse(p: Perm) -> bool:
    """True if the out-of-place values read in decreasing positional order."""
    rem = placeable_values(p)
    return len(rem) >= 2 and all(a > b for a, b in zip(rem, rem[1:]))


def _choose_alternating(p: Sequence[int]) -> int:
    # Place 1 or n (the extremal candidates), preferring whichever leaves a
    # non-reverse remainder; ties go to the smaller value.
    vals = placeable_values(p)
    lo, hi = min(vals), max(vals)
    if lo == hi:
        return lo
    if _remainder_is_reverse(place(p, lo)) and not _remainder_is_reverse(place(p, hi)):
        return hi
    return lo


def _choose_leftmost(p: Sequence[int]) -> int:
    for pos, v in enumerate(p, 1):
        if v != pos:
            return v
    raise AssertionError("no out-of-place value in a non-identity state")


def _random_choice(rng: random.Random, p: Sequence[int]) -> int:
    """The one random rule, of runs and the Monte Carlo: uniform among the out-of-place values."""
    candidates = placeable_values(p)
    return candidates[rng.randrange(len(candidates))]


_CHOOSERS: dict[str, Callable[[Sequence[int]], int]] = {
    SMALLEST_FIRST: _choose_smallest,
    LARGEST_FIRST: _choose_largest,
    ALTERNATING_EXTREMAL: _choose_alternating,
    LEFTMOST_NOT_HOME: _choose_leftmost,
}


# the choosers over many rows at once, for the step tables

def _fold_away(rows: np.ndarray, pick: Callable, start: int) -> np.ndarray:
    """Each row's out-of-place values, in positional order, folded into one
    value per row with ``pick`` from ``start``."""
    best = np.full(len(rows), start, rows.dtype)
    for home, column in enumerate(rows.T, 1):
        away = column != home
        best[away] = pick(best[away], column[away])
    return best


def _smallest_rows(rows: np.ndarray) -> np.ndarray:
    return _fold_away(rows, np.minimum, rows.shape[1] + 1)


def _largest_rows(rows: np.ndarray) -> np.ndarray:
    return _fold_away(rows, np.maximum, 0)


def _leftmost_rows(rows: np.ndarray) -> np.ndarray:
    return _fold_away(rows, lambda best, v: np.where(best == 0, v, best), 0)


def _remainder_is_reverse_rows(rows: np.ndarray) -> np.ndarray:
    """:func:`_remainder_is_reverse` of every row."""
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
    # both placements, then the rule of _choose_alternating row by row; a
    # state that is not the identity has two out-of-place values at least
    lo, hi = place_rows(rows, _smallest_rows(rows)), place_rows(rows, _largest_rows(rows))
    take_hi = _remainder_is_reverse_rows(lo) & ~_remainder_is_reverse_rows(hi)
    return np.where(take_hi[:, None], hi, lo)


_ROW_STEPS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    SMALLEST_FIRST: lambda rows: place_rows(rows, _smallest_rows(rows)),
    LARGEST_FIRST: lambda rows: place_rows(rows, _largest_rows(rows)),
    ALTERNATING_EXTREMAL: _alternating_rows,
    LEFTMOST_NOT_HOME: lambda rows: place_rows(rows, _leftmost_rows(rows)),
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
        choose = partial(_random_choice, random.Random(seed & 0xFFFFFFFFFFFFFFFF))
    else:
        try:
            choose = _CHOOSERS[strategy]
        except KeyError:
            raise InputError(f"unknown strategy {strategy!r}") from None
        if seed is not None:
            raise InputError(f"the {strategy} strategy draws nothing, so it takes no seed")

    p = as_perm(p)
    n = len(p)
    _check_n(n)
    limit = (1 << (n - 1)) - 1
    state = array(_row_type(n), p)
    target = array(state.typecode, range(1, n + 1))
    rows = state[:]
    moves = []
    for _ in range(limit + 1):
        if state == target:
            break
        v = choose(state)
        place_inplace(state, v)
        rows += state
        moves.append(v)
    else:
        raise AssertionError("homing exceeded its proven step bound")
    # one copy at a time, each source freed once its copy is made: on the
    # n = 20 rotation a list still alive while the bytes are made adds 4 MB
    # to the peak
    moves = tuple(moves)
    rows = bytes(rows)
    return Trace(p, moves, tuple(state), rows)


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

def min_placements(p: Perm, cap: int = DEFAULT_CAP) -> int:
    """Fewest placements that sort ``p``, by BFS over the placement digraph,
    keeping the states it has reached.

    Always lies between n - lis_length(p) and n - 1.
    """
    p = as_perm(p)
    n = len(p)
    check_cap(n, cap)
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
            for v in placeable_values(state):
                q = place(state, v)
                if q == target:
                    return depth
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt


def min_placements_table(n: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """``min_placements`` of every permutation, a uint8 array by rank: BFS
    rounds from the identity along displacements, placements run backwards."""
    check_cap(n, cap)
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
    """Mean random-homing step count over uniform start states (seeded)."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    _check_n(n)
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
            p = place(p, _random_choice(rng, p))
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
