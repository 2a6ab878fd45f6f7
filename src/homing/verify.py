"""Executable invariant suites.

Each property here restates one of the package's mathematical guarantees
as an exhaustive (or seeded-random) check at a configurable scale, and
reports a counterexample when it fails, or the number of cases it asserted
on when it passes.  The ``homing verify`` subcommand runs this catalogue,
and the acceptance tests run the same checks at their pinned scales
rather than restating them.  The checks deliberately use
independent machinery where one exists (a longest-path worklist against
the Kahn-round tables, the weight kernel against the binary readings and
:func:`homing.codes.weight`, the per-displacement firing cascade against
the gather, and so on).  Exhaustive passes read the library's own layers:
the weight kernel, the Kahn height table, the strategy step tables
(:func:`homing.strategies.step_table`) and :func:`homing.firings.walk`.

Each check is written as a generator over one size that yields once per
case: ``None`` when the case holds, or a description of the
counterexample, which ends the check.  A check that asserts on a whole
array at once yields the number of cases the array held instead (0 adds
none).  :func:`_property` turns it into a ``Check`` that returns a
:class:`PropertyResult` carrying the number of cases.  A library error
raised inside a check fails that property, and the result names the error.

Each property's sizes -- permutation sizes n, code lengths k or word
lengths -- are declared once, in its :func:`_property` line, up to its own
natural ceiling (n <= 9 for the strategy checks, n <= 10 for the maximum
height).  ``nmax`` caps them, so ``nmax=7`` keeps every suite comfortably
under a few seconds while still covering thousands to millions of states,
and a property whose sizes all lie above ``nmax`` has no case to check.
The library's default cap covers every ceiling, so the checks take no cap
of their own.

The inputs the checks share per n -- the height table of S_n, the rows of
S_n with their code signs and weights, the step tables of the four
deterministic strategies (the three extremal ones for the strategy checks
to n <= 9, and leftmost-not-home too for the extremes check to n <= 6),
and the worst-case set of S_n for the firing checks -- and per code length
k -- every code's signs and weight -- are computed once per process and
kept read-only.  The ceilings bound what is kept: height tables for
n <= 10 (14.5 MB at n = 10), rows and step tables for n <= 9 (4.4 MB of
step tables at n = 9), and code tables for k <= 12 (about 16 MB in all).
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from math import factorial
from functools import cache, lru_cache, wraps
from typing import Callable, Iterator, Union

import numpy as np

from .codes import code_of, weight
from .counting import bell_number, split_count, worst_case_count
from .errors import HomingError, InputError
from .firings import (
    FiringLetter,
    FiringWord,
    apply_letter,
    canonical_words,
    canonicalize,
    check_word,
    code_shape,
    firing_moves,
    format_word,
    is_canonical,
    next_letters,
    partition_to_word,
    restricted_words,
    short_firing_image,
    walk,
    word_to_partition,
)
from .heights import HeightTable, build_height_table
from .perms import (
    Perm,
    all_perms,
    displace,
    displacement_successors,
    format_perm,
    identity,
    place,
    placeable_values,
    rotation,
    swap_ends,
)
from .strategies import (
    ALTERNATING_EXTREMAL,
    LARGEST_FIRST,
    LEFTMOST_NOT_HOME,
    SMALLEST_FIRST,
    min_placements_table,
    step_counts,
    step_table,
    unique_worst_case_check,
)
from .successors import (
    code_signs,
    code_weights,
    displacement_ranks,
    displacement_sources,
    lis_rows,
    perm_matrix,
    place_rows,
    stage_rows,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""
    cases: int = 0  # instances the check asserted on


Check = Callable[[int], PropertyResult]
Cases = Iterator[Union[None, str, int]]


def _property(name: str, sizes: range, detail: str = "") -> Callable[[Callable[[int], Cases]], Check]:
    """Run a case generator once per size in ``sizes`` up to ``nmax``, the
    sizes' cases in one chain, to its end or to its first counterexample.
    An int yield counts as that many cases.  A chain that yields no case
    asserted nothing, which is a failure, and so is one that raises a
    :class:`HomingError`, which the result names.  The check keeps
    ``sizes`` as its ``sizes`` attribute."""

    def wrap(cases_of: Callable[[int], Cases]) -> Check:
        @wraps(cases_of)
        def check(nmax: int) -> PropertyResult:
            cases = 0
            try:
                for outcome in itertools.chain.from_iterable(cases_of(n) for n in sizes if n <= nmax):
                    if isinstance(outcome, str):
                        return PropertyResult(name, False, outcome, cases)
                    cases += 1 if outcome is None else outcome
            except HomingError as err:
                return PropertyResult(name, False, f"{type(err).__name__}: {err}", cases)
            if not cases:
                return PropertyResult(name, False, f"no case checked at nmax={nmax}", 0)
            return PropertyResult(name, True, detail, cases)

        check.sizes = sizes
        return check

    return wrap


@cache
def _code_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every code of length k as a row of signs, in ``itertools.product("+-0")``
    order, and the kernel's weight of each, shared by the code-weight checks.
    Row r reads r in base 3, digits 0, 1, 2 for '+', '-', '0'."""
    signs = np.empty((3**k, k), np.int8)
    for i in range(k):  # symbol i: '+', '-', '0' in runs of 3^(k-1-i) rows
        signs.reshape(3**i, 3, -1, k)[..., i] = [[1], [-1], [0]]
    w = code_weights(signs)
    signs.flags.writeable = w.flags.writeable = False
    return signs, w


def _text(signs: np.ndarray) -> str:
    return "".join("-0+"[s + 1] for s in signs.tolist())


def _state(rows: np.ndarray, r: int) -> str:  # a counterexample's name
    return format_perm(tuple(rows[r].tolist()))


@cache
def _table(n: int) -> HeightTable:
    """The height table of S_n, shared by every check."""
    return build_height_table(n)


@cache
def _worst(n: int) -> frozenset[Perm]:
    """The worst-case set of S_n, the states at height 2^(n-1) - 1, shared
    by the firing checks."""
    return frozenset(_table(n).members_at((1 << (n - 1)) - 1))


@cache
def _signed(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All of S_n as :func:`perm_matrix` rows, and the code signs of each."""
    rows = perm_matrix(n)
    inverse = np.empty_like(rows)  # the position of each value
    inverse[np.arange(len(rows))[:, None], rows - 1] = np.arange(1, n + 1, dtype=np.int8)
    signs = code_signs(inverse)
    rows.flags.writeable = signs.flags.writeable = False
    return rows, signs


@cache
def _weighed(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All of S_n as :func:`perm_matrix` rows, the code weight of each, and
    the mask of the states with both end values away from home."""
    rows, signs = _signed(n)
    w, away = code_weights(signs), (rows[:, 0] != 1) & (rows[:, -1] != n)
    w.flags.writeable = away.flags.writeable = False
    return rows, w, away


@cache
def _steps(n: int, strategy: str) -> np.ndarray:
    """The :func:`step_table` of ``strategy`` on S_n, shared by the strategy
    checks and the extremes check."""
    table = step_table(n, strategy)
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# perm-core
# ---------------------------------------------------------------------------

@_property("perm-core/placement-semantics", range(2, 7))
def check_placement_semantics(n: int) -> Cases:
    for p in all_perms(n):
        for v in placeable_values(p):
            q = place(p, v)
            if sorted(q) != list(range(1, n + 1)) or q[v - 1] != v:
                yield f"place({format_perm(p)}, {v}) = {format_perm(q)}"
            if [x for x in q if x != v] != [x for x in p if x != v]:
                yield f"relative order broken: {format_perm(p)} place {v}"
            yield None


@_property("perm-core/inversion", range(2, 7))
def check_inversion(n: int) -> Cases:
    for p in all_perms(n):
        for move, q in displacement_successors(p):
            yield None if place(q, move.value) == p else (
                f"displace {move} on {format_perm(p)} not undone"
            )
        for v in placeable_values(p):
            q = place(p, v)
            yield None if displace(q, v, p.index(v) + 1) == p else (
                f"place {v} on {format_perm(p)} not undone"
            )


def extremes_evicted(n: int, strategy: str) -> np.ndarray:
    """The mask, by rank, of the states of S_n from which ``strategy``'s
    step moves 1 or n from home to away, read with one gather on its step
    table.  A run places an extreme twice only if one of its steps does
    that, and every run is a path in the step table."""
    rows = _signed(n)[0]
    after = rows[_steps(n, strategy)]
    return ((rows[:, 0] == 1) & (after[:, 0] != 1)) | ((rows[:, -1] == n) & (after[:, -1] != n))


@_property("perm-core/extremes-placed-once", range(2, 7))
def check_extremes_placed_once(n: int) -> Cases:
    for s in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL, LEFTMOST_NOT_HOME):
        bad = np.flatnonzero(extremes_evicted(n, s))
        if len(bad):
            yield f"{s} on {_state(_signed(n)[0], bad[0])} moves an extreme from home"
        yield factorial(n)


@_property("perm-core/acyclicity", range(1, 8))
def check_acyclicity(n: int) -> Cases:
    _table(n)  # a cycle raises CycleError, which fails the property
    yield None


# ---------------------------------------------------------------------------
# code-weight
# ---------------------------------------------------------------------------

@_property("code-weight/range", range(0, 13))
def check_weight_range(k: int) -> Cases:
    signs, w = _code_table(k)
    top = (1 << k) - 1
    bad = np.flatnonzero((w < 0) | (w > top))
    if len(bad):
        yield f"w({_text(signs[bad[0]])}) = {w[bad[0]]} outside 0..{top}"
    if np.flatnonzero(w == 0).tolist() != [3**k - 1]:  # the all-'0' code
        yield f"w = 0 mischaracterized at k={k}"
    # the maximum: +^a -^(k-a), whose row reads (3^(k-a) - 1) / 2
    if np.flatnonzero(w == top).tolist() != [(3**j - 1) // 2 for j in range(k + 1)]:
        yield f"w = {top} vs max form at k={k}"
    yield len(w)


@_property("code-weight/binary-readings", range(0, 13))
def check_binary_readings(k: int) -> Cases:
    bits = 1 << np.arange(k - 1, -1, -1)
    index = np.arange(1 << k)
    digits = (index[:, None] & bits > 0).view(np.int8)  # row r: r in binary
    # codes over {0,+} read as binary with '+' as 1, over {0,-} reversed
    for sign, reading, value in (1, "binary", index), (-1, "reverse binary", digits @ bits[::-1]):
        signs = sign * digits
        w = code_weights(signs)
        bad = np.flatnonzero(w != value)
        if len(bad):
            yield f"w({_text(signs[bad[0]])}) != {reading} {value[bad[0]]}"
        yield len(w)


@_property("code-weight/tiebreak-invariance", range(0, 13))
def check_tiebreak(k: int) -> Cases:
    # also ties the kernel, which the other code-weight checks read, to the definition
    codes = map("".join, itertools.product("+-0", repeat=k))
    for code, w in zip(codes, _code_table(k)[1].tolist()):
        ties = weight(code, tie="-"), weight(code, tie="+")
        yield None if ties == (w, w) else f"w({code}) is {ties} under the two ties, {w} by the kernel"


def _block_splits():
    """Splits (beta, p, gamma, q, delta) of beta +^p gamma -^q delta, where
    gamma neither starts with '+' nor ends with '-': every split with
    |beta| <= 2, |gamma| <= 3 and p, q <= 3, then 400 seeded draws that
    reach |beta| = 3 and |gamma| = 4."""
    product = itertools.product
    for b in range(3):
        for beta, delta, g in product(product("-0", repeat=b), product("+0", repeat=b), range(4)):
            for gamma in map("".join, product("+-0", repeat=g)):
                if not gamma or (gamma[0] != "+" and gamma[-1] != "-"):
                    for p, q in product((1, 2, 3), repeat=2):
                        yield "".join(beta), p, gamma, q, "".join(delta)
    rng = random.Random(171)
    for _ in range(400):
        beta = "".join(rng.choice("-0") for _ in range(rng.randrange(0, 4)))
        delta = "".join(rng.choice("+0") for _ in range(len(beta)))
        while True:
            gamma = "".join(rng.choice("+-0") for _ in range(rng.randrange(0, 5)))
            if not gamma or (gamma[0] != "+" and gamma[-1] != "-"):
                break
        yield beta, rng.randrange(1, 4), gamma, rng.randrange(1, 4), delta


# one size: the splits are fixed, and the cap on sizes does not scale them
@_property("code-weight/block-formula", range(1))
def check_block_formula(_: int) -> Cases:
    weight_of = lru_cache(maxsize=None)(weight)  # each rest beta gamma delta recurs for 9 pairs (p, q)
    for beta, p, gamma, q, delta in _block_splits():
        alpha = beta + "+" * p + gamma + "-" * q + delta
        expected = (
            weight_of(beta + gamma + delta)
            + (1 << (p + len(gamma) + q + len(beta)))
            - (1 << (len(gamma) + len(beta)))
        )
        yield None if weight(alpha) == expected else (
            f"w({alpha}) != {expected} for split {beta}|{p}|{gamma}|{q}|{delta}"
        )


@_property("code-weight/zero-append", range(0, 12))
def check_zero_append(k: int) -> Cases:
    # w(alpha 0) <= w(alpha) + 2^(k - split) - 1 for every split with no '+'
    # before it; the split at the first '+' (or at k) binds
    signs, w = _code_table(k)
    w0 = code_weights(np.pad(signs, ((0, 0), (0, 1))))  # alpha 0
    split = ((signs > 0).cumsum(axis=1) == 0).sum(axis=1)  # symbols before the first '+'
    bad = np.flatnonzero(w0 > w + (1 << (k - split)) - 1)
    if len(bad):
        yield f"w({_text(signs[bad[0]])}0) too large for split at {split[bad[0]]}"
    yield len(w)


@_property("code-weight/marking-monotonic", range(1, 13))
def check_marking_monotonic(k: int) -> Cases:
    signs, w = _code_table(k)
    for i in range(k):
        zero = np.flatnonzero(signs[:, i] == 0)
        step = 3 ** (k - 1 - i)
        for marked in zero - 2 * step, zero - step:  # a '+', a '-' at index i
            bad = np.flatnonzero(w[marked] <= w[zero])
            if len(bad):
                yield f"w({_text(signs[marked[bad[0]]])}) <= w({_text(signs[zero[bad[0]]])})"
            yield len(zero)


@_property("code-weight/displacement-increase", range(3, 10))
def check_displacement_weight_increase(n: int) -> Cases:
    # the set with both ends away from home is closed under eviction, and
    # every eviction inside it raises the weight
    rows, w, away = _weighed(n)
    starts = rows[away]
    sources = np.flatnonzero(away)[displacement_sources(starts)]
    targets = displacement_ranks(starts)
    bad = np.flatnonzero(~away[targets] | (w[targets] <= w[sources]))
    if len(bad):
        p, q = _state(rows, sources[bad[0]]), _state(rows, targets[bad[0]])
        yield f"displace {p} -> {q}: weight {w[sources[bad[0]]]} -> {w[targets[bad[0]]]}"
    yield len(targets)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@_property("strategies/extremal-bound", range(1, 10))
def check_extremal_bound(n: int) -> Cases:
    for s in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL):
        bad = np.flatnonzero(step_counts(_steps(n, s), n - 1) > n - 1)
        if len(bad):
            p = _state(_signed(n)[0], bad[0])
            k = step_counts(_steps(n, s), factorial(n))[bad[0]]
            yield f"{s} took {k} steps on {p}" if k <= factorial(n) else f"{s} never sorts {p}"
        yield factorial(n)


@_property("strategies/stage-monotone", range(1, 10))
def check_stage_monotone(n: int) -> Cases:
    rows = _signed(n)[0]
    level = stage_rows(rows)
    for s in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL):
        bad = np.flatnonzero(level[_steps(n, s)] < level)  # every step of every run
        if len(bad):
            yield f"{s} lowered stage on {_state(rows, bad[0])}"
        yield len(level)


@_property("strategies/lis-lower-bound", range(1, 10))
def check_lis_lower_bound(n: int) -> Cases:
    rows, d = _signed(n)[0], min_placements_table(n)
    bad = np.flatnonzero((d < n - lis_rows(rows)) | (d > n - 1))
    if len(bad):
        yield f"min_placements({_state(rows, bad[0])}) = {d[bad[0]]}"
    yield len(d)


@_property("strategies/unique-worst-case", range(2, 9))
def check_unique_worst_case(n: int) -> Cases:
    yield None if unique_worst_case_check(n) else (
        f"n={n}: the reversal is not the only state needing n-1 placements"
    )


@_property("strategies/stage-advance-premise", range(2, 10))
def check_stage_advance_premise(n: int) -> Cases:
    rows = _signed(n)[0][1:]  # all but the identity, rank 0
    level = stage_rows(rows)
    raisers, away = np.zeros(len(rows), np.intp), np.zeros(len(rows), np.intp)
    for v in range(1, n + 1):
        moved = np.flatnonzero(rows[:, v - 1] != v)
        raisers[moved] += stage_rows(place_rows(rows[moved], v)) > level[moved]
        away[moved] += 1
    few = raisers < np.where((rows[:, 0] != 1) & (rows[:, -1] != n), 2, 1)
    bad = np.flatnonzero(few | (raisers * (n - level) < 2 * away))
    if len(bad):
        p, r = _state(rows, bad[0]), raisers[bad[0]]
        yield f"{p} has only {r} stage raisers" if few[bad[0]] else (
            f"{p}: advance probability below 2/(n-k)"
        )
    yield len(rows)


# ---------------------------------------------------------------------------
# height-map
# ---------------------------------------------------------------------------

def forward_eviction_heights(n: int) -> list[int]:
    """Longest displacement path from the identity to each state, in
    ``all_perms`` order (-1 where it never arrives): label-correcting
    relaxation from a worklist of the states whose distance rose,
    independent of the Kahn rounds."""
    dist = {identity(n): 0}
    work = list(dist)
    while work:
        p = work.pop()
        d = dist[p] + 1
        for _, q in displacement_successors(p):
            if dist.get(q, -1) < d:
                dist[q] = d
                work.append(q)
    return [dist.get(p, -1) for p in all_perms(n)]


@_property("height-map/eviction-duality", range(1, 7))
def check_eviction_duality(n: int) -> Cases:
    yield None if list(_table(n).heights) == forward_eviction_heights(n) else (
        f"n={n}: forward eviction distances disagree"
    )


@_property("height-map/max-height", range(1, 11))
def check_max_heights(n: int) -> Cases:
    # the ceiling 2^(n-1) - 1, met by the rotation and by as many states as
    # the recurrence counts, and the gateway at 2^(n-2)
    table, top = _table(n), (1 << (n - 1)) - 1
    if table.max() != top:
        yield f"max height at n={n} is {table.max()}"
    if table.height_of(rotation(n)) != top:
        yield f"rotation not at max height for n={n}"
    if n >= 2 and np.count_nonzero(table.heights == top) != worst_case_count(n):
        yield f"top level at n={n} is not worst_case_count({n}) states"
    if n >= 2 and table.height_of(swap_ends(n)) != 1 << (n - 2):
        yield f"gateway height wrong at n={n}"
    yield None


@_property("height-map/stage1-longest", range(2, 10))
def check_stage1_longest(n: int) -> Cases:
    # ranks below (n-1)! are the states with 1 in front, which no placement leaves
    got = int(_table(n).heights[: factorial(n - 1)].max())
    yield None if got == (1 << (n - 2)) - 1 else f"stage1_longest({n}) = {got}"


def eviction_runs(n: int, rows: np.ndarray, away: np.ndarray) -> np.ndarray:
    """The longest eviction run out of each state of ``away`` (0 elsewhere),
    by rank.  The set is closed under eviction, and an eviction p -> q
    climbs at least one height, since q places back to p, so one pass down
    the height table finds each run after the runs of all its successors."""
    heights = _table(n).heights
    run = np.zeros(len(rows), np.int32)
    for h in range(int(heights.max()), -1, -1):
        layer = np.flatnonzero(away & (heights == h))
        starts = rows[layer]
        np.maximum.at(run, layer[displacement_sources(starts)], run[displacement_ranks(starts)] + 1)
    return run


@_property("height-map/weight-certificate", range(2, 10))
def check_weight_certificate(n: int) -> Cases:
    # with both ends away from home, eviction paths are weight-graded, so no
    # run inside that region can exceed the code weight range 2^(n-2) - 1
    rows, w, away = _weighed(n)
    run = eviction_runs(n, rows, away)
    slack = (1 << (n - 2)) - 1 - w
    bad = np.flatnonzero(away & (run > slack))
    if len(bad):
        yield f"{_state(rows, bad[0])} sustains {run[bad[0]]} > {slack[bad[0]]} evictions"
    yield int(away.sum())


@_property("height-map/worst-case-code-shape", range(2, 10), "converse fails as expected")
def check_mn_code_shape(n: int) -> Cases:
    # a worst case has a block code +^a -^b: no '0', never rising along it;
    # the converse fails at every n
    rows, signs = _signed(n)
    members = _table(n).heights == (1 << (n - 1)) - 1
    block = (signs != 0).all(axis=1) & (np.diff(signs, axis=1) <= 0).all(axis=1)
    bad = np.flatnonzero(members & ~block)
    if len(bad):
        yield f"{_state(rows, bad[0])} in worst set, code {_text(signs[bad[0]])}"
    yield int(members.sum())
    if not (block & ~members).any():
        yield f"n={n}: no counterexample to the converse"


# ---------------------------------------------------------------------------
# firings
# ---------------------------------------------------------------------------

@_property("firings/step-count-and-weight", range(3, 10))
def check_firing_steps(n: int) -> Cases:
    # fires every legal letter from every reachable prefix state once: the
    # letter's displacement block, the oracle, is replayed one displacement
    # at a time and must end where apply_letter's gather does, with the code
    # and the landing value the firing promises
    weight_of = lru_cache(maxsize=None)(weight)  # codes of length n - 2 recur only within n
    for word, p in walk(n):
        if len(word) == n - 2:
            continue
        i, k, j = code_shape(code_of(p))
        for letter in next_letters(word):
            fired = word + (letter,)
            s = i + 1 - letter.index if letter.side == "L" else i + k + 2 + letter.index
            moves = firing_moves(p, letter)
            if len(moves) != 1 << (k - 1):
                yield f"n={n} {format_word(fired)}: block size {len(moves)}"
            q, code = p, code_of(p)
            for v, t in moves:
                w = weight_of(code)
                q = displace(q, v, t)
                code = code_of(q)
                if weight_of(code) != w + 1:
                    yield f"n={n} {format_word(fired)}: weight step {w}->{weight_of(code)}"
            if letter.side == "L":
                after, landed = "+" * i + "0" * (k - 1) + "-" * (j + 1), i + k + 1
            else:
                after, landed = "+" * (i + 1) + "0" * (k - 1) + "-" * j, i + 2
            if code != after or q[s - 1] != landed:
                yield f"n={n} {format_word(fired)}: code {code}, {q[s - 1]} at position {s}"
            yield None if q == apply_letter(p, letter) else (
                f"n={n} {format_word(fired)}: gather and cascade disagree"
            )


@_property("firings/schedule-total", range(2, 9))
def check_schedule_total(n: int) -> Cases:
    members = _worst(n)
    states = [swap_ends(n)] * (n - 1)  # the state at each depth of the current branch
    spent = [0] * (n - 1)  # displacements spent along it to each depth
    for word, p in walk(n):
        depth = len(word)
        if depth:
            parent, letter = states[depth - 1], word[-1]
            moves = firing_moves(parent, letter)
            states[depth], spent[depth] = p, spent[depth - 1] + len(moves)
        if depth == n - 2:
            if spent[depth] != (1 << (n - 2)) - 1:
                yield f"{format_word(word)} used {spent[depth]} displacements"
            yield None if p in members else f"{format_word(word)} left the worst-case set"


@_property("firings/word-bijection", range(2, 10))
def check_word_bijection(n: int) -> Cases:
    ends = [p for word, p in walk(n) if len(word) == n - 2]
    images = set(ends)
    if len(images) != len(ends):
        yield f"n={n}: words collide"
    members = _worst(n)
    if len(images) != len(members):
        yield f"n={n}: image has {len(images)} of {len(members)}"
    for p in images:
        yield None if p in members else f"n={n}: {format_perm(p)} is not a worst case"


def normal_forms(word: FiringWord) -> set[FiringWord]:
    """Every fully rewritten form of ``word`` over all orders of the rewrite
    L_(t-1) R_s -> R_(s-1) L_t (s >= 1): the oracle for ``canonicalize``."""
    redexes = [
        i
        for i in range(len(word) - 1)
        if word[i].side == "L" and word[i + 1].side == "R" and word[i + 1].index >= 1
    ]
    if not redexes:
        return {word}
    forms = set()
    for i in redexes:
        rewritten = (
            word[:i]
            + (FiringLetter("R", word[i + 1].index - 1), FiringLetter("L", word[i].index + 1))
            + word[i + 2:]
        )
        forms |= normal_forms(rewritten)
    return forms


@_property("firings/confluence", range(2, 9))
def check_confluence(n: int) -> Cases:
    every = walk(n, keep=lambda word, letter: True)
    fired = {word: p for word, p in every if len(word) == n - 2}  # every valid word
    for word, p in fired.items():
        forms = normal_forms(word)
        canon = canonicalize(word)
        if forms != {canon} or not is_canonical(canon):
            texts = " and ".join(sorted(map(format_word, forms)))
            yield f"{format_word(word)} has normal forms {texts}"
        yield None if p == fired[canon] else f"rewrite changed the state of {format_word(word)}"


@_property("firings/recurrence-vs-language", range(2, 10))
def check_recurrence_language(n: int) -> Cases:
    by_rights = Counter(
        sum(1 for let in w if let.side == "R") for w in canonical_words(n)
    )
    for i in range(1, n):
        yield None if split_count(i, n - i) == by_rights.get(i - 1, 0) else (
            f"f({i},{n - i}) != language count"
        )
    if worst_case_count(n) != sum(by_rights.values()):
        yield f"diagonal sum mismatch at n={n}"


@_property("firings/short-firing-injectivity", range(2, 10))
def check_short_firing_injectivity(n: int) -> Cases:
    image = short_firing_image(n)
    if len(image) != 1 << (n - 2):
        yield f"n={n}: image size {len(image)}"
    members = _worst(n)
    for p in image:
        yield None if p in members else f"n={n}: image leaves the worst-case set"


@_property("firings/partition-roundtrip", range(0, 9))
def check_partition_roundtrip(length: int) -> Cases:
    seen = set()
    for word in restricted_words(length):
        check_word(word)
        q = word_to_partition(word)
        yield None if partition_to_word(q) == word else (
            f"roundtrip failed for {format_word(word, True)}"
        )
        seen.add(q)
    if len(seen) != bell_number(length + 1):
        yield f"length {length}: {len(seen)} partitions, not B({length + 1})"


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES: dict[str, list[Check]] = {
    "perm-core": [
        check_placement_semantics,
        check_inversion,
        check_extremes_placed_once,
        check_acyclicity,
    ],
    "code-weight": [
        check_weight_range,
        check_binary_readings,
        check_tiebreak,
        check_block_formula,
        check_zero_append,
        check_marking_monotonic,
        check_displacement_weight_increase,
    ],
    "strategies": [
        check_extremal_bound,
        check_stage_monotone,
        check_lis_lower_bound,
        check_unique_worst_case,
        check_stage_advance_premise,
    ],
    "height-map": [
        check_max_heights,
        check_eviction_duality,
        check_stage1_longest,
        check_weight_certificate,
        check_mn_code_shape,
    ],
    "firings": [
        check_firing_steps,
        check_schedule_total,
        check_word_bijection,
        check_confluence,
        check_recurrence_language,
        check_short_firing_injectivity,
        check_partition_roundtrip,
    ],
}


def suite_names() -> list[str]:
    return ["all", *SUITES]


def run_suite(suite: str = "all", nmax: int = 7) -> list[PropertyResult]:
    """Run one named suite (or all of them) and collect the results."""
    if suite == "all":
        checks = [c for group in SUITES.values() for c in group]
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise InputError(f"unknown suite {suite!r}; choose from {', '.join(suite_names())}")
    return [check(nmax) for check in checks]
