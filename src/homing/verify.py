"""Executable invariant suites.

Each property here restates one of the package's mathematical guarantees
as an exhaustive (or seeded-random) check at a configurable scale, and
reports a counterexample when it fails, or the number of cases it asserted
on when it passes.  The ``homing verify`` subcommand runs this catalogue,
and the acceptance tests run the same checks at their pinned scales
rather than restating them.  The checks deliberately use
independent machinery where one exists (value iteration against the
Kahn-round tables, the binary readings against the strip recursion, the
per-displacement firing cascade against the splice, and so on).

Each check is written as a generator that yields once per case: ``None``
when the case holds, or a description of the counterexample, which ends
the check.  :func:`_property` turns it into a ``Check`` that returns a
:class:`PropertyResult` carrying the number of cases.

``nmax`` caps the permutation sizes and code lengths explored; each
property also carries its own natural ceiling, so ``nmax=7`` keeps every
suite comfortably under a few seconds while still covering thousands to
millions of states.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from math import factorial
from functools import lru_cache, wraps
from typing import Callable, Iterator, Optional

from .codes import code_of, weight
from .counting import bell_number, split_count, worst_case_count
from .errors import CycleError
from .firings import (
    FiringLetter,
    FiringWord,
    apply_letter,
    apply_word,
    canonical_words,
    canonicalize,
    check_word,
    code_shape,
    firing_moves,
    format_word,
    is_canonical,
    letter_target,
    partition_to_word,
    restricted_words,
    short_firing_image,
    valid_words,
    word_to_partition,
)
from .heights import build_height_table, stage1_longest, worst_case_permutations
from .perms import (
    all_perms,
    displace,
    displacement_successors,
    format_perm,
    identity,
    lis_length,
    place,
    placeable_values,
    rank,
    rotation,
    stage,
    swap_ends,
)
from .strategies import (
    ALTERNATING_EXTREMAL,
    LARGEST_FIRST,
    LEFTMOST_NOT_HOME,
    SMALLEST_FIRST,
    min_placements_table,
    run_strategy,
    unique_worst_case_check,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""
    cases: int = 0  # instances the check asserted on


Check = Callable[[int, int], PropertyResult]
Cases = Iterator[Optional[str]]


def _property(name: str, detail: str = "") -> Callable[[Callable[[int, int], Cases]], Check]:
    """Run a case generator to its end or to its first counterexample."""

    def wrap(cases_of: Callable[[int, int], Cases]) -> Check:
        @wraps(cases_of)
        def check(nmax: int, cap: int) -> PropertyResult:
            cases = 0
            for failure in cases_of(nmax, cap):
                if failure is not None:
                    return PropertyResult(name, False, failure, cases)
                cases += 1
            return PropertyResult(name, True, detail, cases)

        return check

    return wrap


def _codes(k: int):
    return ("".join(c) for c in itertools.product("+-0", repeat=k))


# ---------------------------------------------------------------------------
# perm-core
# ---------------------------------------------------------------------------

@_property("perm-core/placement-semantics")
def check_placement_semantics(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 6) + 1):
        for p in all_perms(n):
            for v in placeable_values(p):
                q = place(p, v)
                if sorted(q) != list(range(1, n + 1)) or q[v - 1] != v:
                    yield f"place({format_perm(p)}, {v}) = {format_perm(q)}"
                if [x for x in q if x != v] != [x for x in p if x != v]:
                    yield f"relative order broken: {format_perm(p)} place {v}"
                yield None


@_property("perm-core/inversion")
def check_inversion(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 6) + 1):
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


@_property("perm-core/extremes-placed-once")
def check_extremes_placed_once(nmax: int, cap: int) -> Cases:
    strategies = (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL, LEFTMOST_NOT_HOME)
    for n in range(2, min(nmax, 6) + 1):
        for p in all_perms(n):
            for s in strategies:
                moves = run_strategy(p, s).moves
                if moves.count(1) > 1 or moves.count(n) > 1:
                    yield f"{s} on {format_perm(p)} placed an extreme twice"
                yield None


@_property("perm-core/acyclicity")
def check_acyclicity(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 7) + 1):
        try:
            build_height_table(n, cap=max(cap, 7))
        except CycleError as err:
            yield str(err)
        yield None


# ---------------------------------------------------------------------------
# code-weight
# ---------------------------------------------------------------------------

@_property("code-weight/range")
def check_weight_range(nmax: int, cap: int) -> Cases:
    for k in range(0, min(nmax, 12) + 1):
        top = (1 << k) - 1
        for code in _codes(k):
            w = weight(code)
            if not 0 <= w <= top:
                yield f"w({code}) = {w} outside 0..{top}"
            if (w == 0) != (set(code) <= {"0"}):
                yield f"w({code}) = 0 mischaracterized"
            block = "+" * code.count("+") + "-" * code.count("-")
            hits_max = code == block and ("0" not in code or k == 0)
            if (w == top) != hits_max:
                yield f"w({code}) = {w} vs max form"
            yield None


@_property("code-weight/binary-readings")
def check_binary_readings(nmax: int, cap: int) -> Cases:
    for k in range(0, min(nmax, 12) + 1):
        for bits in itertools.product("0+", repeat=k):
            code = "".join(bits)
            expected = int(code.replace("+", "1"), 2) if code else 0
            yield None if weight(code) == expected else f"w({code}) != binary {expected}"
        for bits in itertools.product("0-", repeat=k):
            code = "".join(bits)
            expected = int(code[::-1].replace("-", "1"), 2) if code else 0
            yield None if weight(code) == expected else f"w({code}) != reverse binary {expected}"


@_property("code-weight/tiebreak-invariance")
def check_tiebreak(nmax: int, cap: int) -> Cases:
    for k in range(0, min(nmax, 12) + 1):
        for code in _codes(k):
            yield None if weight(code, tie="-") == weight(code, tie="+") else (
                f"tie-break changes w({code})"
            )


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


@_property("code-weight/block-formula")
def check_block_formula(nmax: int, cap: int) -> Cases:
    for beta, p, gamma, q, delta in _block_splits():
        alpha = beta + "+" * p + gamma + "-" * q + delta
        expected = (
            weight(beta + gamma + delta)
            + (1 << (p + len(gamma) + q + len(beta)))
            - (1 << (len(gamma) + len(beta)))
        )
        yield None if weight(alpha) == expected else (
            f"w({alpha}) != {expected} for split {beta}|{p}|{gamma}|{q}|{delta}"
        )


@_property("code-weight/zero-append")
def check_zero_append(nmax: int, cap: int) -> Cases:
    for k in range(0, min(nmax, 10) + 1):
        for code in _codes(k):
            w0 = weight(code + "0")
            w = weight(code)
            for split in range(k + 1):
                if "+" in code[:split]:
                    continue
                if w0 > w + (1 << (k - split)) - 1:
                    yield f"w({code}0) too large for split at {split}"
            yield None


@_property("code-weight/marking-monotonic")
def check_marking_monotonic(nmax: int, cap: int) -> Cases:
    for k in range(1, min(nmax, 12) + 1):
        weight_of = lru_cache(maxsize=None)(weight)  # each code of length k once
        for code in _codes(k):
            w = weight_of(code)
            for i, ch in enumerate(code):
                if ch != "0":
                    continue
                for mark in "+-":
                    marked = code[:i] + mark + code[i + 1:]
                    yield None if weight_of(marked) > w else f"w({marked}) <= w({code})"


@_property("code-weight/displacement-increase")
def check_displacement_weight_increase(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 7) + 1):
        for p in all_perms(n):
            if p[0] == 1 or p[-1] == n:
                continue
            w = weight(code_of(p))
            for move, q in displacement_successors(p):
                w2 = weight(code_of(q))
                yield None if w2 > w else (
                    f"displace {move.value}->{move.target} on {format_perm(p)}: "
                    f"weight {w} -> {w2}"
                )


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@_property("strategies/extremal-bound")
def check_extremal_bound(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 8) + 1):
        for p in all_perms(n):
            for s in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL):
                t = run_strategy(p, s)
                yield None if len(t) <= max(n - 1, 0) else (
                    f"{s} took {len(t)} steps on {format_perm(p)}"
                )


@_property("strategies/stage-monotone")
def check_stage_monotone(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 7) + 1):
        for p in all_perms(n):
            for s in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL):
                level = stage(p)
                for q in run_strategy(p, s).states():
                    level2 = stage(q)
                    if level2 < level:
                        yield f"{s} lowered stage on {format_perm(p)}"
                    level = level2
                yield None


@_property("strategies/lis-lower-bound")
def check_lis_lower_bound(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 8) + 1):
        table = min_placements_table(n, cap=max(cap, 8))
        for p in all_perms(n):
            d = table[rank(p)]
            yield None if n - lis_length(p) <= d <= max(n - 1, 0) else (
                f"min_placements({format_perm(p)}) = {d}"
            )


@_property("strategies/unique-worst-case")
def check_unique_worst_case(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 8) + 1):
        yield None if unique_worst_case_check(n, cap=max(cap, 8)) else (
            f"n={n}: the reversal is not the only state needing n-1 placements"
        )


@_property("strategies/stage-advance-premise")
def check_stage_advance_premise(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 7) + 1):
        for p in all_perms(n):
            if p == identity(n):
                continue
            k = stage(p)
            raisers = sum(1 for v in placeable_values(p) if stage(place(p, v)) > k)
            needed = 2 if (p[0] != 1 and p[-1] != n) else 1
            if raisers < needed:
                yield f"{format_perm(p)} has only {raisers} stage raisers"
            if raisers * (n - k) < 2 * len(placeable_values(p)):
                yield f"{format_perm(p)}: advance probability below 2/(n-k)"
            yield None


# ---------------------------------------------------------------------------
# height-map
# ---------------------------------------------------------------------------

def forward_eviction_heights(n: int) -> list[int]:
    """Longest displacement path from the identity to each state, by rank:
    value iteration (Bellman-Ford style), independent of the Kahn rounds."""
    dist = [-1] * factorial(n)
    dist[0] = 0
    changed = True
    while changed:
        changed = False
        for p in all_perms(n):
            d = dist[rank(p)]
            if d < 0:
                continue
            for _, q in displacement_successors(p):
                r = rank(q)
                if dist[r] < d + 1:
                    dist[r] = d + 1
                    changed = True
    return dist


@_property("height-map/eviction-duality")
def check_eviction_duality(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 6) + 1):
        table = build_height_table(n, cap=max(cap, 6))
        yield None if list(table.heights) == forward_eviction_heights(n) else (
            f"n={n}: forward eviction distances disagree"
        )


@_property("height-map/max-height")
def check_max_heights(nmax: int, cap: int) -> Cases:
    for n in range(1, min(nmax, 8) + 1):
        table = build_height_table(n, cap=max(cap, 8))
        if table.max() != (1 << (n - 1)) - 1:
            yield f"max height at n={n} is {table.max()}"
        if table.height_of(rotation(n)) != (1 << (n - 1)) - 1:
            yield f"rotation not at max height for n={n}"
        if n >= 2 and table.height_of(swap_ends(n)) != 1 << (n - 2):
            yield f"gateway height wrong at n={n}"
        yield None


@_property("height-map/stage1-longest")
def check_stage1_longest(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 7) + 1):
        got = stage1_longest(n, cap=max(cap, 8))
        yield None if got == (1 << (n - 2)) - 1 else f"stage1_longest({n}) = {got}"


@_property("height-map/weight-certificate")
def check_weight_certificate(nmax: int, cap: int) -> Cases:
    # with both ends away from home, eviction paths are weight-graded, so no
    # run inside that region can exceed the code weight range 2^(n-2) - 1
    for n in range(2, min(nmax, 6) + 1):
        memo: dict[tuple, int] = {}

        def longest(p) -> int:
            if p in memo:
                return memo[p]
            best = 0
            for _, q in displacement_successors(p):
                if q[0] == 1 or q[-1] == len(q):
                    continue
                best = max(best, 1 + longest(q))
            memo[p] = best
            return best

        bound = (1 << (n - 2)) - 1
        for p in all_perms(n):
            if p[0] == 1 or p[-1] == n:
                continue
            run = longest(p)
            slack = bound - weight(code_of(p))
            yield None if run <= slack else f"{format_perm(p)} sustains {run} > {slack} evictions"


@_property("height-map/worst-case-code-shape", "converse fails as expected")
def check_mn_code_shape(nmax: int, cap: int) -> Cases:
    converse_broken = False
    for n in range(2, min(nmax, 7) + 1):
        table = build_height_table(n, cap=max(cap, 7))
        top = (1 << (n - 1)) - 1
        members = set(table.members_at(top))
        for p in members:
            c = code_of(p)
            yield None if c == "+" * c.count("+") + "-" * c.count("-") else (
                f"{format_perm(p)} in worst set, code {c}"
            )
        for p in all_perms(n):
            c = code_of(p)
            if c == "+" * c.count("+") + "-" * c.count("-") and p not in members:
                converse_broken = True
    if not converse_broken:
        yield "no counterexample to the converse was found"


# ---------------------------------------------------------------------------
# firings
# ---------------------------------------------------------------------------

@_property("firings/step-count-and-weight")
def check_firing_steps(nmax: int, cap: int) -> Cases:
    # replays each letter's displacement block, the oracle, one displacement
    # at a time, and compares where it ends with apply_letter's splice
    weight_of = lru_cache(maxsize=None)(weight)  # codes of length <= 7 only
    for n in range(3, min(nmax, 9) + 1):
        for word in canonical_words(n):
            p = swap_ends(n)
            for letter in word:
                k = code_shape(code_of(p))[1]
                moves = firing_moves(p, letter.side, letter_target(p, letter))
                if len(moves) != 1 << (k - 1):
                    yield f"{format_word(word)}: block size {len(moves)}"
                fired = apply_letter(p, letter)
                w = weight_of(code_of(p))
                for v, t in moves:
                    p = displace(p, v, t)
                    w2 = weight_of(code_of(p))
                    if w2 != w + 1:
                        yield f"{format_word(word)}: weight step {w}->{w2}"
                    w = w2
                yield None if p == fired else f"{format_word(word)}: splice and cascade disagree"


@_property("firings/schedule-total")
def check_schedule_total(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 8) + 1):
        members = set(worst_case_permutations(n, cap=max(cap, 8)))
        for word in canonical_words(n):
            p = swap_ends(n)
            total = 0
            for letter in word:
                total += len(firing_moves(p, letter.side, letter_target(p, letter)))
                p = apply_letter(p, letter)
            if total != (1 << (n - 2)) - 1:
                yield f"{format_word(word)} used {total} displacements"
            yield None if p in members else f"{format_word(word)} left the worst-case set"


@_property("firings/word-bijection")
def check_word_bijection(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 9) + 1):
        words = canonical_words(n)
        images = {apply_word(w, n) for w in words}
        if len(images) != len(words):
            yield f"n={n}: words collide"
        members = set(worst_case_permutations(n, cap=max(cap, 9)))
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


@_property("firings/confluence")
def check_confluence(nmax: int, cap: int) -> Cases:
    for length in range(0, min(max(nmax - 2, 0), 6) + 1):
        for word in valid_words(length):
            forms = normal_forms(word)
            canon = canonicalize(word)
            if forms != {canon} or not is_canonical(canon):
                yield f"{format_word(word)} has normal forms {forms}"
            yield None if apply_word(word, length + 2) == apply_word(canon, length + 2) else (
                f"rewrite changed the state of {format_word(word)}"
            )


@_property("firings/recurrence-vs-language")
def check_recurrence_language(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 9) + 1):
        by_rights = Counter(
            sum(1 for let in w if let.side == "R") for w in canonical_words(n)
        )
        for i in range(1, n):
            yield None if split_count(i, n - i) == by_rights.get(i - 1, 0) else (
                f"f({i},{n - i}) != language count"
            )
        if worst_case_count(n) != sum(by_rights.values()):
            yield f"diagonal sum mismatch at n={n}"


@_property("firings/short-firing-injectivity")
def check_short_firing_injectivity(nmax: int, cap: int) -> Cases:
    for n in range(2, min(nmax, 9) + 1):
        image = short_firing_image(n)
        if len(image) != 1 << (n - 2):
            yield f"n={n}: image size {len(image)}"
        members = set(worst_case_permutations(n, cap=max(cap, 9)))
        for p in image:
            yield None if p in members else f"n={n}: image leaves the worst-case set"


@_property("firings/partition-roundtrip")
def check_partition_roundtrip(nmax: int, cap: int) -> Cases:
    for length in range(0, min(nmax, 8) + 1):
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


def run_suite(suite: str = "all", nmax: int = 7, cap: int = 10) -> list[PropertyResult]:
    """Run one named suite (or all of them) and collect the results."""
    if suite == "all":
        checks = [c for group in SUITES.values() for c in group]
    elif suite in SUITES:
        checks = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(suite_names())}")
    return [check(nmax, cap) for check in checks]
