"""Executable invariant suites.

Each property here restates one of the package's mathematical guarantees
as an exhaustive (or seeded-random) check at a configurable scale, and
reports a counterexample when it fails.  The ``homing verify`` subcommand
and the test suite both run these; the checks deliberately use independent
machinery where one exists (value iteration against the Kahn-round tables, the
binary readings against the strip recursion, and so on).

``nmax`` caps the permutation sizes and code lengths explored; each
property also carries its own natural ceiling, so ``nmax=7`` keeps every
suite comfortably under a few seconds while still covering thousands to
millions of states.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial
from typing import Callable

from .codes import code_of, weight
from .counting import bell_number, split_count, worst_case_count
from .errors import CycleError
from .firings import (
    FiringLetter,
    apply_word,
    canonical_words,
    canonicalize,
    check_word,
    code_shape,
    firing_moves,
    format_word,
    is_canonical,
    partition_to_word,
    restricted_words,
    short_firing_image,
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
    reverse,
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
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


Check = Callable[[int, int], PropertyResult]


def _ok(name: str, detail: str = "") -> PropertyResult:
    return PropertyResult(name, True, detail)


def _fail(name: str, detail: str) -> PropertyResult:
    return PropertyResult(name, False, detail)


def _codes(k: int):
    return ("".join(c) for c in itertools.product("+-0", repeat=k))


# ---------------------------------------------------------------------------
# perm-core
# ---------------------------------------------------------------------------

def check_placement_semantics(nmax: int, cap: int) -> PropertyResult:
    name = "perm-core/placement-semantics"
    for n in range(1, min(nmax, 6) + 1):
        for p in all_perms(n):
            for v in placeable_values(p):
                q = place(p, v)
                if sorted(q) != list(range(1, n + 1)) or q[v - 1] != v:
                    return _fail(name, f"place({format_perm(p)}, {v}) = {format_perm(q)}")
                if [x for x in q if x != v] != [x for x in p if x != v]:
                    return _fail(name, f"relative order broken: {format_perm(p)} place {v}")
    return _ok(name)


def check_inversion(nmax: int, cap: int) -> PropertyResult:
    name = "perm-core/inversion"
    for n in range(1, min(nmax, 6) + 1):
        for p in all_perms(n):
            for move, q in displacement_successors(p):
                if place(q, move.value) != p:
                    return _fail(name, f"displace {move} on {format_perm(p)} not undone")
            for v in placeable_values(p):
                q = place(p, v)
                if displace(q, v, p.index(v) + 1) != p:
                    return _fail(name, f"place {v} on {format_perm(p)} not undone")
    return _ok(name)


def check_extremes_placed_once(nmax: int, cap: int) -> PropertyResult:
    name = "perm-core/extremes-placed-once"
    strategies = (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL, LEFTMOST_NOT_HOME)
    for n in range(2, min(nmax, 6) + 1):
        for p in all_perms(n):
            for s in strategies:
                moves = run_strategy(p, s).moves
                if moves.count(1) > 1 or moves.count(n) > 1:
                    return _fail(name, f"{s} on {format_perm(p)} placed an extreme twice")
    return _ok(name)


def check_acyclicity(nmax: int, cap: int) -> PropertyResult:
    name = "perm-core/acyclicity"
    try:
        for n in range(1, min(nmax, 7) + 1):
            build_height_table(n, cap=max(cap, 7))
    except CycleError as err:
        return _fail(name, str(err))
    return _ok(name)


# ---------------------------------------------------------------------------
# code-weight
# ---------------------------------------------------------------------------

def check_weight_range(nmax: int, cap: int) -> PropertyResult:
    name = "code-weight/range"
    for k in range(0, min(nmax, 12) + 1):
        top = (1 << k) - 1
        for code in _codes(k):
            w = weight(code)
            if not 0 <= w <= top:
                return _fail(name, f"w({code}) = {w} outside 0..{top}")
            if (w == 0) != (set(code) <= {"0"}):
                return _fail(name, f"w({code}) = 0 mischaracterized")
            block = "+" * code.count("+") + "-" * code.count("-")
            hits_max = code == block and ("0" not in code or k == 0)
            if (w == top) != hits_max:
                return _fail(name, f"w({code}) = {w} vs max form")
    return _ok(name)


def check_binary_readings(nmax: int, cap: int) -> PropertyResult:
    name = "code-weight/binary-readings"
    for k in range(0, min(nmax, 12) + 1):
        for bits in itertools.product("0+", repeat=k):
            code = "".join(bits)
            expected = int(code.replace("+", "1"), 2) if code else 0
            if weight(code) != expected:
                return _fail(name, f"w({code}) != binary {expected}")
        for bits in itertools.product("0-", repeat=k):
            code = "".join(bits)
            expected = int(code[::-1].replace("-", "1"), 2) if code else 0
            if weight(code) != expected:
                return _fail(name, f"w({code}) != reverse binary {expected}")
    return _ok(name)


def check_tiebreak(nmax: int, cap: int) -> PropertyResult:
    name = "code-weight/tiebreak-invariance"
    for k in range(0, min(nmax, 12) + 1):
        for code in _codes(k):
            if weight(code, tie="-") != weight(code, tie="+"):
                return _fail(name, f"tie-break changes w({code})")
    return _ok(name)


def check_block_formula(nmax: int, cap: int) -> PropertyResult:
    name = "code-weight/block-formula"
    rng = random.Random(171)
    for _ in range(400):
        beta = "".join(rng.choice("-0") for _ in range(rng.randrange(0, 4)))
        delta = "".join(rng.choice("+0") for _ in range(len(beta)))
        gamma = ""
        while True:
            gamma = "".join(rng.choice("+-0") for _ in range(rng.randrange(0, 5)))
            if not gamma or (gamma[0] != "+" and gamma[-1] != "-"):
                break
        p = rng.randrange(1, 4)
        q = rng.randrange(1, 4)
        alpha = beta + "+" * p + gamma + "-" * q + delta
        expected = (
            weight(beta + gamma + delta)
            + (1 << (p + len(gamma) + q + len(beta)))
            - (1 << (len(gamma) + len(beta)))
        )
        if weight(alpha) != expected:
            return _fail(name, f"w({alpha}) != {expected} for split {beta}|{p}|{gamma}|{q}|{delta}")
    return _ok(name)


def check_zero_append(nmax: int, cap: int) -> PropertyResult:
    name = "code-weight/zero-append"
    for k in range(0, min(nmax, 10) + 1):
        for code in _codes(k):
            w0 = weight(code + "0")
            w = weight(code)
            for split in range(k + 1):
                if "+" in code[:split]:
                    continue
                if w0 > w + (1 << (k - split)) - 1:
                    return _fail(name, f"w({code}0) too large for split at {split}")
    return _ok(name)


def check_marking_monotonic(nmax: int, cap: int) -> PropertyResult:
    name = "code-weight/marking-monotonic"
    for k in range(1, min(nmax, 12) + 1):
        for code in _codes(k):
            w = weight(code)
            for i, ch in enumerate(code):
                if ch != "0":
                    continue
                for mark in "+-":
                    marked = code[:i] + mark + code[i + 1:]
                    if weight(marked) <= w:
                        return _fail(name, f"w({marked}) <= w({code})")
    return _ok(name)


def check_displacement_weight_increase(nmax: int, cap: int) -> PropertyResult:
    name = "code-weight/displacement-increase"
    for n in range(2, min(nmax, 7) + 1):
        for p in all_perms(n):
            if p[0] == 1 or p[-1] == n:
                continue
            w = weight(code_of(p))
            for move, q in displacement_successors(p):
                w2 = weight(code_of(q))
                if w2 <= w:
                    return _fail(
                        name,
                        f"displace {move.value}->{move.target} on {format_perm(p)}: "
                        f"weight {w} -> {w2}",
                    )
    return _ok(name)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def check_extremal_bound(nmax: int, cap: int) -> PropertyResult:
    name = "strategies/extremal-bound"
    for n in range(1, min(nmax, 7) + 1):
        for p in all_perms(n):
            for s in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL):
                t = run_strategy(p, s)
                if len(t) > max(n - 1, 0):
                    return _fail(name, f"{s} took {len(t)} steps on {format_perm(p)}")
    return _ok(name)


def check_stage_monotone(nmax: int, cap: int) -> PropertyResult:
    name = "strategies/stage-monotone"
    for n in range(1, min(nmax, 7) + 1):
        for p in all_perms(n):
            for s in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL):
                level = stage(p)
                for q in run_strategy(p, s).states():
                    level2 = stage(q)
                    if level2 < level:
                        return _fail(name, f"{s} lowered stage on {format_perm(p)}")
                    level = level2
    return _ok(name)


def check_lis_lower_bound(nmax: int, cap: int) -> PropertyResult:
    name = "strategies/lis-lower-bound"
    for n in range(1, min(nmax, 8) + 1):
        table = min_placements_table(n, cap=max(cap, 8))
        for p in all_perms(n):
            d = table[rank(p)]
            if d < n - lis_length(p) or d > max(n - 1, 0):
                return _fail(name, f"min_placements({format_perm(p)}) = {d}")
    return _ok(name)


def check_unique_worst_case(nmax: int, cap: int) -> PropertyResult:
    name = "strategies/unique-worst-case"
    for n in range(2, min(nmax, 8) + 1):
        table = min_placements_table(n, cap=max(cap, 8))
        worst = [r for r, d in enumerate(table) if d == n - 1]
        if worst != [rank(reverse(n))]:
            return _fail(name, f"n={n}: {len(worst)} permutations need n-1 placements")
    return _ok(name)


def check_stage_advance_premise(nmax: int, cap: int) -> PropertyResult:
    name = "strategies/stage-advance-premise"
    for n in range(2, min(nmax, 7) + 1):
        for p in all_perms(n):
            if p == identity(n):
                continue
            k = stage(p)
            raisers = sum(1 for v in placeable_values(p) if stage(place(p, v)) > k)
            needed = 2 if (p[0] != 1 and p[-1] != n) else 1
            if raisers < needed:
                return _fail(name, f"{format_perm(p)} has only {raisers} stage raisers")
            if raisers * (n - k) < 2 * len(placeable_values(p)):
                return _fail(name, f"{format_perm(p)}: advance probability below 2/(n-k)")
    return _ok(name)


# ---------------------------------------------------------------------------
# height-map
# ---------------------------------------------------------------------------

def check_eviction_duality(nmax: int, cap: int) -> PropertyResult:
    name = "height-map/eviction-duality"
    for n in range(1, min(nmax, 6) + 1):
        table = build_height_table(n, cap=max(cap, 6))
        dist = [-1] * factorial(n)
        dist[0] = 0
        changed = True
        while changed:  # value iteration, independent of the Kahn rounds
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
        if list(table.heights) != dist:
            return _fail(name, f"n={n}: forward eviction distances disagree")
    return _ok(name)


def check_max_heights(nmax: int, cap: int) -> PropertyResult:
    name = "height-map/max-height"
    for n in range(1, min(nmax, 8) + 1):
        table = build_height_table(n, cap=max(cap, 8))
        if table.max() != (1 << (n - 1)) - 1:
            return _fail(name, f"max height at n={n} is {table.max()}")
        if table.height_of(rotation(n)) != (1 << (n - 1)) - 1:
            return _fail(name, f"rotation not at max height for n={n}")
        if n >= 2 and table.height_of(swap_ends(n)) != 1 << (n - 2):
            return _fail(name, f"gateway height wrong at n={n}")
    return _ok(name)


def check_stage1_longest(nmax: int, cap: int) -> PropertyResult:
    name = "height-map/stage1-longest"
    for n in range(2, min(nmax, 7) + 1):
        got = stage1_longest(n, cap=max(cap, 8))
        if got != (1 << (n - 2)) - 1:
            return _fail(name, f"stage1_longest({n}) = {got}")
    return _ok(name)


def check_weight_certificate(nmax: int, cap: int) -> PropertyResult:
    # with both ends away from home, eviction paths are weight-graded, so no
    # run inside that region can exceed the code weight range 2^(n-2) - 1
    name = "height-map/weight-certificate"
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
            if run > slack:
                return _fail(name, f"{format_perm(p)} sustains {run} > {slack} evictions")
    return _ok(name)


def check_mn_code_shape(nmax: int, cap: int) -> PropertyResult:
    name = "height-map/worst-case-code-shape"
    converse_broken = False
    for n in range(2, min(nmax, 7) + 1):
        table = build_height_table(n, cap=max(cap, 7))
        top = (1 << (n - 1)) - 1
        members = set(table.members_at(top))
        for p in members:
            c = code_of(p)
            if c != "+" * c.count("+") + "-" * c.count("-"):
                return _fail(name, f"{format_perm(p)} in worst set, code {c}")
        for p in all_perms(n):
            c = code_of(p)
            if c == "+" * c.count("+") + "-" * c.count("-") and p not in members:
                converse_broken = True
    if not converse_broken:
        return _fail(name, "no counterexample to the converse was found")
    return _ok(name, "converse fails as expected")


# ---------------------------------------------------------------------------
# firings
# ---------------------------------------------------------------------------

def check_firing_steps(nmax: int, cap: int) -> PropertyResult:
    name = "firings/step-count-and-weight"
    for n in range(3, min(nmax, 8) + 1):
        for word in canonical_words(n):
            p = swap_ends(n)
            for letter in word:
                i, k, _ = code_shape(code_of(p))
                target = (i + 1) - letter.index if letter.side == "L" else (i + k + 2) + letter.index
                moves = firing_moves(p, letter.side, target)
                if len(moves) != 1 << (k - 1):
                    return _fail(name, f"{format_word(word)}: block size {len(moves)}")
                w = weight(code_of(p))
                for v, t in moves:
                    p = displace(p, v, t)
                    w2 = weight(code_of(p))
                    if w2 != w + 1:
                        return _fail(name, f"{format_word(word)}: weight step {w}->{w2}")
                    w = w2
    return _ok(name)


def check_schedule_total(nmax: int, cap: int) -> PropertyResult:
    name = "firings/schedule-total"
    for n in range(2, min(nmax, 8) + 1):
        top = (1 << (n - 1)) - 1
        members = set(worst_case_permutations(n, cap=max(cap, 8)))
        for word in canonical_words(n):
            p = swap_ends(n)
            total = 0
            for letter in word:
                i, k, _ = code_shape(code_of(p))
                target = (i + 1) - letter.index if letter.side == "L" else (i + k + 2) + letter.index
                moves = firing_moves(p, letter.side, target)
                total += len(moves)
                for v, t in moves:
                    p = displace(p, v, t)
            if total != (1 << (n - 2)) - 1:
                return _fail(name, f"{format_word(word)} used {total} displacements")
            if p not in members:
                return _fail(name, f"{format_word(word)} left the worst-case set")
    return _ok(name)


def check_word_bijection(nmax: int, cap: int) -> PropertyResult:
    name = "firings/word-bijection"
    for n in range(2, min(nmax, 9) + 1):
        words = canonical_words(n)
        images = [apply_word(w, n) for w in words]
        if len(set(images)) != len(words):
            return _fail(name, f"n={n}: words collide")
        members = set(worst_case_permutations(n, cap=max(cap, 9)))
        if set(images) != members:
            return _fail(name, f"n={n}: image has {len(set(images))} of {len(members)}")
    return _ok(name)


def check_confluence(nmax: int, cap: int) -> PropertyResult:
    name = "firings/confluence"
    limit = min(max(nmax - 2, 0), 6)

    def normal_forms(word):
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
                + (
                    FiringLetter("R", word[i + 1].index - 1),
                    FiringLetter("L", word[i].index + 1),
                )
                + word[i + 2:]
            )
            forms |= normal_forms(rewritten)
        return forms

    for length in range(0, limit + 1):
        for word in _valid_words(length):
            forms = normal_forms(word)
            canon = canonicalize(word)
            if forms != {canon} or not is_canonical(canon):
                return _fail(name, f"{format_word(word)} has normal forms {forms}")
            if apply_word(word, length + 2) != apply_word(canon, length + 2):
                return _fail(name, f"rewrite changed the state of {format_word(word)}")
    return _ok(name)


def _valid_words(length: int):
    def extend(prefix, lefts, rights):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for t in range(rights + 1):
            yield from extend(prefix + [FiringLetter("L", t)], lefts + 1, rights)
        for t in range(lefts + 1):
            yield from extend(prefix + [FiringLetter("R", t)], lefts, rights + 1)

    yield from extend([], 0, 0)


def check_recurrence_language(nmax: int, cap: int) -> PropertyResult:
    name = "firings/recurrence-vs-language"
    from collections import Counter

    for n in range(2, min(nmax, 9) + 1):
        by_rights = Counter(
            sum(1 for let in w if let.side == "R") for w in canonical_words(n)
        )
        for i in range(1, n):
            if split_count(i, n - i) != by_rights.get(i - 1, 0):
                return _fail(name, f"f({i},{n - i}) != language count")
        if worst_case_count(n) != sum(by_rights.values()):
            return _fail(name, f"diagonal sum mismatch at n={n}")
    return _ok(name)


def check_short_firing_injectivity(nmax: int, cap: int) -> PropertyResult:
    name = "firings/short-firing-injectivity"
    for n in range(2, min(nmax, 9) + 1):
        image = short_firing_image(n)
        if len(image) != 1 << (n - 2):
            return _fail(name, f"n={n}: image size {len(image)}")
        if n <= min(nmax, 8):
            members = set(worst_case_permutations(n, cap=max(cap, 8)))
            if not image <= members:
                return _fail(name, f"n={n}: image leaves the worst-case set")
    return _ok(name)


def check_partition_roundtrip(nmax: int, cap: int) -> PropertyResult:
    name = "firings/partition-roundtrip"
    for length in range(0, min(nmax, 8) + 1):
        count = 0
        seen = set()
        for word in restricted_words(length):
            check_word(word)
            q = word_to_partition(word)
            if partition_to_word(q) != word:
                return _fail(name, f"roundtrip failed for {format_word(word, True)}")
            seen.add(q)
            count += 1
        if count != len(seen) or count != bell_number(length + 1):
            return _fail(name, f"length {length}: {count} words, {len(seen)} partitions")
    return _ok(name)


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
