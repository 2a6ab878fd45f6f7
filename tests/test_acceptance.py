"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS line with the measured numbers (visible
with ``pytest -s``); scales and tolerances are pinned here, not
configurable.  The heavyweight exhaustive tables are shared through the
session-scoped ``tables`` fixture.
"""
import itertools
import os
import time
from fractions import Fraction
from math import factorial

import pytest

from homing import (
    all_perms,
    code_of,
    displace,
    displacement_successors,
    identity,
    lis_length,
    place,
    placeable_values,
    rank,
    reverse,
    rotation,
    swap_ends,
    weight,
)
from homing.counting import bell_number, growth_csv, growth_table, worst_case_count
from homing.firings import (
    apply_word,
    canonical_words,
    canonicalize,
    code_shape,
    firing_moves,
    format_word,
    parse_word,
    restricted_words,
    partition_to_word,
    short_firing_image,
    word_to_partition,
)
from homing.heights import stage1_longest
from homing.strategies import (
    ALTERNATING_EXTREMAL,
    LARGEST_FIRST,
    LEFTMOST_NOT_HOME,
    SMALLEST_FIRST,
    min_placements,
    min_placements_table,
    random_homing_mean,
    run_strategy,
)

WORST_CASE_COUNTS = {2: 1, 3: 2, 4: 5, 5: 16, 6: 62, 7: 280, 8: 1440, 9: 8296, 10: 52864}

RUN_N10 = os.environ.get("HOMING_EXHAUSTIVE_N10") == "1"


def test_worst_case_bound(tables):
    """Longest homing run is exactly 2^(n-1) - 1, exhaustively for n = 1..9."""
    for n in range(1, 10):
        assert tables.get(n).max() == (1 << (n - 1)) - 1
    n9 = tables.build_seconds[9]
    assert n9 < 30.0
    print(f"\nPASS worst-case bound: max height = 2^(n-1)-1 for n=1..9 (n=9 in {n9:.1f}s)")


def test_worst_case_set_sizes(tables):
    """The worst-case sets have sizes 1,2,5,16,62,280,1440,8296, matching
    the recurrence exactly."""
    for n in range(2, 10):
        members = tables.get(n).members_at((1 << (n - 1)) - 1)
        assert len(members) == WORST_CASE_COUNTS[n]
        assert worst_case_count(n) == WORST_CASE_COUNTS[n]
    print("\nPASS worst-case set sizes: exhaustive counts match the recurrence for n=2..9")


def test_gateway_height(tables):
    """The gateway state n,2,...,n-1,1 sits at height exactly 2^(n-2)."""
    for n in range(2, 10):
        assert tables.get(n).height_of(swap_ends(n)) == 1 << (n - 2)
    print("\nPASS gateway height: height(n,2,...,n-1,1) = 2^(n-2) for n=2..9")


def test_hanoi_trace():
    """Leftmost-not-home on the rotation takes exactly 2^(n-1) - 1 legal
    steps for n = 2..20; the half-million-step n=20 run stays under 10s."""
    for n in range(2, 20):
        assert len(run_strategy(rotation(n), LEFTMOST_NOT_HOME)) == (1 << (n - 1)) - 1
    start = time.perf_counter()
    trace = run_strategy(rotation(20), LEFTMOST_NOT_HOME)  # every place() validates
    elapsed = time.perf_counter() - start
    assert len(trace) == (1 << 19) - 1 == 524287
    assert trace.final == identity(20)
    assert elapsed < 10.0
    print(f"\nPASS hanoi trace: 2^(n-1)-1 steps for n=2..20 (n=20: 524287 steps in {elapsed:.1f}s)")


def test_fast_homing_exhaustive():
    """For every permutation of up to 8 values: extremal strategies finish
    within n-1 steps, the shortest sort needs at least n - LIS steps, and
    only the reversal needs the full n-1."""
    for n in range(1, 9):
        table = min_placements_table(n)
        worst = [r for r, d in enumerate(table) if d == n - 1]
        if n >= 2:
            assert worst == [rank(reverse(n))]
        for p in all_perms(n):
            d = table[rank(p)]
            assert d >= n - lis_length(p)
            assert d <= max(n - 1, 0)
            for strategy in (SMALLEST_FIRST, LARGEST_FIRST, ALTERNATING_EXTREMAL):
                assert len(run_strategy(p, strategy)) <= max(n - 1, 0)
    assert min_placements((4, 1, 3, 5, 2)) == 3
    print("\nPASS fast homing: extremal bound, LIS bound, unique worst case for n<=8")


def test_random_homing_bound():
    """10,000 seeded trials at n = 8 and n = 12 stay below the proven mean
    ceiling (n(n+1) - 2)/4 (a one-sided bound)."""
    margins = {}
    for n in (8, 12):
        est = random_homing_mean(n, trials=10000, seed=20240917)
        assert est.bound == Fraction(n * (n + 1) - 2, 4)
        assert est.mean <= est.bound
        margins[n] = float(est.margin)
    print(
        f"\nPASS random homing: mean below bound at n=8 (margin {margins[8]:.2f}) "
        f"and n=12 (margin {margins[12]:.2f}), 10000 trials each"
    )


def test_weight_calculus_exhaustive():
    """All 3^k codes for k <= 10: range and extremes, the two binary
    readings, tie-break invariance, the block formula, the zero-append
    bound, and strict increase under marking a 0.  Zero failures."""
    checked = 0
    for k in range(0, 11):
        top = (1 << k) - 1
        for chars in itertools.product("+-0", repeat=k):
            code = "".join(chars)
            w = weight(code)
            checked += 1
            # range and extremes
            assert 0 <= w <= top
            assert (w == 0) == (code.count("0") == k)
            block = "+" * code.count("+") + "-" * code.count("-")
            assert (w == top) == ((code == block and "0" not in code) or k == 0)
            # tie-break invariance
            assert weight(code, tie="+") == w
            # binary readings
            if "-" not in code:
                assert w == (int(code.replace("+", "1"), 2) if k else 0)
            if "+" not in code:
                assert w == (int(code[::-1].replace("-", "1"), 2) if k else 0)
            # zero-append bound, for every admissible split
            w0 = weight(code + "0")
            for split in range(k + 1):
                if "+" not in code[:split]:
                    assert w0 <= w + (1 << (k - split)) - 1
            # marking a zero strictly increases the weight
            for i, ch in enumerate(code):
                if ch == "0":
                    assert weight(code[:i] + "+" + code[i + 1:]) > w
                    assert weight(code[:i] + "-" + code[i + 1:]) > w
    # block formula: every decomposition on a small exhaustive grid
    block_checked = 0
    pieces_bd = ["", "0", "-", "00", "-0", "0-", "--"]
    pieces_g = ["", "0", "-", "0+", "00", "-+", "-0", "0-0", "000"]
    for beta in pieces_bd:
        delta = beta.replace("-", "+")
        for gamma in pieces_g:
            if gamma and (gamma[0] == "+" or gamma[-1] == "-"):
                continue
            for p in (1, 2, 3):
                for q in (1, 2, 3):
                    alpha = beta + "+" * p + gamma + "-" * q + delta
                    expected = (
                        weight(beta + gamma + delta)
                        + (1 << (p + len(gamma) + q + len(beta)))
                        - (1 << (len(gamma) + len(beta)))
                    )
                    assert weight(alpha) == expected
                    block_checked += 1
    print(
        f"\nPASS weight calculus: {checked} codes (k<=10) and "
        f"{block_checked} block decompositions, zero failures"
    )


def test_displacement_raises_weight_exhaustive():
    """With both end values away from home, every displacement strictly
    raises the code weight; exhaustive for n <= 7."""
    checked = 0
    for n in range(2, 8):
        for p in all_perms(n):
            if p[0] == 1 or p[-1] == n:
                continue
            w = weight(code_of(p))
            for move, q in displacement_successors(p):
                assert weight(code_of(q)) > w
                checked += 1
    print(f"\nPASS displacement weight increase: {checked} moves checked, n<=7")


def test_pinned_eviction_longest():
    """Evicting while the value 1 never moves allows exactly 2^(n-2) - 1
    steps, for n = 3..7: the full maximum needs both ends in play."""
    for n in range(3, 8):
        assert stage1_longest(n) == (1 << (n - 2)) - 1
    print("\nPASS pinned eviction: longest run fixing value 1 is 2^(n-2)-1 for n=3..7")


def test_firing_words_biject_onto_worst_cases(tables):
    """For n <= 9 the canonical words map bijectively onto the worst-case
    set; every firing spends exactly 2^(k-1) legal displacements, each
    raising the weight by exactly one."""
    for n in range(2, 10):
        words = canonical_words(n)
        members = set(tables.get(n).members_at((1 << (n - 1)) - 1))
        images = set()
        for word in words:
            p = swap_ends(n)
            for letter in word:
                i, k, _ = code_shape(code_of(p))
                target = (i + 1) - letter.index if letter.side == "L" else (i + k + 2) + letter.index
                moves = firing_moves(p, letter.side, target)
                assert len(moves) == 1 << (k - 1)
                w = weight(code_of(p))
                for v, t in moves:
                    p = displace(p, v, t)  # validates legality
                    w2 = weight(code_of(p))
                    assert w2 == w + 1
                    w = w2
            images.add(p)
        assert len(images) == len(words)
        assert images == members
    print("\nPASS firing machinery: words biject onto worst cases for n<=9, unit weight steps")


def test_short_firing_injectivity(tables):
    """The 2^(n-2) all-short schedules reach 2^(n-2) distinct worst-case
    states, for n = 2..9."""
    for n in range(2, 10):
        image = short_firing_image(n)
        assert len(image) == 1 << (n - 2)
        members = set(tables.get(n).members_at((1 << (n - 1)) - 1))
        assert image <= members
    print("\nPASS short firings: 2^(n-2) distinct worst-case states for n=2..9")


def test_partition_bijection_and_bounds():
    """Restricted words and set partitions are in bijection (counts equal
    the Bell numbers for n = 2..10), and the worst-case count sits between
    B_(n-1) and (n-1)! for n = 2..30."""
    for n in range(2, 11):
        length = n - 2
        seen = set()
        count = 0
        for word in restricted_words(length):
            q = word_to_partition(word)
            assert partition_to_word(q) == word
            seen.add(q)
            count += 1
        assert count == len(seen) == bell_number(n - 1)
    for n in range(2, 31):
        assert bell_number(n - 1) <= worst_case_count(n) <= factorial(n - 1)
    print("\nPASS partition bijection: counts are Bell numbers (n<=10); Bell <= count <= factorial (n<=30)")


def test_canonicalization():
    """The worked rewrite example holds, both source and canonical words
    fire to the same state; rewriting is confluent for all words of
    length <= 6."""
    scrambled = parse_word("L0,R1,R0,L1,R2,R1")
    canon = canonicalize(scrambled)
    assert format_word(canon) == "R0,L1,R0,R1,R0,L3"
    target = (7, 6, 8, 1, 3, 2, 5, 4)
    assert apply_word(scrambled, 8) == target
    assert apply_word(canon, 8) == target

    def normal_forms(word):
        redexes = [
            i
            for i in range(len(word) - 1)
            if word[i].side == "L" and word[i + 1].side == "R" and word[i + 1].index >= 1
        ]
        if not redexes:
            return {word}
        out = set()
        from homing.firings import FiringLetter

        for i in redexes:
            rewritten = (
                word[:i]
                + (
                    FiringLetter("R", word[i + 1].index - 1),
                    FiringLetter("L", word[i].index + 1),
                )
                + word[i + 2:]
            )
            out |= normal_forms(rewritten)
        return out

    def valid_words(length):
        from homing.firings import FiringLetter

        def extend(prefix, lefts, rights):
            if len(prefix) == length:
                yield tuple(prefix)
                return
            for t in range(rights + 1):
                yield from extend(prefix + [FiringLetter("L", t)], lefts + 1, rights)
            for t in range(lefts + 1):
                yield from extend(prefix + [FiringLetter("R", t)], lefts, rights + 1)

        yield from extend([], 0, 0)

    total = 0
    for length in range(0, 7):
        for word in valid_words(length):
            assert normal_forms(word) == {canonicalize(word)}
            total += 1
    print(f"\nPASS canonicalization: worked example and confluence over {total} words (length<=6)")


def test_growth_table():
    """The 80-row growth table builds in under 10 seconds, is ordered
    bell <= count <= factorial throughout, and is stable to 12 significant
    digits across runs."""
    start = time.perf_counter()
    rows = growth_table(80)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert [r.n for r in rows] == list(range(2, 81))
    for r in rows:
        assert r.bell_root <= r.mn_root <= r.factorial_root
    digits_a = [
        (f"{r.factorial_root:.12g}", f"{r.mn_root:.12g}", f"{r.bell_root:.12g}")
        for r in growth_table(80)
    ]
    digits_b = [
        (f"{r.factorial_root:.12g}", f"{r.mn_root:.12g}", f"{r.bell_root:.12g}")
        for r in growth_table(80)
    ]
    assert digits_a == digits_b
    assert growth_csv(rows) == growth_csv(growth_table(80))
    print(f"\nPASS growth table: 80 ordered rows in {elapsed:.2f}s, 12-digit stable")


@pytest.mark.skipif(not RUN_N10, reason="set HOMING_EXHAUSTIVE_N10=1 to run the 10! table")
def test_optional_exhaustive_n10(tables):
    """Optional 3.6M-state check: the bound and the count hold at n = 10.

    Opt-in because the table takes about 3 s and 90 MB at its peak on a
    2-vCPU host, where the n <= 9 tables take 0.3 s together."""
    table = tables.get(10)
    assert table.max() == (1 << 9) - 1
    assert len(table.members_at((1 << 9) - 1)) == 52864
    print(f"\nPASS exhaustive n=10: max 511, 52864 worst cases ({tables.build_seconds[10]:.0f}s)")
