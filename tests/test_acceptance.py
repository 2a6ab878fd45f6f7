"""End-to-end acceptance checks, one test per headline claim.

Each test prints a single PASS line with the measured numbers (visible
with ``pytest -s``); scales and tolerances are pinned here, not
configurable.  Where a claim is one of ``homing.verify``'s properties the
test runs that check at its pinned scale, and the counts in the PASS line
are the cases the check asserted on.  There is no table fixture: the
checks, and the tests that read a table, share one table per n through
:mod:`homing.verify`, and the one timing gate times a build of its own.
"""
import time
from fractions import Fraction
from math import factorial

from homing import identity, rotation, swap_ends, verify
from homing.counting import bell_number, growth_csv, growth_table, worst_case_count
from homing.firings import apply_word, canonicalize, format_word, parse_word
from homing.heights import build_height_table
from homing.strategies import LEFTMOST_NOT_HOME, min_placements, random_homing_mean, run_strategy

WORST_CASE_COUNTS = {2: 1, 3: 2, 4: 5, 5: 16, 6: 62, 7: 280, 8: 1440, 9: 8296, 10: 52864}


def passes(check, nmax):
    """Run one ``homing.verify`` property at a pinned scale; its case count."""
    result = check(nmax)
    assert result.passed, f"{result.name}: {result.detail}"
    return result.cases


def test_worst_case_bound():
    """Longest homing run is exactly 2^(n-1) - 1, reached by the rotation,
    over every state for n = 1..10 (``check_max_heights``, which also
    asserts the top-level counts and the gateway); a fresh n = 9 table
    builds in under 5 s."""
    assert passes(verify.check_max_heights, 10) == 10  # one case per n
    start = time.perf_counter()
    build_height_table(9)
    n9 = time.perf_counter() - start
    assert n9 < 5.0
    print(f"\nPASS worst-case bound: max height = 2^(n-1)-1 for n=1..10 (n=9 rebuilt in {n9:.1f}s)")


def test_worst_case_set_sizes():
    """The worst-case sets have sizes 1,2,5,16,62,280,1440,8296,52864 for
    n = 2..10, on verify's shared tables, matching the recurrence exactly."""
    for n in WORST_CASE_COUNTS:
        members = verify._table(n).members_at((1 << (n - 1)) - 1)
        assert len(members) == worst_case_count(n) == WORST_CASE_COUNTS[n]
    print("\nPASS worst-case set sizes: exhaustive counts match the recurrence for n=2..10")


def test_gateway_height():
    """The gateway state n,2,...,n-1,1 sits at height exactly 2^(n-2), on
    verify's shared tables for n = 2..10."""
    for n in range(2, 11):
        assert verify._table(n).height_of(swap_ends(n)) == 1 << (n - 2)
    print("\nPASS gateway height: height(n,2,...,n-1,1) = 2^(n-2) for n=2..10")


def test_hanoi_trace():
    """Leftmost-not-home on the rotation takes exactly 2^(n-1) - 1 legal
    steps for n = 2..20; the half-million-step n=20 run and one pass over
    its text stay under 10s together."""
    for n in range(2, 20):
        assert len(run_strategy(rotation(n), LEFTMOST_NOT_HOME)) == (1 << (n - 1)) - 1
    start = time.perf_counter()
    trace = run_strategy(rotation(20), LEFTMOST_NOT_HOME)  # every placement validates
    lines = sum(chunk.count(b"\n") for chunk in trace.text())
    elapsed = time.perf_counter() - start
    assert len(trace) == lines == (1 << 19) - 1 == 524287
    assert trace.final == identity(20)
    assert elapsed < 10.0
    print(
        f"\nPASS hanoi trace: 2^(n-1)-1 steps for n=2..20 "
        f"(n=20: 524287 steps and their text in {elapsed:.1f}s)"
    )


def test_fast_homing_exhaustive():
    """For every permutation of up to 8 values: extremal strategies finish
    within n-1 steps, the shortest sort needs at least n - LIS steps, and
    only the reversal needs the full n-1."""
    for check in (verify.check_extremal_bound, verify.check_lis_lower_bound, verify.check_unique_worst_case):
        passes(check, 8)
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
    """All 3^k codes for k <= 12: range and extremes, the two binary
    readings and strict increase under marking a 0; the zero-append bound
    for k <= 11; tie-break invariance, and the weight kernel equal to the
    definition, for k <= 10; and the block formula.  Zero failures."""
    checked = passes(verify.check_weight_range, 12)
    for check in (verify.check_binary_readings, verify.check_zero_append, verify.check_marking_monotonic):
        passes(check, 12)
    tied = passes(verify.check_tiebreak, 10)
    block_checked = passes(verify.check_block_formula, 12)
    print(
        f"\nPASS weight calculus: {checked} codes (k<=12), {tied} against the "
        f"definition (k<=10) and {block_checked} block decompositions, zero failures"
    )


def test_displacement_raises_weight_exhaustive():
    """With both end values away from home, every displacement strictly
    raises the code weight, and keeps both ends away; exhaustive for n <= 9."""
    checked = passes(verify.check_displacement_weight_increase, 9)
    print(f"\nPASS displacement weight increase: {checked} moves checked, n<=9")


def test_pinned_eviction_longest():
    """Evicting while the value 1 never moves allows exactly 2^(n-2) - 1
    steps, for n = 2..9: the full maximum needs both ends in play."""
    passes(verify.check_stage1_longest, 9)
    print("\nPASS pinned eviction: longest run fixing value 1 is 2^(n-2)-1 for n=2..9")


def test_weight_certificate_exhaustive():
    """With both end values away from home, no state sustains more than
    2^(n-2) - 1 - w(p) evictions, where w(p) is its code weight; every such
    state for n <= 9."""
    checked = passes(verify.check_weight_certificate, 9)
    print(f"\nPASS weight certificate: {checked} states with both ends away, n<=9")


def test_worst_case_code_shape():
    """Every worst case has a code +^a -^b, and some state with such a
    code is not a worst case; exhaustive for n <= 9."""
    checked = passes(verify.check_mn_code_shape, 9)
    print(f"\nPASS worst-case code shape: {checked} worst cases of the form +^a -^b, n<=9")


def test_firing_words_biject_onto_worst_cases():
    """For n <= 9 the canonical words map bijectively onto the worst-case
    set.  Every legal letter is fired once from every state a canonical
    prefix reaches: each firing spends exactly 2^(k-1) legal displacements,
    each raising the weight by exactly one, and ends where the gather does,
    with the promised code and landing value."""
    passes(verify.check_word_bijection, 9)
    firings = passes(verify.check_firing_steps, 9)
    print(f"\nPASS firing machinery: words biject onto worst cases for n<=9, unit weight steps on {firings} firings")


def test_short_firing_injectivity():
    """The 2^(n-2) all-short schedules reach 2^(n-2) distinct worst-case
    states, for n = 2..9."""
    passes(verify.check_short_firing_injectivity, 9)
    print("\nPASS short firings: 2^(n-2) distinct worst-case states for n=2..9")


def test_partition_bijection_and_bounds():
    """Restricted words and set partitions are in bijection (counts equal
    the Bell numbers for n = 2..10), and the worst-case count sits between
    B_(n-1) and (n-1)! for n = 2..30."""
    passes(verify.check_partition_roundtrip, 8)
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
    total = passes(verify.check_confluence, 8)
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
