"""Recurrence counts, Bell numbers, the heuristic sequence, and growth rows."""
import importlib.util
import sys
import threading
from fractions import Fraction
from math import comb, factorial, isclose

import pytest

from homing import InputError
from homing.counting import (
    bell_number,
    growth_csv,
    growth_table,
    nth_root,
    prellberg_ratios,
    prellberg_sequence,
    split_count,
    worst_case_count,
)
from homing.firings import canonical_words

WORST_CASE_SEQUENCE = {
    2: 1, 3: 2, 4: 5, 5: 16, 6: 62, 7: 280, 8: 1440, 9: 8296, 10: 52864,
}


def test_split_count_base_cases():
    assert split_count(1, 1) == 1
    assert split_count(0, 3) == 0
    assert split_count(3, 0) == 0
    assert split_count(-1, 2) == 0


def test_split_count_recurrence_holds():
    for i in range(1, 12):
        for j in range(1, 12):
            if i + j < 3:
                continue
            assert split_count(i, j) == (
                i * split_count(i, j - 1)
                + j * split_count(i - 1, j)
                - (i - 1) * (j - 1) * split_count(i - 1, j - 1)
            )


@pytest.mark.parametrize("n, count", sorted(WORST_CASE_SEQUENCE.items()))
def test_worst_case_count_sequence(n, count):
    assert worst_case_count(n) == count


def test_diagonal_sum_example():
    assert sum(split_count(i, 5 - i) for i in range(1, 5)) == 16


@pytest.mark.parametrize("n", range(2, 9))
def test_split_count_matches_word_language(n):
    # dual route: the recurrence against direct enumeration of the language
    from collections import Counter

    by_rights = Counter(
        sum(1 for let in w if let.side == "R") for w in canonical_words(n)
    )
    for i in range(1, n):
        assert split_count(i, n - i) == by_rights.get(i - 1, 0)


def test_bounds_bell_and_factorial():
    for n in range(2, 31):
        mn = worst_case_count(n)
        assert bell_number(n - 1) <= mn <= factorial(n - 1)
    # the (n-2)! variant of the upper bound is false: 16 > 3! at n = 5
    assert worst_case_count(5) == 16 > factorial(3)


# -- Bell numbers ---------------------------------------------------------------

def oracle_bell(m):
    """Independent count via recursive block assignment."""
    def count(k, blocks):
        if k == 0:
            return 1
        return count(k - 1, blocks + 1) + blocks * count(k - 1, blocks)

    # assign elements one at a time: new block or one of the existing ones
    return count(m - 1, 1) if m else 1


@pytest.mark.parametrize("m", range(0, 10))
def test_bell_numbers(m):
    assert bell_number(m) == oracle_bell(m)


def _bell_reference(m):
    """B(0..m) by B(k+1) = sum_i C(k, i) B(i), independent of the triangle."""
    b = [1]
    for k in range(m):
        b.append(sum(comb(k, i) * b[i] for i in range(k + 1)))
    return b


def _race(call, expected):
    """Eight threads call ``call(module, slot)`` on a freshly loaded copy of
    ``homing.counting`` at once, with thread switches forced as often as
    the interpreter allows, ten times over; a table shared between calls
    and extended without a lock goes wrong here."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            spec = importlib.util.find_spec("homing.counting")
            cold = importlib.util.module_from_spec(spec)  # a fresh copy of the module
            spec.loader.exec_module(cold)
            barrier = threading.Barrier(8, timeout=30)
            results = [None] * 8

            def work(slot):
                barrier.wait()
                results[slot] = call(cold, slot)

            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == expected
    finally:
        sys.setswitchinterval(interval)


def test_bell_number_is_thread_safe():
    m = 300
    _race(lambda module, slot: module.bell_number(m), [_bell_reference(m)[m]] * 8)


def _split_reference(s):
    """f(i, j) for i + j <= s by the recurrence, in a fresh table."""
    f = [[0] * (s + 1) for _ in range(s + 1)]
    f[1][1] = 1
    for total in range(3, s + 1):
        for i in range(1, total):
            j = total - i
            f[i][j] = i * f[i][j - 1] + j * f[i - 1][j] - (i - 1) * (j - 1) * f[i - 1][j - 1]
    return f


def test_split_count_is_thread_safe():
    # the threads fill the module's shared table of f(i, j) together: each
    # asks for the worst-case count of its own n, then for one split count
    f = _split_reference(80)
    expected = [
        (sum(f[i][n - i] for i in range(1, n)), f[slot + 1][40])
        for slot, n in enumerate(range(73, 81))
    ]
    _race(
        lambda module, slot: (module.worst_case_count(73 + slot), module.split_count(slot + 1, 40)),
        expected,
    )


def test_counts_refuse_sizes_below_their_range():
    with pytest.raises(InputError, match="needs n >= 2, got 1"):
        worst_case_count(1)
    with pytest.raises(InputError, match="needs m >= 0, got -1"):
        bell_number(-1)


def test_bell_examples():
    assert bell_number(0) == 1
    assert bell_number(1) == 1
    assert bell_number(4) == 15
    assert bell_number(9) == 21147 <= worst_case_count(10)


# -- heuristic sequence ------------------------------------------------------------

def test_prellberg_defaults():
    seq = prellberg_sequence(5)
    assert seq[0] == seq[1] == 1
    assert seq[2] == 2 * 1 - Fraction(4, 4) * 1 == 1
    assert seq[3] == Fraction(3, 4)
    assert all(isinstance(g, Fraction) for g in seq)


def test_prellberg_long_run_exact():
    seq = prellberg_sequence(200)
    assert len(seq) == 200
    assert all(isinstance(g, Fraction) for g in seq)


def test_prellberg_ratios_trend_to_half_n():
    rows = prellberg_ratios(40)
    n, ratio, half = rows[-1]
    assert n == 39 and half == Fraction(39, 2)
    assert ratio is not None
    assert isclose(float(ratio) / float(half), 1.0, rel_tol=0.2)


def test_prellberg_validation():
    with pytest.raises(ValueError):
        prellberg_sequence(1)


# -- growth table ---------------------------------------------------------------------

def test_growth_rows_ordered_and_exact_anchors():
    rows = growth_table(80)
    assert [r.n for r in rows] == list(range(2, 81))
    for r in rows:
        assert r.bell_root <= r.mn_root <= r.factorial_root
    row10 = rows[8]
    assert row10.n == 10
    assert isclose(row10.mn_root, nth_root(52864, 10), rel_tol=1e-15)
    assert isclose(row10.mn_root ** 10, 52864, rel_tol=1e-12)


def test_growth_stable_to_12_digits():
    a = growth_csv(growth_table(40))
    b = growth_csv(growth_table(40))
    assert a == b
    first = a.splitlines()[1].split(",")
    assert first[0] == "2"


def test_growth_csv_shape():
    text = growth_csv(growth_table(5))
    lines = text.splitlines()
    assert lines[0] == "n,factorial_root,mn_root,bell_root"
    assert len(lines) == 5
    assert text.endswith("\n")
    assert '"' not in text


def test_growth_validation():
    with pytest.raises(ValueError):
        growth_table(1)
    with pytest.raises(ValueError):
        growth_table(300)
    with pytest.raises(ValueError):
        nth_root(0, 3)
