"""Counting the worst cases: the two-index recurrence, Bell numbers, and
growth tables.

``split_count(i, j)`` counts worst-case permutations of i+j values whose
code is i-1 pluses followed by j-1 minuses; equivalently, canonical firing
words with i-1 rights and j-1 lefts.  It satisfies

    f(i, j) = i f(i, j-1) + j f(i-1, j) - (i-1)(j-1) f(i-1, j-1)

with f(1, 1) = 1 and f = 0 on the axes: appending a left letter is always
free (i choices), appending a right letter is free (j choices) except that
an indexed right may not follow a left, which removes (i-1)(j-1) cases.
Summing the anti-diagonal gives the worst-case count
1, 2, 5, 16, 62, 280, 1440, 8296, 52864, ... for n = 2, 3, ...

Everything is exact: counts are Python integers, the heuristic ratio
sequence uses ``fractions.Fraction``, and the growth roots are the only
floating-point values (accurate to well over 12 significant digits).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, log

from .errors import InputError

MAX_NMAX = 200  # the ceiling growth and count tables share

_split_cache: dict[tuple[int, int], int] = {(1, 1): 1}


def split_count(i: int, j: int) -> int:
    """Worst-case permutations of i+j values with code +^(i-1) -^(j-1).

    >>> split_count(1, 1), split_count(2, 2)
    (1, 3)
    """
    if i <= 0 or j <= 0:
        return 0
    cached = _split_cache.get((i, j))
    if cached is not None:
        return cached
    # fill by anti-diagonals so each lookup is already resolved
    for s in range(3, i + j + 1):
        for a in range(1, s):
            b = s - a
            if (a, b) in _split_cache:
                continue
            value = (
                a * _split_cache.get((a, b - 1), 0)
                + b * _split_cache.get((a - 1, b), 0)
                - (a - 1) * (b - 1) * _split_cache.get((a - 1, b - 1), 0)
            )
            _split_cache[(a, b)] = value
    return _split_cache[(i, j)]


def worst_case_count(n: int) -> int:
    """How many permutations of 1..n support the full 2^(n-1) - 1 steps.

    >>> [worst_case_count(n) for n in range(2, 8)]
    [1, 2, 5, 16, 62, 280]
    """
    if n < 2:
        raise InputError(f"needs n >= 2, got {n}")
    return sum(split_count(i, n - i) for i in range(1, n))


def bell_number(m: int) -> int:
    """Number of set partitions of an m-element set, via the Bell triangle.

    The triangle is built afresh on each call, so concurrent calls share no
    state.

    >>> [bell_number(m) for m in range(6)]
    [1, 1, 2, 5, 15, 52]
    """
    if m < 0:
        raise InputError(f"needs m >= 0, got {m}")
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def prellberg_sequence(nmax: int) -> list[Fraction]:
    """The heuristic comparison sequence g with
    g(n+1) = n g(n) - (n^2/4) g(n-1), as exact rationals [g1, ..., g(nmax)],
    from the paper's initial conditions g1 = g2 = 1.
    """
    if nmax < 2:
        raise InputError(f"needs nmax >= 2, got {nmax}")
    seq = [Fraction(1), Fraction(1)]
    for n in range(2, nmax):
        seq.append(n * seq[-1] - Fraction(n * n, 4) * seq[-2])
    return seq


def prellberg_ratios(nmax: int):
    """Diagnostic rows (n, g(n+1)/g(n), n/2) for the growth heuristic."""
    seq = prellberg_sequence(nmax)
    rows = []
    for n in range(1, nmax):
        g_n, g_next = seq[n - 1], seq[n]
        ratio = Fraction(g_next, g_n) if g_n != 0 else None
        rows.append((n, ratio, Fraction(n, 2)))
    return rows


# ---------------------------------------------------------------------------
# growth comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthRow:
    n: int
    factorial_root: float  # ((n-1)!)^(1/n)
    mn_root: float  # (worst-case count)^(1/n)
    bell_root: float  # B_(n-1)^(1/n)


def nth_root(value: int, n: int) -> float:
    """value^(1/n) for an exact positive integer, via log/exp (about 15
    significant digits, far beyond the 12 required)."""
    if value <= 0 or n <= 0:
        raise InputError("needs a positive integer and a positive root")
    return exp(log(value) / n)


def _check_table_n(name: str, value: int) -> None:
    """Refuse a growth or count table size ``name`` outside 2..MAX_NMAX."""
    if not 2 <= value <= MAX_NMAX:
        raise InputError(f"{name} must be in 2..{MAX_NMAX}, got {value}")


def growth_table(nmax: int) -> list[GrowthRow]:
    """Rows (n, ((n-1)!)^(1/n), count^(1/n), B_(n-1)^(1/n)) for n = 2..nmax.

    Every row satisfies bell_root <= mn_root <= factorial_root: the
    worst-case count sits between the Bell numbers and the factorials.
    """
    _check_table_n("nmax", nmax)
    rows = []
    for n in range(2, nmax + 1):
        rows.append(
            GrowthRow(
                n=n,
                factorial_root=nth_root(factorial(n - 1), n),
                mn_root=nth_root(worst_case_count(n), n),
                bell_root=nth_root(bell_number(n - 1), n),
            )
        )
    return rows


def growth_csv(rows: list[GrowthRow]) -> str:
    """CSV text with header n,factorial_root,mn_root,bell_root and 15
    significant digits per value."""
    lines = ["n,factorial_root,mn_root,bell_root"]
    for row in rows:
        lines.append(
            f"{row.n},{row.factorial_root:.15g},{row.mn_root:.15g},{row.bell_root:.15g}"
        )
    return "\n".join(lines) + "\n"
