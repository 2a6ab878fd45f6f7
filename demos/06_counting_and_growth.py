"""Counting the worst cases: recurrence, bounds, and growth comparison.

The number of worst-case permutations satisfies a clean two-index
recurrence over firing words; its diagonal sums 1, 2, 5, 16, 62, 280, ...
grow super-exponentially, squeezed between the Bell numbers B_(n-1) and
(n-1)!.  The table of n-th roots makes the comparison visible, and the
heuristic sequence g suggests the growth rate is about n/2 per step.
"""
from fractions import Fraction

from homing.counting import (
    bell_number,
    growth_csv,
    growth_table,
    prellberg_ratios,
    split_count,
    worst_case_count,
)

print("worst-case counts against their bounds:")
print(f"  {'n':>3} {'Bell(n-1)':>12} {'count':>14} {'(n-1)!':>16}")
from math import factorial
for n in range(2, 13):
    print(f"  {n:>3} {bell_number(n - 1):>12} {worst_case_count(n):>14} {factorial(n - 1):>16}")
print()

print("the two-index table f(i,j) (words with i-1 rights, j-1 lefts):")
for i in range(1, 6):
    print("  " + " ".join(f"{split_count(i, j):6}" for j in range(1, 6)))
print()

print("n-th roots for n = 2..80 (first and last rows of the CSV):")
csv = growth_csv(growth_table(80))
lines = csv.splitlines()
print("  " + lines[0])
print("  " + lines[1])
print("  " + lines[-1])
print()

print("heuristic ratio g(n+1)/g(n) against n/2:")
for n, ratio, half in prellberg_ratios(30)[-5:]:
    shown = f"{float(ratio):8.3f}" if ratio is not None else "   --   "
    print(f"  n={n:2}: ratio {shown}   n/2 = {float(half):6.1f}")
print()
print("(initial conditions g1 = g2 = 1, as in the paper)")
print(f"worst_case_count(80) has {len(str(worst_case_count(80)))} digits")
