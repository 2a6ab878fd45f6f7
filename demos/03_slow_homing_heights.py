"""Slow homing: badly chosen placements can take 2^(n-1) - 1 steps.

Homing the rotation 2,3,...,n,1 by always placing the leftmost out-of-place
value walks the tower-of-Hanoi pattern.  Exhaustive height tables (longest
placement distance to the identity, state by state) confirm that
2^(n-1) - 1 is the exact ceiling, and count how many permutations reach it.
A table saves to disk and loads back unchanged, and over S_6 each state's
height is that of its reverse-complement, the end-for-end mirror image.
"""
import os
import tempfile

from homing import all_perms, format_perm, reverse_complement, rotation, swap_ends
from homing.heights import (
    build_height_table,
    height,
    load_height_table,
    save_height_table,
    stage1_longest,
)
from homing.strategies import LEFTMOST_NOT_HOME, run_strategy

trace = run_strategy(rotation(4), LEFTMOST_NOT_HOME)
print(f"leftmost-not-home on {format_perm(rotation(4))} ({len(trace)} steps):")
for step in trace.steps():
    print(f"  step {step.step}: place {step.value} -> {format_perm(step.result)}")
print()

print("n, max height, 2^(n-1)-1, #worst cases, height of the gateway state:")
for n in range(2, 9):
    table = build_height_table(n)
    top = (1 << (n - 1)) - 1
    members = table.members_at(top)
    print(f"  {n}: {table.max():4} = {top:4}   {len(members):5}   "
          f"h({format_perm(swap_ends(n))}) = {table.height_of(swap_ends(n))}")
print()

table = build_height_table(6)
print("height histogram for n=6 (height: how many permutations):")
hist = table.histogram()
print(" ", {h: c for h, c in enumerate(hist) if c})
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "heights6.homh")
    save_height_table(table, path)
    loaded = load_height_table(path)
    size = os.path.getsize(path)
print(f"  saved to a {size}-byte file and loaded back: equal = {loaded == table}")
mirrored = all(table.height_of(reverse_complement(p)) == table.height_of(p) for p in all_perms(6))
print(f"  heights unchanged under reverse-complement over S_6: {mirrored}")
print()

print("every eviction run that never moves the value 1 stops at 2^(n-2)-1:")
for n in range(3, 8):
    print(f"  n={n}: {stage1_longest(n)} evictions")
print()

print(f"a point query reaches past the tables: h(rotation(12)) = {height(rotation(12))}")
