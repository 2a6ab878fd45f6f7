"""Firings: building every worst case constructively, and naming them.

Every longest-possible eviction run funnels through the gateway state
n,2,...,n-1,1 and then spends its remaining 2^(n-2) - 1 evictions as n-2
"firings".  Recording each firing as a letter (L_t or R_t, by its landing
offset) encodes every worst case as a word; rewriting L_(t-1) R_s into
R_(s-1) L_t canonicalizes the words so that states and canonical words
match up one-to-one.  Restricting to short right firings turns words into
set partitions, which is how Bell numbers enter the counting.
"""
from homing import code_of, format_perm, swap_ends
from homing.firings import (
    L,
    R,
    apply_letter,
    apply_word,
    canonical_words,
    canonicalize,
    format_partition,
    format_word,
    parse_word,
    short_firing_image,
    word_to_partition,
)

t6 = swap_ends(6)
print(f"gateway state {format_perm(t6)} has code {code_of(t6)!r}")
q = apply_letter(t6, L(0))  # the short left firing lands at position 1
print(f"fire left  into pos 1 -> {format_perm(q)}   code {code_of(q)!r}")
q = apply_letter(q, R(1))  # one past the short right firing's position 5
print(f"fire right into pos 6 -> {format_perm(q)}   code {code_of(q)!r}")
print()

word = parse_word("L0,R1,R0,L1,R2,R1")
canon = canonicalize(word)
print(f"word       {format_word(word)}")
print(f"canonical  {format_word(canon)}")
print(f"both fire to {format_perm(apply_word(word, 8))}")
print()

print("canonical words and the worst-case counts they enumerate:")
for n in range(2, 9):
    words = list(canonical_words(n))
    shorts = short_firing_image(n)
    print(f"  n={n}: {len(words):5} words, {len(shorts):4} from short firings alone")
print()

print("short-right words are set partitions in disguise:")
for text in ["", "R", "R,L0,L1", "R,R,L2,L0"]:
    w = parse_word(text)
    print(f"  {format_word(w, restricted=True) or '(empty)':12} -> "
          f"{format_partition(word_to_partition(w))}")
