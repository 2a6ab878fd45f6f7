"""Firings: the canonical eviction blocks that build every worst case.

Starting from the gateway state n,2,3,...,n-1,1 (``swap_ends(n)``), whose
code is all zeros, every longest-possible eviction run is a sequence of
n-2 "firings".  A firing on a state with code +^i 0^k -^j is a block of
exactly 2^(k-1) displacements that converts the code to +^i 0^(k-1) -^(j+1)
(a left firing, which sends the top value i+k+1 of the home block to some
position s <= i+1) or to +^(i+1) 0^(k-1) -^j (a right firing, sending the
bottom value i+2 to some position s >= i+k+2).  A firing is "short" when
the moved value lands right next to the home block.

A firing is applied as one O(n) splice of the state, its net effect.  The
displacement block itself (:func:`firing_moves`) is kept as the paper's
construction and as the oracle that ``homing.verify`` replays against the
splice.

Recording a left firing into position (i+1)-t as the letter L_t and a
right firing into position (i+k+2)+t as R_t encodes each schedule as a
word.  Words are equivalent exactly when they produce the same state; the
rewrite L_(t-1) R_s -> R_(s-1) L_t (s, t >= 1) is confluent and yields a
unique canonical representative per state, so the worst-case set is in
bijection with the canonical words.  Restricting right firings to short
ones yields words in bijection with set partitions, which is where the
Bell-number lower bound on the number of worst cases comes from.
"""
from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .codes import code_of
from .errors import CodeShapeError, ParseError, WordError
from .perms import DisplacementMove, Perm, swap_ends

SetPartition = tuple[tuple[int, ...], ...]


class FiringLetter(NamedTuple):
    side: str  # "L" or "R"
    index: int  # offset t >= 0 from the short-firing position


FiringWord = tuple[FiringLetter, ...]

LEFT = "L"
RIGHT = "R"


def L(index: int = 0) -> FiringLetter:
    return FiringLetter(LEFT, index)


def R(index: int = 0) -> FiringLetter:
    return FiringLetter(RIGHT, index)


# ---------------------------------------------------------------------------
# code block shape
# ---------------------------------------------------------------------------

def code_shape(code: str) -> tuple[int, int, int]:
    """Split a code of the block form +^i 0^k -^j into (i, k, j)."""
    m = re.fullmatch(r"(\+*)(0*)(-*)", code)
    if not m:
        raise CodeShapeError(f"code {code!r} is not of the form +^i 0^k -^j")
    return len(m.group(1)), len(m.group(2)), len(m.group(3))


def _firable_shape(p: Perm) -> tuple[int, int, int]:
    code = code_of(p)
    i, k, j = code_shape(code)
    if k < 1:
        raise CodeShapeError(f"code {code!r} has no home block left to fire")
    return i, k, j


# ---------------------------------------------------------------------------
# the displacement sequences
# ---------------------------------------------------------------------------

def _left_moves(i: int, k: int, s: int) -> list[DisplacementMove]:
    """Displacements of a left firing on shape (i, k, *) into position s.

    The recursion mirrors how the block value i+k+1 is walked out: first
    the values below it cascade one step left (2^(k-1) - 1 moves), then
    i+k+1 itself is displaced into position s.
    """
    moves: list[DisplacementMove] = []
    for m in range(k - 1, 0, -1):
        moves.extend(_left_moves(i, m, i + 1))
    moves.append(DisplacementMove(i + k + 1, s))
    return moves


def _check_target(n: int, shape: tuple[int, int, int], side: str, target: int) -> None:
    """Raise unless a firing on ``side`` may land at ``target`` on a state of
    code shape (i, k, j): 1..i+1 on the left, i+k+2..n on the right."""
    i, k, j = shape
    if side == LEFT:
        lo, hi, label = 1, i + 1, "left"
    elif side == RIGHT:
        lo, hi, label = i + k + 2, n, "right"
    else:
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    if not lo <= target <= hi:
        raise WordError(
            f"{label} firing target {target} outside {lo}..{hi} for code "
            f"shape (+^{i} 0^{k} -^{j})"
        )


def firing_moves(p: Perm, side: str, target: int) -> list[DisplacementMove]:
    """The displacement block of a firing on ``p``, without applying it.

    Left firings require 1 <= target <= i+1; right firings require
    i+k+2 <= target <= n, where the current code is +^i 0^k -^j.  Replaying
    the block one :func:`~homing.perms.displace` at a time is the oracle for
    the splice that :func:`fire_left`, :func:`fire_right` and
    :func:`apply_letter` apply.
    """
    n = len(p)
    i, k, j = shape = _firable_shape(p)
    _check_target(n, shape, side, target)
    if side == LEFT:
        return _left_moves(i, k, target)
    # mirror image: reflect, fire left, reflect back
    mirrored = _left_moves(j, k, n + 1 - target)
    return [DisplacementMove(n + 1 - v, n + 1 - t) for v, t in mirrored]


def _fire(p: Perm, shape: tuple[int, int, int], side: str, target: int) -> Perm:
    """The net effect of a firing's whole displacement block, in O(n)."""
    _check_target(len(p), shape, side, target)
    i, k, _ = shape
    s = target
    if side == LEFT:
        # value i+k+1 moves to position s, positions s..i shift right by one,
        # and the value that was at position i+1 lands at position i+k+1
        return p[:s - 1] + (i + k + 1,) + p[s - 1:i] + p[i + 1:i + k] + (p[i],) + p[i + k + 1:]
    # the mirror image: value i+2 moves to position s, positions i+k+3..s
    # shift left by one, and the value that was at position i+k+2 lands at
    # position i+2
    return p[:i + 1] + (p[i + k + 1],) + p[i + 2:i + k + 1] + p[i + k + 2:s] + (i + 2,) + p[s:]


def fire_left(p: Perm, target: int) -> Perm:
    """Fire the top of the home block to the left, landing at ``target``."""
    return _fire(p, _firable_shape(p), LEFT, target)


def fire_right(p: Perm, target: int) -> Perm:
    """Mirror image of :func:`fire_left`; equals the reflection conjugate."""
    return _fire(p, _firable_shape(p), RIGHT, target)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def _letter_target(n: int, shape: tuple[int, int, int], letter: FiringLetter) -> int:
    i, k, _ = shape
    target = (i + 1) - letter.index if letter.side == LEFT else (i + k + 2) + letter.index
    if not 1 <= target <= n:
        raise WordError(
            f"letter {format_letter(letter)} needs {letter.index} prior firings "
            f"on the opposite side"
        )
    return target


def letter_target(p: Perm, letter: FiringLetter) -> int:
    """The position a letter's firing lands at on ``p``: (i+1)-t for L_t and
    (i+k+2)+t for R_t, where the code of ``p`` is +^i 0^k -^j."""
    return _letter_target(len(p), _firable_shape(p), letter)


def apply_letter(p: Perm, letter: FiringLetter) -> Perm:
    """One firing, with the letter's offset resolved against the current code."""
    shape = _firable_shape(p)
    return _fire(p, shape, letter.side, _letter_target(len(p), shape, letter))


def apply_word(word: FiringWord, n: int) -> Perm:
    """Run a full schedule of n-2 firings from the gateway state swap_ends(n).

    The result always lies in the worst-case set.
    """
    if n < 2:
        raise ValueError(f"words need n >= 2, got {n}")
    if len(word) != n - 2:
        raise WordError(f"word length {len(word)} does not match n-2 = {n - 2}")
    check_word(word)
    p = swap_ends(n)
    for letter in word:
        p = apply_letter(p, letter)
    return p


def check_word(word: FiringWord) -> None:
    """Validate the counting conditions: each L_t (R_t) needs at least t
    prior R (L) letters."""
    lefts = rights = 0
    for idx, letter in enumerate(word, 1):
        if letter.side == LEFT:
            if letter.index > rights:
                raise WordError(
                    f"letter {idx} ({format_letter(letter)}) needs "
                    f"{letter.index} prior rights, found {rights}"
                )
            lefts += 1
        elif letter.side == RIGHT:
            if letter.index > lefts:
                raise WordError(
                    f"letter {idx} ({format_letter(letter)}) needs "
                    f"{letter.index} prior lefts, found {lefts}"
                )
            rights += 1
        else:
            raise WordError(f"letter {idx} has invalid side {letter.side!r}")
        if letter.index < 0:
            raise WordError(f"letter {idx} has negative index")


def _is_redex(a: FiringLetter, b: FiringLetter) -> bool:
    # an adjacent pair L_(t-1) R_s with s >= 1, which rewrites to R_(s-1) L_t
    return a.side == LEFT and b.side == RIGHT and b.index >= 1


def is_canonical(word: FiringWord) -> bool:
    """True if no R_s with s >= 1 immediately follows a left letter."""
    return not any(_is_redex(a, b) for a, b in zip(word, word[1:]))


def canonicalize(word: FiringWord) -> FiringWord:
    """The unique equivalent word with every indexed right pulled leftwards.

    Repeatedly rewrites an adjacent pair L_(t-1) R_s with s >= 1 into
    R_(s-1) L_t; the result does not depend on the rewrite order, and the
    state produced by :func:`apply_word` is unchanged.
    """
    check_word(word)
    letters = list(word)
    changed = True
    while changed:
        changed = False
        for idx in range(len(letters) - 1):
            a, b = letters[idx], letters[idx + 1]
            if _is_redex(a, b):
                letters[idx] = FiringLetter(RIGHT, b.index - 1)
                letters[idx + 1] = FiringLetter(LEFT, a.index + 1)
                changed = True
    return tuple(letters)


def short_firing_image(n: int) -> set[Perm]:
    """States reached from the gateway by the 2^(n-2) all-short schedules.

    Distinct schedules give distinct states, so the returned set has
    exactly 2^(n-2) elements; each lies in the worst-case set.
    """
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    states = {swap_ends(n)}
    for _ in range(n - 2):
        nxt = set()
        for p in states:
            nxt.add(apply_letter(p, L(0)))
            nxt.add(apply_letter(p, R(0)))
        states = nxt
    if len(states) != 1 << (n - 2):
        raise AssertionError("short firing schedules collided")
    return states


def next_letters(word: FiringWord) -> list[FiringLetter]:
    """The letters that may follow ``word`` in a valid word: L_t for t up to
    its number of rights, R_t for t up to its number of lefts."""
    rights = sum(1 for letter in word if letter.side == RIGHT)
    lefts = len(word) - rights
    return [L(t) for t in range(rights + 1)] + [R(t) for t in range(lefts + 1)]


def _words(length: int, keep) -> Iterator[FiringWord]:
    """Depth first, the words of ``length`` letters grown by
    :func:`next_letters`, keeping a letter when ``keep(prefix, letter)``."""
    if length == 0:
        yield ()
        return
    for word in _words(length - 1, keep):
        for letter in next_letters(word):
            if keep(word, letter):
                yield word + (letter,)


def valid_words(length: int) -> Iterator[FiringWord]:
    """Every word of ``length`` letters that passes :func:`check_word`,
    canonical or not."""
    return _words(length, lambda word, letter: True)


def canonical_words(n: int) -> list[FiringWord]:
    """All canonical words of length n-2, in depth-first order.

    There are exactly as many as there are worst-case permutations, and
    :func:`apply_word` maps them bijectively onto that set.
    """
    if n < 2:
        raise ValueError(f"words need n >= 2, got {n}")
    return list(_words(n - 2, lambda word, letter: not (word and _is_redex(word[-1], letter))))


def restricted_words(length: int) -> Iterator[FiringWord]:
    """Words of arbitrary lefts and short rights only (every R is R_0)."""
    return _words(length, lambda word, letter: letter.side == LEFT or letter.index == 0)


# ---------------------------------------------------------------------------
# words <-> set partitions
# ---------------------------------------------------------------------------

def word_to_partition(word: FiringWord) -> SetPartition:
    """Map a restricted word of length m to a partition of {1, ..., m+1}.

    Reading letters left to right and numbering them 2, 3, ...: an R opens
    a new block with the next element, an L_s adds the next element to the
    (s+1)st block (blocks ordered by increasing smallest element).  Words
    with k R letters map to partitions with k+1 blocks, and the map is a
    bijection onto all partitions.
    """
    blocks: list[list[int]] = [[1]]
    for pos, letter in enumerate(word, 1):
        element = pos + 1
        if letter.side == RIGHT:
            if letter.index != 0:
                raise WordError(
                    f"letter {pos} ({format_letter(letter)}): partitions encode "
                    f"short right firings only"
                )
            blocks.append([element])
        elif letter.side == LEFT:
            if letter.index >= len(blocks):
                raise WordError(
                    f"letter {pos} ({format_letter(letter)}) names block "
                    f"{letter.index + 1} of {len(blocks)}"
                )
            blocks[letter.index].append(element)
        else:
            raise WordError(f"letter {pos} has invalid side {letter.side!r}")
    return tuple(tuple(b) for b in blocks)


def partition_to_word(partition: SetPartition) -> FiringWord:
    """Inverse of :func:`word_to_partition`."""
    blocks = _validated_partition(partition)
    owner = {}
    for b_idx, block in enumerate(blocks):
        for element in block:
            owner[element] = b_idx
    word = []
    for element in range(2, len(owner) + 1):
        b_idx = owner[element]
        if blocks[b_idx][0] == element:
            word.append(FiringLetter(RIGHT, 0))
        else:
            word.append(FiringLetter(LEFT, b_idx))
    return tuple(word)


def _validated_partition(partition: SetPartition) -> list[tuple[int, ...]]:
    blocks = [tuple(sorted(b)) for b in partition]
    if any(not b for b in blocks):
        raise WordError("partition blocks must be nonempty")
    blocks.sort(key=lambda b: b[0])
    elements = sorted(e for b in blocks for e in b)
    if elements != list(range(1, len(elements) + 1)):
        raise WordError(f"blocks do not partition 1..m: {partition!r}")
    return blocks


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

def format_letter(letter: FiringLetter, restricted: bool = False) -> str:
    if restricted and letter.side == RIGHT and letter.index == 0:
        return "R"
    return f"{letter.side}{letter.index}"


def format_word(word: FiringWord, restricted: bool = False) -> str:
    """Comma-separated text, e.g. ``L0,R1,R0,L1,R2,R1``; in restricted form
    short rights print as a bare ``R``."""
    return ",".join(format_letter(let, restricted) for let in word)


def parse_word(text: str) -> FiringWord:
    """Parse the comma-separated letter form; bare L/R mean index 0.

    >>> parse_word("R,L0,L1")
    (FiringLetter(side='R', index=0), FiringLetter(side='L', index=0), FiringLetter(side='L', index=1))
    """
    text = text.strip()
    if not text:
        return ()
    letters = []
    for token in text.split(","):
        token = token.strip()
        m = re.fullmatch(r"([LR])(\d*)", token)
        if not m:
            raise ParseError(f"invalid firing letter {token!r}")
        letters.append(FiringLetter(m.group(1), int(m.group(2) or 0)))
    return tuple(letters)


def format_partition(partition: SetPartition) -> str:
    """Blocks in canonical order, e.g. ``{1,3}{2,4}``."""
    blocks = _validated_partition(partition)
    return "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def parse_partition(text: str) -> SetPartition:
    """Parse the ``{1,3}{2,4}`` form into a canonical partition.

    >>> parse_partition("{2,4}{1,3}")
    ((1, 3), (2, 4))
    """
    text = text.strip()
    stripped = re.sub(r"\{[0-9, ]*\}", "", text)
    if stripped:
        raise ParseError(f"invalid partition text near {stripped[:10]!r}")
    blocks = []
    for body in re.findall(r"\{([0-9, ]*)\}", text):
        try:
            blocks.append(tuple(int(t) for t in body.split(",") if t.strip()))
        except ValueError:
            raise ParseError(f"invalid partition block {{{body}}}") from None
    try:
        return tuple(_validated_partition(tuple(blocks)))
    except WordError as err:
        raise ParseError(str(err)) from None
