"""Firings: the canonical eviction blocks that build every worst case.

Starting from the gateway state n,2,3,...,n-1,1 (``swap_ends(n)``), whose
code is all zeros, every longest-possible eviction run is a sequence of
n-2 "firings".  A firing on a state with code +^i 0^k -^j is a block of
exactly 2^(k-1) displacements that converts the code to +^i 0^(k-1) -^(j+1)
(a left firing, which sends the top value i+k+1 of the home block to some
position s <= i+1) or to +^(i+1) 0^(k-1) -^j (a right firing, sending the
bottom value i+2 to some position s >= i+k+2).  A firing is "short" when
the moved value lands right next to the home block.

Recording a left firing into position (i+1)-t as the letter L_t and a
right firing into position (i+k+2)+t as R_t encodes each schedule as a
word.  Words are equivalent exactly when they produce the same state; the
rewrite L_(t-1) R_s -> R_(s-1) L_t (s, t >= 1) is confluent and yields a
unique canonical representative per state, so the worst-case set is in
bijection with the canonical words.  Restricting right firings to short
ones yields words in bijection with set partitions, which is where the
Bell-number lower bound on the number of worst cases comes from.

A firing is named by its letter only, and applied as its net effect: one
gather of the state's positions, fixed by n, the code shape of the state it
fires from, and the letter, and made once for each.  Making it refuses the
letter with :class:`~homing.errors.WordError` unless 0 <= t <= i for L_t
and 0 <= t <= j for R_t, the one rule for which letter may fire, and a
refusal is never cached, so each letter is checked as it fires.  The
displacement block itself (:func:`firing_moves`) is kept as the paper's
construction and as the oracle that ``homing.verify`` replays against the
gather.  :func:`apply_letter` and :func:`firing_moves` take any state and
read its shape from its code.

From the gateway the shape needs no reading: after t letters, r of them
rights, the code is +^r 0^(n-2-t) -^(t-r), so :func:`apply_word` and
:func:`walk` count rights and hand the shape to the gather.
:func:`check_word` asks the same rule of the same counts, so
:func:`apply_word` refuses exactly the words that it refuses.  The
``firings/step-count-and-weight`` check backs the count, reading the code
of every state it fires from, and :func:`apply_letter` fired one letter at
a time is the oracle the tests hold the counted path to.  :func:`walk`
visits the canonical prefixes depth first, firing each once, and the
checks fire every legal letter from every reachable prefix state exactly
once on top of that walk.  Letters of index below 64 are made once and
shared: ``L(t) is L(t)``.
"""
from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple

from .codes import code_of
from .errors import CodeShapeError, InputError, ParseError, WordError
from .perms import DisplacementMove, Perm, swap_ends

SetPartition = tuple[tuple[int, ...], ...]


class FiringLetter(NamedTuple):
    side: str  # "L" or "R"
    index: int  # offset t >= 0 from the short-firing position


FiringWord = tuple[FiringLetter, ...]

LEFT = "L"
RIGHT = "R"


_SHARED = 64  # letters of index 0.._SHARED-1 are made once and shared
_LEFTS = tuple(FiringLetter(LEFT, t) for t in range(_SHARED))
_RIGHTS = tuple(FiringLetter(RIGHT, t) for t in range(_SHARED))


def L(index: int = 0) -> FiringLetter:
    # a negative index must not wrap around the table: it makes a fresh
    # letter, which check_word and the firings reject
    return _LEFTS[index] if 0 <= index < _SHARED else FiringLetter(LEFT, index)


def R(index: int = 0) -> FiringLetter:
    return _RIGHTS[index] if 0 <= index < _SHARED else FiringLetter(RIGHT, index)


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


def _refusal(letter: FiringLetter, pluses: int, minuses: int) -> str | None:
    """Why ``letter`` cannot fire on a code with ``pluses`` '+' and
    ``minuses`` '-' symbols, or None if it can: L_t needs 0 <= t <= pluses
    and R_t needs 0 <= t <= minuses."""
    side, t = letter
    if side == LEFT:
        room = pluses
    elif side == RIGHT:
        room = minuses
    else:
        return f"{format_letter(letter)} has invalid side {side!r}"
    if 0 <= t <= room:
        return None
    return f"{format_letter(letter)} needs an index in 0..{room}, with {pluses} '+' and {minuses} '-'"


def _landing(shape: tuple[int, int, int], letter: FiringLetter) -> int:
    """The position ``letter``'s firing lands at on a state of code shape
    (i, k, j): (i+1)-t for L_t and (i+k+2)+t for R_t."""
    i, k, j = shape
    why = _refusal(letter, i, j)
    if why:
        raise WordError(f"letter {why}")
    return i + 1 - letter.index if letter.side == LEFT else i + k + 2 + letter.index


def firing_moves(p: Perm, letter: FiringLetter) -> list[DisplacementMove]:
    """The displacement block of ``letter``'s firing on ``p``, without
    applying it.

    Replaying the block one :func:`~homing.perms.displace` at a time is the
    oracle for the gather that :func:`apply_letter` applies.
    """
    n = len(p)
    i, k, j = shape = _firable_shape(p)
    s = _landing(shape, letter)
    if letter.side == LEFT:
        return _left_moves(i, k, s)
    # mirror image: reflect, fire left, reflect back
    mirrored = _left_moves(j, k, n + 1 - s)
    return [DisplacementMove(n + 1 - v, n + 1 - t) for v, t in mirrored]


@lru_cache(maxsize=1024)
def _gather(n: int, shape: tuple[int, int, int], letter: FiringLetter) -> itemgetter:
    """``letter``'s whole displacement block on a state of n values and code
    shape (i, k, j), as one gather of positions.  L_t moves the value home at
    position i+k+1 to its landing position s, positions s..i one to the right
    and the value at i+1 to position i+k+1; R_t is the mirror image."""
    s = _landing(shape, letter)  # raises before anything is cached
    i, k, _ = shape
    if letter.side == LEFT:
        order = [*range(s - 1), i + k, *range(s - 1, i), *range(i + 1, i + k), i, *range(i + k + 1, n)]
    else:
        order = [*range(i + 1), i + k + 1, *range(i + 2, i + k + 1), *range(i + k + 2, s), i + 1, *range(s, n)]
    return itemgetter(*order)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def apply_letter(p: Perm, letter: FiringLetter) -> Perm:
    """One firing, with the letter's offset resolved against the current code."""
    return _gather(len(p), _firable_shape(p), letter)(p)


def _check_word_n(n: int) -> None:
    if n < 2:
        raise InputError(f"words need n >= 2, got {n}")


def apply_word(word: FiringWord, n: int) -> Perm:
    """Run a full schedule of n-2 firings from the gateway state swap_ends(n).

    The result always lies in the worst-case set.  A letter that the counting
    conditions of :func:`check_word` refuse raises :class:`WordError` when it
    is fired.
    """
    _check_word_n(n)
    if len(word) != n - 2:
        raise WordError(f"word length {len(word)} does not match n-2 = {n - 2}")
    p = swap_ends(n)
    rights = 0
    for t, letter in enumerate(word):
        p = _gather(n, (rights, n - 2 - t, t - rights), letter)(p)
        if letter.side == RIGHT:
            rights += 1
    return p


def check_word(word: FiringWord) -> None:
    """Validate the counting conditions: each L_t (R_t) needs at least t
    prior R (L) letters, since from the gateway the code has as many '+'
    as rights and as many '-' as lefts."""
    rights = 0
    for t, letter in enumerate(word):
        why = _refusal(letter, rights, t - rights)
        if why:
            raise WordError(f"letter {t + 1}: {why}")
        if letter.side == RIGHT:
            rights += 1


def _is_redex(a: FiringLetter, b: FiringLetter) -> bool:
    # an adjacent pair L_(t-1) R_s with s >= 1, which rewrites to R_(s-1) L_t
    return a.side == LEFT and b.side == RIGHT and b.index >= 1


def is_canonical(word: FiringWord) -> bool:
    """True if no R_s with s >= 1 immediately follows a left letter."""
    return not any(_is_redex(a, b) for a, b in zip(word, word[1:]))


def canonicalize(word: FiringWord) -> FiringWord:
    """The unique equivalent word with every indexed right pulled leftwards.

    Rewrites an adjacent pair L_(t-1) R_s with s >= 1 into R_(s-1) L_t in
    one left-to-right pass: each indexed right moves left past the lefts
    before it until its index runs out.  The rewrite is confluent, so the
    order does not change the result, and the state produced by
    :func:`apply_word` is unchanged.
    """
    check_word(word)
    letters: list[FiringLetter] = []
    for letter in word:
        s = letter.index if letter.side == RIGHT else 0
        m = 0  # the lefts just before it that this letter moves past
        while m < s and m < len(letters) and letters[-1 - m].side == LEFT:
            m += 1
        if m:
            letters[-m:] = [R(s - m), *(L(a.index + 1) for a in letters[-m:])]
        else:
            letters.append(letter)
    return tuple(letters)


def short_firing_image(n: int) -> set[Perm]:
    """States reached from the gateway by the 2^(n-2) all-short schedules.

    Distinct schedules give distinct states, so the returned set has
    exactly 2^(n-2) elements, each in the worst-case set; the
    ``firings/short-firing-injectivity`` check holds it to that.
    """
    shorts = walk(n, keep=lambda word, letter: letter.index == 0)
    return {p for word, p in shorts if len(word) == n - 2}


def next_letters(word: FiringWord) -> tuple[FiringLetter, ...]:
    """The letters that may follow ``word`` in a valid word: L_t for t up to
    its number of rights, R_t for t up to its number of lefts."""
    rights = sum(1 for letter in word if letter.side == RIGHT)
    return _next_letters(len(word) - rights, rights)


@lru_cache(maxsize=1024)
def _next_letters(lefts: int, rights: int) -> tuple[FiringLetter, ...]:
    return tuple(map(L, range(rights + 1))) + tuple(map(R, range(lefts + 1)))


def _canonical(word: FiringWord, letter: FiringLetter) -> bool:
    return not (word and _is_redex(word[-1], letter))


def _words(length: int, keep) -> Iterator[FiringWord]:
    """Depth first, the words of ``length`` letters grown by
    :func:`next_letters`, keeping a letter when ``keep(prefix, letter)``."""
    if length < 0:
        raise InputError(f"word length must be >= 0, got {length}")
    if length == 0:
        return iter([()])
    return (word + (letter,) for word in _words(length - 1, keep)
            for letter in next_letters(word) if keep(word, letter))


def canonical_words(n: int) -> Iterator[FiringWord]:
    """An iterator over the canonical words of length n-2, in depth-first order.

    There are exactly as many as there are worst-case permutations, and
    :func:`apply_word` maps them bijectively onto that set.
    """
    _check_word_n(n)
    return _words(n - 2, _canonical)


def walk(n: int, keep=_canonical) -> Iterator[tuple[FiringWord, Perm]]:
    """Depth first, every word of 0..n-2 letters grown by :func:`next_letters`
    and kept by ``keep(prefix, letter)`` (canonical words by default), with
    the state it fires to from swap_ends(n), one :func:`apply_letter` from
    its parent's.  Parents come first, words of n-2 letters in
    :func:`canonical_words` order, and only one branch's siblings are held.
    """
    _check_word_n(n)
    stack = [((), swap_ends(n), 0)]
    while stack:
        word, p, rights = stack.pop()
        yield word, p
        t = len(word)
        if t < n - 2:
            shape = (rights, n - 2 - t, t - rights)
            for letter in reversed(_next_letters(t - rights, rights)):
                if keep(word, letter):
                    q = _gather(n, shape, letter)(p)
                    stack.append((word + (letter,), q, rights + (letter.side == RIGHT)))


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
    for element, (side, index) in enumerate(word, 2):
        if side == LEFT and 0 <= index < len(blocks):
            blocks[index].append(element)
        elif side == RIGHT and index == 0:
            blocks.append([element])
        else:
            raise _unrestricted(element - 1, side, index, len(blocks))
    return tuple(map(tuple, blocks))


def _unrestricted(pos: int, side: str, index: int, blocks: int) -> WordError:
    """Why letter ``pos`` of a word has no place in a partition that has
    ``blocks`` blocks so far."""
    if side == RIGHT:
        return WordError(f"letter {pos} ({side}{index}): partitions encode short right firings only")
    if side == LEFT:
        return WordError(f"letter {pos} ({side}{index}) names block {index + 1} of {blocks}")
    # an invalid side: check_word's refusal, which names the side whatever the room
    return WordError(f"letter {pos}: {_refusal(FiringLetter(side, index), 0, 0)}")


def partition_to_word(partition: SetPartition) -> FiringWord:
    """Inverse of :func:`word_to_partition`."""
    owner = _validated_partition(partition)
    # element e >= 2 is letter e-1: R_0 when e opens a block (the first block
    # opens with 1, which has no letter), else L_b for its block b, blocks
    # numbered in the order their smallest elements come
    number = {owner[1]: 0}
    word = []
    for block in owner[2:]:
        b = number.get(block)
        if b is None:
            number[block] = len(number)
            word.append(R(0))
        else:
            word.append(L(b))
    return tuple(word)


def _validated_partition(partition: SetPartition) -> list[int]:
    """The block of each element: entry e is the index in ``partition`` of
    the block that holds e, for e = 1..m, where m counts the elements (entry
    0 is unused).  One pass over the elements checks that each of 1..m is
    owned by exactly one block."""
    if not partition or not all(partition):  # every word's partition holds 1, so () has no word
        raise WordError("partition blocks must be nonempty, and there must be at least one")
    m = sum(map(len, partition))
    owner = [-1] * (m + 1)
    for b, block in enumerate(partition):
        for e in block:
            if not 0 < e <= m or owner[e] >= 0:
                raise WordError(f"blocks do not partition 1..m: {partition!r}")
            owner[e] = b
    # m elements, none repeated and none outside 1..m: each of 1..m is owned once
    return owner


def _canonical_blocks(partition: SetPartition) -> SetPartition:
    """The blocks, each sorted, in the order of their smallest elements."""
    blocks: dict[int, list[int]] = {}
    for e, b in enumerate(_validated_partition(partition)[1:], 1):
        blocks.setdefault(b, []).append(e)
    return tuple(map(tuple, blocks.values()))


# ---------------------------------------------------------------------------
# text forms
# ---------------------------------------------------------------------------

class _LetterText(dict):
    """The text of each letter: looked up for the shared ones, made for any other."""

    def __missing__(self, letter: FiringLetter) -> str:
        return f"{letter.side}{letter.index}"


_TEXT = _LetterText((letter, f"{letter.side}{letter.index}") for letter in _LEFTS + _RIGHTS)
_RESTRICTED_TEXT = _LetterText({**_TEXT, R(0): "R"})


def format_letter(letter: FiringLetter) -> str:
    return _TEXT[letter]


def format_word(word: FiringWord, restricted: bool = False) -> str:
    """Comma-separated text, e.g. ``L0,R1,R0,L1,R2,R1``; in restricted form
    short rights print as a bare ``R``."""
    return ",".join(map((_RESTRICTED_TEXT if restricted else _TEXT).__getitem__, word))


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
        try:
            letters.append(FiringLetter(m.group(1), int(m.group(2) or 0)))
        except ValueError:  # more digits than int() converts
            raise ParseError(f"invalid firing letter {token!r}") from None
    return tuple(letters)


def format_partition(partition: SetPartition) -> str:
    """Blocks in canonical order, e.g. ``{1,3}{2,4}``."""
    return "".join("{" + ",".join(map(str, b)) + "}" for b in _canonical_blocks(partition))


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
        return _canonical_blocks(tuple(blocks))
    except WordError as err:
        raise ParseError(str(err)) from None
