"""Firing blocks, firing words, canonicalization, and the partition bijection."""
import itertools
from collections.abc import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homing import (
    CodeShapeError,
    InputError,
    ParseError,
    WordError,
    code_of,
    reverse_complement,
    swap_ends,
)
from homing.firings import (
    FiringLetter,
    L,
    R,
    apply_letter,
    apply_word,
    canonical_words,
    canonicalize,
    check_word,
    code_shape,
    firing_moves,
    format_partition,
    format_word,
    is_canonical,
    next_letters,
    parse_partition,
    parse_word,
    partition_to_word,
    restricted_words,
    short_firing_image,
    walk,
    word_to_partition,
)
from homing import firings
from homing.heights import worst_case_permutations
from homing.verify import check_confluence, check_short_firing_injectivity, check_word_bijection


# -- code shapes ---------------------------------------------------------------

def test_code_shape():
    assert code_shape("++00--") == (2, 2, 2)
    assert code_shape("") == (0, 0, 0)
    assert code_shape("000") == (0, 3, 0)
    with pytest.raises(CodeShapeError):
        code_shape("+0+0")
    with pytest.raises(CodeShapeError):
        firing_moves((2, 1, 4, 3), L(0))  # code "-+" has no block shape


# -- single firings ---------------------------------------------------------------

def test_smallest_firings():
    t3 = swap_ends(3)
    assert firing_moves(t3, L(0)) == [(2, 1)]
    assert apply_letter(t3, L(0)) == (2, 3, 1)
    assert code_of(apply_letter(t3, L(0))) == "-"
    assert firing_moves(t3, R(0)) == [(2, 3)]
    assert apply_letter(t3, R(0)) == (3, 1, 2)
    assert code_of(apply_letter(t3, R(0))) == "+"


@pytest.mark.parametrize("n", range(4, 9))
def test_full_left_firing_from_gateway(n):
    p = swap_ends(n)
    moves = firing_moves(p, L(0))
    assert len(moves) == 1 << (n - 3)
    q = apply_letter(p, L(0))
    assert code_of(q) == "0" * (n - 3) + "-"


@pytest.mark.parametrize("n", range(3, 7))
def test_right_letter_is_mirror_of_left_letter(n):
    for word, p in walk(n):
        if len(word) == n - 2:
            continue
        i, k, j = code_shape(code_of(p))
        for t in range(j + 1):
            mirrored = apply_letter(reverse_complement(p), L(t))
            assert apply_letter(p, R(t)) == reverse_complement(mirrored)


def test_firing_target_validation():
    t5 = swap_ends(5)
    with pytest.raises(WordError):
        apply_letter(t5, L(-1))  # position 2, but only position 1 is open while i = 0
    with pytest.raises(WordError):
        apply_letter(t5, R(-1))  # position 4, but right targets start at i+k+2 = 5


# bad input, and the error that both the gather and the displacement block raise
@pytest.mark.parametrize(
    "fire, p, arg, error",
    [
        (apply_letter, (1, 3, 2, 4), L(0), CodeShapeError),  # code "+-" has no home block
        (apply_letter, (2, 3, 4, 1), R(0), CodeShapeError),  # code "--" has no home block
        (apply_letter, swap_ends(5), L(1), WordError),  # lands at position 0
        (apply_letter, swap_ends(5), R(1), WordError),  # lands at position 6
        (apply_letter, (2, 1, 4, 3), L(0), CodeShapeError),  # code "-+" is no block shape
        (apply_letter, (5, 1, 3, 4, 2), L(2), WordError),  # needs two prior rights, has one
        (apply_letter, swap_ends(5), R(3), WordError),  # lands beyond position n
        (apply_letter, swap_ends(5), L(-1), WordError),
        (apply_letter, swap_ends(5), FiringLetter("X", 0), WordError),
    ],
)
def test_splice_errors(fire, p, arg, error):
    for call in (fire, firing_moves):
        with pytest.raises(error) as caught:
            call(p, arg)
        assert type(caught.value) is error


# -- words -----------------------------------------------------------------------

def test_apply_word_examples():
    target = (7, 6, 8, 1, 3, 2, 5, 4)
    assert apply_word(parse_word("R0,L1,R0,R1,R0,L3"), 8) == target
    assert apply_word(parse_word("L0,R1,R0,L1,R2,R1"), 8) == target
    assert apply_word((), 2) == (2, 1)
    assert apply_word((L(0), R(0)), 4) in worst_case_permutations(4)


def test_apply_word_validation():
    with pytest.raises(WordError):
        apply_word((L(1),), 3)  # L1 with no prior rights
    with pytest.raises(WordError):
        apply_word((L(-1),), 3)
    with pytest.raises(WordError):
        apply_word((R(3), L(0), L(0)), 5)  # R3 needs three prior lefts
    with pytest.raises(WordError):
        apply_word((L(0),), 4)  # wrong length
    with pytest.raises(WordError):
        check_word((R(1),))


@pytest.mark.parametrize("n", range(2, 7))
def test_apply_word_refuses_exactly_what_check_word_refuses(n):
    # every word of n-2 letters over L_t and R_t, t in -1..n-2, and a bad
    # side: apply_word checks each letter as it fires it, with no word pass
    alphabet = [L(t) for t in range(-1, n - 1)] + [R(t) for t in range(-1, n - 1)]
    alphabet.append(FiringLetter("X", 0))
    # each word is fired twice: a refusal raised while a gather is made is
    # never cached, so the second firing must refuse it the same way
    for word in itertools.product(alphabet, repeat=n - 2):
        try:
            check_word(word)
        except WordError:
            refusals = set()
            for _ in range(2):
                with pytest.raises(WordError) as caught:
                    apply_word(word, n)
                refusals.add(str(caught.value))
            assert len(refusals) == 1
        else:
            assert apply_word(word, n) == apply_word(word, n)
    assert firings._gather.cache_info().maxsize is not None


@pytest.mark.parametrize("size", range(9))
def test_next_letters_are_the_letters_the_rule_lets_fire(size):
    """After ``lefts`` lefts and ``rights`` rights, the letters offered to
    grow a word are exactly those the firing-letter rule accepts, with as
    many '+' as rights and as many '-' as lefts, out of every index from
    -1 to one past the letters so far and a bad side."""
    for lefts in range(size + 1):
        rights = size - lefts
        indices = range(-1, size + 2)
        candidates = [FiringLetter(side, t) for side in ("L", "R", "X") for t in indices]
        accepted = [c for c in candidates if firings._refusal(c, rights, lefts) is None]
        assert firings._next_letters(lefts, rights) == tuple(accepted)


def test_canonicalize_example():
    word = parse_word("L0,R1,R0,L1,R2,R1")
    canon = canonicalize(word)
    assert format_word(canon) == "R0,L1,R0,R1,R0,L3"
    assert canonicalize(canon) == canon
    assert is_canonical(canon)
    assert not is_canonical(word)


@pytest.mark.parametrize("length", range(0, 7))
def test_canonicalize_confluent_and_invariant(length):
    assert check_confluence(length + 2).passed


def words_passing_check_word(length):
    """Every word of ``length`` letters that :func:`check_word` accepts, in
    the depth-first order of :func:`walk`: the oracle for keep=all."""
    alphabet = [L(t) for t in range(length)] + [R(t) for t in range(length)]
    for word in itertools.product(alphabet, repeat=length):
        try:
            check_word(word)
        except WordError:
            continue
        yield word


def test_canonical_classes_count_length4():
    classes = {canonicalize(w) for w in words_passing_check_word(4)}
    assert len(classes) == 62
    assert classes == set(canonical_words(6))


@pytest.mark.parametrize("n, count", [(2, 1), (3, 2), (4, 5), (5, 16), (6, 62), (9, 8296)])
def test_canonical_word_counts(n, count):
    words = list(canonical_words(n))
    assert len(words) == count
    assert len(set(words)) == count
    for w in words[:: max(1, len(words) // 50)]:
        check_word(w)
        assert is_canonical(w)
        assert canonicalize(w) == w


@st.composite
def valid_word(draw):
    """A valid word of 7 to 12 letters, drawn one letter at a time from
    ``next_letters``."""
    word = ()
    for _ in range(draw(st.integers(7, 12))):
        word += (draw(st.sampled_from(next_letters(word))),)
    return word


@settings(derandomize=True, max_examples=150, deadline=None)
@given(valid_word())
def test_long_words_canonicalize_and_fire(word):
    n = len(word) + 2
    canon = canonicalize(word)
    assert is_canonical(canon) and canonicalize(canon) == canon
    state = apply_word(word, n)
    assert apply_word(canon, n) == state
    code = code_of(state)
    assert code == "+" * code.count("+") + "-" * code.count("-")
    assert state == fired_letter_by_letter(word, n)


def fired_letter_by_letter(word, n):
    """The oracle for the counted shapes: each letter reads its shape off the
    code of the state it fires from."""
    p = swap_ends(n)
    for letter in word:
        p = apply_letter(p, letter)
    return p


@pytest.mark.parametrize("n", range(2, 8))
def test_counted_shapes_match_letter_by_letter(n):
    # apply_word and walk take each shape from their letter counts, for
    # every valid word, canonical or not
    for word, p in walk(n, keep=lambda word, letter: True):
        assert p == fired_letter_by_letter(word, n)
        if len(word) == n - 2:
            assert apply_word(word, n) == p


def test_letters_are_shared():
    for t in range(8):
        assert L(t) is L(t) and R(t) is R(t)
        assert (L(t), R(t)) == (FiringLetter("L", t), FiringLetter("R", t))
    # beyond the shared table, and below it, letters are made fresh
    assert L(-1) == FiringLetter("L", -1) and R(-1) == FiringLetter("R", -1)
    assert L(500) == FiringLetter("L", 500)
    assert list(map(id, next_letters(parse_word("R,L0")))) == list(map(id, (L(0), L(1), R(0), R(1))))
    assert all(a is L(a.index) for a in canonicalize(parse_word("L0,R1")) if a.side == "L")


@pytest.mark.parametrize("n", range(2, 8))
def test_walk_matches_apply_word(n):
    walked = list(walk(n))
    words = [word for word, _ in walked]
    # each canonical prefix once, and every parent before its children
    assert sorted(words) == sorted(w for m in range(2, n + 1) for w in canonical_words(m))
    assert len(set(words)) == len(words)
    assert all(words.index(w[:-1]) < i for i, w in enumerate(words) if w)
    assert [w for w in words if len(w) == n - 2] == list(canonical_words(n))
    for word, p in walked:
        assert p == fired_letter_by_letter(word, n)
        if len(word) == n - 2:
            assert p == apply_word(word, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_walk_keeps_the_letters_it_is_told(n):
    every = [word for word, _ in walk(n, keep=lambda word, letter: True)]
    assert [w for w in every if len(w) == n - 2] == list(words_passing_check_word(n - 2))
    assert len(every) == sum(len(list(words_passing_check_word(m))) for m in range(n - 1))
    shorts = [w for w, _ in walk(n, keep=lambda word, letter: letter.index == 0)]
    assert len(shorts) == (1 << (n - 1)) - 1
    assert all(letter.index == 0 for w in shorts for letter in w)


def test_walk_needs_two_values():
    for n in (1, 0):
        with pytest.raises(InputError):
            next(walk(n))
        with pytest.raises(InputError):
            short_firing_image(n)


def test_word_listings_refuse_bad_lengths_when_called():
    # refused by the call itself, before any word is drawn; a negative length
    # used to recurse until RecursionError at the first word
    with pytest.raises(InputError, match="length must be >= 0, got -1"):
        restricted_words(-1)
    assert list(restricted_words(0)) == [()]
    for n in (1, 0):
        for refuse in (canonical_words, lambda n: apply_word((), n), lambda n: next(walk(n))):
            with pytest.raises(InputError, match=f"words need n >= 2, got {n}"):
                refuse(n)
    assert isinstance(canonical_words(4), Iterator)


@pytest.mark.parametrize("n", range(2, 8))
def test_words_biject_onto_worst_cases(n):
    assert check_word_bijection(n).passed


# -- short firings -----------------------------------------------------------------

@pytest.mark.parametrize("n, size", [(2, 1), (4, 4), (6, 16)])
def test_short_firing_image(n, size):
    image = short_firing_image(n)
    assert len(image) == size == 1 << (n - 2)
    assert image <= set(worst_case_permutations(n))


def test_short_firing_collision_fails_the_check(monkeypatch):
    # two short schedules sent to one state must print a FAIL line, not raise
    real_walk = firings.walk

    def colliding_walk(n, keep):
        ends = []
        for word, p in real_walk(n, keep):
            if len(word) == n - 2:
                ends.append(p)
                if len(ends) == 2:
                    p = ends[0]
            yield word, p

    monkeypatch.setattr(firings, "walk", colliding_walk)
    assert len(short_firing_image(4)) == 3
    result = check_short_firing_injectivity(4)
    assert not result.passed and result.detail == "n=3: image size 1"


def test_short_firing_image_strict_at_4():
    assert len(short_firing_image(4)) == 4 < len(worst_case_permutations(4)) == 5


# -- partitions ----------------------------------------------------------------------

def test_word_to_partition_examples():
    assert word_to_partition(()) == ((1,),)
    q = word_to_partition(parse_word("R,L0,L1"))
    assert q == ((1, 3), (2, 4))
    assert format_partition(q) == "{1,3}{2,4}"
    assert partition_to_word(q) == parse_word("R,L0,L1")


def test_word_to_partition_validation():
    with pytest.raises(WordError):
        word_to_partition((R(1),))  # not a restricted word
    with pytest.raises(WordError):
        word_to_partition((L(1),))  # block 2 does not exist yet
    with pytest.raises(WordError, match=r"names block 0 of 1"):
        word_to_partition((L(-1),))  # no block 0: it must not wrap to the last block
    with pytest.raises(WordError, match="letter 1: X0 has invalid side 'X'"):
        word_to_partition((FiringLetter("X", 0),))
    with pytest.raises(WordError, match=r"blocks do not partition 1..m: \(\(1, 2\), \(2, 3\)\)"):
        partition_to_word(((1, 2), (2, 3)))
    with pytest.raises(WordError, match="blocks do not partition 1..m"):
        partition_to_word(((1, 3),))
    with pytest.raises(WordError, match="partition blocks must be nonempty"):
        partition_to_word(((1,), ()))
    with pytest.raises(WordError, match="nonempty, and there must be at least one"):
        partition_to_word(())  # () is the word of {1}, and no word's partition is empty
    assert partition_to_word(((4, 2), (3,), (1,))) == parse_word("R,R,L1")


def all_set_partitions(m):
    """Independent enumeration: assign each element to an existing or new block."""
    if m == 0:
        yield ()
        return
    for smaller in all_set_partitions(m - 1):
        for idx in range(len(smaller)):
            yield smaller[:idx] + (smaller[idx] + (m,),) + smaller[idx + 1:]
        yield smaller + ((m,),)


@pytest.mark.parametrize("length", range(0, 7))
def test_partition_bijection_roundtrip(length):
    words = list(restricted_words(length))
    partitions = [word_to_partition(w) for w in words]
    assert len(set(partitions)) == len(words)
    for w, q in zip(words, partitions):
        assert partition_to_word(q) == w
        assert sorted(e for b in q for e in b) == list(range(1, length + 2))
    # onto: every partition of {1..length+1} is hit
    assert set(partitions) == set(all_set_partitions(length + 1))


@pytest.mark.parametrize("length", range(0, 8))
def test_restricted_word_count_is_bell(length):
    from homing.counting import bell_number

    assert sum(1 for _ in restricted_words(length)) == bell_number(length + 1)


def test_block_count_matches_rights():
    for length in range(0, 6):
        for w in restricted_words(length):
            rights = sum(1 for let in w if let.side == "R")
            assert len(word_to_partition(w)) == rights + 1


# -- text forms ------------------------------------------------------------------------

def test_word_text_roundtrip():
    w = parse_word("L0,R1,R0,L1,R2,R1")
    assert format_word(w) == "L0,R1,R0,L1,R2,R1"
    assert parse_word(format_word(w)) == w
    assert parse_word("") == ()
    assert parse_word("R,L,L1") == (R(0), L(0), L(1))
    assert format_word(parse_word("R0,L0"), restricted=True) == "R,L0"
    with pytest.raises(ParseError):
        parse_word("L0,X2")
    # more digits than int() converts (4,300 by default) is bad input too
    with pytest.raises(ParseError, match="invalid firing letter 'L999"):
        parse_word("L0,L" + "9" * 5000)


def test_partition_text_roundtrip():
    q = parse_partition("{2,4}{1,3}")
    assert q == ((1, 3), (2, 4))
    assert parse_partition(format_partition(q)) == q
    with pytest.raises(ParseError):
        parse_partition("{1,2}{2,3}")
    with pytest.raises(ParseError):
        parse_partition("{1}(2)")
    with pytest.raises(ParseError, match="invalid partition block {1 2}"):
        parse_partition("{1 2}")
