"""Firing blocks, firing words, canonicalization, and the partition bijection."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homing import (
    CodeShapeError,
    ParseError,
    WordError,
    code_of,
    displace,
    reverse_complement,
    swap_ends,
    weight,
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
    fire_left,
    fire_right,
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
    valid_words,
    word_to_partition,
)
from homing.heights import worst_case_permutations
from homing.verify import check_confluence, check_word_bijection


# -- code shapes ---------------------------------------------------------------

def test_code_shape():
    assert code_shape("++00--") == (2, 2, 2)
    assert code_shape("") == (0, 0, 0)
    assert code_shape("000") == (0, 3, 0)
    with pytest.raises(CodeShapeError):
        code_shape("+0+0")
    with pytest.raises(CodeShapeError):
        firing_moves((1, 3, 2, 4), "L", 1)  # code "0-0" has no block shape


# -- single firings ---------------------------------------------------------------

def test_smallest_firings():
    t3 = swap_ends(3)
    assert firing_moves(t3, "L", 1) == [(2, 1)]
    assert fire_left(t3, 1) == (2, 3, 1)
    assert code_of(fire_left(t3, 1)) == "-"
    assert firing_moves(t3, "R", 3) == [(2, 3)]
    assert fire_right(t3, 3) == (3, 1, 2)
    assert code_of(fire_right(t3, 3)) == "+"


@pytest.mark.parametrize("n", range(4, 9))
def test_full_left_firing_from_gateway(n):
    p = swap_ends(n)
    moves = firing_moves(p, "L", 1)
    assert len(moves) == 1 << (n - 3)
    q = fire_left(p, 1)
    assert code_of(q) == "0" * (n - 3) + "-"


def _firing_targets(p):
    i, k, j = code_shape(code_of(p))
    lefts = [("L", s) for s in range(1, i + 2)]
    rights = [("R", s) for s in range(i + k + 2, len(p) + 1)]
    return lefts + rights


def _reachable_block_states(n, depth):
    """All states reachable from the gateway by at most ``depth`` firings."""
    states = {swap_ends(n)}
    seen = set(states)
    for _ in range(depth):
        nxt = set()
        for p in states:
            if code_shape(code_of(p))[1] == 0:
                continue
            for side, s in _firing_targets(p):
                q = fire_left(p, s) if side == "L" else fire_right(p, s)
                if q not in seen:
                    seen.add(q)
                    nxt.add(q)
        states = nxt
    return seen


@pytest.mark.parametrize("n", range(3, 8))
def test_firing_block_contract(n):
    # on every reachable block-shaped state: 2^(k-1) legal displacements,
    # each raising the weight by exactly one, with the documented code change,
    # ending where the splice of fire_left / fire_right lands
    for p in _reachable_block_states(n, n - 2):
        i, k, j = code_shape(code_of(p))
        if k == 0:
            continue
        for side, s in _firing_targets(p):
            moves = firing_moves(p, side, s)
            assert len(moves) == 1 << (k - 1)
            state = p
            w = weight(code_of(state))
            for v, t in moves:
                state = displace(state, v, t)  # raises if illegal
                w2 = weight(code_of(state))
                assert w2 == w + 1
                w = w2
            assert state == (fire_left(p, s) if side == "L" else fire_right(p, s))
            if side == "L":
                assert code_of(state) == "+" * i + "0" * (k - 1) + "-" * (j + 1)
                assert state[s - 1] == i + k + 1
            else:
                assert code_of(state) == "+" * (i + 1) + "0" * (k - 1) + "-" * j
                assert state[s - 1] == i + 2


@pytest.mark.parametrize("n", range(3, 7))
def test_fire_right_is_mirror_of_fire_left(n):
    for p in _reachable_block_states(n, n - 3):
        i, k, j = code_shape(code_of(p))
        if k == 0:
            continue
        for s in range(i + k + 2, n + 1):
            mirrored = fire_left(reverse_complement(p), n + 1 - s)
            assert fire_right(p, s) == reverse_complement(mirrored)


def test_firing_target_validation():
    t5 = swap_ends(5)
    with pytest.raises(WordError):
        fire_left(t5, 2)  # only position 1 available while i = 0
    with pytest.raises(WordError):
        fire_right(t5, 4)  # right targets start at i+k+2 = 5


# bad input, and the error each call raised while it replayed the block
@pytest.mark.parametrize(
    "fire, p, arg, error",
    [
        (fire_left, (1, 3, 2, 4), 1, CodeShapeError),  # code "0-" is no block shape
        (fire_right, (2, 3, 4, 1), 4, CodeShapeError),  # code "--" has no home block
        (fire_left, swap_ends(5), 0, WordError),
        (fire_right, swap_ends(5), 6, WordError),
        (apply_letter, (1, 3, 2, 4), L(0), CodeShapeError),
        (apply_letter, swap_ends(5), L(1), WordError),  # needs a prior right
        (apply_letter, swap_ends(5), R(3), WordError),  # lands beyond position n
        (apply_letter, swap_ends(5), L(-1), WordError),
        (apply_letter, swap_ends(5), FiringLetter("X", 0), ValueError),
    ],
)
def test_splice_errors(fire, p, arg, error):
    with pytest.raises(error) as caught:
        fire(p, arg)
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
        apply_word((L(0),), 4)  # wrong length
    with pytest.raises(WordError):
        check_word((R(1),))


def test_canonicalize_example():
    word = parse_word("L0,R1,R0,L1,R2,R1")
    canon = canonicalize(word)
    assert format_word(canon) == "R0,L1,R0,R1,R0,L3"
    assert canonicalize(canon) == canon
    assert is_canonical(canon)
    assert not is_canonical(word)


@pytest.mark.parametrize("length", range(0, 5))
def test_canonicalize_confluent_and_invariant(length):
    assert check_confluence(length + 2, 0).passed


def test_canonical_classes_count_length4():
    classes = {canonicalize(w) for w in valid_words(4)}
    assert len(classes) == 62
    assert classes == set(canonical_words(6))


@pytest.mark.parametrize("n, count", [(2, 1), (3, 2), (4, 5), (5, 16), (6, 62), (9, 8296)])
def test_canonical_word_counts(n, count):
    words = canonical_words(n)
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


@pytest.mark.parametrize("n", range(2, 8))
def test_words_biject_onto_worst_cases(n):
    assert check_word_bijection(n, 0).passed


# -- short firings -----------------------------------------------------------------

@pytest.mark.parametrize("n, size", [(2, 1), (4, 4), (6, 16)])
def test_short_firing_image(n, size):
    image = short_firing_image(n)
    assert len(image) == size == 1 << (n - 2)
    assert image <= set(worst_case_permutations(n))


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
    with pytest.raises(WordError):
        partition_to_word(((1, 2), (2, 3)))


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


def test_partition_text_roundtrip():
    q = parse_partition("{2,4}{1,3}")
    assert q == ((1, 3), (2, 4))
    assert parse_partition(format_partition(q)) == q
    with pytest.raises(ParseError):
        parse_partition("{1,2}{2,3}")
    with pytest.raises(ParseError):
        parse_partition("{1}(2)")
