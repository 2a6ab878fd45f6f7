"""Placement/displacement semantics, checked against list-surgery oracles."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homing import (
    InvalidMoveError,
    ParseError,
    all_perms,
    as_perm,
    displace,
    displacement_successors,
    format_perm,
    identity,
    is_permutation,
    lis_length,
    parse_perm,
    place,
    placeable_values,
    placement_successors,
    rank,
    reverse,
    reverse_complement,
    rotation,
    stage,
    swap_ends,
    unrank,
    value_at,
)
from homing.verify import check_inversion


def oracle_move(p, value, target_pos):
    """Independent remove-and-reinsert on plain lists (1-based target)."""
    items = [v for v in p if v != value]
    items.insert(target_pos - 1, value)
    return tuple(items)


perms_upto_6 = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


# -- placements -------------------------------------------------------------

def test_place_examples():
    assert place((2, 1), 1) == (1, 2)
    assert place((1, 4, 2, 3), 4) == oracle_move((1, 4, 2, 3), 4, 4) == (1, 2, 3, 4)
    assert place((4, 1, 3, 5, 2), 1) == oracle_move((4, 1, 3, 5, 2), 1, 1) == (1, 4, 3, 5, 2)


def test_place_rejects_home_value():
    with pytest.raises(InvalidMoveError):
        place((1, 3, 2), 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_place_matches_oracle_exhaustively(n):
    for p in all_perms(n):
        for v in placeable_values(p):
            q = place(p, v)
            assert q == oracle_move(p, v, v)
            assert value_at(q, v) == v
            assert sorted(q) == sorted(p)
            # all other values keep their relative order
            assert [x for x in q if x != v] == [x for x in p if x != v]


# -- displacements ----------------------------------------------------------

def test_displace_examples():
    assert displace((1, 2, 3), 3, 1) == oracle_move((1, 2, 3), 3, 1) == (3, 1, 2)
    assert displace((1, 2, 3), 1, 3) == oracle_move((1, 2, 3), 1, 3) == (2, 3, 1)


def test_displace_rejects_bad_moves():
    with pytest.raises(InvalidMoveError):
        displace((2, 1), 1, 2)  # 1 is not home
    with pytest.raises(InvalidMoveError):
        displace((1, 2), 1, 1)  # target equals home
    with pytest.raises(InvalidMoveError):
        displace((1, 2), 2, 5)  # target out of range


@pytest.mark.parametrize("n", range(2, 6))
def test_place_displace_inverse_exhaustively(n):
    assert check_inversion(n, 0).passed


@settings(max_examples=150)
@given(perms_upto_6, st.data())
def test_displace_then_place_roundtrip(p, data):
    home = [v for pos, v in enumerate(p, 1) if v == pos]
    if not home or len(p) < 2:
        return
    v = data.draw(st.sampled_from(home))
    t = data.draw(st.integers(1, len(p)).filter(lambda x: x != v))
    assert place(displace(p, v, t), v) == p


# -- successor enumeration ---------------------------------------------------

def test_placement_successors():
    assert placement_successors(identity(4)) == set()
    assert placement_successors((2, 1)) == {(1, 2)}
    expected = {oracle_move((2, 3, 1), v, v) for v in (1, 2, 3)}
    assert placement_successors((2, 3, 1)) == expected


def test_displacement_successors():
    assert displacement_successors((2, 1)) == []
    moves2 = displacement_successors(identity(2))
    assert len(moves2) == 2 and {q for _, q in moves2} == {(2, 1)}
    assert len(displacement_successors(identity(3))) == 6


# -- longest increasing subsequence -------------------------------------------

def oracle_lis(p):
    """Brute force over all subsequences."""
    best = 0
    for r in range(len(p), 0, -1):
        for sub in itertools.combinations(p, r):
            if all(a < b for a, b in zip(sub, sub[1:])):
                return r
    return best


def test_lis_examples():
    assert lis_length(identity(6)) == 6
    assert lis_length(reverse(5)) == 1
    assert lis_length((4, 1, 3, 5, 2)) == oracle_lis((4, 1, 3, 5, 2)) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_lis_matches_bruteforce(n):
    for p in all_perms(n):
        assert lis_length(p) == oracle_lis(p)


# -- stage --------------------------------------------------------------------

def test_stage():
    assert stage((1, 2, 3, 7, 4, 6, 5, 8, 9)) == 5
    assert stage(reverse(4)) == 0
    assert stage(identity(5)) == 5
    assert stage((1, 3, 2, 4)) == 2
    assert stage(swap_ends(5)) == 0


# -- named permutations --------------------------------------------------------

def test_named_permutations():
    assert swap_ends(5) == (5, 2, 3, 4, 1)
    assert swap_ends(2) == (2, 1)
    assert rotation(4) == (2, 3, 4, 1)
    assert rotation(1) == (1,)
    assert reverse(3) == (3, 2, 1)
    assert identity(3) == (1, 2, 3)
    with pytest.raises(ValueError):
        swap_ends(1)
    with pytest.raises(ValueError):
        identity(0)


def test_reverse_complement():
    p = (4, 1, 3, 5, 2)
    rc = reverse_complement(p)
    assert rc == tuple(6 - v for v in reversed(p))
    assert reverse_complement(rc) == p
    assert reverse_complement(identity(5)) == identity(5)
    assert reverse_complement(swap_ends(5)) == swap_ends(5)


# -- ranking -------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_rank_is_lexicographic(n):
    for i, p in enumerate(all_perms(n)):
        assert rank(p) == i
        assert unrank(n, i) == p


def test_rank_identity_is_zero():
    assert rank(identity(8)) == 0


# -- text form -------------------------------------------------------------------

def test_parse_format_roundtrip():
    assert parse_perm("4,1,3,5,2") == (4, 1, 3, 5, 2)
    assert format_perm((4, 1, 3, 5, 2)) == "4,1,3,5,2"
    assert parse_perm(" 2 , 1 ") == (2, 1)


@pytest.mark.parametrize(
    "text, fragment",
    [("1,2,x", "'x'"), ("1,1,2", "repeated"), ("1,2,4", "out of range"), ("", "''")],
)
def test_parse_rejects_bad_text(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_perm(text)
    assert fragment.strip("'") in str(err.value)


def test_is_permutation_and_as_perm():
    assert is_permutation((2, 1, 3))
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((0, 1))
    assert as_perm([2, 1]) == (2, 1)
    with pytest.raises(ParseError):
        as_perm([1, 3])
