"""Placement/displacement semantics, checked against list-surgery oracles."""
import itertools
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homing import (
    InputError,
    InvalidMoveError,
    ParseError,
    all_perms,
    as_perm,
    displace,
    displacement_successors,
    format_perm,
    identity,
    lis_length,
    parse_perm,
    place,
    place_at,
    placeable_values,
    placement_successors,
    rank,
    reverse,
    reverse_complement,
    rotation,
    stage,
    swap_ends,
    unrank,
)
from homing import heights, perms, strategies
from homing.heights import build_height_table, height
from homing.strategies import RANDOM, STRATEGIES, min_placements, run_strategy
from homing.successors import perm_matrix
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


@pytest.mark.parametrize("value", [3, 0])
def test_place_rejects_a_value_outside_the_permutation(value):
    with pytest.raises(InvalidMoveError, match=f"cannot place {value}: not a value of 1..2"):
        place((1, 2), value)


@pytest.mark.parametrize(
    "move, args, named",
    [
        (place, ((1, 2), 1.5), "cannot place 1.5"),
        (displace, ((1, 2, 3), 1.5, 1), "cannot displace 1.5"),
        (displace, ((1, 2, 3), 1, 2.5), "target position 2.5"),
    ],
    ids=["place-value", "displace-value", "displace-target"],
)
def test_a_non_integer_move_is_refused_by_name(move, args, named):
    with pytest.raises(InvalidMoveError, match=f"^{named}: not an integer$"):
        move(*args)


def test_a_bool_is_an_integer_move():
    assert place((2, 1), True) == (1, 2)
    assert displace((1, 2), True, 2) == (2, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_place_matches_oracle_exhaustively(n):
    for p in all_perms(n):
        for v in placeable_values(p):
            q = place(p, v)
            assert q == oracle_move(p, v, v)
            assert q[v - 1] == v
            assert sorted(q) == sorted(p)
            # all other values keep their relative order
            assert [x for x in q if x != v] == [x for x in p if x != v]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("row_type", [list, bytearray, lambda p: array("H", p)])
def test_place_inplace_matches_oracle_exhaustively(n, row_type):
    """``place_at`` places in the row itself from every position, and
    refuses a value that is home."""
    for p in all_perms(n):
        for q, v in enumerate(p):
            row = row_type(p)
            if v == q + 1:
                with pytest.raises(InvalidMoveError, match="already home"):
                    place_at(row, q)
                assert tuple(row) == p  # a refused move leaves the row alone
            else:
                assert place_at(row, q) == v
                assert tuple(row) == oracle_move(p, v, v)


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
    assert check_inversion(n).passed


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


@pytest.mark.parametrize("r", [-1, 6, 11])
def test_unrank_refuses_a_rank_outside_s_n(r):
    with pytest.raises(InputError, match=f"rank {r} is outside 0..5"):
        unrank(3, r)


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


def test_as_perm_accepts_and_refuses():
    assert as_perm([2, 1]) == (2, 1)
    with pytest.raises(ParseError):
        as_perm([1, 3])
    # the size check is as_perm's, so every search toward the identity makes it
    for refuses in (as_perm, height, min_placements, lambda p: run_strategy(p, STRATEGIES[0])):
        with pytest.raises(InputError, match="n must be >= 1, got 0"):
            refuses(())


@pytest.mark.parametrize(
    "values, fragment",
    [
        ((2, 2), "entry 2 repeated"),
        ((0, 1), "entry 0 out of range"),
        ((3, 3, 3), "of 1..3: entry 3 repeated"),
        ((5, 1, 1), "entry 5 out of range"),  # the first fault, not the repeat
        ((1, 2, 3, 4, 4.0), "entry 4.0 is not an integer"),
        ((1, "2"), "entry '2' is not an integer"),
    ],
)
def test_as_perm_names_the_first_bad_entry(values, fragment):
    with pytest.raises(ParseError) as err:
        as_perm(values)
    assert fragment in str(err.value)


NOT_PERMUTATIONS = [(2, 2), (0, 1), (3, 3, 3), (1, 2, 3, 4, 4.0)]


@pytest.fixture
def no_placement(monkeypatch):
    """Every placement routine the entry points can reach fails the test,
    so a state that slips past the check fails fast instead of looping."""

    def refuse(*args):
        raise AssertionError("a placement ran before the state was checked")

    for module in (perms, heights, strategies):
        for name in ("place", "place_at", "placement_successors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("p", NOT_PERMUTATIONS)
def test_entry_points_refuse_a_non_permutation_before_placing(p, no_placement):
    with pytest.raises(InputError):
        height(p)
    with pytest.raises(InputError):
        min_placements(p)
    for s in STRATEGIES:
        with pytest.raises(InputError):
            run_strategy(p, s, seed=1 if s == RANDOM else None)


def test_numpy_int_states_give_the_same_results():
    table = build_height_table(4)
    for row in perm_matrix(4):
        q, p = tuple(row), tuple(row.tolist())
        assert isinstance(q[0], np.int8)
        assert as_perm(q) == p and all(type(v) is int for v in as_perm(q))
        assert height(q) == height(p) == table.height_of(q)
        assert min_placements(q) == min_placements(p)
        for s in STRATEGIES:
            seed = 1 if s == RANDOM else None
            a, b = run_strategy(q, s, seed=seed), run_strategy(p, s, seed=seed)
            assert a == b and list(a.text()) == list(b.text())
