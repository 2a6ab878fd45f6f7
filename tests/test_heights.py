"""Height tables, worst-case sets, and the pinned-eviction bound."""
import json
import random

import pytest

from homing import (
    CapacityError,
    CycleError,
    all_perms,
    code_of,
    identity,
    place,
    placeable_values,
    rank,
    rotation,
    swap_ends,
)
from homing.heights import (
    build_height_table,
    height,
    load_height_table,
    max_height,
    members_json,
    save_height_table,
    stage1_longest,
    worst_case_permutations,
)
from homing.verify import check_eviction_duality


def oracle_heights(n):
    """Independent longest-path lengths via plain recursive maximization."""
    import sys

    sys.setrecursionlimit(10000)
    memo = {identity(n): 0}

    def h(p):
        if p in memo:
            return memo[p]
        memo[p] = 1 + max(h(place(p, v)) for v in placeable_values(p))
        return memo[p]

    return {p: h(p) for p in all_perms(n)}


@pytest.mark.parametrize("n", range(1, 7))
def test_table_matches_bruteforce(n):
    table = build_height_table(n)
    expected = oracle_heights(n)
    for p, h in expected.items():
        assert table.heights[rank(p)] == h
        assert height(p) == h


def test_table_matches_point_queries_sampled_n8():
    table = build_height_table(8)
    rng = random.Random(2008)
    for _ in range(200):
        p = tuple(rng.sample(range(1, 9), 8))
        assert table.heights[rank(p)] == height(p)


def test_unreleased_states_raise_cycle_error(monkeypatch):
    import homing.heights as heights_module

    real = heights_module.displacement_ranks

    def with_back_edge(rows):
        ranks = real(rows)
        if rows[0].tolist() == list(identity(rows.shape[1])):
            # the identity's first eviction now leads back to the identity: the
            # state it replaced keeps one placement that is never released
            ranks[0] = 0
        return ranks

    monkeypatch.setattr(heights_module, "displacement_ranks", with_back_edge)
    with pytest.raises(CycleError, match="never released"):
        build_height_table(5)


@pytest.mark.parametrize("n", range(1, 8))
def test_max_height(n):
    assert max_height(n) == (1 << (n - 1)) - 1


def test_height_examples():
    assert height(identity(7)) == 0
    for n in range(2, 8):
        assert height(swap_ends(n)) == 1 << (n - 2)
        assert height(rotation(n)) == (1 << (n - 1)) - 1


@pytest.mark.parametrize("n", range(2, 6))
def test_eviction_placement_duality(n):
    assert check_eviction_duality(n, 0).passed


def test_worst_case_members():
    assert worst_case_permutations(2) == [(2, 1)]
    assert len(worst_case_permutations(3)) == 2
    assert len(worst_case_permutations(4)) == 5
    table6 = build_height_table(6)
    assert table6.histogram()[31] == 62
    assert table6.histogram()[0] == 1


@pytest.mark.parametrize("n", range(2, 8))
def test_members_have_block_codes(n):
    for p in worst_case_permutations(n):
        c = code_of(p)
        assert c == "+" * c.count("+") + "-" * c.count("-")


def test_block_code_does_not_imply_worst_case():
    # the converse fails already at n = 4: (2,3,1,4) has code "--" but its
    # height is far below 7 because value 4 never moves
    table = build_height_table(4)
    p = (2, 3, 1, 4)
    assert code_of(p) == "--"
    assert table.height_of(p) < 7
    counterexamples = [
        q
        for q in all_perms(4)
        if (c := code_of(q)) == "+" * c.count("+") + "-" * c.count("-")
        and table.height_of(q) < 7
    ]
    assert counterexamples  # existence, as promised


def test_table_consistent_with_point_queries():
    table = build_height_table(6)
    for p in list(all_perms(6))[::37]:
        assert table.height_of(p) == height(p)


# -- stage-1 pinned eviction ----------------------------------------------------

@pytest.mark.parametrize("n, expected", [(2, 0), (3, 1), (4, 3), (5, 7), (6, 15)])
def test_stage1_longest(n, expected):
    assert stage1_longest(n) == expected
    assert expected == (1 << (n - 2)) - 1


def test_stage1_longest_oracle_n3():
    # every eviction run from (1,2,3) that keeps 1 fixed at position 1
    from homing import displace

    def runs(p):
        moves = []
        for v in (2, 3):
            if p[v - 1] != v:
                continue
            for t in range(2, 4):
                if t != v:
                    moves.append(displace(p, v, t))
        if not moves:
            return 0
        return 1 + max(runs(q) for q in moves)

    assert runs(identity(3)) == stage1_longest(3) == 1


# -- persistence -------------------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    table = build_height_table(5)
    path = tmp_path / "h5.bin"
    save_height_table(table, path)
    raw = path.read_bytes()
    assert raw[:4] == b"HOMH"
    assert raw[4] == 1 and raw[5] == 5 and raw[6:8] == b"\x00\x00"
    assert len(raw) == 8 + 120 * 4
    loaded = load_height_table(path)
    assert loaded.n == 5
    assert list(loaded.heights) == list(table.heights)


def test_load_rejects_garbage(tmp_path):
    from homing import ParseError

    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE\x01\x05\x00\x00" + b"\x00" * 480)
    with pytest.raises(ParseError, match="magic"):
        load_height_table(path)


def test_members_json():
    text = members_json([(2, 1)])
    assert json.loads(text) == [[2, 1]]
    assert members_json([]) == json.dumps([])


@pytest.mark.parametrize("n", range(1, 7))
def test_members_json_is_json_dumps(n):
    table = build_height_table(n)
    for h in range(table.max() + 1):
        members = table.members_at(h)
        assert members_json(members) == json.dumps([list(p) for p in members])


def test_tables_are_read_only(tmp_path):
    table = build_height_table(4)
    path = tmp_path / "h4.bin"
    save_height_table(table, path)
    for t in (table, load_height_table(path)):
        with pytest.raises(ValueError):
            t.heights[0] = 1


def test_capacity_checks():
    # 11! * (11 + 5) bytes, named before anything is allocated
    with pytest.raises(CapacityError, match=r"about 639 MB"):
        build_height_table(11)
    with pytest.raises(CapacityError):
        height(tuple(range(1, 12)))
    with pytest.raises(CapacityError):
        stage1_longest(11)
    with pytest.raises(ValueError):
        build_height_table(0)
