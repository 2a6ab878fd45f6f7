"""Height tables, worst-case sets, and the pinned-eviction bound."""
import json
import random
import tracemalloc

import pytest

from homing import (
    CapacityError,
    CycleError,
    InputError,
    ParseError,
    all_perms,
    code_of,
    identity,
    place,
    placeable_values,
    rank,
    rotation,
    swap_ends,
    unrank,
)
from homing import cli, heights
from homing.heights import (
    build_height_table,
    height,
    load_height_table,
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
    import homing.successors as successors_module

    real = successors_module.displacement_ranks

    def with_back_edge(rows):
        ranks = real(rows)
        if rows[0].tolist() == list(identity(rows.shape[1])):
            # the identity's first eviction now leads back to the identity: the
            # state it replaced keeps one placement that is never released
            ranks[0] = 0
        return ranks

    monkeypatch.setattr(successors_module, "displacement_ranks", with_back_edge)
    with pytest.raises(CycleError, match="never released"):
        build_height_table(5)


def test_height_raises_cycle_error_on_a_back_edge(monkeypatch):
    real = heights.placement_successors

    def with_back_edge(state):
        # placing 2 into the rotation 2,3,4,1 gives 3,2,4,1, which now also
        # leads back to the rotation
        return real(state) | {rotation(4)} if state == (3, 2, 4, 1) else real(state)

    monkeypatch.setattr(heights, "placement_successors", with_back_edge)
    with pytest.raises(CycleError, match="cycle through"):
        height(rotation(4))


def test_height_examples():
    assert height(identity(7)) == 0
    for n in range(2, 8):
        assert height(swap_ends(n)) == 1 << (n - 2)
        assert height(rotation(n)) == (1 << (n - 1)) - 1


@pytest.mark.parametrize("n", range(2, 6))
def test_eviction_placement_duality(n):
    assert check_eviction_duality(n).passed


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


def test_height_of_refuses_a_permutation_of_another_length():
    table = build_height_table(5)
    for p in ((2, 1), (1,), tuple(range(1, 8))):
        with pytest.raises(InputError, match=f"n = 5, got a permutation of length {len(p)}"):
            table.height_of(p)


def test_height_of_refuses_a_non_permutation():
    """A tuple of the right length that is not a permutation of 1..n has
    no height; ranking it would read some other state's entry."""
    table = build_height_table(5)
    for p in ((5, 5, 5, 5, 5), (9, 1, 2, 3, 4), (0, 1, 2, 3, 4), (1, 2, 3, 4, 4.0)):
        with pytest.raises(InputError, match=r"not a permutation of 1\.\.5"):
            table.height_of(p)
    assert table.height_of((5, 1, 2, 3, 4)) == 15


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
    assert loaded == table and hash(loaded) == hash(table)


def test_tables_compare_by_value():
    a, b = build_height_table(3), build_height_table(3)
    assert a == b and hash(a) == hash(b)
    assert a != build_height_table(4)
    changed = a.heights.copy()
    changed[1] += 1
    assert a != heights.HeightTable(3, changed)
    with pytest.raises(InputError, match="holds 6 heights, got 5"):
        heights.HeightTable(3, a.heights[:5])
    # against anything else, equality defers to the other side and falls back to identity
    assert a.__eq__(3) is NotImplemented
    assert (a == 3) is False and (a != 3) is True


class Interrupted(BaseException):
    """Stands in for an interrupt arriving in the middle of a save."""


def test_interrupted_save_leaves_the_old_table(tmp_path, monkeypatch):
    path = tmp_path / "h.bin"
    save_height_table(build_height_table(4), path)
    before = path.read_bytes()
    whole = heights.write_atomic

    def cut(target, chunks):
        def first_chunk_then_interrupt():
            yield next(iter(chunks))
            raise Interrupted

        whole(target, first_chunk_then_interrupt())

    monkeypatch.setattr(heights, "write_atomic", cut)
    with pytest.raises(Interrupted):
        save_height_table(build_height_table(5), path)
    assert path.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["h.bin"]


def test_save_keeps_the_mode_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    path = tmp_path / "h.bin"
    save_height_table(build_height_table(3), path)
    assert path.stat().st_mode == plain.stat().st_mode


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE\x01\x05\x00\x00" + b"\x00" * 480)
    with pytest.raises(ParseError, match="magic"):
        load_height_table(path)


def test_load_rejects_every_truncation(tmp_path):
    path = tmp_path / "h4.bin"
    save_height_table(build_height_table(4), path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ParseError):
            load_height_table(path)
    path.write_bytes(b"HOMH\x01\x00\x00\x00" + b"\x00" * 4)  # n = 0, one 0! height
    with pytest.raises(ParseError, match="n must be >= 1"):
        load_height_table(path)


def test_load_rejects_corrupt_headers(tmp_path):
    path = tmp_path / "h4.bin"
    save_height_table(build_height_table(4), path)
    raw = path.read_bytes()  # 8 + 4 * 4! = 104 bytes

    def rejects(data, match):
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=match):
            load_height_table(path)

    for i in range(4):
        flipped = bytearray(raw)
        flipped[i] ^= 0xFF
        rejects(flipped, "bad magic")
    for version in set(range(256)) - {1}:
        rejects(raw[:4] + bytes((version,)) + raw[5:], f"unsupported version {version}$")
    rejects(raw[:5] + b"\x00" + raw[6:], "n must be >= 1")
    rejects(raw + b"\x00", "n = 4 is 104 bytes, found 105$")
    rejects(raw[:-1], "n = 4 is 104 bytes, found 103$")
    path.write_bytes(raw)
    assert list(load_height_table(path).heights) == list(build_height_table(4).heights)


def test_load_rejects_an_oversized_file_before_reading_it(tmp_path):
    # a valid n = 5 header followed by 64 MiB (sparse on disk) of garbage
    path = tmp_path / "big.bin"
    with open(path, "wb") as fh:
        fh.write(b"HOMH\x01\x05\x00\x00")
        fh.truncate(1 << 26)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="n = 5 is 488 bytes, found 67,108,864$"):
            load_height_table(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def members_json(members):
    """The JSON text the CLI writes for a list of permutations."""
    return "".join(cli._listing(map(cli._json_perm, members), "json"))


def test_members_json():
    text = members_json([(2, 1)])
    assert json.loads(text) == [[2, 1]]
    assert members_json([]) == json.dumps([]) + "\n"


@pytest.mark.parametrize("n", range(1, 7))
def test_members_json_is_json_dumps(n):
    table = build_height_table(n)
    for h in range(table.max() + 1):
        members = table.members_at(h)
        assert members_json(members) == json.dumps([list(p) for p in members]) + "\n"


@pytest.mark.parametrize("n", range(1, 9))
def test_members_at_unranks_every_height(n):
    """The bulk unrank gives, height by height, the tuples of Python ints
    one ``perms.unrank`` call per rank gives."""
    table = build_height_table(n)
    expected = {}
    for r, h in enumerate(table.heights.tolist()):
        expected.setdefault(h, []).append(unrank(n, r))
    for h in range(table.max() + 1):
        members = table.members_at(h)
        assert members == expected[h]
        assert all(type(v) is int for p in members for v in p)
    assert table.members_at(table.max() + 1) == []


def test_tables_are_read_only(tmp_path):
    table = build_height_table(4)
    path = tmp_path / "h4.bin"
    save_height_table(table, path)
    for t in (table, load_height_table(path)):
        with pytest.raises(ValueError):
            t.heights[0] = 1
        with pytest.raises(ValueError):  # immutable bytes underneath
            t.heights.flags.writeable = True


@pytest.mark.parametrize("n", [11, 12])
def test_height_beyond_the_tables(n):
    assert height(rotation(n)) == (1 << (n - 1)) - 1


def test_capacity_checks():
    # 11! * (11 + 5) bytes, named before anything is allocated
    with pytest.raises(CapacityError, match=r"about 639 MB"):
        build_height_table(11)
    assert height(tuple(range(1, 12))) == 0
    with pytest.raises(CapacityError):
        stage1_longest(11)
    with pytest.raises(ValueError):
        build_height_table(0)
