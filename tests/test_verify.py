"""The invariant suites themselves run clean at a small scale."""
import argparse
from math import factorial
from types import SimpleNamespace
from unittest.mock import Mock

import numpy as np
import pytest

from homing import all_perms, cli, code_of, displacement_successors, heights, rank, verify, weight
from homing.firings import FiringLetter, L, R
from homing.heights import HeightTable
from homing.successors import code_signs, code_weights, displacement_ranks, displacement_sources, perm_matrix
from homing.verify import (
    SUITES,
    PropertyResult,
    _property,
    _weighed,
    check_displacement_weight_increase,
    check_weight_certificate,
    eviction_runs,
    forward_eviction_heights,
    run_suite,
    suite_names,
)


def test_suite_names():
    names = suite_names()
    assert names[0] == "all"
    assert set(names[1:]) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes(suite):
    for result in run_suite(suite, nmax=5):
        assert result.passed, f"{result.name}: {result.detail}"


def test_all_runs_everything():
    results = run_suite("all", nmax=4)
    assert len(results) == sum(len(v) for v in SUITES.values())
    assert all(r.passed and r.cases > 0 for r in results)


def test_each_table_is_built_once(monkeypatch):
    """The checks share one height table per n, one step table per
    strategy and n, and one code table per length, all read-only."""
    for cached in (
        verify._table, verify._worst, verify._signed, verify._weighed, verify._steps, verify._code_table
    ):
        cached.cache_clear()
    build = Mock(wraps=heights.build_height_table)
    for module in (heights, verify):
        monkeypatch.setattr(module, "build_height_table", build)
    step = Mock(wraps=verify.step_table)
    monkeypatch.setattr(verify, "step_table", step)
    assert all(r.passed for r in run_suite("all", nmax=7))
    built = sorted(call.args[0] for call in build.call_args_list)
    assert built == list(range(1, 8))  # 7, not 56
    # three extremal strategies per n, not once per check, and leftmost-not-home
    # for the extremes check at n = 2..6
    assert step.call_count == 3 * 7 + 5
    assert verify._code_table.cache_info().misses == 8  # k = 0..7, not once per check
    assert verify._worst.cache_info().misses == 6  # n = 2..7, not once per firing check
    shared = (*verify._signed(5), *verify._weighed(5), verify._steps(5, "smallest-first"), *verify._code_table(5))
    for array in shared:
        with pytest.raises(ValueError):
            array[0] = 0


# (name, passed, cases) of every property at nmax=7: a rewrite of a check
# must neither drop nor double-count a case
CASES_AT_NMAX_7 = [
    ("perm-core/placement-semantics", True, 4166),
    ("perm-core/inversion", True, 8332),
    ("perm-core/extremes-placed-once", True, 3488),
    ("perm-core/acyclicity", True, 7),
    ("code-weight/range", True, 3280),
    ("code-weight/binary-readings", True, 510),
    ("code-weight/tiebreak-invariance", True, 3280),
    ("code-weight/block-formula", True, 3802),
    ("code-weight/zero-append", True, 3280),
    ("code-weight/marking-monotonic", True, 14216),
    ("code-weight/displacement-increase", True, 16868),
    ("strategies/extremal-bound", True, 17739),
    ("strategies/stage-monotone", True, 17739),
    ("strategies/lis-lower-bound", True, 5913),
    ("strategies/unique-worst-case", True, 6),
    ("strategies/stage-advance-premise", True, 5906),
    ("height-map/max-height", True, 7),
    ("height-map/eviction-duality", True, 6),
    ("height-map/stage1-longest", True, 6),
    ("height-map/weight-certificate", True, 4320),
    ("height-map/worst-case-code-shape", True, 366),
    ("firings/step-count-and-weight", True, 626),
    ("firings/schedule-total", True, 366),
    ("firings/word-bijection", True, 366),
    ("firings/confluence", True, 873),
    ("firings/recurrence-vs-language", True, 21),
    ("firings/short-firing-injectivity", True, 63),
    ("firings/partition-roundtrip", True, 5295),
]


def test_case_counts_at_nmax_7():
    assert [(r.name, r.passed, r.cases) for r in run_suite("all", nmax=7)] == CASES_AT_NMAX_7


def wrong_step_table(n, strategy):
    """Every state but the identity steps to the reversal, which then
    steps to itself for ever."""
    table = np.full(factorial(n), factorial(n) - 1, np.int32)
    table[0] = 0
    return table


def slow_step_table(n, strategy):
    """Each state steps to the state one rank below it, so the state of
    rank r takes r steps home."""
    return np.maximum(np.arange(factorial(n), dtype=np.int32) - 1, 0)


@pytest.mark.parametrize(
    "check, kernel, wrong, detail",
    [
        (verify.check_extremal_bound, "_steps", wrong_step_table,
         "smallest-first never sorts 2,1"),
        (verify.check_extremal_bound, "_steps", slow_step_table,
         "smallest-first took 3 steps on 2,3,1"),
        (verify.check_stage_monotone, "_steps", wrong_step_table,
         "smallest-first lowered stage on 1,3,2"),
        (verify.check_lis_lower_bound, "min_placements_table",
         lambda n: np.zeros(factorial(n), np.uint8), "min_placements(2,1) = 0"),
        (verify.check_stage_advance_premise, "place_rows", lambda rows, values: rows.copy(),
         "2,1 has only 0 stage raisers"),
    ],
    ids=["extremal-bound", "extremal-bound-count", "stage-monotone", "lis-lower-bound",
         "stage-advance-premise"],
)
def test_a_wrong_table_fails_the_strategy_checks(monkeypatch, check, kernel, wrong, detail):
    """Each array check, fed a wrong table or a placement that moves
    nothing, fails and names the first state it catches."""
    monkeypatch.setattr(verify, kernel, wrong)
    result = check(7)
    assert not result.passed and result.detail == detail


def test_failure_stops_at_the_first_counterexample():
    ran = []

    @_property("demo/evens", range(0, 5))
    def check_evens(v):
        ran.append(v)
        yield None if v % 2 == 0 else f"{v} is odd"

    assert check_evens(0) == PropertyResult("demo/evens", True, "", 1)
    assert check_evens(4) == PropertyResult("demo/evens", False, "1 is odd", 1)
    assert ran == [0, 0, 1]  # no size past the counterexample runs
    assert check_evens.__name__ == "check_evens"
    assert check_evens.sizes == range(0, 5)


def test_an_int_yield_counts_that_many_cases():
    @_property("demo/batches", range(0, 4))
    def check_batches(size):
        yield size
        yield None

    assert check_batches(3) == PropertyResult("demo/batches", True, "", (0 + 1 + 2 + 3) + 4)
    assert check_batches(1) == PropertyResult("demo/batches", True, "", (0 + 1) + 2)

    @_property("demo/empty", range(1))
    def check_empty(size):
        yield 0

    assert check_empty(3) == PropertyResult("demo/empty", False, "no case checked at nmax=3", 0)


def test_a_check_with_no_case_fails():
    @_property("demo/evens", range(0, 5))
    def check_evens(n):
        for v in range(0, n, 2):
            yield None

    # size 0 runs and yields no case
    assert check_evens(0) == PropertyResult("demo/evens", False, "no case checked at nmax=0", 0)
    assert check_evens(1).passed

    @_property("demo/late", range(3, 5))
    def check_late(n):
        raise AssertionError("a size above nmax ran")

    assert check_late(2) == PropertyResult("demo/late", False, "no case checked at nmax=2", 0)


@pytest.mark.parametrize("nmax", [0, 1, 2])
def test_small_nmax_fails_the_checks_it_starves(nmax):
    """Exactly the properties whose first size lies above ``nmax`` have no
    case to check, and fail; every other property passes."""
    checks = [c for group in SUITES.values() for c in group]
    results = run_suite("all", nmax=nmax)
    starved = {r.name for r in results if r.detail == f"no case checked at nmax={nmax}"}
    assert starved == {r.name for c, r in zip(checks, results) if c.sizes.start > nmax}
    assert not any(r.passed or r.cases for r in results if r.name in starved)
    assert all(r.passed and r.cases > 0 for r in results if r.name not in starved)


def test_the_cli_nmax_floor_is_the_largest_first_size():
    """``homing verify`` refuses exactly the ``--nmax`` values at which some
    property would have no case to check."""
    floor = max(c.sizes.start for group in SUITES.values() for c in group)
    assert cli._verify_nmax(str(floor)) == floor
    with pytest.raises(argparse.ArgumentTypeError, match=f"at least {floor}"):
        cli._verify_nmax(str(floor - 1))


def test_a_converse_with_no_counterexample_fails_the_code_shape_check(monkeypatch):
    """Planted heights that put every block-code state of S_4, and nothing
    else, at the top leave the converse with no counterexample at n = 4."""
    real = verify._table
    signs = verify._signed(4)[1]
    block = (signs != 0).all(axis=1) & (np.diff(signs, axis=1) <= 0).all(axis=1)
    planted = SimpleNamespace(heights=np.where(block, (1 << 3) - 1, 0))
    monkeypatch.setattr(verify, "_table", lambda n: planted if n == 4 else real(n))
    result = verify.check_mn_code_shape(7)
    assert not result.passed
    assert result.detail == "n=4: no counterexample to the converse"
    assert result.cases == 1 + 2 + int(block.sum())  # the worst cases of n = 2, 3 and the planted n = 4


def test_displacement_increase_matches_per_move_oracle():
    """The lemma move by move in Python for n <= 6: every displacement out
    of a state with both ends away from home, weighed by ``weight(code_of)``,
    is one of the kernel's moves with the same two weights."""
    total = 0
    for n in range(2, 7):
        oracle = []
        for p in all_perms(n):
            if p[0] == 1 or p[-1] == n:
                continue
            w = weight(code_of(p))
            for _, q in displacement_successors(p):
                w2 = weight(code_of(q))
                assert w2 > w and q[0] != 1 and q[-1] != n
                oracle.append((rank(p), rank(q), w, w2))
        rows = perm_matrix(n)
        w = code_weights(code_signs(rows.argsort(axis=1) + 1))
        away = np.flatnonzero((rows[:, 0] != 1) & (rows[:, -1] != n))
        sources = away[displacement_sources(rows[away])]
        targets = displacement_ranks(rows[away])
        kernel = zip(sources.tolist(), targets.tolist(), w[sources].tolist(), w[targets].tolist())
        assert sorted(kernel) == sorted(oracle)
        total += len(oracle)
    assert check_displacement_weight_increase(6) == PropertyResult(
        "code-weight/displacement-increase", True, "", total
    )


def recursive_runs(n):
    """The longest eviction run out of every state with both ends away from
    home, by a memoised recursion over ``displacement_successors``."""
    memo = {}

    def longest(p):
        if p not in memo:
            memo[p] = max((1 + longest(q) for _, q in displacement_successors(p)), default=0)
        return memo[p]

    return {p: longest(p) for p in all_perms(n) if p[0] != 1 and p[-1] != n}


def test_weight_certificate_matches_the_recursion():
    """The pass down the height table finds the recursion's run for every
    state with both ends away from home for n <= 6, 0 for every other state,
    and each run fits the slack 2^(n-2) - 1 - weight(code_of(p))."""
    total = 0
    for n in range(2, 7):
        rows, w, away = _weighed(n)
        run = eviction_runs(n, rows, away)
        oracle = recursive_runs(n)
        assert {p: int(run[rank(p)]) for p in oracle} == oracle
        assert int(away.sum()) == len(oracle) and not run[~away].any()
        assert all(r <= (1 << (n - 2)) - 1 - weight(code_of(p)) for p, r in oracle.items())
        total += len(oracle)
    assert check_weight_certificate(6) == PropertyResult("height-map/weight-certificate", True, "", total)


@pytest.mark.parametrize("n", range(1, 8))
def test_forward_eviction_heights_match_the_table(n):
    assert forward_eviction_heights(n) == list(heights.build_height_table(n).heights)


def test_a_dropped_eviction_fails_the_eviction_duality(monkeypatch):
    real = verify.displacement_successors

    def drop_one(p):
        # 2 to position 1, the eviction that ends the longest path into the
        # rotation 2,...,6,1
        moves = real(p)
        return [(m, q) for m, q in moves if q != (2, 3, 4, 5, 6, 1)] if p == (3, 2, 4, 5, 6, 1) else moves

    monkeypatch.setattr(verify, "displacement_successors", drop_one)
    result = verify.check_eviction_duality(6)
    assert not result.passed
    assert result.detail == "n=6: forward eviction distances disagree"


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")



# ---------------------------------------------------------------------------
# planted failures: every counterexample line of a property runs, and names
# what it caught
# ---------------------------------------------------------------------------

def weights_edited(edit):
    """A plant for ``_code_table``: each length k's weights w become
    ``edit(k, w)``."""
    return lambda real: lambda k: (real(k)[0], edit(k, real(k)[1].copy()))


def heights_edited(n, rank, height):
    """A plant for ``_table``: the state of S_n with ``rank`` gets ``height``."""

    def plant(real):
        def table(m):
            if m != n:
                return real(m)
            heights = real(n).heights.copy()
            heights[rank] = height
            return HeightTable(n, heights)

        return table

    return plant


def weighed_edited(edit):
    """A plant for ``_weighed``: the weights w of S_n become ``edit(w)``."""
    return lambda real: lambda n: (real(n)[0], edit(real(n)[1]), real(n)[2])


def scrambling_place(real):
    """Places the value home but reverses the order of the others."""

    def place(p, v):
        rest = [x for x in p if x != v][::-1]
        rest.insert(v - 1, v)
        return tuple(rest)

    return place


def other_side(real):
    """Fires the letter of the other side and the same index."""
    return lambda p, letter: real(p, FiringLetter("R" if letter.side == "L" else "L", letter.index))


def state_replaced(word, state):
    """A plant for ``walk``: ``word`` fires to ``state``."""
    return lambda real: lambda n, **keep: (
        (w, state if w == word else p) for w, p in real(n, **keep)
    )


def plus_one(real):
    return lambda *args: real(*args) + 1


PLANTED = [
    (verify.check_placement_semantics, "place", lambda real: lambda p, v: p, "place(2,1, 2) = 2,1"),
    (verify.check_placement_semantics, "place", scrambling_place, "relative order broken: 1,3,2 place 3"),
    (verify.check_inversion, "place", lambda real: lambda p, v: p,
     "displace DisplacementMove(value=1, target=2) on 1,2 not undone"),
    (verify.check_inversion, "displace", lambda real: lambda p, v, target: p, "place 2 on 2,1 not undone"),
    (verify.check_weight_range, "_code_table", weights_edited(lambda k, w: 2 * w), "w(+) = 2 outside 0..1"),
    (verify.check_weight_range, "_code_table", weights_edited(lambda k, w: w * (np.arange(len(w)) > 0)),
     "w = 0 mischaracterized at k=1"),
    (verify.check_weight_range, "_code_table",
     weights_edited(lambda k, w: w - (k >= 2) * (np.arange(len(w)) == 0)),  # +^k one lower
     "w = 3 vs max form at k=2"),
    (verify.check_binary_readings, "code_weights", lambda real: lambda signs: real(signs)[::-1],
     "w(0) != binary 0"),
    (verify.check_block_formula, "weight", lambda real: lambda code: real(code) + (len(code) >= 2),
     "w(+-) != 3 for split |1||1|"),
    (verify.check_zero_append, "_code_table", weights_edited(lambda k, w: w - (k >= 1)),
     "w(+0) too large for split at 0"),
    (verify.check_marking_monotonic, "_code_table", weights_edited(lambda k, w: 0 * w), "w(+) <= w(0)"),
    (verify.check_displacement_weight_increase, "_weighed", weighed_edited(lambda w: 0 * w),
     "displace 3,2,1 -> 2,3,1: weight 0 -> 0"),
    (verify.check_unique_worst_case, "unique_worst_case_check", lambda real: lambda n: False,
     "n=2: the reversal is not the only state needing n-1 placements"),
    (verify.check_stage_advance_premise, "place_rows",
     lambda real: lambda rows, v: rows.copy() if rows.shape[1] == v == 3 else real(rows, v),  # 3 stays put
     "1,3,2: advance probability below 2/(n-k)"),
    (verify.check_max_heights, "_table", heights_edited(1, 0, 1), "max height at n=1 is 1"),
    (verify.check_max_heights, "_table", heights_edited(3, 3, 0), "rotation not at max height for n=3"),
    (verify.check_max_heights, "_table", heights_edited(3, 4, 2),
     "top level at n=3 is not worst_case_count(3) states"),
    (verify.check_max_heights, "_table", heights_edited(3, 5, 1), "gateway height wrong at n=3"),
    (verify.check_weight_certificate, "_weighed", weighed_edited(lambda w: w + 1),
     "2,1 sustains 0 > -1 evictions"),
    (verify.check_mn_code_shape, "_table", heights_edited(3, 0, 3), "1,2,3 in worst set, code 0"),
    (verify.check_firing_steps, "firing_moves", lambda real: lambda p, letter: real(p, letter)[:-1],
     "n=3 L0: block size 0"),
    (verify.check_firing_steps, "weight", lambda real: lambda code: 2 * real(code),
     "n=3 L0: weight step 0->2"),
    (verify.check_firing_steps, "firing_moves", other_side, "n=3 L0: code +, 3 at position 1"),
    (verify.check_firing_steps, "apply_letter", lambda real: lambda p, letter: p,
     "n=3 L0: gather and cascade disagree"),
    (verify.check_schedule_total, "firing_moves", lambda real: lambda p, letter: 2 * real(p, letter),
     "L0 used 2 displacements"),
    (verify.check_schedule_total, "_worst", lambda real: lambda n: real(n) - {(2, 3, 1)},
     "L0 left the worst-case set"),
    (verify.check_word_bijection, "walk", lambda real: lambda n: [*real(n), *real(n)], "n=2: words collide"),
    (verify.check_word_bijection, "_worst", lambda real: lambda n: real(n) | {(1, 2)},
     "n=2: image has 1 of 2"),
    (verify.check_word_bijection, "_worst",
     lambda real: lambda n: real(n) ^ {(2, 3, 1), (1, 2, 3)} if n == 3 else real(n),  # 1,2,3 for 2,3,1
     "n=3: 2,3,1 is not a worst case"),
    (verify.check_confluence, "canonicalize", lambda real: lambda word: word,
     "L0,R1 has normal forms R0,L1"),
    (verify.check_confluence, "walk", state_replaced((L(0), R(1)), (1, 2, 3, 4)),
     "rewrite changed the state of L0,R1"),
    (verify.check_recurrence_language, "split_count", plus_one, "f(1,1) != language count"),
    (verify.check_recurrence_language, "worst_case_count", plus_one, "diagonal sum mismatch at n=2"),
    (verify.check_partition_roundtrip, "partition_to_word", lambda real: lambda partition: (),
     "roundtrip failed for L0"),
    (verify.check_partition_roundtrip, "bell_number", plus_one, "length 0: 1 partitions, not B(1)"),
]


@pytest.mark.parametrize(
    "check, name, plant, detail",
    PLANTED,
    ids=[f"{check.__name__}-{i}" for i, (check, *_) in enumerate(PLANTED)],
)
def test_a_planted_counterexample_fails_its_property(monkeypatch, check, name, plant, detail):
    """Each counterexample line of each property, reached by one planted
    input: the property fails and its detail names the state, code, word
    or size it caught, at the scale ``homing verify`` runs it."""
    monkeypatch.setattr(verify, name, plant(getattr(verify, name)))
    result = check(7)
    assert not result.passed
    assert result.detail == detail
