"""Code and weight calculus, checked against the binary-reading oracles."""
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homing import (
    ParseError,
    all_perms,
    code_of,
    identity,
    parse_code,
    strip_trace,
    swap_ends,
    weight,
)
from homing.successors import code_weights
from homing.verify import check_tiebreak, check_weight_range


def all_codes(k):
    return ("".join(c) for c in itertools.product("+-0", repeat=k))


def binary_oracle(code):
    """Weight of a {0,+} code: plain binary with '+' as 1."""
    assert "-" not in code
    return int(code.replace("+", "1"), 2) if code else 0


def reverse_binary_oracle(code):
    """Weight of a {0,-} code: binary read right-to-left with '-' as 1."""
    assert "+" not in code
    return int(code[::-1].replace("-", "1"), 2) if code else 0


# -- code_of -------------------------------------------------------------------

def oracle_code(p):
    n = len(p)
    out = []
    for v in range(2, n):
        q = p.index(v) + 1
        out.append("+" if q > v else "-" if q < v else "0")
    return "".join(out)


def test_code_examples():
    assert code_of(identity(6)) == "0000"
    assert code_of(swap_ends(7)) == "00000"
    assert code_of((7, 6, 8, 1, 3, 2, 5, 4)) == oracle_code((7, 6, 8, 1, 3, 2, 5, 4))
    assert code_of((7, 6, 8, 1, 3, 2, 5, 4)) == "++++--"
    assert code_of((2, 1)) == ""
    assert code_of((1,)) == ""


@pytest.mark.parametrize("n", range(1, 7))
def test_code_matches_position_scan(n):
    for p in all_perms(n):
        assert code_of(p) == oracle_code(p)


# -- weight ---------------------------------------------------------------------

def test_weight_examples():
    assert weight("") == 0
    assert weight("000") == 0
    assert weight("+0+") == binary_oracle("+0+") == 5
    assert weight("++---") == 31  # 2^5 - 1, the maximum for length 5


@pytest.mark.parametrize("k", range(0, 9))
def test_weight_range_and_extremes(k):
    assert check_weight_range(k).passed


@pytest.mark.parametrize("k", range(0, 9))
def test_weight_tiebreak_invariance(k):
    assert check_tiebreak(k).passed


def _random_block_instance(rng):
    beta = "".join(rng.choice("-0") for _ in range(rng.randrange(0, 4)))
    delta = "".join(rng.choice("+0") for _ in range(len(beta)))
    while True:
        gamma = "".join(rng.choice("+-0") for _ in range(rng.randrange(0, 5)))
        if not gamma or (gamma[0] != "+" and gamma[-1] != "-"):
            break
    p = rng.randrange(1, 4)
    q = rng.randrange(1, 4)
    return beta, p, gamma, q, delta


def test_weight_block_formula_random():
    rng = random.Random(20240917)
    for _ in range(500):
        beta, p, gamma, q, delta = _random_block_instance(rng)
        alpha = beta + "+" * p + gamma + "-" * q + delta
        expected = (
            weight(beta + gamma + delta)
            + (1 << (p + len(gamma) + q + len(beta)))
            - (1 << (len(gamma) + len(beta)))
        )
        assert weight(alpha) == expected


def test_weight_arbitrary_precision():
    assert weight("+" * 70) == (1 << 70) - 1
    assert weight("-" * 70) == (1 << 70) - 1


# -- the closed form of the weight kernel, against the recursion -------------------

@pytest.mark.parametrize("k", range(0, 9))
def test_pair_rule_orders_every_strip(k):
    """The rule ``code_weights`` computes, checked on ``strip_trace`` alone:
    a '+' at j comes off before a '-' at i > j iff Z(j) < Y(i), where Z(j)
    counts the non-'+' symbols before j and Y(i) the non-'-' symbols after
    i, and each symbol's exponent is its index, or k-1 less it for a '+',
    less the symbols of the other sign that came off first on its side."""
    for code in all_codes(k):
        left = list(range(k))  # the original index of each symbol still in the code
        order, exponent = {}, {}
        for t, step in enumerate(strip_trace(code)):
            c = left.pop(step.position - 1)
            order[c], exponent[c] = t, step.exponent
        z = [j - code[:j].count("+") for j in range(k)]
        y = [k - 1 - i - code[i + 1 :].count("-") for i in range(k)]
        plus = [j for j in range(k) if code[j] == "+"]
        minus = [i for i in range(k) if code[i] == "-"]
        for j in plus:
            for i in minus:
                if j < i:
                    assert (order[j] < order[i]) == (z[j] < y[i]), (code, j, i)
        for i in minus:
            assert exponent[i] == i - sum(z[j] < y[i] for j in plus if j < i), (code, i)
        for j in plus:
            assert exponent[j] == k - 1 - j - sum(y[i] <= z[j] for i in minus if i > j), (code, j)


# -- the weight kernel, against weight() ------------------------------------------

def kernel_weights(codes, k):
    """The kernel's weights for a batch of codes of length k."""
    signs = np.array([["-0+".index(c) - 1 for c in code] for code in codes], np.int8)
    got = code_weights(signs.reshape(len(codes), k))
    assert got.dtype == (np.int64 if k <= 63 else object)  # w < 2^k
    return got.tolist()


@pytest.mark.parametrize("k", range(0, 9))
def test_kernel_weights_exhaustive(k):
    codes = list(all_codes(k))
    expected = [weight(c) for c in codes]
    assert kernel_weights(codes, k) == expected == [weight(c, tie="+") for c in codes]


@pytest.mark.parametrize("k", [40, 62, 63, 64, 100])
def test_kernel_weights_random_long(k):
    rng = random.Random(k)
    codes = ["".join(rng.choice("+-0") for _ in range(k)) for _ in range(300)]
    codes += ["+" * k, "-" * k, "+" * (k // 2) + "-" * (k - k // 2)]
    assert kernel_weights(codes, k) == [weight(c) for c in codes]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.integers(0, 90).flatmap(
        lambda k: st.lists(st.text("+-0", min_size=k, max_size=k), min_size=1, max_size=8)
    )
)
def test_kernel_weights_match_weight(codes):
    """Lengths 0..90 cross the switch from int64 to Python-int weights."""
    assert kernel_weights(codes, len(codes[0])) == [weight(c) for c in codes]


# -- strip traces ------------------------------------------------------------------

def test_strip_trace_examples():
    assert strip_trace("0") == []
    steps = strip_trace("+0+")
    assert [s.exponent for s in steps] == [2, 0]
    assert sum(1 << s.exponent for s in strip_trace("-0-")) == reverse_binary_oracle("-0-") == 5


@pytest.mark.parametrize("k", range(0, 8))
def test_strip_trace_sums_to_weight(k):
    for code in all_codes(k):
        steps = strip_trace(code)
        assert sum(1 << s.exponent for s in steps) == weight(code)
        assert len(steps) == sum(1 for c in code if c != "0")
        # reaches are consistent with position in the shortened code
        syms = list(code)
        for step in steps:
            ch = syms[step.position - 1]
            if ch == "-":
                assert step.exponent == step.position - 1
            else:
                assert ch == "+"
                assert step.exponent == len(syms) - step.position
            del syms[step.position - 1]


@pytest.mark.parametrize("tie", ["", "+-", "-+", "x", "--", " -", "+ "])
def test_tie_must_be_plus_or_minus(tie):
    with pytest.raises(ValueError, match="tie"):
        weight("+-", tie=tie)
    with pytest.raises(ValueError, match="tie"):
        strip_trace("+-", tie=tie)
    assert weight("+-", tie="+") == weight("+-", tie="-") == 3


def test_parse_code_rejects():
    with pytest.raises(ParseError, match="x"):
        parse_code("+0x-")
    assert parse_code("+-0") == "+-0"
    with pytest.raises(ParseError):
        weight("+*")
