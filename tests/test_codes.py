"""Code and weight calculus, checked against the binary-reading oracles."""
import itertools
import random

import pytest

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
    assert check_weight_range(k, 0).passed


@pytest.mark.parametrize("k", range(0, 9))
def test_weight_tiebreak_invariance(k):
    assert check_tiebreak(k, 0).passed


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
