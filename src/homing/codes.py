"""Displacement codes over the alphabet {+, -, 0} and their weights.

The code of a permutation of length n is the string of n-2 symbols, one
for each interior value i = 2..n-1: '+' if i sits to the right of its home,
'-' if to the left, '0' if at home.  The end values 1 and n are not coded.

The weight of a code is defined by repeatedly stripping the symbol with
the largest reach -- for a '-' the number of symbols to its left, for a
'+' the number to its right -- and adding 2^reach, until only zeros are
left.  Ties between a '-' and a '+' go to the '-' (the choice provably
does not matter, which is itself a tested property).  Codes made of 0s
and +s read as plain binary with '+' as 1; codes of 0s and -s read as the
reversed binary, so the weight is a double-ended binary representation.

Weights are plain Python integers, so no code length is ever capped by
machine-word width.

The weight kernel of :mod:`homing.successors`, ``code_weights``, weighs
many codes at once by a closed form of this recursion instead of running
it: a '+' at j comes off before a '-' at i > j exactly when the non-'+'
symbols before j are fewer than the non-'-' symbols after i, and each
symbol's reach falls by one for each symbol of the other sign that came
off before it on its side.  The tests check that rule on
:func:`strip_trace` and the kernel against :func:`weight`.
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import InputError, ParseError
from .perms import Perm

CODE_ALPHABET = "+-0"


class StripStep(NamedTuple):
    """One step of the weight recursion.

    ``position`` is the 1-based index of the stripped symbol in the
    current, already-shortened code; ``exponent`` is its reach d, so the
    step contributes 2**exponent to the weight.
    """

    position: int
    exponent: int


def code_of(p: Perm) -> str:
    """The code string of a permutation; empty when n <= 2.

    >>> code_of((7, 6, 8, 1, 3, 2, 5, 4))
    '++++--'
    >>> code_of((5, 2, 3, 4, 1))
    '000'
    """
    n = len(p)
    pos = [0] * (n + 1)
    for q, v in enumerate(p, 1):
        pos[v] = q
    out = []
    for v in range(2, n):
        q = pos[v]
        out.append("+" if q > v else "-" if q < v else "0")
    return "".join(out)


def parse_code(text: str) -> str:
    """Validate a code string (characters '+', '-', '0')."""
    leftover = text.strip(CODE_ALPHABET)
    if leftover:
        raise ParseError(f"invalid code symbol {leftover[0]!r} in {text!r}")
    return text


def _check_tie(tie: str) -> None:
    if tie != "-" and tie != "+":
        raise InputError(f"tie must be '+' or '-', got {tie!r}")


def _pick(code: str, tie: str) -> tuple[int, int] | None:
    """Index and reach of the next symbol to strip, or None if all zeros."""
    rm = code.rfind("-")  # rightmost '-', reach = its index
    lp = code.find("+")  # leftmost '+', reach = len(code) - 1 - its index
    if lp < 0:
        return None if rm < 0 else (rm, rm)
    d_plus = len(code) - 1 - lp
    if rm > d_plus or (rm == d_plus and tie == "-"):
        return rm, rm
    return lp, d_plus


def strip_trace(code: str, tie: str = "-") -> list[StripStep]:
    """The full strip sequence of the weight recursion.

    >>> strip_trace("+0+")
    [StripStep(position=1, exponent=2), StripStep(position=2, exponent=0)]
    """
    parse_code(code)
    _check_tie(tie)
    steps = []
    while True:
        choice = _pick(code, tie)
        if choice is None:
            return steps
        idx, d = choice
        steps.append(StripStep(idx + 1, d))
        code = code[:idx] + code[idx + 1:]


def weight(code: str, tie: str = "-") -> int:
    """The weight of a code: the sum of 2^reach over its strip sequence.

    >>> weight("000"), weight("+0+"), weight("++---")
    (0, 5, 31)
    """
    parse_code(code)
    _check_tie(tie)
    total = 0
    while True:
        choice = _pick(code, tie)
        if choice is None:
            return total
        idx, d = choice
        total += 1 << d
        code = code[:idx] + code[idx + 1:]
