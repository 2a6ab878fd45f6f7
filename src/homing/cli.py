"""The ``homing`` command-line tool.

Subcommands map one-to-one onto the library:

- ``sort`` / ``trace``   run a strategy and print trace lines
- ``height``             longest placement distance of one permutation
- ``min-steps``          shortest placement distance (BFS)
- ``enum-mn``            the worst-case set at size n, as JSON or text
- ``count-mn``           worst-case counts from the recurrence, as CSV
- ``words``              the canonical firing words of length n-2
- ``canon``              canonical form of a firing word
- ``bell-bijection``     convert firing words <-> set partitions
- ``growth``             the growth-comparison table, as CSV
- ``random-sim``         seeded Monte Carlo of random homing
- ``verify``             run the named invariant suites

Exit status: 0 on success, 1 when ``verify`` finds a failure, 2 on bad
input only: argparse's usage errors (including a ``--format`` the
subcommand does not accept, see :data:`FORMATS`), :class:`InputError`
(malformed permutation/word/partition text, an argument out of range, a
seed given to a strategy that draws nothing, an ``--out`` path that is
empty, whose directory does not exist, that names a directory, or that
names an existing file that is not a regular one, such as a FIFO or a device,
refused before any work) and :class:`CapacityError`;
141 (128 + SIGPIPE) when the reader of standard output closes it early.
Any other exception is a bug and propagates.  Output is byte-deterministic
given identical flags and seed.  ``--out FILE`` writes atomically through
:func:`homing.atomic.write_atomic`, so an interrupt never leaves a
half-written file; ``trace``/``sort`` stream one chunk per block of steps,
and ``words`` and ``enum-mn`` one item at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Iterable, Iterator

from .atomic import write_atomic
from .counting import MAX_NMAX, growth_csv, growth_table, worst_case_count
from .errors import CapacityError, InputError
from .firings import (
    canonical_words,
    canonicalize,
    format_partition,
    format_word,
    parse_partition,
    parse_word,
    partition_to_word,
    word_to_partition,
)
from .heights import height, worst_case_permutations
from .perms import format_perm, parse_perm
from .strategies import STRATEGIES, min_placements, random_homing_mean, run_strategy
from .successors import DEFAULT_CAP
from .verify import run_suite, suite_names

USAGE_ERROR = 2
VERIFY_FAILURE = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a producer the pipe killed
CAP_HELP = (
    f"largest n (permutation length) to accept; a larger one is refused before any work "
    f"(default {DEFAULT_CAP})"
)

# subcommand -> (default --format, the formats it accepts); argparse rejects
# any other format with exit code 2
FORMATS = {
    "sort": ("text", ("text",)),
    "trace": ("text", ("text",)),
    "height": ("text", ("text", "json", "csv")),
    "min-steps": ("text", ("text", "json", "csv")),
    "enum-mn": ("json", ("json", "text")),
    "count-mn": ("csv", ("csv", "json")),
    "words": ("text", ("text", "json")),
    "canon": ("text", ("text", "json", "csv")),
    "bell-bijection": ("text", ("text", "json", "csv")),
    "growth": ("csv", ("csv", "json")),
    "random-sim": ("text", ("text", "json")),
    "verify": ("text", ("text",)),
}


def _write_output(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to stdout, or atomically to ``out`` one chunk at a
    time, as UTF-8."""
    _write_bytes((chunk.encode() for chunk in chunks), out)


def _write_bytes(chunks: Iterable[bytes], out: str | None) -> None:
    if out is None:
        sys.stdout.flush()  # text a caller printed before main() comes first
        sys.stdout.buffer.writelines(chunks)
        sys.stdout.buffer.flush()  # a closed pipe raises here, in main, not at interpreter exit
    else:
        write_atomic(out, chunks)


def _listing(items: Iterable[str], fmt: str) -> Iterator[str]:
    """Output chunks for a list, one item text at a time: a line per item,
    or for json ``[`` + the items joined by ``, `` + ``]``, byte for byte
    what ``json.dumps`` gives for the whole list."""
    if fmt != "json":
        yield from (item + "\n" for item in items)
        return
    yield "["
    for i, item in enumerate(items):
        yield ", " + item if i else item
    yield "]\n"


def _scalar(value, label: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({label: value}) + "\n"
    if fmt == "csv":
        return f"{label}\n{value}\n"
    return f"{value}\n"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_trace(args) -> int:
    trace = run_strategy(parse_perm(args.perm), args.strategy, seed=args.seed)
    _write_bytes(trace._text(), args.out)
    return 0


def _cmd_height(args) -> int:
    p = parse_perm(args.perm)
    h = height(p, cap=args.cap)
    _write_output([_scalar(h, "height", args.format)], args.out)
    return 0


def _cmd_min_steps(args) -> int:
    p = parse_perm(args.perm)
    d = min_placements(p, cap=args.cap)
    _write_output([_scalar(d, "min_placements", args.format)], args.out)
    return 0


def _json_perm(p) -> str:
    """``json.dumps(list(p))`` for a permutation, without building the list."""
    return "[" + ", ".join(map(str, p)) + "]"


def _cmd_enum_mn(args) -> int:
    item = _json_perm if args.format == "json" else format_perm
    perms = map(item, worst_case_permutations(args.n, cap=args.cap))
    _write_output(_listing(perms, args.format), args.out)
    return 0


def _cmd_count_mn(args) -> int:
    if not 2 <= args.nmax <= MAX_NMAX:
        raise InputError(f"nmax must be in 2..{MAX_NMAX}, got {args.nmax}")
    rows = [(n, worst_case_count(n)) for n in range(2, args.nmax + 1)]
    if args.format == "json":
        text = json.dumps({str(n): c for n, c in rows}) + "\n"
    else:
        text = "n,mn\n" + "".join(f"{n},{c}\n" for n, c in rows)
    _write_output([text], args.out)
    return 0


def _cmd_words(args) -> int:
    if not 2 <= args.n <= MAX_NMAX:
        raise InputError(f"n must be in 2..{MAX_NMAX}, got {args.n}")
    words = map(format_word, canonical_words(args.n))
    if args.format == "json":
        words = map(json.dumps, words)
    _write_output(_listing(words, args.format), args.out)
    return 0


def _cmd_canon(args) -> int:
    word = canonicalize(parse_word(args.word))
    _write_output([_scalar(format_word(word), "canonical", args.format)], args.out)
    return 0


def _cmd_bell_bijection(args) -> int:
    if args.word is not None:
        partition = word_to_partition(parse_word(args.word))
        _write_output([_scalar(format_partition(partition), "partition", args.format)], args.out)
    else:
        word = partition_to_word(parse_partition(args.partition))
        _write_output([_scalar(format_word(word, restricted=True), "word", args.format)], args.out)
    return 0


def _cmd_growth(args) -> int:
    rows = growth_table(args.nmax)
    if args.format == "json":
        text = json.dumps([asdict(r) for r in rows]) + "\n"
    else:
        text = growth_csv(rows)
    _write_output([text], args.out)
    return 0


def _cmd_random_sim(args) -> int:
    est = random_homing_mean(args.n, args.trials, args.seed)
    if args.format == "json":
        text = (
            json.dumps(
                {
                    "n": est.n,
                    "trials": est.trials,
                    "seed": est.seed,
                    "mean": str(est.mean),
                    "mean_decimal": float(est.mean),
                    "bound": str(est.bound),
                    "max_steps": est.max_steps,
                }
            )
            + "\n"
        )
    else:
        text = (
            f"n={est.n} trials={est.trials} seed={est.seed} "
            f"mean={float(est.mean):.6f} (={est.mean}) "
            f"bound={float(est.bound):.6f} max_steps={est.max_steps}\n"
        )
    _write_output([text], args.out)
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, nmax=args.nmax)
    lines = []
    for r in results:
        status = f"PASS {r.name} ({r.cases} cases)" if r.passed else f"FAIL {r.name}"
        suffix = f": {r.detail}" if r.detail else ""
        lines.append(f"{status}{suffix}\n")
    failures = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failures}/{len(results)} properties passed\n")
    _write_output(lines, args.out)
    return VERIFY_FAILURE if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _verify_nmax(text: str) -> int:
    # below 3, some checks have no case to assert on
    nmax = int(text)
    if nmax < 3:
        raise argparse.ArgumentTypeError(f"must be at least 3, got {nmax}")
    return nmax


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homing",
        description="Analyze the placement-and-shift sorting process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", metavar="FILE", help="write output atomically to FILE")
        default, accepted = FORMATS[name]
        sp.add_argument(
            "--format",
            choices=accepted,
            default=default,
            help=f"output format (default: {default})",
        )
        return sp

    for name in ("sort", "trace"):
        sp = add(name, _cmd_trace, "run a strategy and print one line per step")
        sp.add_argument("--perm", required=True, help='start state, e.g. "4,1,3,5,2"')
        sp.add_argument(
            "--strategy",
            choices=STRATEGIES,
            default="smallest-first",
            help="which value to place next (default: smallest-first)",
        )
        sp.add_argument("--seed", type=int, help="64-bit seed (random only, and required there)")

    sp = add("height", _cmd_height, "longest placement distance to the identity")
    sp.add_argument("--perm", required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    sp = add("min-steps", _cmd_min_steps, "shortest placement distance to the identity")
    sp.add_argument("--perm", required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    sp = add("enum-mn", _cmd_enum_mn, "enumerate the worst-case permutations of size n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help=CAP_HELP)

    sp = add("count-mn", _cmd_count_mn, "worst-case counts 2..nmax from the recurrence")
    sp.add_argument("--nmax", type=int, required=True)

    sp = add("words", _cmd_words, "canonical firing words of length n-2")
    sp.add_argument("--n", type=int, required=True)

    sp = add("canon", _cmd_canon, "canonical form of a firing word")
    sp.add_argument("--word", required=True, help='e.g. "L0,R1,R0,L1,R2,R1"')

    sp = add("bell-bijection", _cmd_bell_bijection, "convert words <-> set partitions")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--word", help='restricted word, e.g. "R,L0,L1"')
    group.add_argument("--partition", help='e.g. "{1,3}{2,4}"')

    sp = add("growth", _cmd_growth, "growth-comparison table as CSV")
    sp.add_argument("--nmax", type=int, default=80)

    sp = add("random-sim", _cmd_random_sim, "Monte Carlo mean of random homing")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("verify", _cmd_verify, "run the named invariant suites")
    sp.add_argument("--suite", choices=suite_names(), default="all")
    sp.add_argument(
        "--nmax",
        type=_verify_nmax,
        default=7,
        help="scale cap, at least 3 (default 7); 10 or more builds all of S_10 (about 8 s, 122 MB peak)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            if not args.out:
                raise InputError("cannot write --out '': it names no file")
            if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
                raise InputError(f"cannot write --out {args.out}: its directory does not exist")
            if os.path.isdir(args.out) or args.out.endswith(os.sep):
                raise InputError(f"cannot write --out {args.out}: it names a directory")
            if os.path.exists(args.out) and not os.path.isfile(args.out):
                # a FIFO or a device node, which the atomic rename would replace
                raise InputError(f"cannot write --out {args.out}: it is not a regular file")
        return args.handler(args)
    except (InputError, CapacityError) as err:
        print(f"homing {args.command}: {err}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
