"""The ``homing`` command-line tool.

Subcommands map one-to-one onto the library:

- ``sort`` / ``trace``   run a strategy and print trace lines
- ``height``             longest placement distance of one permutation
- ``min-steps``          shortest placement distance (BFS)
- ``enum-mn``            the worst-case set at size n, as JSON
- ``count-mn``           worst-case counts from the recurrence, as CSV
- ``words``              the canonical firing words of length n-2
- ``canon``              canonical form of a firing word
- ``bell-bijection``     convert firing words <-> set partitions
- ``growth``             the growth-comparison table, as CSV
- ``random-sim``         seeded Monte Carlo of random homing
- ``verify``             run the named invariant suites

Exit status: 0 on success, 1 when ``verify`` finds a failure, 2 on usage
errors (including malformed permutation/word/partition text and a
``--format`` the subcommand does not accept; see :data:`FORMATS`).  Output is
byte-deterministic given identical flags and seed.  ``--out FILE`` writes
atomically (temp file, then rename), so an interrupt never leaves a
half-written file.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict

from .counting import growth_csv, growth_table, worst_case_count
from .errors import CapacityError, HomingError, ParseError
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
from .heights import DEFAULT_CAP, build_height_table, height, members_json
from .perms import parse_perm
from .strategies import (
    DEFAULT_SEARCH_CAP,
    RANDOM,
    STRATEGIES,
    min_placements,
    random_homing_mean,
    run_strategy,
)
from .verify import run_suite, suite_names

USAGE_ERROR = 2
VERIFY_FAILURE = 1

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


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".homing-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    p = parse_perm(args.perm)
    if args.strategy == RANDOM and args.seed is None:
        raise ParseError("--strategy random requires --seed")
    trace = run_strategy(p, args.strategy, seed=args.seed)
    _write_output("".join(line + "\n" for line in trace.lines()), args.out)
    return 0


def _cmd_height(args) -> int:
    p = parse_perm(args.perm)
    h = height(p, cap=args.cap)
    _write_output(_scalar(h, "height", args.format), args.out)
    return 0


def _cmd_min_steps(args) -> int:
    p = parse_perm(args.perm)
    d = min_placements(p, cap=args.cap)
    _write_output(_scalar(d, "min_placements", args.format), args.out)
    return 0


def _cmd_enum_mn(args) -> int:
    table = build_height_table(args.n, cap=args.cap)
    members = table.members_at((1 << (args.n - 1)) - 1)
    if args.format == "text":
        text = "".join(",".join(map(str, p)) + "\n" for p in members)
    else:
        text = members_json(members) + "\n"
    _write_output(text, args.out)
    return 0


def _cmd_count_mn(args) -> int:
    rows = [(n, worst_case_count(n)) for n in range(2, args.nmax + 1)]
    if args.format == "json":
        text = json.dumps({str(n): c for n, c in rows}) + "\n"
    else:
        text = "n,mn\n" + "".join(f"{n},{c}\n" for n, c in rows)
    _write_output(text, args.out)
    return 0


def _cmd_words(args) -> int:
    words = canonical_words(args.n)
    if args.format == "json":
        text = json.dumps([format_word(w) for w in words]) + "\n"
    else:
        text = "".join(format_word(w) + "\n" for w in words)
    _write_output(text, args.out)
    return 0


def _cmd_canon(args) -> int:
    word = canonicalize(parse_word(args.word))
    _write_output(_scalar(format_word(word), "canonical", args.format), args.out)
    return 0


def _cmd_bell_bijection(args) -> int:
    if args.word is not None:
        partition = word_to_partition(parse_word(args.word))
        _write_output(_scalar(format_partition(partition), "partition", args.format), args.out)
    else:
        word = partition_to_word(parse_partition(args.partition))
        _write_output(_scalar(format_word(word, restricted=True), "word", args.format), args.out)
    return 0


def _cmd_growth(args) -> int:
    rows = growth_table(args.nmax)
    if args.format == "json":
        text = json.dumps([asdict(r) for r in rows]) + "\n"
    else:
        text = growth_csv(rows)
    _write_output(text, args.out)
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
    _write_output(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, nmax=args.nmax, cap=args.cap)
    lines = []
    for r in results:
        status = f"PASS {r.name} ({r.cases} cases)" if r.passed else f"FAIL {r.name}"
        suffix = f": {r.detail}" if r.detail else ""
        lines.append(f"{status}{suffix}\n")
    failures = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failures}/{len(results)} properties passed\n")
    _write_output("".join(lines), args.out)
    return VERIFY_FAILURE if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
        sp.add_argument("--seed", type=int, help="64-bit seed (required for random)")

    sp = add("height", _cmd_height, "longest placement distance to the identity")
    sp.add_argument("--perm", required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP, help=f"state-space cap (default {DEFAULT_CAP})")

    sp = add("min-steps", _cmd_min_steps, "shortest placement distance to the identity")
    sp.add_argument("--perm", required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP, help=f"search cap (default {DEFAULT_SEARCH_CAP})")

    sp = add("enum-mn", _cmd_enum_mn, "enumerate the worst-case permutations of size n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)

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
    sp.add_argument("--nmax", type=int, default=7, help="scale cap (default 7)")
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, CapacityError, ValueError) as err:
        print(f"homing {args.command}: {err}", file=sys.stderr)
        return USAGE_ERROR
    except HomingError as err:
        print(f"homing {args.command}: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
