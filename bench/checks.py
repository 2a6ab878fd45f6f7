"""Output checks, run in the benchmark's own process after each job ends.

The oracles here share no code with ``homing`` except the ``f(i,j)``
recurrence (``counting.worst_case_count``), which the enumeration is checked
against.  Placement, the code of a state, canonical words and the Bell
numbers are re-implemented below.  The two digests were recorded from the seed commit
and pin the CLI's byte-for-byte deterministic output.

Each check function returns a list of (name, passed) pairs; the number of
pairs is fixed per workload, so a job that raised counts as failing all of
its checks (``CHECK_COUNTS``).
"""
from __future__ import annotations

import hashlib
import importlib
import json
from math import comb

# sha256 of `homing enum-mn --n 9` output, equal to the sorted worst-case
# set of size 9 in the same JSON form
ENUM_N9_SHA256 = "677f13d50db868ff44db3ae560f7757f7aed363cddab709ffe8846e370cd545c"
WORST_N9 = 8296
# sha256 of `homing trace --perm 2,3,...,20,1 --strategy leftmost-not-home`
TRACE_ROT20_SHA256 = "f46f030519ee27da48704267d9049df54c7d0ed8ab4a4e7ef65a0854031818ac"
TRACE_ROT20_STEPS = (1 << 19) - 1
VERIFY_PROPERTIES = 28


def place(p: list[int], value: int) -> None:
    """Oracle placement, in place: move ``value`` to index value-1."""
    p.remove(value)
    p.insert(value - 1, value)


def code(p) -> str:
    """Oracle code: '+', '-' or '0' for each interior value 2..n-1."""
    where = {v: q for q, v in enumerate(p, 1)}
    return "".join(
        "+" if where[v] > v else "-" if where[v] < v else "0" for v in range(2, len(p))
    )


def bell(m: int) -> int:
    """B(m) by B(k+1) = sum_i C(k, i) B(i)."""
    b = [1]
    for k in range(m):
        b.append(sum(comb(k, i) * b[i] for i in range(k + 1)))
    return b[m]


def canonical(word) -> bool:
    """Oracle for canonical firing words: every L_t has t prior rights, every
    R_t has t prior lefts, and no R_s with s >= 1 directly follows an L."""
    lefts = rights = 0
    prev = None
    for side, t in word:
        if t > (rights if side == "L" else lefts) or (side == "R" and t >= 1 and prev == "L"):
            return False
        lefts, rights, prev = lefts + (side == "L"), rights + (side == "R"), side
    return True


def _is_block_code(c: str) -> bool:
    plus = c.count("+")
    return c == "+" * plus + "-" * (len(c) - plus)


def _members_digest(members) -> str:
    text = json.dumps([list(p) for p in members]) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_enum(out_path: str, result: dict) -> list[tuple[str, bool]]:
    with open(out_path, "rb") as fh:
        raw = fh.read()
    members = [tuple(p) for p in json.loads(raw)]
    worst_case_count = importlib.import_module("homing.counting").worst_case_count
    ident = list(range(1, 10))
    return [
        ("exit code 0", result["exit_code"] == 0),
        (
            "8,296 distinct permutations of 1..9",
            len(set(members)) == len(members) == WORST_N9
            and all(sorted(p) == ident for p in members),
        ),
        ("count equals the f(i,j) recurrence", len(members) == worst_case_count(9)),
        ("every code is +^a -^b", all(_is_block_code(code(p)) for p in members)),
        ("bytes match the recorded digest", hashlib.sha256(raw).hexdigest() == ENUM_N9_SHA256),
        ("reversal is the unique n-1 case at n=8", result["unique_worst_case"] is True),
    ]


def check_words(out_path: str) -> list[tuple[str, bool]]:
    with open(out_path, encoding="utf-8") as fh:
        out = json.load(fh)
    states = [tuple(p) for p in out["states"]]
    members = set(states)
    sampled = [(tuple(a), tuple(b)) for _, a, b in out["sampled"]]
    forms = [c for c, _, _ in out["sampled"]]
    by_length: dict[int, list] = {}
    for word, partition, back in out["roundtrip"]:
        by_length.setdefault(len(word), []).append((word, partition, back))
    partitions_ok = all(
        len(rows) == len({json.dumps(p) for _, p, _ in rows}) == bell(m + 1)
        and all(sorted(e for b in p for e in b) == list(range(1, m + 2)) for _, p, _ in rows)
        for m, rows in by_length.items()
    ) and sorted(by_length) == list(range(9))
    return [
        ("8,296 distinct states", len(states) == len(members) == WORST_N9),
        ("sorted states match the enum-n9 digest", _members_digest(sorted(members)) == ENUM_N9_SHA256),
        ("2,000 sampled words drawn", len(sampled) == len(out["drawn"]) == 2000),
        (
            "each canonical form is a canonical word of length 7",
            all(len(c) == 7 and canonical(c) for c in forms),
        ),
        ("each sampled word equals its canonical form", all(a == b for a, b in sampled)),
        ("each sampled state is a worst case", all(a in members for a, _ in sampled)),
        (
            "partition round-trips and Bell counts for m <= 8",
            partitions_ok and all(w == b for w, _, b in out["roundtrip"]),
        ),
    ]


def check_trace(out_path: str, result: dict) -> list[tuple[str, bool]]:
    with open(out_path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode().splitlines()
    p = [*range(2, 21), 1]
    replay_ok = True
    for step, line in enumerate(lines, 1):
        index, value, source, target, state, _, _ = line.split("\t")
        v = int(value)
        if int(index) != step or int(target) != v or p.index(v) + 1 != int(source):
            replay_ok = False
            break
        place(p, v)
        if state != ",".join(map(str, p)):
            replay_ok = False
            break
    return [
        ("exit code 0", result["exit_code"] == 0),
        ("524,287 lines", len(lines) == TRACE_ROT20_STEPS),
        ("replaying the values reproduces every state", replay_ok),
        ("ends at the identity", p == list(range(1, 21))),
        ("bytes match the recorded digest", hashlib.sha256(raw).hexdigest() == TRACE_ROT20_SHA256),
    ]


def check_verify(out_path: str, result: dict) -> list[tuple[str, bool]]:
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    passes = {line for line in lines if line.startswith("PASS ")}
    return [
        ("exit code 0", result["exit_code"] == 0),
        ("28/28 properties passed", bool(lines) and lines[-1] == "28/28 properties passed"),
        ("28 distinct PASS lines", len(passes) == len(lines) - 1 == VERIFY_PROPERTIES),
    ]


CHECK_COUNTS = {"enum-n9": 6, "words-n9": 7, "trace-rot20": 5, "verify-all-n7": 3}


def run_checks(workload: str, report: dict) -> list[tuple[str, bool]]:
    """Check one job's outputs, given the worker's report."""
    if workload == "words-n9":
        return check_words(report["outputs"])
    with open(report["outputs"], encoding="utf-8") as fh:
        result = json.load(fh)
    cli_out = report["outputs"][: -len(".json")]
    check = {"enum-n9": check_enum, "trace-rot20": check_trace, "verify-all-n7": check_verify}
    return check[workload](cli_out, result)
