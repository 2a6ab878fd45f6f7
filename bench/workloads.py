"""The four benchmark jobs: their inputs, the timed call, and what they leave
for the checks.

Every job runs through the library's public entry points.  The three CLI
jobs call ``homing.cli.main([...])`` in-process and write ``--out`` to a file
in the run directory.  Only ``words-n9`` depends on the seed; the other
three are exhaustive passes whose inputs are fixed.

Why these four: each layer that later work is likely to optimise does most
of the work in one job and almost none in another.
- ``enum-n9``: the longest-path table over S_9 plus the BFS over S_8 (heights,
  successor generation, ranking); firings and codes idle.
- ``words-n9``: the firing cascade, one displacement at a time; heights idle.
- ``trace-rot20``: one 524,287-step strategy run, ``code_of`` and ``weight``
  per step, and a 47 MB atomic write; heights and firings idle.
- ``verify-all-n7``: all 28 properties, a little of every layer; the only job
  that runs ``verify`` and ``counting``.
"""
from __future__ import annotations

import importlib
import json
import os
import random
from functools import lru_cache

N_ENUM = 9
N_WORDS = 9
N_ROT = 20
SAMPLED_WORDS = 2000
MAX_RESTRICTED = 8

# name -> (units of work per job, unit, library modules the job imports)
WORKLOADS = {
    "enum-n9": (362880 + 40320, "states classified (9! + 8!)", ("homing.cli",)),
    "words-n9": (8296 + SAMPLED_WORDS + 26442, "words processed", ("homing.firings",)),
    "trace-rot20": ((1 << (N_ROT - 1)) - 1, "placement steps", ("homing.cli",)),
    "verify-all-n7": (28, "properties checked", ("homing.cli",)),
}


def import_library(workload: str) -> None:
    for module in WORKLOADS[workload][2]:
        importlib.import_module(module)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _valid_word_sampler(length: int):
    """Uniform sampler over firing words that pass ``check_word``: a letter
    L_t needs t prior rights and R_t needs t prior lefts."""

    @lru_cache(maxsize=None)
    def completions(lefts: int, rights: int) -> int:
        if lefts + rights == length:
            return 1
        return (rights + 1) * completions(lefts + 1, rights) + (lefts + 1) * completions(
            lefts, rights + 1
        )

    def draw(rng: random.Random) -> list[tuple[str, int]]:
        lefts = rights = 0
        word = []
        while lefts + rights < length:
            via_left = (rights + 1) * completions(lefts + 1, rights)
            if rng.randrange(completions(lefts, rights)) < via_left:
                word.append(("L", rng.randrange(rights + 1)))
                lefts += 1
            else:
                word.append(("R", rng.randrange(lefts + 1)))
                rights += 1
        return word

    return draw


def make_inputs(workload: str, seed: int, outdir: str) -> dict:
    """Everything the job needs, built before its timer starts."""
    out = os.path.join(outdir, f"{workload}.out")
    if workload == "enum-n9":
        return {"argv": ["enum-mn", "--n", str(N_ENUM), "--out", out]}
    if workload == "trace-rot20":
        perm = ",".join(map(str, [*range(2, N_ROT + 1), 1]))
        return {"argv": ["trace", "--perm", perm, "--strategy", "leftmost-not-home", "--out", out]}
    if workload == "verify-all-n7":
        return {"argv": ["verify", "--suite", "all", "--nmax", "7", "--out", out]}
    if workload == "words-n9":
        letter = importlib.import_module("homing.firings").FiringLetter
        draw = _valid_word_sampler(N_WORDS - 2)
        rng = random.Random(seed)
        words = [tuple(letter(s, t) for s, t in draw(rng)) for _ in range(SAMPLED_WORDS)]
        return {"words": words, "out": out}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the timed job
# ---------------------------------------------------------------------------

def run_job(workload: str, inputs: dict) -> dict:
    """The timed call.  Library functions are looked up here, after any span
    wrappers are installed."""
    if workload == "words-n9":
        firings = importlib.import_module("homing.firings")
        apply_word, canonicalize = firings.apply_word, firings.canonicalize
        to_partition, to_word = firings.word_to_partition, firings.partition_to_word
        states = [apply_word(w, N_WORDS) for w in firings.canonical_words(N_WORDS)]
        sampled = []
        for w in inputs["words"]:
            c = canonicalize(w)
            sampled.append((c, apply_word(w, N_WORDS), apply_word(c, N_WORDS)))
        roundtrip = []
        for m in range(MAX_RESTRICTED + 1):
            for w in firings.restricted_words(m):
                partition = to_partition(w)
                roundtrip.append((w, partition, to_word(partition)))
        return {"states": states, "sampled": sampled, "roundtrip": roundtrip}
    cli = importlib.import_module("homing.cli")
    result = {"exit_code": cli.main(inputs["argv"])}
    if workload == "enum-n9":
        strategies = importlib.import_module("homing.strategies")
        result["unique_worst_case"] = strategies.unique_worst_case_check(N_ENUM - 1)
    return result


def save_outputs(workload: str, inputs: dict, result: dict) -> str:
    """Write what the checks need next to the CLI output; returns its path."""
    if workload != "words-n9":
        path = inputs["argv"][-1] + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(result))
        return path

    def plain(word):
        return [[let.side, let.index] for let in word]

    path = inputs["out"] + ".json"
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps runs the C encoder; json.dump would encode chunk by chunk in Python
        fh.write(json.dumps({
            "states": result["states"],
            "drawn": [plain(w) for w in inputs["words"]],
            "sampled": [(plain(c), a, b) for c, a, b in result["sampled"]],
            "roundtrip": [(plain(w), p, plain(b)) for w, p, b in result["roundtrip"]],
        }))
    return path
