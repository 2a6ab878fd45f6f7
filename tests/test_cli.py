"""The command-line surface: outputs, formats, exit codes, atomic writes."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from homing import CodeShapeError, CycleError, InputError, ParseError, WordError, cli, verify
from homing.cli import BROKEN_PIPE, FORMATS, main
from homing.firings import canonical_words, format_word
from homing.heights import worst_case_permutations
from homing.strategies import Trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_height(capsys):
    code, out, err = run_cli(capsys, "height", "--perm", "5,2,3,4,1")
    assert code == 0 and out == "8\n" and err == ""


def test_height_json(capsys):
    code, out, _ = run_cli(capsys, "height", "--perm", "2,1", "--format", "json")
    assert code == 0 and json.loads(out) == {"height": 1}


def test_min_steps(capsys):
    code, out, _ = run_cli(capsys, "min-steps", "--perm", "4,1,3,5,2")
    assert code == 0 and out == "3\n"


def test_count_mn(capsys):
    code, out, _ = run_cli(capsys, "count-mn", "--nmax", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,mn"
    assert lines[-1] == "10,52864"
    assert len(lines) == 10


def test_canon(capsys):
    code, out, _ = run_cli(capsys, "canon", "--word", "L0,R1,R0,L1,R2,R1")
    assert code == 0 and out == "R0,L1,R0,R1,R0,L3\n"


def test_enum_mn(capsys):
    code, out, _ = run_cli(capsys, "enum-mn", "--n", "4")
    assert code == 0
    members = json.loads(out)
    assert len(members) == 5
    assert [2, 3, 4, 1] in members


def test_enum_mn_text(capsys):
    code, out, _ = run_cli(capsys, "enum-mn", "--n", "2", "--format", "text")
    assert code == 0 and out == "2,1\n"


def test_words(capsys):
    code, out, _ = run_cli(capsys, "words", "--n", "4")
    assert code == 0
    assert sorted(out.splitlines()) == sorted(["L0,L0", "L0,R0", "R0,L0", "R0,L1", "R0,R0"])


def test_bell_bijection_both_ways(capsys):
    code, out, _ = run_cli(capsys, "bell-bijection", "--word", "R,L0,L1")
    assert code == 0 and out == "{1,3}{2,4}\n"
    code, out, _ = run_cli(capsys, "bell-bijection", "--partition", "{1,3}{2,4}")
    assert code == 0 and out == "R,L0,L1\n"


def test_growth(capsys):
    code, out, _ = run_cli(capsys, "growth", "--nmax", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,factorial_root,mn_root,bell_root"
    assert len(lines) == 10
    last = lines[-1].split(",")
    assert last[0] == "10"
    for text in last[1:]:
        float(text)


def test_trace_deterministic(capsys):
    args = ("trace", "--perm", "2,3,4,1", "--strategy", "leftmost-not-home")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    lines = out1.splitlines()
    assert len(lines) == 7  # 2^3 - 1
    assert all(len(line.split("\t")) == 7 for line in lines)


def test_sort_matches_trace(capsys):
    _, out1, _ = run_cli(capsys, "sort", "--perm", "3,2,1")
    _, out2, _ = run_cli(capsys, "trace", "--perm", "3,2,1")
    assert out1 == out2


def test_random_needs_seed(capsys):
    code, _, err = run_cli(capsys, "trace", "--perm", "3,2,1", "--strategy", "random")
    assert code == 2 and "seed" in err


def test_seed_only_with_random(capsys):
    args = ("trace", "--perm", "3,1,2")
    code, _, err = run_cli(capsys, *args, "--strategy", "smallest-first", "--seed", "99")
    assert code == 2 and "takes no seed" in err
    code, out, _ = run_cli(capsys, *args, "--strategy", "random", "--seed", "99")
    assert code == 0 and out


def test_random_sim(capsys):
    args = ("random-sim", "--n", "6", "--trials", "300", "--seed", "42")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    assert "bound=10.0" in out1 and "seed=42" in out1


def test_random_sim_json(capsys):
    code, out, _ = run_cli(
        capsys, "random-sim", "--n", "5", "--trials", "50", "--seed", "3", "--format", "json"
    )
    data = json.loads(out)
    assert code == 0 and data["trials"] == 50 and data["bound"] == "7"


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "perm-core", "--nmax", "5")
    assert code == 0
    assert "PASS perm-core/placement-semantics (" in out
    assert re.search(r"^PASS perm-core/inversion \(\d+ cases\)$", out, re.M)
    assert out.strip().endswith("4/4 properties passed")


# one small invocation of each subcommand, without --format
SAMPLE_ARGS = {
    "sort": ["--perm", "3,1,2"],
    "trace": ["--perm", "3,1,2"],
    "height": ["--perm", "3,1,2"],
    "min-steps": ["--perm", "3,1,2"],
    "enum-mn": ["--n", "4"],
    "count-mn": ["--nmax", "5"],
    "words": ["--n", "4"],
    "canon": ["--word", "L0,R1"],
    "bell-bijection": ["--word", "R,L0"],
    "growth": ["--nmax", "4"],
    "random-sim": ["--n", "4", "--trials", "20", "--seed", "1"],
    "verify": ["--suite", "perm-core", "--nmax", "3"],
}


def output_format(out):
    """Which of the three formats a command's output is written in."""
    try:
        if isinstance(json.loads(out), (dict, list)):
            return "json"
    except ValueError:
        pass
    lines = out.splitlines()
    if len(lines) >= 2 and re.fullmatch(r"[a-z_]+(,[a-z_]+)*", lines[0]):
        return "csv"
    return "text"


@pytest.mark.parametrize("command", sorted(FORMATS))
def test_formats_honoured_or_rejected(command, capsys):
    default, accepted = FORMATS[command]
    code, out, _ = run_cli(capsys, command, *SAMPLE_ARGS[command])
    assert code == 0 and output_format(out) == default
    for fmt in ("text", "json", "csv"):
        argv = [command, *SAMPLE_ARGS[command], "--format", fmt]
        if fmt in accepted:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and output_format(out) == fmt, (command, fmt)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, (command, fmt)
            assert "invalid choice" in capsys.readouterr().err


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "height", "--perm", "1,2,x")
    assert code == 2 and "'x'" in err
    code, _, err = run_cli(capsys, "height", "--perm", "1,1,2")
    assert code == 2 and "repeated" in err
    code, _, err = run_cli(capsys, "canon", "--word", "L0,Q1")
    assert code == 2 and "Q1" in err
    code, _, err = run_cli(capsys, "bell-bijection", "--partition", "{1}{1,2}")
    assert code == 2
    code, _, err = run_cli(capsys, "height", "--perm", "1,2,3,4,5,6,7,8,9,10,11", "--cap", "10")
    assert code == 2 and "cap" in err


def test_min_steps_takes_the_one_default_cap(capsys):
    code, out, _ = run_cli(capsys, "min-steps", "--perm", "2,1,3,4,5,6,7,8,9,10")
    assert code == 0 and out == "1\n"
    code, out, err = run_cli(capsys, "min-steps", "--perm", "2,1,3,4,5,6,7,8,9,10,11")
    assert code == 2 and out == "" and "n=11 exceeds the cap 10" in err


@pytest.mark.parametrize(
    "name, error, failed",
    [
        ("check_word", WordError("planted"), "firings/partition-roundtrip"),
        ("firing_moves", CodeShapeError("planted"), "firings/step-count-and-weight"),
        ("_table", CycleError("planted"), "perm-core/acyclicity"),
    ],
    ids=["word-error", "code-shape-error", "cycle-error"],
)
def test_a_library_error_inside_a_property_fails_it(monkeypatch, capsys, name, error, failed):
    """An error the library raises inside a check is a verification
    failure that names it, not bad input and not a traceback."""

    def planted(*args):
        raise error

    monkeypatch.setattr(verify, name, planted)
    suite = failed.split("/")[0]
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--nmax", "3")
    assert code == 1 and err == ""
    assert f"FAIL {failed}: {type(error).__name__}: planted\n" in out


def test_argparse_usage_exit_code(capsys):
    for argv in (["no-such-command"], ["verify", "--cap", "5"]):  # verify takes no cap
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("nmax", ["-1", "0", "1", "2", "x"])
def test_verify_nmax_below_3_is_usage_error(nmax, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--nmax", nmax])
    assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "verify", "--suite", "perm-core", "--nmax", "3")
    assert code == 0 and "(0 cases)" not in out


# arguments out of range (parse and cap errors: test_usage_errors), and a
# word each message must name
BAD_INPUT = [
    (["trace", "--perm", "3,1,2", "--strategy", "smallest-first", "--seed", "9"], "seed"),
    (["words", "--n", "1"], "2..200"),
    (["enum-mn", "--n", "0"], "n must be >= 1"),
    (["random-sim", "--n", "0", "--seed", "1"], "n must be >= 1"),
    (["random-sim", "--n", "3", "--trials", "0", "--seed", "1"], "trials"),
    (["growth", "--nmax", "500"], "2..200"),
    (["count-mn", "--nmax", "1"], "2..200"),
    (["count-mn", "--nmax", "800"], "2..200"),
    (["words", "--n", "201"], "2..200"),
    (["bell-bijection", "--partition", ""], "at least one"),
]


@pytest.mark.parametrize("argv, needle", BAD_INPUT)
def test_bad_input_exits_2(argv, needle, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and needle in err


def test_enum_beyond_int32_ranks_exits_2_before_allocating(capsys, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the 13! rows were allocated")

    monkeypatch.setattr(np, "empty", no_allocation)
    code, out, err = run_cli(capsys, "enum-mn", "--n", "13", "--cap", "13")
    assert code == 2 and out == "" and "n <= 12" in err


def test_library_errors_are_not_usage_errors(monkeypatch):
    """Only InputError and CapacityError mean bad input; a ValueError from
    inside the library is a bug and propagates."""

    def broken(p, cap):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "height", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["height", "--perm", "2,1"])
    # input errors stay ValueErrors for library callers
    assert issubclass(ParseError, InputError) and issubclass(WordError, InputError)
    assert issubclass(InputError, ValueError)


class Interrupted(BaseException):
    """Stands in for an interrupt arriving in the middle of a write."""


def test_interrupted_out_leaves_the_old_file(tmp_path, monkeypatch):
    out_file = tmp_path / "trace.txt"
    out_file.write_text("old\n")
    whole = Trace._text  # the byte blocks the handler writes

    def cut(self):
        blocks = whole(self)
        yield next(blocks)
        raise Interrupted

    monkeypatch.setattr(Trace, "_text", cut)
    with pytest.raises(Interrupted):
        main(["trace", "--perm", "2,3,4,5,1", "--strategy", "leftmost-not-home", "--out", str(out_file)])
    assert out_file.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.txt"]


def test_out_writes_atomically(tmp_path, capsys):
    out_file = tmp_path / "mn.csv"
    code, out, _ = run_cli(capsys, "count-mn", "--nmax", "6", "--out", str(out_file))
    assert code == 0 and out == ""
    code, direct, _ = run_cli(capsys, "count-mn", "--nmax", "6")
    assert out_file.read_text() == direct
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".homing-")]


def test_out_into_a_missing_directory_exits_2_before_the_handler(tmp_path, monkeypatch, capsys):
    def not_reached(*args, **kwargs):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "height", not_reached)
    target = str(tmp_path / "missing" / "x")
    code, out, err = run_cli(capsys, "height", "--perm", "2,1,3", "--out", target)
    assert code == 2 and out == "" and target in err
    assert ".homing-" not in err and list(tmp_path.iterdir()) == []


def test_out_empty_exits_2_before_the_handler(tmp_path, monkeypatch, capsys):
    """An empty path resolves to the working directory, whose parent would
    get the temp file and the rename would fail."""

    def not_reached(*args, **kwargs):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "height", not_reached)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    code, out, err = run_cli(capsys, "height", "--perm", "2,1", "--out", "")
    assert code == 2 and out == "" and "--out '': it names no file" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["cwd"]


@pytest.mark.parametrize("exists", [True, False])
def test_out_naming_a_directory_exits_2_before_the_handler(tmp_path, monkeypatch, capsys, exists):
    def not_reached(*args, **kwargs):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "height", not_reached)
    if exists:
        (tmp_path / "dir").mkdir()
        target = str(tmp_path / "dir")
    else:
        target = str(tmp_path / "dir") + os.sep  # a trailing separator names no file
    code, out, err = run_cli(capsys, "height", "--perm", "2,1,3", "--out", target)
    assert code == 2 and out == "" and f"--out {target}: it names a directory" in err
    assert ".homing-" not in err
    assert [p.name for p in tmp_path.rglob("*")] == (["dir"] if exists else [])


def test_out_naming_a_fifo_exits_2_before_the_handler(tmp_path, monkeypatch, capsys):
    """The atomic rename would replace the FIFO with a regular file."""

    def not_reached(*args, **kwargs):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, "height", not_reached)
    target = tmp_path / "fifo"
    os.mkfifo(target)
    code, out, err = run_cli(capsys, "height", "--perm", "2,1", "--out", str(target))
    assert code == 2 and out == "" and f"--out {target}: it is not a regular file" in err
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"] and target.is_fifo()


def test_words_stream_one_at_a_time(tmp_path, monkeypatch, capsys):
    def cut(n):
        words = canonical_words(n)
        yield next(words)
        yield next(words)
        raise Interrupted

    monkeypatch.setattr(cli, "canonical_words", cut)
    out_file = tmp_path / "words.txt"
    out_file.write_text("old\n")
    with pytest.raises(Interrupted):
        main(["words", "--n", "5", "--out", str(out_file)])
    assert out_file.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["words.txt"]
    with pytest.raises(Interrupted):
        main(["words", "--n", "5"])
    first = format_word(next(canonical_words(5)))
    assert capsys.readouterr().out.startswith(first + "\n")


LISTINGS = [("enum-mn", k) for k in range(1, 8)] + [("words", k) for k in range(2, 9)]


@pytest.mark.parametrize("command, k", LISTINGS, ids=[f"{c}-{k}" for c, k in LISTINGS])
def test_listing_is_json_dumps(command, k, capsys):
    if command == "enum-mn":
        items = [list(p) for p in worst_case_permutations(k)]
        lines = [",".join(map(str, p)) for p in items]
    else:
        items = lines = [format_word(w) for w in canonical_words(k)]
    _, out, _ = run_cli(capsys, command, "--n", str(k), "--format", "json")
    assert out == json.dumps(items) + "\n"
    _, out, _ = run_cli(capsys, command, "--n", str(k), "--format", "text")
    assert out == "".join(line + "\n" for line in lines)


ROTATION_16 = ",".join(map(str, [*range(2, 17), 1]))


@pytest.mark.parametrize(
    "argv",
    [["trace", "--perm", ROTATION_16, "--strategy", "leftmost-not-home"], ["words", "--n", "9"]],
    ids=["trace", "words"],
)
def test_closed_pipe_exits_141_quietly(argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "homing", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == BROKEN_PIPE == 141
    assert err == b""
