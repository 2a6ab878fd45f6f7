"""The command-line surface: outputs, formats, exit codes, atomic writes."""
import json
import re

import pytest

from homing.cli import FORMATS, main


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


def test_argparse_usage_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_out_writes_atomically(tmp_path, capsys):
    out_file = tmp_path / "mn.csv"
    code, out, _ = run_cli(capsys, "count-mn", "--nmax", "6", "--out", str(out_file))
    assert code == 0 and out == ""
    code, direct, _ = run_cli(capsys, "count-mn", "--nmax", "6")
    assert out_file.read_text() == direct
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".homing-")]
