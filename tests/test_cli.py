"""End-to-end command line runs, including exit codes, in this process through
`cli`. A named few `spawn` `python -m basm` for what only a new process shows:
the entry point, one hostile input per exit code, and byte-identical traces."""
import errno
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from basm import cli as cli_module, corpus as corpus_module, semantics
from basm.cli import main
from basm.syntax import MAX_NESTING

REPO = Path(__file__).resolve().parents[1]

EUCLID = "corpus/euclid/program.basm"
EUCLID_INIT = "corpus/euclid/init/a12b8.state"
EUCLID_RUN = ["--program", str(REPO / EUCLID), "--init", str(REPO / EUCLID_INIT)]
PRIMALITY = "corpus/primality/program.basm"
PRIMALITY_INIT = "corpus/primality/init/n15k2.state"
TANGENT = "corpus/tangent/program.basm"
TANGENT_INIT = "corpus/tangent/init/default.state"
TANGENT_INIT_TEXT = (REPO / TANGENT_INIT).read_text()

def cli(*argv, stdin=None, stdout=None):
    """`main(argv)` run as a new process would run it: from the repository
    root, with `stdin` as its input, `stdout` (a `StringIO`) as its output
    stream and the corpus caches empty. Its exit code and output come back
    as `spawn`'s do; argparse's exit becomes the code, and any other
    exception fails the test."""
    corpus_module._program_cache.clear()
    corpus_module._state_cache.clear()
    saved = os.getcwd(), sys.stdin, sys.stdout, sys.stderr
    out, err = stdout or io.StringIO(), io.StringIO()
    os.chdir(REPO)
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin or ""), out, err
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    finally:
        os.chdir(saved[0])
        sys.stdin, sys.stdout, sys.stderr = saved[1:]
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def _assert_one_error_line(r, head: str, tail: str):
    """stderr is one line, `head`, then any text, then `tail`."""
    assert r.stderr.startswith(head) and r.stderr.endswith(tail + "\n")
    assert r.stderr.count("\n") == 1


def _assigning(term: str) -> str:
    """A program of one variable `x` that sets it to `term` until it is positive."""
    return f"vocab {{\n  var x : Integer\n}}\ndo until x > 0 {{\n  x := {term}\n}}\n"


def _files(tmp_path, program: str, state: str):
    """The paths of a program file and a state file with these texts."""
    src, init = tmp_path / "p.basm", tmp_path / "p.state"
    src.write_text(program)
    init.write_text(state)
    return str(src), str(init)


def spawn(*args):
    """`python -m basm` run in a new process from the repository root."""
    return subprocess.run([sys.executable, "-m", "basm", *args],
                          capture_output=True, text=True, cwd=REPO)


def test_run_euclid():
    r = spawn("run", "--program", EUCLID, "--init", EUCLID_INIT)
    assert r.returncode == 0
    assert "outcome: halted" in r.stdout
    assert "steps: 3" in r.stdout
    assert "d = 4" in r.stdout


def test_run_trace_and_replay_roundtrip(tmp_path):
    trace = tmp_path / "t.jsonl"
    r = cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--trace", str(trace))
    assert r.returncode == 0
    r = cli("replay", "--program", EUCLID, "--trace", str(trace))
    assert r.returncode == 0
    assert "replay: ok" in r.stdout


def test_replay_detects_tampering(tmp_path):
    trace = tmp_path / "t.jsonl"
    cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--trace", str(trace))
    trace.write_text(trace.read_text().replace('{"loc": "d", "value": "4"}',
                                               '{"loc": "d", "value": "5"}'))
    r = cli("replay", "--program", EUCLID, "--trace", str(trace))
    assert r.returncode == 1
    assert "mismatch" in r.stderr


def test_replay_compares_geometry_exactly(tmp_path):
    """A coordinate moved by far less than the kernel EPS is still a mismatch."""
    trace = tmp_path / "t.jsonl"
    cli("run", "--program", TANGENT, "--init", TANGENT_INIT, "--trace", str(trace))
    lines = trace.read_text().splitlines()
    assert '"point(5.0,0.0)"' in lines[1]
    lines[1] = lines[1].replace("point(5.0,0.0)", "point(5.0000000001,0.0)", 1)
    trace.write_text("\n".join(lines) + "\n")
    r = cli("replay", "--program", TANGENT, "--trace", str(trace))
    assert r.returncode == 1
    assert "replay: mismatch" in r.stderr


# Each damages one line of a euclid trace in place and returns its number.
def _truncate_line(lines: list[str]) -> int:
    lines[1] = lines[1][: len(lines[1]) // 2]
    return 2


def _drop_halted(lines: list[str]) -> int:
    obj = json.loads(lines[1])
    del obj["halted"]
    lines[1] = json.dumps(obj)
    return 2


def _number_valued_update(lines: list[str]) -> int:
    obj = json.loads(lines[1])
    obj["updates"][0]["value"] = 8
    lines[1] = json.dumps(obj)
    return 2


def _set_field(label: str, row: int, name: str, value):
    """A damage that sets one field of row `row` (line `row + 1`)."""
    def damage(lines: list[str]) -> int:
        obj = json.loads(lines[row])
        obj[name] = value
        lines[row] = json.dumps(obj)
        return row + 1

    damage.__name__ = label
    return damage


@pytest.mark.parametrize("damage", [
    _truncate_line, _drop_halted, _number_valued_update,
    _set_field("_initial_state_as_list", 0, "initialState", []),
    _set_field("_halted_as_0", 1, "halted", 0),
    _set_field("_halted_as_string", 2, "halted", "false"),
    _set_field("_index_of_the_next_step", 1, "index", 1),
    _set_field("_index_as_true", 2, "index", True),
    _set_field("_index_as_float", 2, "index", 1.0),
    _set_field("_unknown_outcome", 4, "outcome", "finished"),  # after the 3 step rows
])
def test_malformed_trace_step_line_exits_2(tmp_path, damage):
    trace = tmp_path / "t.jsonl"
    cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--trace", str(trace))
    lines = trace.read_text().splitlines()
    lineno = damage(lines)
    trace.write_text("\n".join(lines) + "\n")
    r = cli("replay", "--program", EUCLID, "--trace", str(trace))
    assert r.returncode == 2
    _assert_one_error_line(r, "error[parse]: bad trace line: ", f" (line {lineno}, column 1)")


def test_number_valued_script_line_exits_2(tmp_path):
    script = tmp_path / "s.jsonl"
    script.write_text('{"oracle": "Random", "args": [2, 13], "answer": 4}\n')
    r = cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--script", str(script))
    assert r.returncode == 2
    _assert_one_error_line(r, "error[parse]: bad script line: ", " (line 1, column 1)")


@pytest.mark.parametrize("row", ['"programId"', '"my outcome"', '["programId"]'])
def test_a_script_row_that_is_no_json_object_exits_2(tmp_path, row):
    script = tmp_path / "s.jsonl"
    script.write_text(row + "\n")
    r = cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--script", str(script))
    assert (r.returncode, r.stderr) == (
        2, "error[parse]: bad script line: expected a JSON object (line 1, column 1)\n")


def test_seeded_runs_are_byte_identical(tmp_path):
    files = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for f in files:
        r = spawn("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT,
                  "--seed", "42", "--trace", str(f))
        assert r.returncode == 0
    assert files[0].read_bytes() == files[1].read_bytes()


def test_corpus_trace_on_stdout_is_stable():
    runs = [cli("corpus", "tangent", "--choice", "1", "--trace", "-") for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.splitlines()[0].startswith('{"programId"')


def test_missing_and_broken_files_exit_2(tmp_path):
    assert cli("run", "--program", "no/such.basm", "--init", EUCLID_INIT).returncode == 2
    bad = tmp_path / "bad.basm"
    bad.write_text("vocab {\n  var x : Integer\n}\ndo until x = {\n}\n")
    r = cli("run", "--program", str(bad), "--init", EUCLID_INIT)
    assert r.returncode == 2
    assert "error[parse]" in r.stderr


@pytest.mark.parametrize("argv, message", [
    (["--program", "no/such.basm", "--init", EUCLID_INIT],
     "no/such.basm: No such file or directory"),
    (["--program", "corpus", "--init", EUCLID_INIT], "corpus: Is a directory"),
    (["--program", EUCLID, "--init", EUCLID_INIT, "--trace", "no/such/t.jsonl"],
     "no/such/t.jsonl: No such file or directory"),
    (["--program", EUCLID, "--init", EUCLID_INIT, "--trace", "/dev/full"],
     "/dev/full: No space left on device"),
], ids=["missing-program", "directory-as-program", "trace-into-missing-directory",
        "trace-onto-a-full-device"])
def test_a_file_that_cannot_be_opened_or_written_is_an_io_error(argv, message):
    r = cli("run", *argv)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error[io]: {message}\n")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: each write fails as the OS fails it."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


@pytest.mark.parametrize("argv", [
    ("run", "--program", EUCLID, "--init", EUCLID_INIT, "--trace", "-"),
    ("run", "--program", EUCLID, "--init", EUCLID_INIT),
    ("check", "iso", "--program", EUCLID, "--init", EUCLID_INIT),
    ("corpus", "list"),
], ids=["trace", "outcome", "check-report", "corpus-list"])
def test_a_write_to_a_closed_stdout_is_an_io_error_naming_the_stream(argv):
    r = cli(*argv, stdout=_ClosedPipe())
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error[io]: <stdout>: Broken pipe\n")


@pytest.mark.parametrize("bindings", [("x := undef", "x := 0"), ("x := 0", "x := undef")],
                         ids=["undef-first", "undef-last"])
def test_repeated_binding_exits_2_in_either_order(tmp_path, bindings):
    src, init = _files(tmp_path,
                       "vocab {\n  var x : Integer\n}\ndo until x = 3 {\n  x := x + 1\n}\n",
                       "\n".join(bindings) + "\n")
    r = cli("run", "--program", src, "--init", init)
    assert r.returncode == 2
    assert "error[parse]" in r.stderr and "repeated binding for x" in r.stderr


def test_a_location_bound_twice_in_a_trace_header_exits_2(tmp_path):
    """`"a"` and `" a"` spell one location; neither binding may win."""
    trace = tmp_path / "t.jsonl"
    cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--trace", str(trace))
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["initialState"] = {"a": "99", " a": "12", "b": "8"}
    lines[0] = json.dumps(header)
    trace.write_text("\n".join(lines) + "\n")
    r = cli("replay", "--program", EUCLID, "--trace", str(trace))
    assert r.returncode == 2
    assert "error[parse]" in r.stderr and "repeated binding for a" in r.stderr


@pytest.mark.parametrize("where", ["state file", "program"])
def test_an_integer_literal_of_5000_digits_exits_2(tmp_path, where):
    digits = "9" * 5000
    in_program, in_state = (digits, "0") if where == "program" else ("0", digits)
    src, init = _files(tmp_path, _assigning(in_program), f"x := {in_state}\n")
    r = cli("run", "--program", src, "--init", init)
    assert r.returncode == 2
    if where == "program":
        assert r.stderr == ("error[parse]: integer literal longer than 640 digits "
                            "(line 5, column 8)\n")
    else:
        assert r.stderr == (f"error[parse]: {init}: expected an integer literal of at most 640 "
                            f"digits, got '{digits}' (line 1, column 1)\n")


@pytest.mark.parametrize("term, column",
                         [("²", 8), ("point(², 0.0)", 14), ("point(0.0, 1²)", 20)],
                         ids=["alone", "point-x", "after-a-digit"])
def test_a_superscript_digit_in_a_program_exits_2(tmp_path, term, column):
    src, init = _files(tmp_path, _assigning(term), "x := 0\n")
    r = cli("run", "--program", src, "--init", init)
    assert (r.returncode, r.stderr) == (
        2, f"error[parse]: unexpected character '²' (line 5, column {column})\n")


def test_a_non_ascii_name_exits_2(tmp_path):
    src, init = _files(tmp_path, "vocab { var é : Integer }\ndo until é = 1 { é := 1 }\n", "")
    r = cli("run", "--program", src, "--init", init)
    assert (r.returncode, r.stderr) == (
        2, "error[parse]: unexpected character 'é' (line 1, column 13)\n")


@pytest.mark.parametrize("coordinate", [".5", "5."])
def test_a_coordinate_with_a_bare_decimal_point_exits_2(tmp_path, coordinate):
    init = tmp_path / "init.state"
    init.write_text(TANGENT_INIT_TEXT.replace("q := point(10.0, 0.0)",
                                              f"q := point({coordinate},1.0)"))
    r = cli("run", "--program", TANGENT, "--init", str(init))
    assert r.returncode == 2
    assert "error[parse]: " in r.stderr and f"bad number: '{coordinate}'" in r.stderr


@pytest.mark.parametrize("coordinate", ["1e999", "-1e999", "9" * 400],
                         ids=["1e999", "-1e999", "400-digits"])
def test_a_coordinate_past_the_float_range_exits_2(tmp_path, coordinate):
    init = tmp_path / "init.state"
    init.write_text(TANGENT_INIT_TEXT.replace("q := point(10.0, 0.0)",
                                              f"q := point({coordinate}, 0.0)"))
    r = cli("run", "--program", TANGENT, "--init", str(init))
    assert (r.returncode, r.stderr) == (2, f"error[parse]: {init}: coordinate out of the float "
                                           f"range: '{coordinate}' (line 3, column 1)\n")
    src = tmp_path / "p.basm"
    src.write_text((REPO / TANGENT).read_text().replace(
        "r := M(p, q)", f"r := M(p, point({coordinate}, 0.0))"))
    r = cli("run", "--program", str(src), "--init", TANGENT_INIT)
    assert r.returncode == 2
    assert "error[parse]: " in r.stderr and "float range" in r.stderr


def test_a_midpoint_past_the_float_range_is_arith_and_its_trace_replays(tmp_path):
    init = tmp_path / "init.state"
    init.write_text(TANGENT_INIT_TEXT.replace("0.0, 0.0)\nq := point(10.0",
                                              "1.7e308, 0.0)\nq := point(1.7e308"))
    trace = tmp_path / "t.jsonl"
    r = cli("run", "--program", TANGENT, "--init", str(init), "--trace", str(trace))
    assert r.returncode == 1
    assert "error[arith]: non-finite point coordinate" in r.stderr
    assert "inf" not in trace.read_text()
    r = cli("replay", "--program", TANGENT, "--trace", str(trace))
    assert r.returncode == 0 and "replay: ok" in r.stdout


@pytest.mark.parametrize("squarings, code", [(11, 0), (12, 1)])
def test_a_run_that_squares_past_the_digit_bound_stops_and_its_trace_replays(
    tmp_path, squarings, code
):
    """2^2048 has 617 digits and halts; 2^4096 has 1234, past `MAX_INT_DIGITS`."""
    src, init = _files(tmp_path, "vocab {\n  var x : Integer\n  var n : Integer\n}\n"
                       f"do until n = {squarings} {{\n  par {{ x := x * x ; n := n + 1 }}\n}}\n",
                       "x := 2\nn := 0\n")
    trace = tmp_path / "t.jsonl"
    r = cli("run", "--program", src, "--init", init, "--trace", str(trace))
    assert (r.returncode, r.stderr) == (
        code, "error[arith]: integer result of more than 640 digits\n" if code else "")
    r = cli("replay", "--program", src, "--trace", str(trace))
    assert r.returncode == 0 and "replay: ok" in r.stdout


def test_oracle_in_halt_condition_exits_2(tmp_path):
    src = tmp_path / "p.basm"
    src.write_text(
        "vocab {\n  var x : Integer\n  oracle Random(Integer, Integer) : Integer\n}\n"
        "do until Random(0, 1) = 0 {\n  x := 1\n}\n"
    )
    r = cli("run", "--program", str(src), "--init", EUCLID_INIT)
    assert r.returncode == 2
    assert "error[interactive-halt]" in r.stderr


def test_step_limit_exits_3():
    r = spawn("run", "--program", EUCLID, "--init", EUCLID_INIT, "--max-steps", "1")
    assert r.returncode == 3
    assert "outcome: step-limit" in r.stdout


def test_clash_exits_1(tmp_path):
    src, init = _files(tmp_path, "vocab {\n  var x : Integer\n}\n"
                       "do until x = 3 {\n  par { x := 1 ; x := 2 }\n}\n", "x := 0\n")
    r = spawn("run", "--program", src, "--init", init)
    assert r.returncode == 1
    assert "error[clash]" in r.stderr


def test_check_bexp_report():
    r = cli("check", "bexp", "--program", EUCLID, "--init", EUCLID_INIT,
            "--trials", "25")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report == {"check": "bexp", "trials": 25, "failures": []}


def test_check_replay_report():
    r = cli("check", "replay", "--program", PRIMALITY, "--init", PRIMALITY_INIT,
            "--trials", "5", "--seed", "3")
    assert r.returncode == 0
    assert json.loads(r.stdout)["failures"] == []


def test_check_iso_enumgraph():
    r = cli("check", "iso", "--program", "corpus/enumgraph/program.basm",
            "--init", "corpus/enumgraph/init/default.state")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["trials"] == 2  # identity and the one member swap
    assert report["failures"] == []


@pytest.mark.parametrize("entry, golden, bijections", [
    ("enumgraph", "default.jsonl", 2),
    ("tangent", "choice1.jsonl", 1),
])
def test_check_iso_takes_a_golden_trace_as_its_script(entry, golden, bijections):
    """The golden's answers are replayed by symbol."""
    d = REPO / "corpus" / entry
    r = cli("check", "iso", "--program", str(d / "program.basm"),
            "--init", str(d / "init" / "default.state"),
            "--script", str(d / "golden" / golden))
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"check": "iso", "trials": bijections, "failures": []}


def test_check_equiv_flags_different_machines():
    r = cli("check", "equiv", "--program", EUCLID, "--init", EUCLID_INIT,
            "--other", "corpus/euclid_while/program.basm")
    assert r.returncode == 1
    assert json.loads(r.stdout)["failures"]


@pytest.mark.parametrize("kind, unread", [
    ("bexp", ["--script", "/nonexistent"]),
    ("iso", ["--script-mode", "strict"]),
    ("replay", ["--policy", "interactive"]),
    ("equiv", ["--other", str(REPO / EUCLID), "--trials", "5"]),
])
def test_a_check_kind_rejects_an_option_it_does_not_read(kind, unread):
    """Argparse ends a usage error with exit 2."""
    r = cli("check", kind, *EUCLID_RUN, *unread)
    assert r.returncode == 2
    assert f"unrecognized arguments: {unread[-2]}" in r.stderr


def test_check_equiv_without_other_is_a_usage_error():
    r = cli("check", "equiv", *EUCLID_RUN)
    assert r.returncode == 2
    assert "--other" in r.stderr


def test_corpus_list_names_every_entry():
    r = cli("corpus", "list")
    assert r.returncode == 0
    for name in ("euclid", "tangent", "primality", "enumgraph"):
        assert name in r.stdout


def test_corpus_set_overrides():
    r = cli("corpus", "euclid", "--set", "a=21", "--set", "b=14")
    assert r.returncode == 0
    assert "d = 7" in r.stdout
    assert cli("corpus", "euclid", "--set", "a21").returncode == 1
    assert cli("corpus", "nope").returncode == 1


@pytest.mark.parametrize("key", ["name", "init_file", "seed", "choice", "script", "max_steps"])
def test_corpus_set_of_a_corpus_run_parameter_is_no_variable(key):
    r = cli("corpus", "euclid", "--set", f"{key}=3")
    assert r.returncode == 1
    assert r.stderr == f"error[corpus]: euclid has no variable named {key}\n"


def test_interactive_policy_reads_answers_from_stdin():
    r = cli("run", "--program", TANGENT, "--init", TANGENT_INIT,
            "--policy", "interactive", stdin="0\n0\n")
    assert r.returncode == 0
    assert "outcome: halted" in r.stdout
    assert "I(" in r.stderr  # the prompt names the query
    aborted = cli("run", "--program", TANGENT, "--init", TANGENT_INIT,
                  "--policy", "interactive", stdin="")
    assert aborted.returncode == 1
    assert "error[aborted]" in aborted.stderr


def test_oracle_static_round_trip(tmp_path):
    trace, plain = tmp_path / "t.jsonl", tmp_path / "plain.jsonl"
    r = cli("run", "--program", EUCLID, "--init", EUCLID_INIT,
            "--oracle-static", "mod", "--trace", str(trace))
    assert r.returncode == 0
    assert '"interactions": [{"oracle": "mod"' in trace.read_text()
    assert cli("replay", "--program", EUCLID, "--trace", str(trace),
               "--oracle-static", "mod").returncode == 0
    # the reclassification is part of the program id
    cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--trace", str(plain))
    header = [json.loads(p.read_text().splitlines()[0]) for p in (trace, plain)]
    assert header[0]["programId"] != header[1]["programId"]
    r = cli("replay", "--program", EUCLID, "--trace", str(trace))
    assert r.returncode == 1
    assert "error[program-id]" in r.stderr


def test_an_unknown_oracle_static_exits_2():
    r = cli("run", *EUCLID_RUN, "--oracle-static", "nosuch")
    assert (r.returncode, r.stderr) == (2, "error[sort]: cannot reclassify unknown static: nosuch\n")


@pytest.mark.parametrize("symbol", ["mod", "Random"])
def test_a_state_line_or_trace_update_that_binds_a_static_or_oracle_exits_2(tmp_path, symbol):
    init, trace = tmp_path / "p.state", tmp_path / "t.jsonl"
    init.write_text(f"n := 15\n{symbol} := 3\n")
    trace.write_text((REPO / "corpus/primality/golden/n15k2_seed42.jsonl").read_text()
                     .replace('"loc": "a"', f'"loc": "{symbol}"', 1))
    r = cli("run", "--program", PRIMALITY, "--init", str(init))
    assert (r.returncode, r.stderr) == \
        (2, f"error[sort]: {init}: not a dynamic symbol: {symbol} (line 2, column 1)\n")
    r = cli("replay", "--program", PRIMALITY, "--trace", str(trace))
    assert (r.returncode, r.stderr) == \
        (2, f"error[sort]: not a dynamic symbol: {symbol} (line 2, column 1)\n")


EQUALITY_QUERIES = """\
vocab {
  enum Node { u, v }
  var cur : Node
  var here : Point
  var hops : Integer
}
do until hops > 1 {
  par {
    if cur = u then cur := v else cur := u;
    if here = point(0.5, -1.0) then here := point(2.0, 0.0);
    hops := hops + 1
  }
}
"""


def test_a_trace_with_equality_as_an_oracle_reads_back_and_replays(tmp_path):
    """The `=` queries take enum members and points, whose sort the trace
    reader infers from the literal text."""
    program, init = _files(tmp_path, EQUALITY_QUERIES,
                           "cur := u\nhere := point(0.5, -1.0)\nhops := 0\n")
    trace = tmp_path / "t.jsonl"
    common = ["--program", program, "--oracle-static", "="]
    assert cli("run", *common, "--init", init, "--trace", str(trace)).returncode == 0
    text = trace.read_text()
    assert '{"oracle": "=", "args": ["v", "u"], "answer": "false"}' in text
    assert '"args": ["point(0.5,-1.0)", "point(0.5,-1.0)"], "answer": "true"' in text
    r = cli("replay", *common, "--trace", str(trace))
    assert r.returncode == 0
    assert r.stdout.endswith("replay: ok\n")


def test_interactive_policy_computes_a_reclassified_static():
    r = cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--oracle-static", "mod",
            "--policy", "interactive", stdin="")
    assert r.returncode == 0
    assert "d = 4" in r.stdout
    assert "oracle" not in r.stderr


def test_a_trace_is_accepted_as_a_script(tmp_path):
    t, u = tmp_path / "t.jsonl", tmp_path / "u.jsonl"
    assert cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--seed", "42",
               "--trace", str(t)).returncode == 0
    assert '"interactions": [{' in t.read_text()
    assert cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT,
               "--script", str(t), "--trace", str(u)).returncode == 0
    assert u.read_bytes() == t.read_bytes()


def test_by_symbol_script_accepts_null_args(tmp_path):
    script = tmp_path / "s.jsonl"
    script.write_text('{"oracle": "Random", "args": null, "answer": "4"}\n'
                      '{"oracle": "Random", "args": null, "answer": "11"}\n')
    run = ("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--script", str(script))
    r = cli(*run, "--script-mode", "by-symbol")
    assert r.returncode == 0
    assert "prime = true" in r.stdout  # 4 and 11 are both liars of 15
    r = cli(*run)
    assert r.returncode == 2
    assert "error[parse]: bad script line" in r.stderr


def test_seed_with_choice_and_no_policy_is_an_error():
    for r in (cli("run", "--program", TANGENT, "--init", TANGENT_INIT,
                  "--seed", "2", "--choice", "1"),
              cli("corpus", "tangent", "--seed", "2", "--choice", "1")):
        assert r.returncode == 1
        assert "error[corpus]" in r.stderr
    r = cli("run", "--program", TANGENT, "--init", TANGENT_INIT,
            "--seed", "2", "--choice", "1", "--policy", "builtin")
    assert r.returncode == 0


def _nested_program(levels: int) -> str:
    return _assigning("x + (" * levels + "1" + ")" * levels)


def _chain(terms: int) -> str:
    return " + ".join(["1"] * terms)


@pytest.mark.parametrize("text, column", [(_nested_program(MAX_NESTING + 1), 253),
                                          (_assigning("(" * 80 + "1" + ")" * 80), 57),
                                          (_assigning(_chain(3000)), 8),
                                          (_assigning(" + ".join([f"({_chain(30)})"] * 30)), 8)],
                         ids=["one level past the bound", "80 parentheses",
                              "3000-term operator chain", "chain of parenthesised chains"])
def test_nesting_past_the_bound_exits_2(tmp_path, text, column):
    src = tmp_path / "deep.basm"
    src.write_text(text)
    r = cli("run", "--program", str(src), "--init", EUCLID_INIT)
    assert (r.returncode, r.stderr) == (
        2, f"error[parse]: nested deeper than {MAX_NESTING} levels (line 5, column {column})\n")


def test_deeply_nested_json_line_exits_2(tmp_path):
    trace = tmp_path / "t.jsonl"
    cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--seed", "42",
        "--trace", str(trace))
    lines = trace.read_text().splitlines()
    lines[1] = "[" * 100_000
    trace.write_text("\n".join(lines) + "\n")
    r = cli("replay", "--program", PRIMALITY, "--trace", str(trace))
    assert r.returncode == 2
    assert "error[parse]: bad trace line" in r.stderr
    r = cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--script", str(trace))
    assert r.returncode == 2
    assert "error[parse]: bad script line" in r.stderr


def test_unknown_subcommand_exits_2():
    assert spawn("bogus").returncode == 2


REFUSING = """\
vocab {
  var x : Integer
  oracle R(Integer, Integer) : Integer
}
do until x > 5 { x := R(5, 1) }
"""


@pytest.mark.parametrize("query, flags, message", [
    ("R(5, 1)", [], "empty segment [5, 1]"),
    (f"R(0, {10**23})", ["--seed", "3"], f"segment [0, {10**23}] is wider than 2^64"),
])
def test_the_trace_of_a_refused_query_replays(tmp_path, query, flags, message):
    program, init = _files(tmp_path, REFUSING.replace("R(5, 1)", query), "x := 0\n")
    trace = tmp_path / "e.jsonl"
    r = cli("run", "--program", program, "--init", init, "--trace", str(trace), *flags)
    assert (r.returncode, r.stderr) == (1, f"error[oracle-domain]: {message}\n")
    assert '"refused": "oracle-domain"' in trace.read_text()
    r = cli("replay", "--program", program, "--trace", str(trace))
    assert (r.returncode, r.stdout) == (0, "replay: ok\n")


def test_check_replay_passes_on_a_refused_query(tmp_path):
    program, init = _files(tmp_path, REFUSING.replace("R(5, 1)", f"R(0, {10**23})"), "x := 0\n")
    r = cli("check", "replay", "--program", program, "--init", init, "--seed", "3", "--trials", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["failures"] == []


def test_an_interactive_run_whose_input_closes_replays(tmp_path):
    trace = tmp_path / "i.jsonl"
    r = cli("run", "--program", TANGENT, "--init", TANGENT_INIT,
            "--policy", "interactive", "--trace", str(trace), stdin="")
    assert r.returncode == 1
    assert "error[aborted]: oracle input closed at I(" in r.stderr
    assert '"refused": "aborted"' in trace.read_text()
    assert cli("replay", "--program", TANGENT, "--trace", str(trace)).returncode == 0


NOT_UTF8 = b"\xff\xfe\x00bad"


def test_a_program_that_is_not_utf8_exits_2_without_a_traceback(tmp_path):
    program = tmp_path / "bin.basm"
    program.write_bytes(NOT_UTF8)
    r = spawn("run", "--program", str(program), "--init", EUCLID_INIT)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr == f"error[parse]: {program}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("where", ["--init", "replay --trace", "--script", "corpus --init",
                                   "corpus --script"])
def test_an_input_file_that_is_not_utf8_is_a_parse_error(tmp_path, monkeypatch, where):
    corpus = tmp_path / "corpus"
    shutil.copytree(REPO / "corpus" / "tangent", corpus / "tangent")
    monkeypatch.setenv("BASM_CORPUS_DIR", str(corpus))
    bad = {"--init": corpus / "tangent" / "init" / "bin.state",
           "corpus --init": corpus / "tangent" / "init" / "bin.state",
           "corpus --script": corpus / "tangent" / "scripts" / "bin.jsonl"}.get(
        where, tmp_path / "bin.jsonl")
    bad.write_bytes(NOT_UTF8)
    program = ["--program", str(REPO / TANGENT)]
    argv = {"--init": ["run", *program, "--init", str(bad)],
            "replay --trace": ["replay", *program, "--trace", str(bad)],
            "--script": ["run", *program, "--init", str(REPO / TANGENT_INIT), "--script", str(bad)],
            "corpus --init": ["corpus", "tangent", "--init", bad.name],
            "corpus --script": ["corpus", "tangent", "--script", bad.name]}[where]
    r = cli(*argv)
    assert (r.returncode, r.stderr) == \
        (2, f"error[parse]: {bad}: not UTF-8 text (invalid start byte at byte 0)\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "bexp", *EUCLID_RUN, "--trials", "-5"],
     "argument --trials: expected an integer, 0 or more, got '-5'"),
    (["check", "replay", *EUCLID_RUN, "--trials", "-1"],
     "argument --trials: expected an integer, 0 or more, got '-1'"),
    (["run", *EUCLID_RUN, "--max-steps", "-2"],
     "argument --max-steps: expected an integer, 0 or more, got '-2'"),
    (["corpus", "euclid", "--max-steps", "-2"],
     "argument --max-steps: expected an integer, 0 or more, got '-2'"),
    (["run", *EUCLID_RUN, "--max-steps", "x"],
     "argument --max-steps: expected an integer, 0 or more, got 'x'"),
    (["run", *EUCLID_RUN, "--choice", "2"], "argument --choice: invalid choice: 2 (choose from 0, 1)"),
    (["check", "equiv", *EUCLID_RUN, "--other", str(REPO / EUCLID), "--choice", "-1"],
     "argument --choice: invalid choice: -1 (choose from 0, 1)"),
    (["corpus", "tangent", "--choice", "2"], "argument --choice: invalid choice: 2 (choose from 0, 1)"),
])
def test_an_out_of_range_number_is_a_usage_error(argv, message):
    r = cli(*argv)
    assert r.returncode == 2
    assert message in r.stderr


def test_zero_trials_and_zero_steps_stay_legal():
    r = cli("check", "bexp", *EUCLID_RUN, "--trials", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["trials"] == 0
    r = cli("run", *EUCLID_RUN, "--max-steps", "0")
    assert r.returncode == 3
    assert "steps: 0" in r.stdout


def test_a_negative_step_budget_in_the_environment_exits_1(monkeypatch):
    monkeypatch.setenv("ASM_MAX_STEPS", "-2")
    r = cli("run", *EUCLID_RUN)
    assert (r.returncode, r.stdout, r.stderr) == \
        (1, "", "error[corpus]: ASM_MAX_STEPS is not an integer of 0 or more: '-2'\n")


ONE_PICK = """\
vocab {
  var x : Integer
  oracle R(Integer, Integer) : Integer
}
do until x > 0 { x := R(1, 5) }
"""


def _damaged_one_pick_trace(tmp_path, damage):
    """The path of a recorded one-pick trace whose rows `damage` rewrites,
    and its program's path."""
    program, init = _files(tmp_path, ONE_PICK, "x := 0\n")
    trace = tmp_path / "t.jsonl"
    assert cli("run", "--program", program, "--init", init, "--seed", "1",
               "--trace", str(trace)).returncode == 0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows[1]["interactions"][0]["args"] == ["1", "5"]
    damage(rows)
    trace.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return program, str(trace)


@pytest.mark.parametrize("args", ["15", {"1": "a", "5": "b"}], ids=["string", "object"])
def test_interaction_args_that_are_no_list_exit_2(tmp_path, args):
    def retype(rows):
        rows[1]["interactions"][0]["args"] = args
    program, trace = _damaged_one_pick_trace(tmp_path, retype)
    r = cli("replay", "--program", program, "--trace", trace)
    assert (r.returncode, r.stderr) == (2, "error[parse]: bad trace line: an interaction's args "
                                           "must be a list (line 2, column 1)\n")


@pytest.mark.parametrize("fields", [{"outcome": "error"}, {"outcome": "error", "error": 5},
                                    {"outcome": "halted", "error": "clash"}],
                         ids=["error-without-kind", "error-kind-a-number", "halted-with-kind"])
def test_an_outcome_row_with_a_malformed_error_field_exits_2(tmp_path, fields):
    def rewrite(rows):
        rows[-1] = {**fields, "finalState": rows[-1]["finalState"]}
    program, trace = _damaged_one_pick_trace(tmp_path, rewrite)
    r = cli("replay", "--program", program, "--trace", trace)
    assert (r.returncode, r.stderr) == (2, (
        "error[parse]: bad trace line: expected an error kind string exactly when the outcome "
        "is error (line 3, column 1)\n"))


def test_a_failing_iso_check_names_the_step_and_field(tmp_path):
    program, init = _files(tmp_path, "vocab {\n  enum Node { u, v }\n  var cur : Node\n}\n"
                           "do until false { cur := u }\n", "cur := u\n")
    r = cli("check", "iso", "--program", program, "--init", init)
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"check": "iso", "trials": 2, "failures": [
        "under {'Node': {'u': 'v', 'v': 'u'}}: step 0 updates: {cur:=v} vs {cur:=u}"]}


def test_replay_refuses_an_outcome_with_an_unknown_error_kind(tmp_path):
    """An error kind outside `errors.KINDS` is a bad trace line (exit 2), not
    a replay mismatch."""
    lines = (REPO / "corpus" / "euclid" / "golden" / "a12b8.jsonl").read_text().splitlines()
    final = json.loads(lines[-1])["finalState"]
    lines[-1] = json.dumps({"outcome": "error", "error": "no-such-kind", "finalState": final})
    trace = tmp_path / "t.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    r = cli("replay", "--program", EUCLID, "--trace", str(trace))
    assert (r.returncode, r.stderr) == (2, "error[parse]: bad trace line: unknown error kind "
                                           f"'no-such-kind' (line {len(lines)}, column 1)\n")


def _pick_fields(rows):
    """The one-pick trace's answer, as text, and a different value."""
    answer = rows[1]["interactions"][0]["answer"]
    return answer, str(int(answer) % 5 + 1)


def _rewrite_update(rows):
    rows[1]["updates"][0]["value"] = _pick_fields(rows)[1]


def _clear_halted(rows):
    rows[1]["halted"] = False


def _limit_outcome(rows):
    rows[-1]["outcome"] = "step-limit"


def _rewrite_final_state(rows):
    rows[-1]["finalState"]["x"] = _pick_fields(rows)[1]


# Each rewrites a recorded one-pick trace so that its replay first parts from
# the rerun at one field, and gives the divergence text, from the trace's
# answer `a` and the other value `b`.
REPLAY_DIVERGENCES = {
    "updates": (_rewrite_update, "step 0 updates: {{x:={b}}} vs {{x:={a}}}"),
    "halted_after": (_clear_halted, "step 0 halted_after: False vs True"),
    "outcome": (_limit_outcome, "outcome: Outcome(kind='step-limit', error=None, detail=None) "
                                "after 1 steps vs Outcome(kind='halted', error=None, "
                                "detail=None) after 1 steps"),
    "final-state": (_rewrite_final_state, "final-state: {{x={b}}} vs {{x={a}}}"),
}


@pytest.mark.parametrize("field", REPLAY_DIVERGENCES)
def test_replay_names_the_field_it_parts_at(tmp_path, field):
    damage, text = REPLAY_DIVERGENCES[field]
    program, trace = _damaged_one_pick_trace(tmp_path, damage)
    a, b = _pick_fields([json.loads(line) for line in Path(trace).read_text().splitlines()])
    r = cli("replay", "--program", program, "--trace", trace)
    assert (r.returncode, r.stdout, r.stderr) == \
        (1, "", f"replay: mismatch: {text.format(a=a, b=b)}\n")


def test_replay_names_the_interactions_of_a_refused_query(tmp_path):
    """The rerun asks `R(5, 1)` where the trace recorded `R(5, 2)`: the script
    refuses it, and both failing steps keep no updates."""
    program, init = _files(tmp_path, REFUSING, "x := 0\n")
    trace = tmp_path / "e.jsonl"
    assert cli("run", "--program", program, "--init", init, "--trace", str(trace)).returncode == 1
    trace.write_text(trace.read_text().replace('"args": ["5", "1"]', '"args": ["5", "2"]'))
    r = cli("replay", "--program", program, "--trace", str(trace))
    assert (r.returncode, r.stderr) == (1, (
        "replay: mismatch: step 0 interactions: (Interaction(oracle='R', args=(5, 2), "
        "answer=Refused(kind='oracle-domain')),) vs (Interaction(oracle='R', args=(5, 1), "
        "answer=Refused(kind='script')),)\n"))


def test_check_replay_reports_the_divergence(monkeypatch):
    """A run whose trace claims a final binding the steps never wrote."""
    def run_claiming_more(program, init, policy, max_steps=None):
        trace = semantics.run(program, init, policy, max_steps)
        trace.final_state.store[("d", ())] = 5
        return trace

    monkeypatch.setattr(cli_module, "run", run_claiming_more)
    r = cli("check", "replay", *EUCLID_RUN, "--trials", "1")
    assert r.returncode == 1
    assert json.loads(r.stdout)["failures"] == \
        ["trial 0: replay diverged: final-state: {d=5} vs {d=4}"]


def test_check_equiv_reports_the_divergence():
    r = cli("check", "equiv", *EUCLID_RUN,
            "--other", str(REPO / "corpus" / "euclid_while" / "program.basm"))
    assert r.returncode == 1
    assert json.loads(r.stdout)["failures"] == [
        f"{REPO / EUCLID} and {REPO / 'corpus/euclid_while/program.basm'} are not step "
        "equivalent: step 1 halted_after: False vs True"]
