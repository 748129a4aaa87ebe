"""End-to-end command line runs in a subprocess, including exit codes."""
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from basm import cli as cli_module, semantics
from basm.cli import main
from basm.syntax import MAX_NESTING

REPO = Path(__file__).resolve().parents[1]

EUCLID = "corpus/euclid/program.basm"
EUCLID_INIT = "corpus/euclid/init/a12b8.state"
PRIMALITY = "corpus/primality/program.basm"
PRIMALITY_INIT = "corpus/primality/init/n15k2.state"
TANGENT = "corpus/tangent/program.basm"
TANGENT_INIT = "corpus/tangent/init/default.state"
TANGENT_INIT_TEXT = (REPO / TANGENT_INIT).read_text()

CLASHING = """\
vocab {
  var x : Integer
}
do until x = 3 {
  par { x := 1 ; x := 2 }
}
"""


def cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "basm", *args],
        capture_output=True, text=True, input=stdin, cwd=REPO,
    )


def test_run_euclid():
    r = cli("run", "--program", EUCLID, "--init", EUCLID_INIT)
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
    trace.write_text(
        trace.read_text().replace('{"loc": "d", "value": "4"}',
                                  '{"loc": "d", "value": "5"}')
    )
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


def _initial_state_as_list(lines: list[str]) -> int:
    obj = json.loads(lines[0])
    obj["initialState"] = []
    lines[0] = json.dumps(obj)
    return 1


def _set_step_field(label: str, row: int, name: str, value):
    """A damage that sets one field of step row `row` (line `row + 1`)."""
    def damage(lines: list[str]) -> int:
        obj = json.loads(lines[row])
        obj[name] = value
        lines[row] = json.dumps(obj)
        return row + 1

    damage.__name__ = label
    return damage


def _unknown_outcome(lines: list[str]) -> int:
    obj = json.loads(lines[-1])
    obj["outcome"] = "finished"
    lines[-1] = json.dumps(obj)
    return len(lines)


@pytest.mark.parametrize("damage", [
    _truncate_line, _drop_halted, _number_valued_update, _initial_state_as_list,
    _set_step_field("_halted_as_0", 1, "halted", 0),
    _set_step_field("_halted_as_string", 2, "halted", "false"),
    _set_step_field("_index_of_the_next_step", 1, "index", 1),
    _set_step_field("_index_as_true", 2, "index", True),
    _set_step_field("_index_as_float", 2, "index", 1.0),
    _unknown_outcome,
])
def test_malformed_trace_step_line_exits_2(tmp_path, damage):
    trace = tmp_path / "t.jsonl"
    cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--trace", str(trace))
    lines = trace.read_text().splitlines()
    lineno = damage(lines)
    trace.write_text("\n".join(lines) + "\n")
    r = cli("replay", "--program", EUCLID, "--trace", str(trace))
    assert r.returncode == 2
    assert "error[parse]: bad trace line" in r.stderr
    assert f"(line {lineno}, column 1)" in r.stderr
    assert "Traceback" not in r.stderr


def test_number_valued_script_line_exits_2(tmp_path):
    script = tmp_path / "s.jsonl"
    script.write_text('{"oracle": "Random", "args": [2, 13], "answer": 4}\n')
    r = cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--script", str(script))
    assert r.returncode == 2
    assert "error[parse]: bad script line" in r.stderr
    assert "(line 1, column 1)" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("row", ['"programId"', '"my outcome"', '["programId"]'])
def test_a_script_row_that_is_no_json_object_exits_2(tmp_path, row):
    script = tmp_path / "s.jsonl"
    script.write_text(row + "\n")
    r = cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT, "--script", str(script))
    assert r.returncode == 2
    assert "error[parse]: bad script line: expected a JSON object (line 1, column 1)" in r.stderr
    assert "Traceback" not in r.stderr


def test_seeded_runs_are_byte_identical(tmp_path):
    files = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for f in files:
        r = cli("run", "--program", PRIMALITY, "--init", PRIMALITY_INIT,
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


@pytest.mark.parametrize("bindings", [("x := undef", "x := 0"), ("x := 0", "x := undef")],
                         ids=["undef-first", "undef-last"])
def test_repeated_binding_exits_2_in_either_order(tmp_path, bindings):
    src = tmp_path / "p.basm"
    src.write_text("vocab {\n  var x : Integer\n}\ndo until x = 3 {\n  x := x + 1\n}\n")
    init = tmp_path / "init.state"
    init.write_text("\n".join(bindings) + "\n")
    r = cli("run", "--program", str(src), "--init", str(init))
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
    src = tmp_path / "p.basm"
    src.write_text(f"vocab {{\n  var x : Integer\n}}\ndo until x > 0 {{\n  x := {in_program}\n}}\n")
    init = tmp_path / "init.state"
    init.write_text(f"x := {in_state}\n")
    r = cli("run", "--program", str(src), "--init", str(init))
    assert r.returncode == 2
    assert "error[parse]" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("term", ["²", "point(², 0.0)", "point(0.0, 1²)"],
                         ids=["alone", "point-x", "after-a-digit"])
def test_a_superscript_digit_in_a_program_exits_2(tmp_path, term):
    src = tmp_path / "p.basm"
    src.write_text(f"vocab {{\n  var x : Integer\n}}\ndo until x > 0 {{\n  x := {term}\n}}\n")
    init = tmp_path / "init.state"
    init.write_text("x := 0\n")
    r = cli("run", "--program", str(src), "--init", str(init))
    assert r.returncode == 2
    assert "error[parse]: unexpected character '²'" in r.stderr
    assert "Traceback" not in r.stderr


def test_a_non_ascii_name_exits_2(tmp_path):
    src = tmp_path / "p.basm"
    src.write_text("vocab { var é : Integer }\ndo until é = 1 { é := 1 }\n")
    init = tmp_path / "init.state"
    init.write_text("")
    r = cli("run", "--program", str(src), "--init", str(init))
    assert r.returncode == 2
    assert "error[parse]: unexpected character 'é'" in r.stderr
    assert "Traceback" not in r.stderr


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
    assert r.returncode == 2
    assert "error[parse]: " in r.stderr and "float range" in r.stderr
    assert "Traceback" not in r.stderr
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
    src = tmp_path / "p.basm"
    src.write_text(
        "vocab {\n  var x : Integer\n  var n : Integer\n}\n"
        f"do until n = {squarings} {{\n  par {{ x := x * x ; n := n + 1 }}\n}}\n"
    )
    init = tmp_path / "init.state"
    init.write_text("x := 2\nn := 0\n")
    trace = tmp_path / "t.jsonl"
    r = cli("run", "--program", str(src), "--init", str(init), "--trace", str(trace))
    assert r.returncode == code and "Traceback" not in r.stderr
    if code:
        assert "error[arith]: integer result of more than 640 digits" in r.stderr
    r = cli("replay", "--program", str(src), "--trace", str(trace))
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
    r = cli("run", "--program", EUCLID, "--init", EUCLID_INIT, "--max-steps", "1")
    assert r.returncode == 3
    assert "outcome: step-limit" in r.stdout


def test_clash_exits_1(tmp_path):
    src = tmp_path / "clash.basm"
    src.write_text(CLASHING)
    init = tmp_path / "init.basm"
    init.write_text("x := 0\n")
    r = cli("run", "--program", str(src), "--init", str(init))
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
def test_check_iso_takes_a_golden_trace_as_its_script(entry, golden, bijections, capsys):
    """Run in-process; the golden's answers are replayed by symbol."""
    d = REPO / "corpus" / entry
    code = main(["check", "iso", "--program", str(d / "program.basm"),
                 "--init", str(d / "init" / "default.state"),
                 "--script", str(d / "golden" / golden)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "check": "iso", "trials": bijections, "failures": []}


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
def test_a_check_kind_rejects_an_option_it_does_not_read(kind, unread, capsys):
    """Run in-process; argparse ends a usage error with exit 2."""
    with pytest.raises(SystemExit) as e:
        main(["check", kind, "--program", str(REPO / EUCLID),
              "--init", str(REPO / EUCLID_INIT), *unread])
    assert e.value.code == 2
    assert f"unrecognized arguments: {unread[-2]}" in capsys.readouterr().err


def test_check_equiv_without_other_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["check", "equiv", "--program", str(REPO / EUCLID),
              "--init", str(REPO / EUCLID_INIT)])
    assert e.value.code == 2
    assert "--other" in capsys.readouterr().err


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


def test_a_trace_with_equality_as_an_oracle_reads_back_and_replays(tmp_path, capsys):
    """Run in-process. The `=` queries take enum members and points, whose
    sort the trace reader infers from the literal text."""
    program, init, trace = tmp_path / "p.basm", tmp_path / "init.state", tmp_path / "t.jsonl"
    program.write_text(EQUALITY_QUERIES)
    init.write_text("cur := u\nhere := point(0.5, -1.0)\nhops := 0\n")
    common = ["--program", str(program), "--oracle-static", "="]
    assert main(["run", *common, "--init", str(init), "--trace", str(trace)]) == 0
    text = trace.read_text()
    assert '{"oracle": "=", "args": ["v", "u"], "answer": "false"}' in text
    assert '"args": ["point(0.5,-1.0)", "point(0.5,-1.0)"], "answer": "true"' in text
    assert main(["replay", *common, "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.endswith("replay: ok\n")


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
    return ("vocab {\n  var x : Integer\n}\ndo until x > 0 {\n  x := "
            + "x + (" * levels + "1" + ")" * levels + "\n}\n")


def _chain(terms: int) -> str:
    return " + ".join(["1"] * terms)


@pytest.mark.parametrize("text", [_nested_program(MAX_NESTING + 1),
                                  _nested_program(0).replace("1", "(" * 80 + "1" + ")" * 80),
                                  _nested_program(0).replace("1", _chain(3000)),
                                  _nested_program(0).replace(
                                      "1", " + ".join([f"({_chain(30)})"] * 30))],
                         ids=["one level past the bound", "80 parentheses",
                              "3000-term operator chain", "chain of parenthesised chains"])
def test_nesting_past_the_bound_exits_2(tmp_path, text):
    src = tmp_path / "deep.basm"
    src.write_text(text)
    r = cli("run", "--program", str(src), "--init", EUCLID_INIT)
    assert r.returncode == 2
    assert f"error[parse]: nested deeper than {MAX_NESTING} levels" in r.stderr
    assert "Traceback" not in r.stderr


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
    assert cli("bogus").returncode == 2


REFUSING = """\
vocab {
  var x : Integer
  oracle R(Integer, Integer) : Integer
}
do until x > 5 { x := R(5, 1) }
"""


def _refusing(tmp_path, query="R(5, 1)"):
    program, init = tmp_path / "r.basm", tmp_path / "r.state"
    program.write_text(REFUSING.replace("R(5, 1)", query))
    init.write_text("x := 0\n")
    return str(program), str(init)


@pytest.mark.parametrize("query, flags, message", [
    ("R(5, 1)", [], "empty segment [5, 1]"),
    (f"R(0, {10**23})", ["--seed", "3"], f"segment [0, {10**23}] is wider than 2^64"),
])
def test_the_trace_of_a_refused_query_replays(tmp_path, capsys, query, flags, message):
    program, init = _refusing(tmp_path, query)
    trace = tmp_path / "e.jsonl"
    assert main(["run", "--program", program, "--init", init, "--trace", str(trace), *flags]) == 1
    assert capsys.readouterr().err == f"error[oracle-domain]: {message}\n"
    assert '"refused": "oracle-domain"' in trace.read_text()
    assert main(["replay", "--program", program, "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "replay: ok\n"


def test_check_replay_passes_on_a_refused_query(tmp_path, capsys):
    program, init = _refusing(tmp_path, f"R(0, {10**23})")
    assert main(["check", "replay", "--program", program, "--init", init,
                 "--seed", "3", "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []


def test_an_interactive_run_whose_input_closes_replays(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    trace = tmp_path / "i.jsonl"
    assert main(["run", "--program", str(REPO / TANGENT), "--init", str(REPO / TANGENT_INIT),
                 "--policy", "interactive", "--trace", str(trace)]) == 1
    assert "error[aborted]: oracle input closed at I(" in capsys.readouterr().err
    assert '"refused": "aborted"' in trace.read_text()
    assert main(["replay", "--program", str(REPO / TANGENT), "--trace", str(trace)]) == 0


NOT_UTF8 = b"\xff\xfe\x00bad"


def test_a_program_that_is_not_utf8_exits_2_without_a_traceback(tmp_path):
    program = tmp_path / "bin.basm"
    program.write_bytes(NOT_UTF8)
    r = cli("run", "--program", str(program), "--init", EUCLID_INIT)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr == f"error[parse]: {program}: not UTF-8 text (invalid start byte at byte 0)\n"


@pytest.mark.parametrize("where", ["--init", "replay --trace", "--script", "corpus --init",
                                   "corpus --script"])
def test_an_input_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, monkeypatch, where):
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
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error[parse]: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"


EUCLID_RUN = ["--program", str(REPO / EUCLID), "--init", str(REPO / EUCLID_INIT)]


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
def test_an_out_of_range_number_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert message in capsys.readouterr().err


def test_zero_trials_and_zero_steps_stay_legal(capsys):
    assert main(["check", "bexp", *EUCLID_RUN, "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 0
    assert main(["run", *EUCLID_RUN, "--max-steps", "0"]) == 3
    assert "steps: 0" in capsys.readouterr().out


def test_a_negative_step_budget_in_the_environment_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("ASM_MAX_STEPS", "-2")
    assert main(["run", *EUCLID_RUN]) == 1
    assert capsys.readouterr() == \
        ("", "error[corpus]: ASM_MAX_STEPS is not an integer of 0 or more: '-2'\n")


ONE_PICK = """\
vocab {
  var x : Integer
  oracle R(Integer, Integer) : Integer
}
do until x > 0 { x := R(1, 5) }
"""


def _damaged_one_pick_trace(tmp_path, capsys, damage):
    """The path of a recorded one-pick trace whose rows `damage` rewrites,
    and its program's path."""
    program, init, trace = tmp_path / "p.basm", tmp_path / "p.state", tmp_path / "t.jsonl"
    program.write_text(ONE_PICK)
    init.write_text("x := 0\n")
    assert main(["run", "--program", str(program), "--init", str(init), "--seed", "1",
                 "--trace", str(trace)]) == 0
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows[1]["interactions"][0]["args"] == ["1", "5"]
    damage(rows)
    trace.write_text("".join(json.dumps(row) + "\n" for row in rows))
    capsys.readouterr()
    return str(program), str(trace)


@pytest.mark.parametrize("args", ["15", {"1": "a", "5": "b"}], ids=["string", "object"])
def test_interaction_args_that_are_no_list_exit_2(tmp_path, capsys, args):
    def retype(rows):
        rows[1]["interactions"][0]["args"] = args
    program, trace = _damaged_one_pick_trace(tmp_path, capsys, retype)
    assert main(["replay", "--program", program, "--trace", trace]) == 2
    assert capsys.readouterr().err == \
        "error[parse]: bad trace line: an interaction's args must be a list (line 2, column 1)\n"


@pytest.mark.parametrize("fields", [{"outcome": "error"}, {"outcome": "error", "error": 5},
                                    {"outcome": "halted", "error": "clash"}],
                         ids=["error-without-kind", "error-kind-a-number", "halted-with-kind"])
def test_an_outcome_row_with_a_malformed_error_field_exits_2(tmp_path, capsys, fields):
    def rewrite(rows):
        rows[-1] = {**fields, "finalState": rows[-1]["finalState"]}
    program, trace = _damaged_one_pick_trace(tmp_path, capsys, rewrite)
    assert main(["replay", "--program", program, "--trace", trace]) == 2
    assert capsys.readouterr().err == (
        "error[parse]: bad trace line: expected an error kind string exactly when the outcome "
        "is error (line 3, column 1)\n")


def test_a_failing_iso_check_names_the_step_and_field(tmp_path, capsys):
    program, init = tmp_path / "n.basm", tmp_path / "n.state"
    program.write_text("vocab {\n  enum Node { u, v }\n  var cur : Node\n}\n"
                       "do until false { cur := u }\n")
    init.write_text("cur := u\n")
    assert main(["check", "iso", "--program", str(program), "--init", str(init)]) == 1
    failures = json.loads(capsys.readouterr().out)["failures"]
    assert failures == \
        ["under {'Node': {'u': 'v', 'v': 'u'}}: step 0 updates: {cur:=v} vs {cur:=u}"]


def test_replay_refuses_an_outcome_with_an_unknown_error_kind(tmp_path, capsys):
    """Run in-process: an error kind outside `errors.KINDS` is a bad trace
    line (exit 2), not a replay mismatch."""
    lines = (REPO / "corpus" / "euclid" / "golden" / "a12b8.jsonl").read_text().splitlines()
    final = json.loads(lines[-1])["finalState"]
    lines[-1] = json.dumps({"outcome": "error", "error": "no-such-kind", "finalState": final})
    trace = tmp_path / "t.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--program", str(REPO / EUCLID), "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == \
        f"error[parse]: bad trace line: unknown error kind 'no-such-kind' (line {len(lines)}, column 1)\n"


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
def test_replay_names_the_field_it_parts_at(tmp_path, capsys, field):
    damage, text = REPLAY_DIVERGENCES[field]
    program, trace = _damaged_one_pick_trace(tmp_path, capsys, damage)
    a, b = _pick_fields([json.loads(line) for line in Path(trace).read_text().splitlines()])
    assert main(["replay", "--program", program, "--trace", trace]) == 1
    assert capsys.readouterr() == ("", f"replay: mismatch: {text.format(a=a, b=b)}\n")


def test_replay_names_the_interactions_of_a_refused_query(tmp_path, capsys):
    """The rerun asks `R(5, 1)` where the trace recorded `R(5, 2)`: the script
    refuses it, and both failing steps keep no updates."""
    program, init = _refusing(tmp_path)
    trace = tmp_path / "e.jsonl"
    assert main(["run", "--program", program, "--init", init, "--trace", str(trace)]) == 1
    trace.write_text(trace.read_text().replace('"args": ["5", "1"]', '"args": ["5", "2"]'))
    capsys.readouterr()
    assert main(["replay", "--program", program, "--trace", str(trace)]) == 1
    assert capsys.readouterr().err == (
        "replay: mismatch: step 0 interactions: (Interaction(oracle='R', args=(5, 2), "
        "answer=Refused(kind='oracle-domain')),) vs (Interaction(oracle='R', args=(5, 1), "
        "answer=Refused(kind='script')),)\n")


def test_check_replay_reports_the_divergence(capsys, monkeypatch):
    """A run whose trace claims a final binding the steps never wrote."""
    def run_claiming_more(program, init, policy, max_steps=None):
        trace = semantics.run(program, init, policy, max_steps)
        trace.final_state.store[("d", ())] = 5
        return trace

    monkeypatch.setattr(cli_module, "run", run_claiming_more)
    assert main(["check", "replay", *EUCLID_RUN, "--trials", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == \
        ["trial 0: replay diverged: final-state: {d=5} vs {d=4}"]


def test_check_equiv_reports_the_divergence(capsys):
    assert main(["check", "equiv", *EUCLID_RUN,
                 "--other", str(REPO / "corpus" / "euclid_while" / "program.basm")]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [
        f"{REPO / EUCLID} and {REPO / 'corpus/euclid_while/program.basm'} are not step "
        "equivalent: step 1 halted_after: False vs True"]
