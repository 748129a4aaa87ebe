"""Command-line front end.

    basm run --program P.basm --init S.state [--trace out.jsonl] ...
    basm replay --program P.basm --trace out.jsonl
    basm check {replay,bexp,iso,equiv} ...
    basm corpus [list | NAME] [--set var=value ...] ...

Exit codes: 0 run halted / check passed, 1 runtime error or failed check,
2 parse, usage or io error, 3 step limit reached. ASM_MAX_STEPS sets the default
step budget; --max-steps overrides it per invocation.
"""
from __future__ import annotations

import argparse
import inspect
import sys
from typing import Callable, Optional, TextIO

from .checks import (
    CheckReport,
    check_bounded_exploration,
    check_iso_invariance,
    enum_bijections,
    equivalence_divergence,
    junk_state_sampler,
)
from .corpus import ENTRIES, corpus_run, entry_dir
from .errors import BasmError, ParseError, read_text
from .literals import load_state, state_bindings
from .oracles import UniformRandomPolicy, choose_policy
from .semantics import Trace, replay_divergence, run
from .syntax import Program, parse_program
from .traceio import load_script, read_trace, write_trace


def _load_program(path: str, oracle_statics) -> Program:
    return parse_program(read_text(path), oracle_statics=tuple(oracle_statics or ()))


def _load_init(path: str, program: Program):
    return load_state(read_text(path), program.vocabulary, source=path)


def _program_and_init(args):
    program = _load_program(args.program, args.oracle_static)
    return program, _load_init(args.init, program)


def _build_policy(args, program: Program):
    def script():
        lines = read_text(args.script).splitlines()
        return load_script(lines, program.vocabulary, mode=args.script_mode)

    return choose_policy(args.policy, args.seed, args.choice,
                         None if args.script is None else script)


def _stdout(write: Callable[[TextIO], object]) -> None:
    """`write(sys.stdout)`, flushed, so that a closed pipe fails here and not
    at exit; a failed write names the stream `<stdout>`, as a file's names
    the file."""
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as e:
        raise OSError(e.errno, e.strerror, "<stdout>") from None


def _say(text: str) -> None:
    _stdout(lambda out: out.write(text + "\n"))


def _emit_trace(trace: Trace, dest: Optional[str]):
    if dest is None:
        return False
    if dest == "-":
        _stdout(lambda out: write_trace(trace, out))
        return True
    try:
        with open(dest, "w") as fp:
            write_trace(trace, fp)
    except OSError as e:  # a failed write names no file of its own
        raise OSError(e.errno, e.strerror, dest) from None
    return False


def _report_outcome(trace: Trace, quiet: bool) -> int:
    out = trace.outcome
    if out.kind == "error":
        print(f"error[{out.error}]: {out.detail}", file=sys.stderr)
        return 1
    if not quiet:
        lines = [f"outcome: {out.kind}", f"steps: {len(trace.steps)}"]
        lines += (f"  {loc} = {value}" for loc, value in state_bindings(trace.final_state).items())
        _say("\n".join(lines))
    return 0 if out.kind == "halted" else 3


def _count(text: str) -> int:
    """The value of an option that counts steps or trials: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer, 0 or more, got {text!r}")
    return value


# Every option of `run`, `check` and `corpus`, by flag; each command takes the
# ones it reads.
_OPTIONS = {
    "--init": dict(required=True, help="initial state file"),
    "--policy": dict(choices=["builtin", "uniform", "scripted", "interactive"]),
    "--seed": dict(type=int, default=None, help="seed for the uniform policy"),
    "--choice": dict(type=int, choices=(0, 1), default=None,
                     help="intersection pick for the builtin policy (0 or 1)"),
    "--script": dict(help="oracle script file (trace or script JSONL)"),
    "--script-mode": dict(choices=["strict", "by-symbol"], default="strict"),
    "--max-steps": dict(type=_count, default=None),
    "--oracle-static": dict(action="append", default=[], metavar="NAME",
                            help="treat this builtin static (e.g. mod) as an oracle"),
    "--trials": dict(type=_count, default=100),
    "--other": dict(required=True, help="second program for equiv"),
}
_RUN_OPTIONS = ("--init", "--policy", "--seed", "--choice", "--script", "--script-mode",
                "--max-steps", "--oracle-static")


def _add_options(p: argparse.ArgumentParser, flags):
    p.add_argument("--program", required=True)
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])


def _cmd_run(args) -> int:
    program, init = _program_and_init(args)
    policy = _build_policy(args, program)
    trace = run(program, init, policy, max_steps=args.max_steps)
    to_stdout = _emit_trace(trace, args.trace)
    return _report_outcome(trace, quiet=to_stdout)


def _cmd_replay(args) -> int:
    program = _load_program(args.program, args.oracle_static)
    lines = read_text(args.trace).splitlines()
    trace = read_trace(lines, program)
    differs = replay_divergence(trace, program)
    if differs is None:
        _say("replay: ok")
        return 0
    print(f"replay: mismatch: {differs}", file=sys.stderr)
    return 1


def _print_report(report: CheckReport) -> int:
    _say(report.to_json())
    return 0 if report.passed else 1


def _check_bexp(args) -> int:
    program, init = _program_and_init(args)
    sampler = junk_state_sampler(program, init)
    return _print_report(check_bounded_exploration(program, sampler, args.trials, args.seed or 0))


def _check_iso(args) -> int:
    program, init = _program_and_init(args)
    answers = []
    if args.script:
        policy = load_script(read_text(args.script).splitlines(),
                             program.vocabulary, mode="by-symbol")
        answers = [e.answer for e in policy.entries]
    failures: list = []
    count = 0
    for bijection in enum_bijections(program.vocabulary):
        report = check_iso_invariance(program, init, bijection, answers)
        count += report.trials
        failures.extend(report.failures)
    return _print_report(CheckReport("iso", count, failures))


def _check_replay(args) -> int:
    program, init = _program_and_init(args)
    failures = []
    base = args.seed or 0
    for trial in range(args.trials):
        trace = run(program, init, UniformRandomPolicy(base + trial), max_steps=args.max_steps)
        differs = replay_divergence(trace, program)
        if differs is not None:
            failures.append(f"trial {trial}: replay diverged: {differs}")
    return _print_report(CheckReport("replay", args.trials, failures))


def _check_equiv(args) -> int:
    program = _load_program(args.program, args.oracle_static)
    other = _load_program(args.other, args.oracle_static)
    # Compared first: `--init` is read under each program's vocabulary.
    if program.vocabulary != other.vocabulary:
        raise BasmError("vocab",
                        f"{args.program} and {args.other} are over different vocabularies")
    init = _load_init(args.init, program)
    trace_a = run(program, init, _build_policy(args, program), max_steps=args.max_steps)
    trace_b = run(other, _load_init(args.init, other),
                  _build_policy(args, other), max_steps=args.max_steps)
    differs = equivalence_divergence(trace_a, trace_b)
    failures = [] if differs is None else [
        f"{args.program} and {args.other} are not step equivalent: {differs}"]
    return _print_report(CheckReport("equiv", 1, failures))


# Each check kind, its command and the options it reads.
_CHECKS = {
    "replay": (_check_replay, ("--init", "--oracle-static", "--trials", "--seed", "--max-steps")),
    "bexp": (_check_bexp, ("--init", "--oracle-static", "--trials", "--seed")),
    "iso": (_check_iso, ("--init", "--oracle-static", "--script")),
    "equiv": (_check_equiv, _RUN_OPTIONS + ("--other",)),
}


# The names `corpus_run` binds itself, so that no `--set` override can use them.
_RUN_PARAMETERS = frozenset(
    name for name, p in inspect.signature(corpus_run).parameters.items() if p.kind != p.VAR_KEYWORD
)


def _cmd_corpus(args) -> int:
    if args.name in (None, "list"):
        for name in sorted(ENTRIES):
            entry = ENTRIES[name]
            inits = ", ".join(entry.init_files)
            _say(f"{name}: init [{inits}] policy {entry.policy}")
        return 0
    bindings = {}
    for item in args.set or []:
        if "=" not in item:
            raise BasmError("corpus", f"--set expects var=value, got {item!r}")
        var, _, value = item.partition("=")
        var = var.strip()
        if var in _RUN_PARAMETERS:  # `corpus_run` would take it for its own parameter
            entry_dir(args.name)  # an unknown entry is reported as such
            raise BasmError("corpus", f"{args.name} has no variable named {var}")
        bindings[var] = value.strip()
    trace = corpus_run(
        args.name,
        init_file=args.init,
        seed=args.seed,
        choice=args.choice,
        script=args.script,
        max_steps=args.max_steps,
        **bindings,
    )
    to_stdout = _emit_trace(trace, args.trace)
    return _report_outcome(trace, quiet=to_stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basm",
        description="Run and check abstract state machine programs with oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a program from an initial state")
    _add_options(p_run, _RUN_OPTIONS)
    p_run.add_argument("--trace", help="write trace JSONL here ('-' for stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser("replay", help="verify a recorded trace reproduces")
    p_replay.add_argument("--program", required=True)
    p_replay.add_argument("--trace", required=True)
    p_replay.add_argument("--oracle-static", **_OPTIONS["--oracle-static"])
    p_replay.set_defaults(func=_cmd_replay)

    p_check = sub.add_parser("check", help="run a property check, JSON report on stdout")
    kinds = p_check.add_subparsers(dest="kind", required=True)
    for kind, (func, flags) in _CHECKS.items():
        p_kind = kinds.add_parser(kind)
        _add_options(p_kind, flags)
        p_kind.set_defaults(func=func)

    p_corpus = sub.add_parser("corpus", help="run a bundled example")
    p_corpus.add_argument("name", nargs="?", help="entry name, or 'list'")
    p_corpus.add_argument("--init", help="initial state file name within the entry")
    p_corpus.add_argument("--script", help="script file name within the entry")
    for flag in ("--seed", "--choice", "--max-steps"):
        p_corpus.add_argument(flag, **_OPTIONS[flag])
    p_corpus.add_argument("--set", action="append", metavar="VAR=VALUE",
                          help="override an initial-state variable")
    p_corpus.add_argument("--trace", help="write trace JSONL here ('-' for stdout)")
    p_corpus.set_defaults(func=_cmd_corpus)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error[{e.kind}]: {e.message}", file=sys.stderr)
        return 2
    except BasmError as e:
        print(f"error[{e.kind}]: {e.message}", file=sys.stderr)
        return 1
    except OSError as e:  # a file that cannot be opened, read or written
        where = f"{e.filename}: {e.strerror}" if e.filename and e.strerror else e
        print(f"error[io]: {where}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
