"""Interpreter and property checks for abstract state machines with oracles.

Programs are small vocab-plus-rule texts (see docs/grammar.md). A step
evaluates every term against the pre-state, asks the oracle policy for any
query answers (cached within the step), and applies the resulting update set
atomically. Traces record each step's updates and interactions and can be
replayed bit for bit.
"""
from .checks import (
    CheckReport,
    behaviorally_equivalent,
    check_bounded_exploration,
    check_iso_invariance,
    enum_bijections,
    exploration_witness,
    junk_state_sampler,
)
from .corpus import ENTRIES, corpus_run, liar_rate, load_entry_program, load_entry_state
from .errors import BasmError, ParseError
from .geometry import Circle, Line, Point
from .literals import load_state, parse_value, render_value, state_bindings
from .oracles import (
    BuiltinPolicy,
    Interaction,
    InteractivePolicy,
    OracleSession,
    ScriptedPolicy,
    SplitMix64,
    UniformRandomPolicy,
)
from .semantics import Outcome, StepRecord, Trace, eval_term, replay, run, step
from .state import (
    Location,
    State,
    UNDEF,
    UpdateSet,
    Vocabulary,
    apply_updates,
    transport,
)
from .syntax import Program, parse_program, parse_term_in, tokenize
from .traceio import load_script, read_trace, render_trace, script_lines, write_trace

__version__ = "0.1.0"

__all__ = [
    "BasmError",
    "BuiltinPolicy",
    "CheckReport",
    "Circle",
    "ENTRIES",
    "Interaction",
    "InteractivePolicy",
    "Line",
    "Location",
    "OracleSession",
    "Outcome",
    "ParseError",
    "Point",
    "Program",
    "ScriptedPolicy",
    "SplitMix64",
    "State",
    "StepRecord",
    "Trace",
    "UNDEF",
    "UniformRandomPolicy",
    "UpdateSet",
    "Vocabulary",
    "apply_updates",
    "behaviorally_equivalent",
    "check_bounded_exploration",
    "check_iso_invariance",
    "corpus_run",
    "enum_bijections",
    "eval_term",
    "exploration_witness",
    "junk_state_sampler",
    "liar_rate",
    "load_entry_program",
    "load_entry_state",
    "load_script",
    "load_state",
    "parse_program",
    "parse_term_in",
    "parse_value",
    "read_trace",
    "render_trace",
    "render_value",
    "replay",
    "run",
    "script_lines",
    "state_bindings",
    "step",
    "transport",
    "write_trace",
]
