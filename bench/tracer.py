"""Layer spans for the traced benchmark run.

`Tracer.install()` replaces each public basm function at every name its
callers resolve (module globals such as `basm.semantics.step` and
`basm.checks.step`, and class attributes such as `OracleSession.ask`) with a
wrapper that records a span, then `Tracer.restore()` puts the originals back.
Nothing under `src/` is edited. Spans are aggregated in memory by name:
calls, total time, and self time (duration minus the time of child spans).

Functions called per value (`render_value`, `parse_value`) and the PRNG only
get counters, not spans, so that tracing does not swamp what it measures.
"""
from __future__ import annotations

import gc
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from basm import (checks, corpus, geometry, literals, oracles, semantics, state,
                  syntax, traceio)

_clock = time.perf_counter

# Span name -> (owner, attribute). Module functions are patched in every basm
# module that binds the same object, so `checks.step` is wrapped as well as
# `semantics.step`.
SPANS = {
    "syntax.parse_program": (syntax, "parse_program"),
    "syntax.tokenize": (syntax, "tokenize"),
    "literals.load_state": (literals, "load_state"),
    "semantics.run": (semantics, "run"),
    "semantics.step": (semantics, "step"),
    "semantics.eval_term": (semantics, "eval_term"),
    "semantics.replay": (semantics, "replay"),
    "state.apply_updates": (state, "apply_updates"),
    "state.changes_nothing": (state, "changes_nothing"),
    "state.transport": (state, "transport"),
    "oracles.session_init": (oracles.OracleSession, "__init__"),
    "oracles.ask": (oracles.OracleSession, "ask"),
    "geometry.intersect_circles": (geometry, "intersect_circles"),
    "traceio.render_trace": (traceio, "render_trace"),
    "traceio.read_trace": (traceio, "read_trace"),
    "checks.check_bounded_exploration": (checks, "check_bounded_exploration"),
    "checks.check_iso_invariance": (checks, "check_iso_invariance"),
    "checks.behaviorally_equivalent": (checks, "behaviorally_equivalent"),
    "corpus.corpus_run": (corpus, "corpus_run"),
}
# "oracles.answer" spans the answer method of each policy class used here.
POLICIES = (oracles.BuiltinPolicy, oracles.UniformRandomPolicy, oracles.ScriptedPolicy)
COUNTED = {
    "literals.render_value": (literals, "render_value"),
    "literals.parse_value": (literals, "parse_value"),
    "oracles.prng.draws": (oracles.SplitMix64, "next_u64"),
    "oracles.prng.uniform_int": (oracles.SplitMix64, "uniform_int"),
}


class Tracer:
    """In-memory span aggregation over the basm layer boundaries."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # time inside some outermost span
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self.on = True
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._active: Counter = Counter()
        self._patches: list[tuple] = []
        self._gc_start = 0.0

    # -- recording -----------------------------------------------------------

    def _close(self, name: str, frame: list, dur: float):
        self._stack.pop()
        self._active[name] -= 1
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.covered_s += dur
        if name == "semantics.step" and self._active["checks.check_bounded_exploration"]:
            self.total["checks.bexp.step"] += dur

    def wrap(self, name: str, fn, before=None):
        """A span around `fn`; `before(args)` may add counts at entry."""
        stack = self._stack
        active = self._active

        def spanned(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, _clock() - start)

        spanned.__wrapped__ = fn
        return spanned

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own verification) are not recorded."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    # -- entry hooks for counts measured where the work happens -------------

    def _count_ask(self, args):
        session, query = args[0], args[1]
        if query in session.per_step_cache:
            self.counts["oracles.ask.cache_hits"] += 1

    def _count_commit(self, args):
        st, updates = args[0], args[1]
        self.counts["state.apply_updates.entries_copied"] += len(st.interp)
        self.counts["state.apply_updates.updates"] += len(updates)

    def _wrap_sampler_factory(self, factory):
        def make_sampler(*args, **kwargs):
            return self.wrap("checks.bexp.sampler", factory(*args, **kwargs))

        return make_sampler

    def _wrap_load_state(self, fn):
        spanned = self.wrap("literals.load_state", fn)

        def load_state(*args, **kwargs):
            result = spanned(*args, **kwargs)
            if self.on:
                self.counts["literals.load_state.entries"] += len(result.interp)
            return result

        return load_state

    # -- installation ----------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in [m for n, m in sys.modules.items() if n == "basm" or n.startswith("basm.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self):
        hooks = {"oracles.ask": self._count_ask, "state.apply_updates": self._count_commit}
        for name, (owner, attr) in SPANS.items():
            fn = getattr(owner, attr)
            if name == "literals.load_state":
                wrapper = self._wrap_load_state(fn)
            else:
                wrapper = self.wrap(name, fn, hooks.get(name))
            self._replace(owner, attr, wrapper)
        for cls in POLICIES:
            self._replace(cls, "answer", self.wrap("oracles.answer", cls.answer))
        for name, (owner, attr) in COUNTED.items():
            self._replace(owner, attr, self.count(name, getattr(owner, attr)))
        self._replace(checks, "junk_state_sampler",
                      self._wrap_sampler_factory(checks.junk_state_sampler))
        gc.callbacks.append(self._on_gc)

    def restore(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _on_gc(self, phase, info):
        if not self.on:
            return
        if phase == "start":
            self._gc_start = _clock()
        else:
            self.gc_collections += 1
            self.gc_pause_s += _clock() - self._gc_start


@contextmanager
def traced():
    """Install a tracer for the duration of the block, restoring basm after."""
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.restore()
