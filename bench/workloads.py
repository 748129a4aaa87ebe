"""The benchmark's workloads: input generators, units of work, correctness gates.

Each workload draws every input from its seed, hands basm only those inputs,
and repeats one fixed *unit* of work. Every unit of one seed does the same
work, so its exact counts (steps, updates, interactions, trace bytes, ...)
must repeat unit after unit and run after run. Each unit also checks its
outputs against references that do not use basm: a plain-Python machine for
the arithmetic, `math.gcd`, trial division and coordinate geometry.

Timed regions hold basm calls only; the checks run outside them, with the
tracer (if any) paused.
"""
from __future__ import annotations

import hashlib
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from basm import checks, corpus, literals, semantics, syntax, traceio
from basm.geometry import Circle, Point
from basm.oracles import BuiltinPolicy
from basm.state import Location, UpdateSet

MIB = float(1 << 20)


@dataclass
class Unit:
    """What one unit of work did: phase times, per-run latencies and counts."""

    phase_s: dict = field(default_factory=dict)
    stepping_s: float = 0.0  # time of the phases that take machine steps
    steps_taken: int = 0
    run_latency_s: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.phase_s.values())

    def timed(self, phase: str, fn, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + perf_counter() - start
        return result

    def timed_run(self, phase: str, name: str, args: dict):
        """One corpus run, timed into `phase` and into the run latencies."""
        start = perf_counter()
        trace = corpus.corpus_run(name, max_steps=1_000, **args)
        elapsed = perf_counter() - start
        self.run_latency_s.append(elapsed)
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + elapsed
        return trace

    def gate(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def add(self, **counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def inputs_hash(*parts) -> str:
    """Short digest of a workload's generated inputs and sizes."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _fresh_corpus():
    """Drop the corpus module's parsed programs and states, so that each
    set-up pays for parsing and loading them as a new process would."""
    corpus._program_cache.clear()
    corpus._state_cache.clear()


def _var(st, name: str):
    return st.read(Location(st.vocabulary.symbol(name), ()))


class Workload:
    name = ""
    sizes: dict = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.pause = nullcontext  # replaced by the tracer's pause when traced

    def setup(self):
        """Parse and load everything a unit needs; timed as setup_s."""
        raise NotImplementedError

    def unit(self) -> Unit:
        raise NotImplementedError

    def trace_round_trip(self, u: Unit, trace, program):
        """Render, parse back and replay one trace, then check all three."""
        text = u.timed("render", traceio.render_trace, trace)
        lines = text.splitlines()
        parsed = u.timed("parse", traceio.read_trace, lines, program)
        replayed = u.timed("replay", semantics.replay, parsed, program)
        with self.pause():
            u.gate(traceio.render_trace(parsed) == text, "parsed trace re-renders differently")
            u.gate(replayed is True, "replay did not reproduce the trace")
        u.add(trace_bytes=len(text.encode()), replay_steps=len(parsed.steps))


def _run_phase(u: Unit, trace):
    """The unit's only run is its stepping phase."""
    u.run_latency_s.append(u.phase_s["run"])
    u.stepping_s, u.steps_taken = u.phase_s["run"], len(trace.steps)


def _run_counts(u: Unit, trace):
    u.add(runs=1, steps=len(trace.steps),
          updates=sum(len(r.updates) for r in trace.steps),
          interactions=sum(len(r.interactions) for r in trace.steps))


class LongRun(Workload):
    """One oracle-free machine, four integer variables, a 3-wide par with a
    nested if, run for a fixed number of steps; then its trace round trip."""

    name = "long_run"
    sizes = {"steps": 3_000, "variables": 4, "par_width": 3}

    def __init__(self, seed: int):
        super().__init__(seed)
        r = self.rng
        m = r.randrange(40_000, 50_000)
        self.k = dict(A=r.randrange(3, 97), B=r.randrange(1, 97), M=m, D=r.randrange(1, 97))
        self.init = tuple(r.randrange(m) for _ in range(3))
        k, n = self.k, self.sizes["steps"]
        # The branch taken depends on i only, so every seed does the same work.
        self.program_text = (
            "vocab {\n  var i, x, y, z : Integer\n}\n"
            f"do until i >= {n} {{\n"
            "  par {\n"
            "    i := i + 1;\n"
            f"    x := (x * {k['A']} + y + {k['B']}) mod {m};\n"
            "    if i mod 2 = 0 then {\n"
            f"      if i mod 4 = 0 then y := (y + x) mod {m} else z := (z + y) mod {m}\n"
            f"    }} else z := (z + x + {k['D']}) mod {m}\n"
            "  }\n}\n"
        )
        x, y, z = self.init
        self.state_text = f"i := 0\nx := {x}\ny := {y}\nz := {z}\n"
        self.expected = self.reference()
        self.hash = inputs_hash(self.sizes, self.program_text, self.state_text)

    def reference(self) -> dict:
        k, m = self.k, self.k["M"]
        i, (x, y, z) = 0, self.init
        while i < self.sizes["steps"]:
            nx, ny, nz = (x * k["A"] + y + k["B"]) % m, y, z
            if i % 2 == 0:
                if i % 4 == 0:
                    ny = (y + x) % m
                else:
                    nz = (z + y) % m
            else:
                nz = (z + x + k["D"]) % m
            i, x, y, z = i + 1, nx, ny, nz
        return {"i": i, "x": x, "y": y, "z": z}

    def setup(self):
        self.program = syntax.parse_program(self.program_text)
        self.init_state = literals.load_state(self.state_text, self.program.vocabulary)

    def unit(self) -> Unit:
        u = Unit()
        trace = u.timed("run", semantics.run, self.program, self.init_state,
                        BuiltinPolicy(), self.sizes["steps"] + 1)
        _run_phase(u, trace)
        with self.pause():
            final = {v: _var(trace.final_state, v) for v in "ixyz"}
            u.gate(trace.outcome.kind == "halted" and final == self.expected,
                   f"final state {final} differs from the reference {self.expected}")
        _run_counts(u, trace)
        self.trace_round_trip(u, trace, self.program)
        return u


class BigState(Workload):
    """An n-ary table of many entries with a wide par of writes per step, so
    every commit copies a large state; then its trace round trip."""

    name = "big_state"
    sizes = {"entries": 20_000, "writes_per_step": 32, "steps": 300}

    def __init__(self, seed: int):
        super().__init__(seed)
        r, s = self.rng, self.sizes
        n = s["entries"]
        self.write_off = r.sample(range(n), s["writes_per_step"])
        self.read_off = [r.randrange(n) for _ in range(s["writes_per_step"])]
        self.cells = [r.randrange(1_000_000) for _ in range(n)]
        writes = [
            f"    cell((t + {wo}) mod {n}) := cell((t + {ro}) mod {n}) + t"
            for wo, ro in zip(self.write_off, self.read_off)
        ]
        self.program_text = (
            "vocab {\n  var t : Integer\n  var cell(Integer) : Integer\n}\n"
            f"do until t >= {s['steps']} {{\n  par {{\n    t := t + 1;\n"
            + ";\n".join(writes) + "\n  }\n}\n"
        )
        self.state_text = "t := 0\n" + "".join(
            f"cell({i}) := {v}\n" for i, v in enumerate(self.cells)
        )
        self.expected = self.reference()
        self.hash = inputs_hash(self.sizes, self.program_text, self.state_text)

    def reference(self) -> list:
        n, cells = self.sizes["entries"], list(self.cells)
        for t in range(self.sizes["steps"]):
            new = {}
            for wo, ro in zip(self.write_off, self.read_off):
                new[(t + wo) % n] = cells[(t + ro) % n] + t
            for at, v in new.items():
                cells[at] = v
        return cells

    def setup(self):
        self.program = syntax.parse_program(self.program_text)
        self.init_state = literals.load_state(self.state_text, self.program.vocabulary)

    def unit(self) -> Unit:
        u = Unit()
        trace = u.timed("run", semantics.run, self.program, self.init_state,
                        BuiltinPolicy(), self.sizes["steps"] + 1)
        _run_phase(u, trace)
        with self.pause():
            got = {(loc.symbol.name, loc.args): v for loc, v in trace.final_state.interp.items()}
            want = {("cell", (i,)): v for i, v in enumerate(self.expected)}
            want[("t", ())] = self.sizes["steps"]
            u.gate(trace.outcome.kind == "halted" and got == want,
                   "final table differs from the reference")
        _run_counts(u, trace)
        self.trace_round_trip(u, trace, self.program)
        return u


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(n) if sieve[i]]


def _euclid_pair(r: random.Random, limit: int, rounds: int) -> tuple[int, int]:
    """Random a, b up to `limit` whose remainder loop takes exactly `rounds`
    rounds, so that the gcd runs of every seed have the same lengths."""
    while True:
        a, b = r.randint(1, limit), r.randint(1, limit)
        x, y, n = a, b, 0
        while y:
            x, y, n = y, x % y, n + 1
        if n == rounds:
            return a, b


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _tangency_residual(trace) -> float:
    """|distance from C's centre to the tangent line - C's radius|, in plain floats."""
    st = trace.final_state
    c, line = _var(st, "C"), _var(st, "T")
    (ax, ay), (bx, by) = (line.p1.x, line.p1.y), (line.p2.x, line.p2.y)
    cx, cy = c.center.x, c.center.y
    radius = math.hypot(c.through.x - cx, c.through.y - cy)
    dist = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / math.hypot(bx - ax, by - ay)
    return abs(dist - radius)


class OracleBatch(Workload):
    """Many short seeded corpus runs that ask oracles: Fermat primality under
    the uniform policy, tangent constructions under both intersection choices,
    and gcd; then the trace round trip of every fourth run."""

    name = "oracle_batch"
    sizes = {"runs": 1_152, "primality_k": (1, 64), "n_below": 50_000, "round_trip_every": 4}

    def __init__(self, seed: int):
        super().__init__(seed)
        r = self.rng
        primes = _primes_below(self.sizes["n_below"])[2:]
        small = primes[:200]
        lo, hi = self.sizes["primality_k"]
        # Fixed proportions and fixed cycles of k and of gcd rounds, so every
        # seed does the same amount of work: a third each of primality (half of
        # it on primes, one prime for each k), tangent (each configuration
        # under both choices) and gcd (12 to 23 remainder rounds).
        third = self.sizes["runs"] // 3
        jobs = []
        for j in range(third):
            n = r.choice(primes) if j % 2 else r.choice(small) * r.choice(small)
            k = lo + (j // 2) % (hi - lo + 1)
            jobs.append(("primality", dict(n=n, k=k, seed=r.getrandbits(32))))
        for _ in range(third // 2):
            cx, cy = r.uniform(-100, 100), r.uniform(-100, 100)
            radius = r.uniform(1, 50)
            angle = r.uniform(0, 2 * math.pi)
            dist = radius * r.uniform(1.5, 4.0)
            config = dict(
                p=Point(cx, cy), C=Circle(Point(cx, cy), Point(cx + radius, cy)),
                q=Point(cx + dist * math.cos(angle), cy + dist * math.sin(angle)),
            )
            jobs.append(("tangent", dict(config, choice=0)))
            jobs.append(("tangent", dict(config, choice=1)))
        for j in range(third):
            a, b = _euclid_pair(r, 10**9, 12 + j % 12)
            jobs.append(("euclid", dict(a=a, b=b)))
        # Round-trip every fourth job in the order made, before the shuffle,
        # so that the round-tripped work is the same for every seed.
        every = self.sizes["round_trip_every"]
        jobs = [(name, args, i % every == 1) for i, (name, args) in enumerate(jobs)]
        r.shuffle(jobs)
        self.jobs = jobs
        self.hash = inputs_hash(self.sizes, self.jobs)

    def setup(self):
        _fresh_corpus()
        self.programs = {}
        for name in ("primality", "tangent", "euclid"):
            self.programs[name] = corpus.load_entry_program(name)
            corpus.load_entry_state(name)

    def check(self, u: Unit, name: str, args: dict, trace):
        ok = trace.outcome.kind == "halted"
        if name == "euclid":
            ok = ok and _var(trace.final_state, "d") == math.gcd(args["a"], args["b"])
            u.gate(ok, f"euclid {args} does not give gcd")
        elif name == "tangent":
            ok = ok and _tangency_residual(trace) < 1e-6
            u.gate(ok, f"tangent {args} misses tangency")
        else:
            n = args["n"]
            bases = [i.answer for r in trace.steps for i in r.interactions]
            ok = ok and all(2 <= a <= n - 2 for a in bases)
            if _is_prime(n):
                ok = ok and _var(trace.final_state, "prime") is True and len(trace.steps) == args["k"]
            u.gate(ok, f"primality {args} is wrong")

    def unit(self) -> Unit:
        u = Unit()
        traces = [u.timed_run("run", name, args) for name, args, _ in self.jobs]
        u.stepping_s = u.phase_s["run"]
        with self.pause():
            for (name, args, _), trace in zip(self.jobs, traces):
                self.check(u, name, args, trace)
                _run_counts(u, trace)
        u.steps_taken = u.counts["steps"]
        for (name, _, round_trip), trace in zip(self.jobs, traces):
            if round_trip:
                self.trace_round_trip(u, trace, self.programs[name])
        return u


ENUM_SIZE = 7


class Checks(Workload):
    """The property checks, which call `step()` directly: bounded exploration
    on every corpus program, iso invariance over every bijection of a 7-member
    enum, strict equivalence of run pairs, and the trace round trip of one
    run in every fourth pair."""

    name = "checks"
    sizes = {"bexp_trials_per_program": 150, "iso_bijections": math.factorial(ENUM_SIZE),
             "equiv_pairs": 512, "round_trip_every": 4}

    def __init__(self, seed: int):
        super().__init__(seed)
        r = self.rng
        members = [f"m{i}" for i in r.sample(range(100), ENUM_SIZE)]
        succ = members[:]
        r.shuffle(succ)
        self.enum_program_text = (
            "vocab {\n"
            f"  enum Node {{ {', '.join(members)} }}\n"
            "  var cur : Node\n  var hops : Integer\n"
            "  var succ(Node) : Node\n  var seen(Node) : Integer\n}\n"
            "do until hops >= 50 {\n  par {\n    cur := succ(cur);\n"
            "    seen(cur) := hops;\n    hops := hops + 1\n  }\n}\n"
        )
        self.enum_state_text = (
            f"cur := {r.choice(members)}\nhops := {r.randrange(50)}\n"
            + "".join(f"succ({a}) := {b}\n" for a, b in zip(members, succ))
        )
        # Naming a member in the text breaks invariance under moving it.
        self.naming_program_text = self.enum_program_text.replace(
            "cur := succ(cur)", f"cur := {members[0]}")
        self.swap = {"Node": {**{m: m for m in members}, members[0]: members[1],
                              members[1]: members[0]}}
        self.bexp_seed = r.getrandbits(32)
        pairs = []
        for i in range(self.sizes["equiv_pairs"]):
            kind = i % 4
            if kind in (0, 1):
                a, b = _euclid_pair(r, 10**6, 7 + (i // 4) % 10)
                other = "euclid" if kind == 0 else "euclid_while"
                pairs.append((("euclid", dict(a=a, b=b)), (other, dict(a=a, b=b)), kind == 0))
            else:
                cx, cy, radius = r.uniform(-50, 50), r.uniform(-50, 50), r.uniform(1, 20)
                config = dict(p=Point(cx, cy), C=Circle(Point(cx, cy), Point(cx, cy + radius)),
                              q=Point(cx + radius * r.uniform(1.5, 3.0), cy))
                choice = r.randrange(2)
                other = choice if kind == 2 else 1 - choice
                pairs.append((("tangent", dict(config, choice=choice)),
                              ("tangent", dict(config, choice=other)), kind == 2))
        self.pairs = pairs
        self.hash = inputs_hash(self.sizes, self.enum_program_text, self.enum_state_text,
                                self.bexp_seed, self.pairs)

    def setup(self):
        _fresh_corpus()
        self.corpus = {name: (corpus.load_entry_program(name), corpus.load_entry_state(name))
                       for name in sorted(corpus.ENTRIES)}
        self.enum_program = syntax.parse_program(self.enum_program_text)
        self.enum_state = literals.load_state(self.enum_state_text,
                                              self.enum_program.vocabulary)
        self.naming_program = syntax.parse_program(self.naming_program_text)

    def bexp(self, u: Unit):
        trials = self.sizes["bexp_trials_per_program"]
        for i, (name, (program, init)) in enumerate(self.corpus.items()):
            sampler = u.timed("bexp", checks.junk_state_sampler, program, init)
            report = u.timed("bexp", checks.check_bounded_exploration, program, sampler,
                             trials, self.bexp_seed + i)
            u.gate(report.passed, f"bexp flags {name}: {report.failures[:1]}")
            u.add(bexp_trials=trials, check_steps=2 * trials)
        program, init = self.corpus["euclid"]

        def peeking_step(st, rule, session):
            updates, interactions = semantics.step(st, rule, session)
            flag = st.vocabulary.symbol("zz_flag")
            peeked = st.read(Location(st.vocabulary.symbol("zz_junk0"), (0,)))
            out = UpdateSet()
            for loc, v in updates.items():
                out.add(loc, v)
            out.add(Location(flag, ()), peeked % 2 == 0)
            return out, interactions

        sampler = u.timed("bexp", checks.junk_state_sampler, program, init)
        report = u.timed("bexp", checks.check_bounded_exploration, program, sampler, 40,
                         self.bexp_seed, step_fn=peeking_step)
        u.gate(not report.passed, "bexp misses the peeking step")
        u.add(bexp_trials=40, check_steps=80)

    def iso(self, u: Unit):
        failures = 0
        bijections = u.timed("iso", list, checks.enum_bijections(self.enum_program.vocabulary))
        for bijection in bijections:
            report = u.timed("iso", checks.check_iso_invariance, self.enum_program,
                             self.enum_state, bijection)
            failures += not report.passed
            u.add(iso_bijections=1, check_steps=2)
        u.gate(failures == 0, f"iso fails on {failures} bijections")
        report = u.timed("iso", checks.check_iso_invariance, self.naming_program,
                         self.enum_state, self.swap)
        u.gate(not report.passed, "iso misses a program that names a member")
        u.add(iso_bijections=1, check_steps=2)

    def equiv(self, u: Unit) -> list:
        replays = []
        for (na, aa), (nb, ab), expected in self.pairs:
            traces = [u.timed_run("equiv", na, aa), u.timed_run("equiv", nb, ab)]
            verdict = u.timed("equiv", checks.behaviorally_equivalent, *traces)
            with self.pause():
                u.gate(verdict is expected, f"equiv({na}, {nb}) on {aa} is {verdict}")
                for trace in traces:
                    _run_counts(u, trace)
            u.add(equiv_pairs=1, check_steps=sum(len(t.steps) for t in traces))
            replays.append((traces[0], self.corpus[na][0]))
        return replays

    def unit(self) -> Unit:
        u = Unit()
        self.bexp(u)
        self.iso(u)
        replays = self.equiv(u)
        u.stepping_s = u.phase_s["bexp"] + u.phase_s["iso"] + u.phase_s["equiv"]
        u.steps_taken = u.counts["check_steps"]
        for trace, program in replays[::self.sizes["round_trip_every"]]:
            self.trace_round_trip(u, trace, program)
        return u


WORKLOADS = {w.name: w for w in (LongRun, BigState, OracleBatch, Checks)}
