"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they print.
Every threshold here is part of the package contract, so the numbers are
spelled out rather than imported from anywhere.
"""
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from basm.checks import (
    behaviorally_equivalent,
    check_bounded_exploration,
    check_iso_invariance,
    enum_bijections,
    junk_state_sampler,
)
from basm.corpus import (
    ENTRIES,
    corpus_run,
    entry_dir,
    liar_rate,
    load_entry_program,
    load_entry_state,
)
from basm.geometry import Circle, Point, dist_point_line, incident
from basm.oracles import UniformRandomPolicy
from basm.semantics import replay, run
from basm.state import Location, UpdateSet, apply_updates
from basm.traceio import read_trace
from test_cli import spawn

REPO = Path(__file__).resolve().parents[1]


def announce(ok: bool, line: str):
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def _read(trace, name):
    sym = trace.final_state.vocabulary.symbol(name)
    return trace.final_state.read(Location(sym, ()))


def test_criterion_1_euclid_reproduces_gcd():
    t0 = time.perf_counter()
    exact = corpus_run("euclid", a=12, b=8)
    ok = (
        exact.outcome.kind == "halted"
        and len(exact.steps) == 3
        and _read(exact, "d") == 4
    )
    rng = random.Random(20260823)
    agree = 0
    for _ in range(200):
        a, b = rng.randint(0, 10_000), rng.randint(0, 10_000)
        t = corpus_run("euclid", a=a, b=b)
        x, y = a, b  # reference gcd by plain remainder loop
        while y:
            x, y = y, x % y
        if t.outcome.kind == "halted" and _read(t, "d") == x:
            agree += 1
    dt = time.perf_counter() - t0
    announce(
        ok and agree == 200 and dt < 1.0,
        f"criterion 1: gcd(12, 8) = 4 in 3 steps; {agree}/200 random pairs "
        f"match the reference loop ({dt:.2f}s < 1s)",
    )


def _tangent_residuals(center, through, q, choice):
    t = corpus_run("tangent", choice=choice, p=center, q=q,
                   C=(Point(*center), Point(*through)))
    C = Circle(Point(*center), Point(*through))
    T = _read(t, "T")
    s = _read(t, "s")
    D = _read(t, "D")
    radius = math.hypot(through[0] - center[0], through[1] - center[1])
    resid = abs(dist_point_line(Point(*center), T) - radius)
    return resid, incident(s, C) and incident(s, D)


def test_criterion_2_tangent_construction():
    t0 = time.perf_counter()
    worst = 0.0
    good = True
    for choice in (0, 1):
        resid, on_both = _tangent_residuals((0.0, 0.0), (5.0, 0.0), (10.0, 0.0), choice)
        worst = max(worst, resid)
        good = good and on_both and resid < 1e-6
    configs = 0
    rng = random.Random(7)
    for _ in range(100):
        cx, cy = rng.uniform(-20, 20), rng.uniform(-20, 20)
        r = rng.uniform(1, 10)
        th = rng.uniform(0, 2 * math.pi)
        qa = rng.uniform(0, 2 * math.pi)
        qd = rng.uniform(r + 1, r + 15)
        center = (cx, cy)
        through = (cx + r * math.cos(th), cy + r * math.sin(th))
        q = (cx + qd * math.cos(qa), cy + qd * math.sin(qa))
        passed = True
        for choice in (0, 1):
            resid, on_both = _tangent_residuals(center, through, q, choice)
            worst = max(worst, resid)
            passed = passed and on_both and resid < 1e-6
        configs += passed
    dt = time.perf_counter() - t0
    announce(
        good and configs == 100 and dt < 1.0,
        f"criterion 2: both tangent choices stay within 1e-6 of the radius "
        f"(worst {worst:.1e}) and {configs}/100 random configurations pass "
        f"({dt:.2f}s < 1s)",
    )


def test_criterion_3_primality_statistics():
    t0 = time.perf_counter()
    exact = liar_rate(15) == Fraction(1, 6)
    program = load_entry_program("primality")
    base = load_entry_state("primality")
    vocab = program.vocabulary
    k_loc = Location(vocab.symbol("k"), ())
    n_loc = Location(vocab.symbol("n"), ())

    deltas = {}
    for k in (1, 2, 3):
        ups = UpdateSet()
        ups.add(k_loc, k)
        state = apply_updates(base, ups)
        false_positives = sum(
            1 for seed in range(10_000)
            if _read_run(program, state, seed) is True
        )
        deltas[k] = abs(false_positives / 10_000 - (Fraction(1, 6) ** k))
    within = all(d < 0.02 for d in deltas.values())

    sieve = [True] * 201
    sieve[0] = sieve[1] = False
    for i in range(2, 15):
        if sieve[i]:
            for j in range(i * i, 201, i):
                sieve[j] = False
    primes = [i for i in range(201) if sieve[i]]
    misses = 0
    for p in primes:
        ups = UpdateSet()
        ups.add(n_loc, p)
        ups.add(k_loc, 3)
        if _read_run(program, apply_updates(base, ups), p) is not True:
            misses += 1
    dt = time.perf_counter() - t0
    announce(
        exact and within and len(primes) == 46 and misses == 0 and dt < 10.0,
        f"criterion 3: liar rate of 15 is exactly 1/6; false-positive rates over "
        f"10^4 runs sit within 0.02 of (1/6)^k for k=1,2,3 (max off by "
        f"{float(max(deltas.values())):.4f}); 0 false negatives on the 46 primes "
        f"up to 200 ({dt:.2f}s < 10s)",
    )


def _read_run(program, state, seed):
    trace = run(program, state, UniformRandomPolicy(seed))
    sym = program.vocabulary.symbol("prime")
    return trace.final_state.read(Location(sym, ()))


def test_criterion_4_postulate_property_suites():
    names = sorted(ENTRIES)
    replays = sum(
        1 for i in range(100)
        if replay(
            run(load_entry_program(names[i % len(names)]),
                load_entry_state(names[i % len(names)]),
                UniformRandomPolicy(i)),
            load_entry_program(names[i % len(names)]),
        )
    )

    duplicate_queries = 0
    for name in names:
        program = load_entry_program(name)
        for golden in ENTRIES[name].golden_files:
            lines = (entry_dir(name) / "golden" / golden).read_text().splitlines()
            for record in read_trace(lines, program).steps:
                seen = [(q.oracle, repr(q.args)) for q in record.interactions]
                duplicate_queries += len(seen) - len(set(seen))

    bexp_failures = 0
    for name in names:
        program = load_entry_program(name)
        sampler = junk_state_sampler(program, load_entry_state(name))
        bexp_failures += len(check_bounded_exploration(program, sampler, 1000, 11).failures)

    graph = load_entry_program("enumgraph")
    graph_init = load_entry_state("enumgraph")
    bijections = list(enum_bijections(graph.vocabulary))
    iso_failures = sum(
        len(check_iso_invariance(graph, graph_init, b).failures) for b in bijections
    )
    announce(
        replays == 100 and duplicate_queries == 0 and bexp_failures == 0
        and len(bijections) == 2 and iso_failures == 0,
        f"criterion 4: {replays}/100 seeded traces replay; no golden step repeats "
        f"a query; 7000 bounded-exploration trials and both enum renamings clean",
    )


def test_criterion_5_strict_equivalence_negative_controls():
    do_until = corpus_run("euclid")
    while_form = corpus_run("euclid_while")
    loops_differ = not behaviorally_equivalent(do_until, while_form)
    choices_differ = not behaviorally_equivalent(
        corpus_run("tangent", choice=0), corpus_run("tangent", choice=1)
    )
    announce(
        loops_differ and choices_differ,
        "criterion 5: do-until vs while gcd runs and the two tangent choices "
        "are reported not equivalent",
    )


def test_criterion_6_artifact_determinism(tmp_path):
    out = []
    for fname in ("first.jsonl", "second.jsonl"):
        path = tmp_path / fname
        r = spawn("run", "--program", "corpus/primality/program.basm",
                  "--init", "corpus/primality/init/n15k2.state",
                  "--seed", "123", "--trace", str(path))
        assert r.returncode == 0
        out.append(path.read_bytes())
    identical = out[0] == out[1]
    announce(
        identical and len(out[0]) > 0,
        "criterion 6: identical flags and seed give byte-identical trace files",
    )
