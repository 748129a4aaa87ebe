"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload long_run --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: basm is imported from `src/` next to this
directory, never from an installed copy. The run alternates set-ups of the
workload with its unit of work until `--seconds` have passed, checking every
unit's outputs. A fixed calibration loop (`calibrate.py`) is timed between
units, and every time is scaled to reference seconds by it, so that other
load on the machine cancels out. The run reports the median of the scaled
set-up times and of the scaled per-unit figures.

With `--trace 0` the result carries the end-to-end metrics. With `--trace 1`
the same untraced measurement is followed by traced set-ups and units, and
the result carries the per-layer metrics, including the tracing overhead and
the time no layer span covers.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Before each unit, set up again until this long has passed (at least once), so
# set-up times are sampled across the whole run.
SETUP_SECONDS = 0.02
MIN_UNITS = 3
TRACED_REPEATS = 3
COUNTS_DIR = ROOT / ".bench_out" / "counts"


def import_basm():
    src = ROOT / "src"
    if not (src / "basm" / "__init__.py").is_file():
        sys.exit(f"bench: no basm package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import basm

    if Path(basm.__file__).resolve().parent != (src / "basm").resolve():
        sys.exit(f"bench: imported basm from {basm.__file__}, not from {src}")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def measure(workload, seconds: float):
    """Alternate set-ups and units for `seconds`, so both are sampled across
    the whole run. Returns the set-up times before each unit, the units, and
    each unit's scale to reference seconds.

    The calibration loop is timed before the first set-up and after every
    unit. A unit and the set-ups before it are scaled by the mean of the two
    loop times around them. A full collection before each set-up, unit and
    loop puts the collector in the same state every time, so its passes fall
    at the same points of every unit.
    """
    setups, units = [], []
    gc.collect()
    loops = [calibrate.loop_s()]
    start = perf_counter()
    while len(units) < MIN_UNITS or perf_counter() - start < seconds:
        gc.collect()
        batch, spent = [], 0.0
        while spent < SETUP_SECONDS:
            t0 = perf_counter()
            workload.setup()
            batch.append(perf_counter() - t0)
            spent += batch[-1]
        setups.append(batch)
        gc.collect()
        units.append(workload.unit())
        gc.collect()
        loops.append(calibrate.loop_s())
    scales = [2 * calibrate.REFERENCE_S / (a + b) for a, b in zip(loops, loops[1:])]
    return setups, units, scales


def unit_figures(u, scale: float) -> dict:
    """One unit's end-to-end figures in reference seconds: (value, unit)."""
    from workloads import MIB

    mib = u.counts["trace_bytes"] / MIB
    phase_s = {p: t * scale for p, t in u.phase_s.items()}
    latencies = [t * scale for t in u.run_latency_s]
    return {
        "wall_s": (u.wall_s * scale, "s"),
        "steps_per_s": (u.steps_taken / (u.stepping_s * scale), "1/s"),
        "trace_render_mib_per_s": (mib / phase_s["render"], "MiB/s"),
        "trace_parse_mib_per_s": (mib / phase_s["parse"], "MiB/s"),
        "replay_steps_per_s": (u.counts["replay_steps"] / phase_s["replay"], "1/s"),
        "runs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "run_latency_ms_p50": (percentile(latencies, 50) * 1e3, "ms"),
        "run_latency_ms_p99": (percentile(latencies, 99) * 1e3, "ms"),
    }


def end_to_end(setups: list, units: list, scales: list) -> dict:
    """The median scaled set-up, and the median of each scaled per-unit figure."""
    per_unit = [unit_figures(u, k) for u, k in zip(units, scales)]
    metrics = {
        "setup_s": (statistics.median(t * k for batch, k in zip(setups, scales)
                                      for t in batch), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    for name, (_, unit) in per_unit[0].items():
        metrics[name] = (statistics.median(f[name][0] for f in per_unit), unit)
    return metrics


def check_throughputs(units: list, scales: list) -> dict:
    """Per-check rates on the checks workload; zero where a workload runs no checks."""

    def rate(count: str, phase: str) -> float:
        if phase not in units[0].phase_s:
            return 0.0
        return statistics.median(u.counts[count] / (u.phase_s[phase] * k)
                                 for u, k in zip(units, scales))

    return {
        "checks.bexp.trials_per_s": (rate("bexp_trials", "bexp"), "1/s"),
        "checks.iso.bijections_per_s": (rate("iso_bijections", "iso"), "1/s"),
        "checks.equiv.pairs_per_s": (rate("equiv_pairs", "equiv"), "1/s"),
    }


def traced_runs(workload) -> list:
    """Traced set-up plus unit, TRACED_REPEATS times, each with a fresh tracer,
    and the scale of each traced unit to reference seconds."""
    from tracer import traced

    runs = []
    for _ in range(TRACED_REPEATS):
        gc.collect()
        before = calibrate.loop_s()
        with traced() as tracer:
            workload.pause = tracer.paused
            workload.setup()
            covered_before = tracer.covered_s
            unit = workload.unit()
        gc.collect()
        after = calibrate.loop_s()
        scale = 2 * calibrate.REFERENCE_S / (before + after)
        runs.append((tracer, unit, tracer.covered_s - covered_before, scale))
    return runs


def per_layer(tracer, unit, covered_in_unit: float, scale: float,
              untraced_units: list, untraced_scales: list) -> dict:
    """Layer figures of one traced set-up and unit (the fastest of the repeats),
    in seconds as measured; only the overhead ratio is taken in reference
    seconds, since it compares times taken apart."""
    calls, total, self_s, counts = tracer.calls, tracer.total, tracer.self_s, tracer.counts
    commits = calls["state.apply_updates"]
    asks = calls["oracles.ask"]
    metrics = {
        "syntax.parse_program.s": (total["syntax.parse_program"], "s"),
        "syntax.tokenize.s": (total["syntax.tokenize"], "s"),
        "literals.load_state.s": (total["literals.load_state"], "s"),
        "literals.load_state.entries": (counts["literals.load_state.entries"], "count"),
        "semantics.run.self_s": (self_s["semantics.run"], "s"),
        "semantics.step.calls": (calls["semantics.step"], "count"),
        "semantics.step.self_s": (self_s["semantics.step"], "s"),
        "semantics.eval_term.s": (total["semantics.eval_term"], "s"),
        "semantics.replay.self_s": (self_s["semantics.replay"], "s"),
        "state.apply_updates.s": (total["state.apply_updates"], "s"),
        "state.apply_updates.entries_copied": (
            counts["state.apply_updates.entries_copied"], "count"),
        "state.changes_nothing.s": (total["state.changes_nothing"], "s"),
        "state.updates_per_step": (
            counts["state.apply_updates.updates"] / commits if commits else 0.0, "count"),
        "state.transport.s": (total["state.transport"], "s"),
        "oracles.session_init.calls": (calls["oracles.session_init"], "count"),
        "oracles.ask.calls": (asks, "count"),
        "oracles.ask.cache_hits": (counts["oracles.ask.cache_hits"], "count"),
        "oracles.cache_hit_ratio": (
            counts["oracles.ask.cache_hits"] / asks if asks else 0.0, "ratio"),
        "oracles.ask.self_s": (self_s["oracles.ask"], "s"),
        "oracles.answer.s": (total["oracles.answer"], "s"),
        "oracles.prng.draws": (counts["oracles.prng.draws"], "count"),
        "oracles.prng.rejections": (
            counts["oracles.prng.draws"] - counts["oracles.prng.uniform_int"], "count"),
        "geometry.intersect_circles.calls": (calls["geometry.intersect_circles"], "count"),
        "geometry.intersect_circles.s": (total["geometry.intersect_circles"], "s"),
        "traceio.render_trace.s": (total["traceio.render_trace"], "s"),
        "traceio.read_trace.s": (total["traceio.read_trace"], "s"),
        "traceio.trace_bytes": (unit.counts["trace_bytes"], "count"),
        "literals.render_value.calls": (counts["literals.render_value"], "count"),
        "literals.parse_value.calls": (counts["literals.parse_value"], "count"),
        "checks.bexp.sampler_s": (total["checks.bexp.sampler"], "s"),
        "checks.bexp.step_s": (total["checks.bexp.step"], "s"),
        "checks.check_bounded_exploration.self_s": (
            self_s["checks.check_bounded_exploration"], "s"),
        "checks.check_iso_invariance.self_s": (self_s["checks.check_iso_invariance"], "s"),
        "checks.behaviorally_equivalent.s": (total["checks.behaviorally_equivalent"], "s"),
        "corpus.corpus_run.self_s": (self_s["corpus.corpus_run"], "s"),
        "py.gc.collections": (tracer.gc_collections, "count"),
        "py.gc.pause_s": (tracer.gc_pause_s, "s"),
        "trace.overhead_ratio": (unit.wall_s * scale / statistics.median(
            u.wall_s * k for u, k in zip(untraced_units, untraced_scales)), "ratio"),
        "trace.unattributed_s": (unit.wall_s - covered_in_unit, "s"),
    }
    metrics.update(check_throughputs(untraced_units, untraced_scales))
    return metrics


def layer_counts(tracer) -> dict:
    return {
        "step_calls": tracer.calls["semantics.step"],
        "session_inits": tracer.calls["oracles.session_init"],
        "oracle_asks": tracer.calls["oracles.ask"],
        "cache_hits": tracer.counts["oracles.ask.cache_hits"],
        "prng_draws": tracer.counts["oracles.prng.draws"],
        "prng_rejections": (tracer.counts["oracles.prng.draws"]
                            - tracer.counts["oracles.prng.uniform_int"]),
    }


def code_hash() -> str:
    """Digest of the basm and benchmark sources, so that counts are only
    compared between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "basm").glob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_across_runs(workload, counts: dict) -> bool:
    """Counts of the same inputs must repeat exactly in every run of the same
    code made in this checkout."""
    COUNTS_DIR.mkdir(parents=True, exist_ok=True)
    path = COUNTS_DIR / f"{workload.name}-{workload.hash}-{code_hash()}.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    same = all(seen[k] == v for k, v in counts.items() if k in seen)
    if same:
        partial = path.with_suffix(".tmp")
        partial.write_text(json.dumps({**seen, **counts}, sort_keys=True))
        partial.replace(path)
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_basm()
    from workloads import WORKLOADS, Unit

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    print(f"# workload {workload.name} seed {args.seed} sizes {json.dumps(workload.sizes)}")
    print(f"# python {platform.python_version()} nproc {os.cpu_count()}"
          f" platform {platform.machine()}")

    setups, units, scales = measure(workload, args.seconds)
    tally = Unit()  # gates on the run as a whole
    tally.gate(all(u.counts == units[0].counts for u in units), "counts differ between units")
    counts = dict(units[0].counts, inputs=workload.hash)
    checked = units + [tally]
    if args.trace:
        runs = traced_runs(workload)
        for _, unit, _, _ in runs:
            checked.append(unit)
            tally.gate(unit.counts == units[0].counts, "traced unit counts differ from untraced")
        traced_counts = [layer_counts(tracer) for tracer, _, _, _ in runs]
        tally.gate(all(c == traced_counts[0] for c in traced_counts),
                   "layer counts differ between traced units")
        counts.update(traced_counts[0])
        metrics = per_layer(*min(runs, key=lambda r: r[1].wall_s * r[3]), units, scales)
    else:
        metrics = end_to_end(setups, units, scales)
    tally.gate(check_counts_across_runs(workload, counts),
               "counts differ from an earlier run of the same code on the same inputs")
    attempted = sum(u.attempted for u in checked)
    failed = sum(u.failed for u in checked)
    errors = [e for u in checked for e in u.errors]

    latencies = sum(len(u.run_latency_s) for u in units)
    print(f"# units {len(units)} setups {sum(map(len, setups))} timed runs {latencies}"
          f" ({len(units[0].run_latency_s)} latency samples a unit)")
    print(f"# calibration: median scale {statistics.median(scales):.4f},"
          f" min {min(scales):.4f}, max {max(scales):.4f}"
          f" (reference seconds per measured second)")
    phases = {p: round(statistics.median(u.phase_s[p] for u in units), 4)
              for p in units[0].phase_s}
    print("# median phase seconds per unit " + json.dumps(phases))
    print("# counts per unit " + json.dumps(counts, sort_keys=True))
    for name, (value, unit_name) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit_name}")
    print(f"{'failed_frac':42s} {failed / attempted:>16.6g} ratio")
    for error in errors:
        print(f"# FAILED: {error}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
