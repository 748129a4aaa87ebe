"""cProfile one unit of a benchmark workload and print where its time goes.

    python3 bench/profile_unit.py --workload big_state --seed 1 --top 25

Prints the top functions by own time, then the share of the unit
spent in each basm module (own time) and in two figures the roadmap quotes:
the `_eval`/`_exec` tree walk (own time) and `apply_updates` (cumulative).
cProfile charges a cost to every Python call, so shares of call-heavy code
come out larger than they are; confirm any gain with `bench/run.py`.
"""
from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from run import import_basm


def layer_shares(stats: pstats.Stats) -> tuple[float, dict, dict]:
    """Total profiled time, own time per basm module, and the quoted figures."""
    total = 0.0
    per_module: dict = defaultdict(float)
    figures = {"semantics._eval/_exec tree walk (own)": 0.0,
               "state.apply_updates (cumulative)": 0.0}
    for (filename, _line, func), (_cc, _nc, tottime, cumtime, _callers) in stats.stats.items():
        total += tottime
        path = Path(filename)
        if path.parent.name != "basm":
            continue
        per_module[path.stem] += tottime
        if path.stem == "semantics" and func in ("_eval", "_exec"):
            figures["semantics._eval/_exec tree walk (own)"] += tottime
        if path.stem == "state" and func == "apply_updates":
            figures["state.apply_updates (cumulative)"] += cumtime
    return total, dict(per_module), figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args(argv)

    import_basm()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    profiler = cProfile.Profile()

    @contextmanager
    def paused():
        profiler.disable()
        try:
            yield
        finally:
            profiler.enable()

    workload.pause = paused  # the unit's own checks stay out of the profile
    unit = profiler.runcall(workload.unit)
    if unit.failed:
        print(f"unit failed its checks: {unit.errors}", file=sys.stderr)
        return 1
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(args.top)

    total, per_module, figures = layer_shares(stats)
    print(f"share of {total:.3f} s profiled ({args.workload}, seed {args.seed}):")
    for name, seconds in sorted(per_module.items(), key=lambda kv: -kv[1]):
        print(f"  {'basm.' + name + ' (own)':42s} {seconds / total:6.1%}")
    for name, seconds in figures.items():
        print(f"  {name:42s} {seconds / total:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
