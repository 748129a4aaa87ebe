"""Regenerate the recorded traces under corpus/*/golden and the tangent
oracle scripts, each from the `corpus_run` arguments that `corpus.ENTRIES`
lists for it. Run from anywhere; paths resolve through the package."""
from __future__ import annotations

import sys

from basm import corpus_run, render_trace, script_lines
from basm.corpus import ENTRIES, entry_dir


def main() -> int:
    for name, entry in ENTRIES.items():
        for fname, kwargs in entry.golden_files.items():
            trace = corpus_run(name, **kwargs)
            if trace.outcome.kind != "halted":
                print(f"{name}/{fname}: run did not halt ({trace.outcome})", file=sys.stderr)
                return 1
            path = entry_dir(name) / "golden" / fname
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(render_trace(trace))
            print(f"wrote {path} ({len(trace.steps)} steps)")
        for fname, kwargs in entry.script_files.items():
            trace = corpus_run(name, **kwargs)
            path = entry_dir(name) / "scripts" / fname
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(script_lines(trace)) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
