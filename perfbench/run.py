"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed
(and cached under ``.perfbench/``), the program runs from ``src/`` as
users run it, every answer is checked, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of a separate traced run).  The lines before it are
a human-readable report and, when traced, the stage table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dist-small", "batch-mmap", "update-mix", "build")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input scale; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench.build import run_build
    from perfbench.inputs import Rig
    from perfbench.metrics import END_TO_END, PER_LAYER, metrics_block
    from perfbench.serving import run_closed, run_update

    rig = Rig.create(ROOT, args.size, args.seed)
    traced = bool(args.trace)
    if args.workload == "build":
        outcome = run_build(rig, args.seconds, traced)
    elif args.workload == "update-mix":
        outcome = run_update(rig, args.seconds, traced)
    else:
        outcome = run_closed(rig, args.workload, args.seconds, traced)

    for line in outcome.report:
        print(line)
    if outcome.tracer is not None:
        path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write(path)
        print(f"spans written to {path.relative_to(ROOT)}")
    if traced:
        metrics = metrics_block(outcome.layers, PER_LAYER)
    else:
        metrics = metrics_block(outcome.metrics, END_TO_END)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
