"""Benchmark of carsdj: one workload, one seed, one run.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 36 --trace 0

Prints a human summary, then as its last line one JSON object with the
keys correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).  The
full record of the run (distributions, environment, failures) goes to
stderr and to a file under --results.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import boot


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help="landscape, param-scan or cli-suite"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results",
        type=Path,
        default=boot.ROOT / ".bench_run" / "results",
        help="directory for the full record of each run (default .bench_run/results)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        boot.prepare()
    except boot.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((boot.ROOT / "BENCHMARK.json").read_text())
    record = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    args.results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (args.results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record), file=sys.stderr)
    result = record["result"]
    for metric, entry in result["metrics"].items():
        print(f"{args.workload:11s} {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
