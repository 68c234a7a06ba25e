"""Compare two result sets, parent and change, metric by metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records that run.py writes (``--results``).
Only untraced runs count.  One row per (workload, end-to-end metric)
gives each side's median and quartiles over its runs and one verdict:

better
    The change wins at least nine tenths of the pairs (runs of the two
    sides with the same seed; ties count for neither) and the medians
    differ by more than the parent's interquartile range.
worse beyond bound
    The change's median is worse than the parent's by more than the
    metric's bound from BENCHMARK.json.
unresolved
    The run-to-run spread (interquartile range over median) of either
    side is wider than the bound, and not every change run reads better
    than every parent run.
within bound
    Anything else.

A workload whose change runs fail more ops than the parent's gets no
"better" verdict.  Exit code 1 when any row is "worse beyond bound".
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """workload -> {"runs": [(seed, {metric: value})], "attempted", "failed"}."""
    sets: dict = defaultdict(lambda: {"runs": [], "attempted": 0, "failed": 0})
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        entry = sets[record["workload"]]
        result = record["result"]
        entry["runs"].append(
            (record["seed"], {k: m["value"] for k, m in result["metrics"].items()})
        )
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pairs(parent_runs, change_runs, metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of runs that share a seed, in run order."""
    by_seed = defaultdict(list)
    for seed, values in change_runs:
        by_seed[seed].append(values[metric])
    out = []
    for seed, values in parent_runs:
        if by_seed[seed]:
            out.append((values[metric], by_seed[seed].pop(0)))
    return out


def verdict(parent: list[float], change: list[float], paired, bound: float,
            higher_is_better: bool, fewer_failures: bool) -> str:
    sign = 1.0 if higher_is_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    if (
        fewer_failures
        and paired
        and wins >= 0.9 * len(paired)
        and sign * (c_med - p_med) > p_q3 - p_q1
    ):
        return "better"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if spread > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "within bound"
        return "unresolved"
    if -sign * (c_med - p_med) > bound * abs(p_med):
        return "worse beyond bound"
    return "within bound"


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> tuple[list[str], bool]:
    parent_sets, change_sets = load(parent_dir), load(change_dir)
    lines = [
        f"{'workload':11s} {'metric':12s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'change':>8s}  verdict"
    ]
    regression = False
    for workload in sorted(set(parent_sets) | set(change_sets)):
        p_set, c_set = parent_sets.get(workload), change_sets.get(workload)
        if not p_set or not c_set:
            lines.append(f"{workload:11s} runs on one side only")
            continue
        no_more_failures = (
            c_set["failed"] / c_set["attempted"] <= p_set["failed"] / p_set["attempted"]
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [v[name] for _, v in p_set["runs"]]
            change = [v[name] for _, v in c_set["runs"]]
            row = verdict(
                parent,
                change,
                pairs(p_set["runs"], c_set["runs"], name),
                metric["bound"],
                metric["better"] == "higher",
                no_more_failures,
            )
            regression |= row == "worse beyond bound"
            p, c = quartiles(parent), quartiles(change)
            lines.append(
                f"{workload:11s} {name:12s} "
                f"{p[1]:10.4g} [{p[0]:9.4g}, {p[2]:9.4g}] "
                f"{c[1]:10.4g} [{c[0]:9.4g}, {c[2]:9.4g}] "
                f"{(c[1] - p[1]) / abs(p[1]):+8.1%}  {row}"
            )
        lines.append(
            f"{workload:11s} failed ops: parent {p_set['failed']}/{p_set['attempted']}, "
            f"change {c_set['failed']}/{c_set['attempted']}"
        )
    return lines, regression


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, regression = compare(Path(args[0]), Path(args[1]), spec)
    print("\n".join(lines))
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
