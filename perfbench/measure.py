"""Closed-loop measurement of one workload, untraced or traced.

One process, one op at a time: the next op starts when the previous one
has returned and been checked.  A warm-up (checked, never timed) comes
first; then whole passes run until the next one would overrun the time
budget.  A pass's time is the sum of its ops' run times, so the
benchmark's own checking and clean-up are never counted.

Every op is timed between two samples of the reference gauge
(``reference.py``) and its time is reported scaled to the reference
speed, which removes the drift of a shared machine's speed between and
within runs.  The raw wall times are kept in the record.

In a traced run, untraced and traced passes alternate; per-layer metrics
come from the traced passes, per pass, and the difference between the
two kinds of pass is reported as the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy

import boot
import reference
import tracing
import workloads

HERE = boot.HERE
ROOT = boot.ROOT

MIN_PASSES = 1
# Share of set-up time in dvr (the default build_model); see setup_times.
SETUP_DVR_SHARE = 0.1
MAX_FAILURES_KEPT = 10


@dataclass
class Log:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    pass_op_times: list[list[float]] = field(default_factory=list)
    op_times: dict[tuple, list[float]] = field(default_factory=lambda: defaultdict(list))
    pass_walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    pass_evals: list[int] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    gauge_samples: list[float] = field(default_factory=list)

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(error)


@dataclass
class LayerTotals:
    """Span and counter sums over the traced passes."""

    spans: dict[str, list] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0.0])
    )
    op_walls: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    cli_model_builds: int = 0

    def add_op(self, kind: str, spans: list[tracing.Span]) -> None:
        per_name = tracing.self_times(spans)
        for name, (calls, self_s) in per_name.items():
            entry = self.spans[name]
            entry[0] += calls
            entry[1] += self_s
        for span in spans:
            if span.parent < 0:
                self.op_walls[kind].append(span.end - span.start)
        if kind.startswith("cli."):
            self.cli_model_builds += per_name.get("molecule.build_model", (0, 0.0))[0]


def _execute(workload, op, log: Log, tracer=None, totals=None) -> float:
    """Run one op and check it; return its run time in seconds."""
    error = None
    output = None
    if tracer is not None:
        tracer.new_operation()
        root = tracer.open("op." + op.kind)
    start = perf_counter()
    try:
        output = op.run()
    except Exception:  # any exception is a failed op, not a crash
        error = f"{op.kind} {op.key}: raised {traceback.format_exc(limit=-3)}"
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    if tracer is not None:
        totals.add_op(op.kind, tracer.drain())
    if error is None:
        try:
            error = workload.check(op, output)
        except Exception:  # a check that cannot run counts as failed
            error = f"{op.kind} {op.key}: check raised {traceback.format_exc(limit=-3)}"
    log.record(error)
    return elapsed


def _timed_pass(workload, ops, log, gauge, tracer=None, totals=None):
    """Run a pass's ops; return their raw and reference-scaled run times."""
    raw, scaled = [], []
    before = gauge.sample()
    for op in ops:
        elapsed = _execute(workload, op, log, tracer, totals)
        after = gauge.sample()
        raw.append(elapsed)
        scaled.append(reference.scale(elapsed, before, after))
        before = after
    return raw, scaled


def run_passes(workload, seconds: float, trace: bool) -> tuple[Log, LayerTotals, dict]:
    """Warm up, then run passes until the time budget is spent."""
    log = Log()
    tracer = tracing.Tracer()
    totals = LayerTotals()
    gauge = reference.Gauge(workload.dvr_share)
    workload.prepare()
    for op in workload.warmup():
        _execute(workload, op, log)
    begin = perf_counter()
    last_length = {False: 0.0, True: 0.0}
    index = 0
    while True:
        traced = trace and index % 2 == 1
        ops = workload.pass_ops(index)
        start = perf_counter()
        if traced:
            counters_before = dict(workload.counters)
            with tracing.instrumented(tracer):
                _, scaled = _timed_pass(workload, ops, log, gauge, tracer, totals)
            for key, value in workload.counters.items():
                tracer.counters[key] += value - counters_before[key]
            log.traced_walls.append(sum(scaled))
        else:
            raw, scaled = _timed_pass(workload, ops, log, gauge)
            log.pass_op_times.append(scaled)
            for op, op_time in zip(ops, scaled):
                # an op without a golden key (a param-scan draw) is run once
                identity = (op.kind, op.key if op.key is not None else len(log.op_times))
                log.op_times[identity].append(op_time)
            log.pass_walls.append(sum(scaled))
            log.raw_walls.append(sum(raw))
            log.pass_evals.append(sum(op.evals for op in ops))
        index += 1
        last_length[traced] = perf_counter() - start
        enough = len(log.pass_walls) >= MIN_PASSES and (not trace or log.traced_walls)
        upcoming = trace and index % 2 == 1
        if enough and perf_counter() - begin + last_length[upcoming] > seconds:
            break
    log.gauge_samples = gauge.samples
    return log, totals, dict(tracer.counters)


# ---------------------------------------------------------------------------
# Set-up time, in fresh processes.

def setup_times(probes: int) -> list[float]:
    """Time of ``probes`` fresh processes that each import carsdj, build
    the default model and load the goldens, scaled to the reference speed
    by gauge samples taken just before and after each."""
    gauge = reference.Gauge(SETUP_DVR_SHARE)
    times = []
    before = gauge.sample()
    for _ in range(probes):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        elapsed = perf_counter() - start
        after = gauge.sample()
        times.append(reference.scale(elapsed, before, after))
        before = after
    return times


# ---------------------------------------------------------------------------
# Statistics and metrics.

def summary(values: list[float]) -> dict:
    """Median, quartiles (as statistics.quantiles(n=4) gives them) and count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, log: Log, setup: list[float]) -> tuple[dict, dict]:
    """Metric values by name, plus the distribution behind each.

    Every time is in reference seconds (see ``reference.py``); the raw
    wall time of a pass is kept in the detail as ``raw_wall_s``.
    """
    ops_ms = [t * 1e3 for times in log.pass_op_times for t in times]
    op_medians = [statistics.median(times) * 1e3 for times in log.op_times.values()]
    rates = [e / w for e, w in zip(log.pass_evals, log.pass_walls)]
    pct = workload.tail_percentile
    tail = percentile(ops_ms, pct)
    detail = {
        "setup_s": summary(setup),
        "ref_wall_s": summary(log.pass_walls),
        "ref_evals_per_s": summary(rates),
        "ref_op_p50_ms": summary(op_medians),
        "ref_op_tail_ms": {
            "percentile": pct,
            "samples": len(ops_ms),
            "beyond": sum(1 for t in ops_ms if t > tail),
        },
        "peak_rss_mb": {"n": 1},
        "raw_wall_s": summary(log.raw_walls),
        "slowness": summary(log.gauge_samples),
    }
    values = {
        "setup_s": detail["setup_s"]["median"],
        "ref_wall_s": detail["ref_wall_s"]["median"],
        "ref_evals_per_s": detail["ref_evals_per_s"]["median"],
        "ref_op_p50_ms": detail["ref_op_p50_ms"]["median"],
        "ref_op_tail_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, detail


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(log: Log, totals: LayerTotals, counters: dict) -> dict:
    """Per-layer metric values by name, each per traced pass."""
    passes = len(log.traced_walls)  # at least one
    values = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s = totals.spans.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls / passes
        values[f"{name}.self_ms"] = self_s * 1e3 / passes
    solves = totals.spans.get("dvr.solve_bound_states", (0, 0.0))[0]
    values["dvr.grid_points"] = _ratio(counters.get("dvr.grid_points_sum", 0), solves)
    values["dvr.eigh_flops_computed"] = counters.get("dvr.eigh_flops_computed", 0) / passes
    values["molecule.kept_levels_ratio"] = _ratio(
        counters.get("molecule.levels_kept", 0),
        counters.get("molecule.levels_requested", 0),
    )
    for name in ("pulses.spectral_amplitude.points", "pulses.time_profile.points"):
        values[name] = counters.get(name, 0) / passes
    values["algorithm.evals_per_cell_ratio"] = _ratio(
        counters.get("algorithm.evaluations", 0),
        counters.get("algorithm.unique_evaluations", 0),
    )
    for subcommand in workloads.SUBCOMMANDS:
        walls = totals.op_walls.get(f"cli.{subcommand}", [])
        median = statistics.median(walls) if walls else 0.0
        values[f"cli.{subcommand}.wall_ms"] = median * 1e3
    values["cli.bytes_written"] = counters.get("cli.bytes_written", 0) / passes
    values["cli.model_builds_per_pass"] = totals.cli_model_builds / passes
    overhead = statistics.median(log.traced_walls) - statistics.median(log.pass_walls)
    values["trace.overhead_s"] = overhead
    return values


# ---------------------------------------------------------------------------
# Environment record.

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in boot.THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------

def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    spec: dict,
    setup_probes: int = 5,
    goldens: dict | None = None,
    tiny: bool = False,
) -> dict:
    """Measure one workload; return the full record of the run."""
    if goldens is None:
        goldens = json.loads(boot.GOLDENS.read_text())
    workdir = ROOT / ".bench_run" / f"work-{os.getpid()}"
    workload = workloads.make(name, seed, goldens, workdir, tiny=tiny)
    setup = [] if trace else setup_times(setup_probes)
    try:
        log, totals, counters = run_passes(workload, seconds, trace)
    finally:
        workload.close()
    if trace:
        values, detail = per_layer(log, totals, counters), {}
        wanted = spec["per_layer"]
    else:
        values, detail = end_to_end(workload, log, setup)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} differ "
            "between the benchmark and BENCHMARK.json"
        )
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(seed),
        "passes": len(log.pass_walls) + len(log.traced_walls),
        "detail": detail,
        "failed_frac": log.failed / log.attempted,
        "failures": log.failures,
        "result": {
            "correct": log.failed == 0,
            "attempted": log.attempted,
            "failed": log.failed,
            "metrics": metrics,
        },
    }
