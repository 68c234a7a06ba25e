"""The benchmark's own tests: python3 -m pytest -q perfbench/tests"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import boot
import compare
import measure
import reference
import tracing
from tracing import Span

SPEC = json.loads((boot.ROOT / "BENCHMARK.json").read_text())
GOLDENS = json.loads(boot.GOLDENS.read_text())


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: together they cover [1, 6]
        Span("leaf", 2.0, 3.0, 1),
        Span("c", 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
        Span("a", 20.0, 21.0, -1),
    ]
    times = tracing.self_times(spans)
    assert times["root"] == (1, pytest.approx(10.0 - 5.0 - 2.0))
    assert times["a"] == (2, pytest.approx((3.0 - 1.0) + 1.0))
    assert times["b"] == (1, pytest.approx(3.0))
    assert times["leaf"] == (1, pytest.approx(1.0))
    assert times["c"] == (1, pytest.approx(4.0))


def test_reference_scaling_divides_by_the_mean_of_the_surrounding_slowness():
    assert reference.scale(3.0, 1.0, 1.0) == pytest.approx(3.0)
    # the machine ran at half speed on average: the op counts half its time
    assert reference.scale(3.0, 1.5, 2.5) == pytest.approx(1.5)
    for share in (0.0, 0.1, 1.0):
        assert reference.Gauge(share, repeats=1).sample() > 0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["landscape", "param-scan", "cli-suite"])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    record = measure.run(workload, 3, 0.1, trace, SPEC, setup_probes=1, tiny=True)
    result = record["result"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_tracing_rebinds_each_lookup_and_restores_it():
    import carsdj.algorithm
    import carsdj.cli
    import carsdj.dynamics

    original = carsdj.dynamics.apply_stokes
    with tracing.instrumented(tracing.Tracer()):
        assert carsdj.algorithm.apply_stokes is carsdj.cli.apply_stokes
        assert carsdj.cli.apply_stokes is not original
    assert carsdj.algorithm.apply_stokes is original
    assert carsdj.cli.apply_stokes is original


def _corrupt(goldens, workload):
    goldens = copy.deepcopy(goldens)
    if workload == "cli-suite":
        goldens[workload]["fc"]["fc.csv"] = "0" * 64
    else:
        key = "n4_w20-23_tau0" if workload == "landscape" else "draw0"
        goldens[workload][key]["d"] *= 1.0 + 1e-6
    return goldens


@pytest.mark.parametrize("workload", ["landscape", "param-scan", "cli-suite"])
def test_a_corrupted_golden_counts_as_failed_ops(workload):
    record = measure.run(
        workload, 3, 0.1, False, SPEC, setup_probes=1,
        goldens=_corrupt(GOLDENS, workload), tiny=True,
    )
    assert record["failed_frac"] > 0
    assert not record["result"]["correct"]


def test_without_package_source_the_benchmark_fails_and_prints_no_result(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(boot.HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(boot.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "landscape", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0, 10.1, 10.2, 9.9], [8.0, 8.1, 8.2, 7.9], "better"),
        ([10.0, 10.1, 10.2, 9.9], [13.0, 13.1, 13.2, 12.9], "worse beyond bound"),
        ([10.0, 10.1, 10.2, 9.9], [10.5, 10.4, 10.6, 10.3], "within bound"),
        ([5.0, 10.0, 15.0, 20.0], [6.0, 11.0, 16.0, 21.0], "unresolved"),
    ],
)
def test_compare_verdicts_for_a_lower_is_better_metric(parent, change, expected):
    paired = list(zip(parent, change))
    assert compare.verdict(parent, change, paired, 0.2, False, True) == expected
