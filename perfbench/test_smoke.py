"""Smoke tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_completes_with_checks(name, tmp_path):
    workload = WORKLOADS[name]
    runner = run.Runner(run.import_cli(), run.build_inputs(workload, 3, tmp_path))
    runner.check_pass(runner.run_pass()[1])
    assert runner.attempted == len(workload.commands)
    assert runner.unexpected == {}
    known = {" ".join(c.argv) for c in workload.commands if c.known_defect}
    assert set(runner.known) <= known
    assert runner.failed == len(runner.known)
    assert runner.rows_per_pass > 0


def test_bracket_check_flags_a_miss():
    row = {"y": "1250", "tail_lo": "5e-45", "tail_hi": "5e-45"}
    assert checks.check("exact-tail", [row], {"tail": "4.2e-32"})
    assert not checks.check("exact-tail", [row], {"tail": "5e-45"})


def test_malformed_output_is_a_problem():
    assert checks.check("moments", [], {})


@pytest.mark.parametrize("name", ["paper_tails", "stein_coupling"])
def test_traced_run_emits_every_per_layer_metric(name, capsys):
    result = run.run_workload(WORKLOADS[name], seed=3, seconds=0, trace=True)
    capsys.readouterr()
    assert result["correct"]
    metrics = result["metrics"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    assert metrics["cli.self_ms"]["value"] > 0
    assert metrics["trace.spans"]["value"] > 0
    reached = {
        "paper_tails": ["experiments.rows", "weighted_sum.tail.calls", "poisson_core.poisson_tail.calls"],
        "stein_coupling": [
            "stein_lattice.checked_points",
            "stein_lattice.series_terms",
            "bernoulli_lattice.support_entries",
            "coupling.samples_per_s",
            "coupling.size_bias_check_exact.ms",
            "coupling.peak_rss_mb",
        ],
    }[name]
    for key in reached:
        assert metrics[key]["value"] > 0, key


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    for workload in WORKLOADS.values():
        run.load_references(workload)


def test_fails_without_library_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_tails", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
