"""The committed BENCH_*.json files cover the benchmark BENCHMARK.json
declares: every workload, and every end-to-end metric with a numeric median
and minimum over the recorded runs."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_names_every_workload_and_end_to_end_metric(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads(path.read_text())["workloads"]
    for workload in declared["workloads"]:
        metrics = workloads[workload["name"]]["metrics"]
        for metric in declared["end_to_end"]:
            entry = metrics[metric["name"]]
            for stat in ("median", "min"):
                value = entry[stat]
                where = (workload["name"], metric["name"], stat)
                assert type(value) in (int, float) and math.isfinite(value), where
