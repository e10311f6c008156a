"""The benchmark's own tests, at toy sizes:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re

import pytest

import checks
import run
import runner
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_self_times_subtract_the_union_of_children_clipped_to_the_parent():
    spans_ = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a
        ("a1", 2.0, 3.0, 1),
        ("c", 8.0, 12.0, 0),  # runs past its parent's end
    ]
    assert spans.self_times(spans_) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_layer_metrics_on_a_synthetic_pass():
    tree = [
        ["pass", 0.0, 10.0, -1],
        ["job.worst-tv-cyclic", 0.5, 9.5, 0],
        ["cli.dispatch", 1.0, 9.0, 1],
        ["exact.curve", 2.0, 8.0, 2],
        ["exact.evolve.cyclic", 3.0, 5.0, 3],
        ["exact.kernel_build", 3.0, 4.0, 4],
        ["exact.evolve.cyclic", 5.0, 5.5, 3],
        ["cli.write", 8.5, 9.0, 2],
    ]
    m = spans.layer_metrics(tree, {"exact.column_steps": 7})
    assert m["trace.wall_s"] == 10.0
    assert m["trace.self_sum_s"] == pytest.approx(9.0)
    assert m["cli.job_s.worst-tv-cyclic"] == 9.0
    assert m["cli.dispatch_self_s"] == pytest.approx(1.5)
    assert m["exact.curve_self_s"] == pytest.approx(3.5)
    # the first kernel build is reported apart from the evolve calls
    assert m["exact.kernel_build_s"] == 1.0
    assert m["exact.evolve_ms.cyclic"] == pytest.approx(1e3 * 1.5 / 2)
    assert m["cli.write_s"] == 0.5
    assert m["exact.column_steps"] == 7
    assert m["montecarlo.couple_k_decks.ns_per_trial_step"] == 0.0


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(spans.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [name for name, _ in e2e + per_layer] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, unit in e2e + per_layer:
        assert UNIT.match(unit), unit


def test_recorded_values_include_the_known_mixing_time():
    expected = runner.load_expected("paper")
    assert expected["exact"]["mix-time-top"]["t_mix"] == 68


def _toy_pass(workload, tmp_path, seed=workloads.DEFAULT_SEED):
    jobs = workloads.jobs(workload, seed, 1, "toy")
    workdir = str(tmp_path / workload)
    result = runner.run_pass(jobs, workdir)
    return jobs, workdir, result


@pytest.mark.parametrize(
    "workload, job, corrupt",
    [
        ("exact-wide", "exact-tv-top", lambda text: text.replace("0.", "0.1", 1)),
        ("montecarlo", "hits", lambda text: text.replace("\n", "\n\n", 1)),
    ],
)
def test_a_corrupted_data_file_is_a_failed_operation(tmp_path, workload, job, corrupt):
    jobs, workdir, result = _toy_pass(workload, tmp_path)
    target = next(j for j in jobs if j.name == job)
    path = os.path.join(workdir, target.out)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(corrupt(text))
    expected = runner.load_expected("toy")
    found = runner.check_pass(jobs, workdir, result, expected, True, None, None)
    assert list(found) == [job]


def test_a_missing_data_file_is_a_failed_operation(tmp_path):
    jobs, workdir, result = _toy_pass("exact-paper", tmp_path)
    os.remove(os.path.join(workdir, jobs[0].out))
    expected = runner.load_expected("toy")
    found = runner.check_pass(jobs, workdir, result, expected, True, None, None)
    assert list(found) == [jobs[0].name]


def test_sidecar_checks_flag_low_p_values_and_large_constants():
    assert checks.sidecar_problems({"details": {"chisq_p_deck_one": 0.5}}) == []
    assert checks.sidecar_problems({"details": {"r0_chisq_p": 0.0005}})
    assert checks.sidecar_problems({"details": {"r0_chisq_p": float("nan")}})
    assert checks.sidecar_problems({"fitted_constants": {"constant": 21.0}})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_smoke_pass_of_each_workload(tmp_path, workload, seed):
    summary = runner.run(
        workload, seed, seconds=0, trace=True, threads=1,
        workdir=str(tmp_path / "work"), scale="toy",
    )
    assert summary["problems"] == []
    assert summary["failed"] == 0
    jobs = workloads.jobs(workload, seed, 1, "toy")
    assert summary["attempted"] == runner.MIN_PASSES[True] * len(jobs)
    per_layer = summary["per_layer"]
    assert set(per_layer) == {name for name, _ in spans.PER_LAYER}
    for job in jobs:
        assert per_layer[f"cli.job_s.{job.name}"] > 0
    mc_time = sum(per_layer[f"montecarlo.{fn}.s"] for fn in spans.MC_FUNCTIONS)
    assert (mc_time > 0) == (workload == "montecarlo")
    assert (per_layer["exact.state_steps"] > 0) == (workload != "montecarlo")
