"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py`` with the package on ``PYTHONPATH``. It times its own
``import shufflemix.cli``, then runs passes of the workload's jobs until the
run's seconds are spent, checks every job's outputs after each pass, and
writes a JSON summary to ``--result``. With ``--trace 1`` untraced and
traced passes alternate; only traced passes have the library patched.

Usage: python3 perfbench/runner.py --workload W --seed S --seconds T
       --trace 0|1 --threads N --workdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

_started = time.perf_counter()
import shufflemix.cli as cli  # noqa: E402  (timed: this is the set-up cost)

IMPORT_S = time.perf_counter() - _started

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
# a run keeps starting passes until this many are done, even past --seconds
MIN_PASSES = {False: 3, True: 4}
# traced spans must account for the traced pass wall time within this share,
# plus the loop's own time between jobs
COVERAGE_TOL = 1e-3
COVERAGE_SLACK_S = 1e-3


def load_expected(scale: str) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[scale]


def run_pass(jobs, workdir: str, tracer=None) -> dict:
    """Run every job once through ``cli.main``; return times and exit codes."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    argvs = [job.args(workdir) for job in jobs]
    codes = {}
    cpu0 = os.times()
    root = tracer.begin("pass") if tracer else None
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for job, argv in zip(jobs, argvs):
            if tracer:
                tracer.job = job.name
                span = tracer.begin(f"job.{job.name}")
            try:
                codes[job.name] = cli.main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                codes[job.name] = exc.code
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                codes[job.name] = "exception"
            finally:
                if tracer:
                    tracer.end(span)
                    tracer.job = None
    wall = time.perf_counter() - start
    if tracer:
        tracer.end(root)
    cpu1 = os.times()
    cpu = sum(cpu1[:4]) - sum(cpu0[:4])  # user and system, self and children
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb, "codes": codes}


def check_pass(jobs, workdir, result, expected, default_seed, tracer, first) -> dict:
    """Check each job's outputs; return {job: problems} and fill per-job
    hashes and counts into ``result`` for comparison with later passes."""
    problems = {}
    result["sha256"], result["counts"] = {}, {}
    for job in jobs:
        code = result["codes"][job.name]
        found = [] if code == 0 else [f"exit code {code}"]
        found += checks.job_problems(job, workdir, expected, default_seed)
        data = os.path.join(workdir, job.out)
        digest = checks.sha256(data) if os.path.isfile(data) else None
        counts = checks.job_counts(job, workdir, tracer)
        found += checks.compare_counts(
            job, counts, expected["counts"][job.name], default_seed, tracer is not None
        )
        if first is not None:
            if digest != first["sha256"][job.name]:
                found.append(f"{job.out} differs from the run's first pass")
            if counts != first["counts"][job.name]:
                found.append("counts differ from the run's first pass")
        result["sha256"][job.name] = digest
        result["counts"][job.name] = counts
        if found:
            problems[job.name] = found
    return problems


def run(workload, seed, seconds, trace, threads, workdir, scale="paper") -> dict:
    """Passes of ``workload`` for about ``seconds``; a summary of the run."""
    jobs = workloads.jobs(workload, seed, threads, scale)
    expected = load_expected(scale)
    default_seed = seed == workloads.DEFAULT_SEED
    kinds = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    layers, problems, walls = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        # stop before a pass as long as the last two would overrun the run
        if len(walls) >= MIN_PASSES[trace] and (
            time.perf_counter() - started + max(walls[-2:]) > seconds
        ):
            break
        traced = kinds[len(walls) % len(kinds)]
        tracer = spans.Tracer() if traced else None
        restore = spans.install(tracer) if traced else None
        try:
            result = run_pass(jobs, workdir, tracer)
        finally:
            if restore:
                restore()
        first = passes[traced][0] if passes[traced] else None
        found = check_pass(jobs, workdir, result, expected, default_seed, tracer, first)
        attempted += len(jobs)
        failed += len(found)
        problems += [f"{job}: {msg}" for job, msgs in found.items() for msg in msgs]
        if traced:
            layer = spans.layer_metrics(tracer.spans, tracer.counts)
            gap = abs(layer["trace.self_sum_s"] - layer["trace.wall_s"])
            if gap > COVERAGE_TOL * layer["trace.wall_s"] + COVERAGE_SLACK_S:
                problems.append(f"trace: spans cover the pass only to within {gap:.6f} s")
            layers.append(layer)
        del result["codes"]
        passes[traced].append(result)
        walls.append(result["wall_s"])
    shutil.rmtree(workdir, ignore_errors=True)

    untraced = passes[False]
    summary = {
        "passes": len(untraced),
        "traced_passes": len(passes[True]),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
        "counts": untraced[0]["counts"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if trace:
        per_layer = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        for name in spans.COUNT_METRICS:
            if len({layer[name] for layer in layers}) != 1:
                problems.append(f"trace: count {name} differs between traced passes")
            per_layer[name] = layers[0][name]
        per_layer["proc.cpu_s"] = summary["cpu_s"]
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - summary["wall_s"]
        summary["per_layer"] = per_layer
        summary["counts"] = passes[True][0]["counts"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    import numpy
    import scipy

    summary = run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.threads, args.workdir
    )
    summary["import_s"] = IMPORT_S
    summary["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with open(args.result, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
