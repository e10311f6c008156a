"""Record expected.json: the outputs and counts the benchmark checks against.

Runs one traced pass of every workload at every scale with the default
workload seed and ``--threads 1`` (data files and counts do not depend on
the thread count) and stores, per job: the parsed data file of exact jobs, the
SHA-256 of Monte Carlo data files, and every count. Run it from the root of
a checkout, only at a commit whose outputs are known to be right:

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import checks
import run
import runner
import spans
import workloads


def record_scale(scale: str) -> dict:
    out = {"exact": {}, "mc_sha256": {}, "counts": {}}
    for workload in workloads.WORKLOADS:
        jobs = workloads.jobs(workload, workloads.DEFAULT_SEED, 1, scale)
        with tempfile.TemporaryDirectory(dir=runner.HERE) as workdir:
            tracer = spans.Tracer()
            restore = spans.install(tracer)
            try:
                result = runner.run_pass(jobs, workdir, tracer)
            finally:
                restore()
            for job in jobs:
                if result["codes"][job.name] != 0:
                    raise SystemExit(f"{job.name} exited with {result['codes'][job.name]}")
                data = os.path.join(workdir, job.out)
                with open(data + ".meta.json") as fh:
                    problems = checks.sidecar_problems(json.load(fh))
                if problems:
                    raise SystemExit(f"{job.name}: {problems}")
                if job.monte_carlo:
                    out["mc_sha256"][job.name] = checks.sha256(data)
                else:
                    out["exact"][job.name] = checks.parse_data(data)
                counts = checks.job_counts(job, workdir, tracer)
                out["counts"][job.name] = dict(sorted(counts.items()))
    return out


def main() -> int:
    expected = {"recorded_at": run.git_commit()}
    for scale in workloads.SCALES:
        expected[scale] = record_scale(scale)
    with open(runner.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {runner.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
