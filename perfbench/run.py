"""Benchmark of the shufflemix CLI: one run of one workload.

    python3 perfbench/run.py --workload exact-paper --seed 0 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/shufflemix``. With
``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median time of ``import shufflemix.cli`` in fresh
  interpreters, which every CLI call pays;
- ``wall_s``: median time of one pass of the workload's job list;
- ``peak_rss_mb``: median ``ru_maxrss`` of the process running the passes;
- ``ops_ok_ratio``: jobs that passed every check over jobs attempted
  (``ops_failed_ratio`` is printed beside it, and ``failed`` is in the
  result line).

With ``--trace 1`` it reports the per-layer metrics of ``spans.PER_LAYER``
instead, from traced passes alternating with untraced ones. The last line of
standard output is a JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric by name,
unit and run count, the environment, and the exact counts of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)
# fresh interpreters timing the import; the runner's own import is one more
SETUP_SAMPLES = 4
# the whole run, set-up included, ends within this many seconds
DEADLINE_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shufflemix.cli; "
    "print(repr(time.perf_counter() - t))"
)


def child_env(threads: int) -> dict:
    """The environment of every child: the checkout's package on the path,
    no seed override, bytecode caching on as in a default install, and
    BLAS/OpenMP pools of at most ``threads``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("SHUFFLE_MIX_SEED", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= threads):
            env[var] = str(threads)
    return env


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[len("ref: "):]
    loose = _read(os.path.join(ROOT, ".git", ref)).strip()
    if loose:
        return loose
    for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int, threads: int, env: dict, versions: dict) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    return {
        **versions,
        "nproc": threads,
        "cpu": cpu,
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "commit": git_commit(),
        "workload_seed": seed,
        "cli_seed": workloads.cli_seed(seed),
        "thread_vars": {var: env[var] for var in THREAD_VARS},
    }


def setup_samples(env: dict, deadline: float) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="shufflemix CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "shufflemix", "cli.py")):
        print(f"error: no shufflemix package under {ROOT}/src", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    setup = [] if args.trace else setup_samples(env, deadline)
    workdir = os.path.join(HERE, f".work-{args.workload}-{os.getpid()}")
    result_path = workdir + ".json"
    try:
        proc = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "runner.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--threads", str(threads), "--workdir", workdir,
                "--result", result_path,
            ],
            env=env,
            cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            print(f"error: runner exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path) as fh:
            summary = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)

    for problem in summary["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    attempted, failed = summary["attempted"], summary["failed"]
    passes, traced = summary["passes"], summary["traced_passes"]
    print(f"workload {args.workload}, seed {args.seed}: {passes} untraced and "
          f"{traced} traced passes, {attempted} jobs attempted")
    if args.trace:
        metrics = {
            name: {"value": summary["per_layer"][name], "unit": unit}
            for name, unit in spans.PER_LAYER
        }
        runs = {name: f"median of {traced} traced passes ({passes} untraced)" for name in metrics}
    else:
        setup.append(summary["import_s"])
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": summary["wall_s"],
            "peak_rss_mb": summary["peak_rss_mb"],
            "ops_ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        runs = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s": f"median of {passes} passes",
            "peak_rss_mb": f"median of {passes} passes",
            "ops_ok_ratio": f"{attempted - failed} of {attempted} jobs",
        }
        print(f"  ops_failed_ratio {failed / attempted:.6g} ratio, {failed} of {attempted} jobs")
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}, {runs[name]}")
    env_block = environment(args.seed, threads, env, summary["versions"])
    print("environment: " + json.dumps(env_block, sort_keys=True))
    print("counts: " + json.dumps(summary["counts"], sort_keys=True))
    correct = failed == 0 and not summary["problems"]
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
