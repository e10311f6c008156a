"""Output checks: a job that fails one of these counts as a failed operation.

- Exact data files must match the values recorded in ``expected.json``
  within ``EXACT_TOL`` (integers and strings exactly).
- Monte Carlo data files must match the recorded SHA-256 at the default
  workload seed. At any seed, every chi-square p-value in the sidecar must
  exceed ``MIN_CHISQ_P`` and the k-deck fitted constant must be at most
  ``MAX_KDECK_CONSTANT``.
- At any seed, each job's data file must be byte-identical in every pass of
  a run, and its counts must repeat exactly (see ``compare_counts``).
"""

from __future__ import annotations

import hashlib
import json
import os

EXACT_TOL = 1e-12
MIN_CHISQ_P = 0.001
MAX_KDECK_CONSTANT = 20.0


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _number(token: str):
    try:
        return int(token)
    except ValueError:
        return float(token)


def parse_data(path: str):
    """A data file as values: a JSON document, or CSV header plus rows."""
    with open(path) as fh:
        if path.endswith(".json"):
            return json.load(fh)
        lines = fh.read().splitlines()
    return [lines[0].split(",")] + [[_number(t) for t in line.split(",")] for line in lines[1:]]


def mismatches(got, want, where: str = "") -> list:
    """Where ``got`` differs from ``want``: floats by more than EXACT_TOL."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return [f"{where}: {got!r} != {want!r}"]
        if abs(got - want) <= EXACT_TOL:
            return []
        return [f"{where}: {got!r} differs from {want!r} by more than {EXACT_TOL}"]
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [p for key in want for p in mismatches(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in mismatches(g, w, f"{where}[{i}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def sidecar_problems(sidecar: dict) -> list:
    """Statistical checks on a Monte Carlo sidecar, valid at any seed."""
    problems = []
    for key, value in sorted(sidecar.get("details", {}).items()):
        if "chisq_p" in key and not value > MIN_CHISQ_P:  # NaN fails too
            problems.append(f"sidecar {key} = {value!r} is not above {MIN_CHISQ_P}")
    fitted = sidecar.get("fitted_constants")
    if fitted is not None and not fitted["constant"] <= MAX_KDECK_CONSTANT:
        problems.append(
            f"fitted constant {fitted['constant']!r} exceeds {MAX_KDECK_CONSTANT}"
        )
    return problems


def job_problems(job, workdir: str, expected: dict, default_seed: bool) -> list:
    """Check one job's files after a pass; an empty list means it passed."""
    data = os.path.join(workdir, job.out)
    sidecar = data + ".meta.json"
    missing = [p for p in (data, sidecar) if not os.path.isfile(p)]
    if missing:
        return [f"missing {os.path.basename(p)}" for p in missing]
    if not job.monte_carlo:
        return mismatches(parse_data(data), expected["exact"][job.name], job.out)
    problems = []
    if default_seed and sha256(data) != expected["mc_sha256"][job.name]:
        problems.append(f"{job.out} does not match its recorded SHA-256")
    with open(sidecar) as fh:
        problems += sidecar_problems(json.load(fh))
    return problems


def job_counts(job, workdir: str, tracer=None) -> dict:
    """A job's counts after a pass: files written and data-file bytes, from
    the directory, or every count the tracer took when the pass was traced."""
    data = os.path.join(workdir, job.out)
    files = [p for p in (data, data + ".meta.json") if os.path.isfile(p)]
    size = os.path.getsize(data) if os.path.isfile(data) else 0
    counts = {"cli.files_written": len(files), "cli.bytes_written": size}
    if tracer is not None:
        counts.update(tracer.job_counts[job.name])
    return counts


def compare_counts(job, got: dict, want: dict, default_seed: bool, full: bool) -> list:
    """Counts must equal the recorded ones ``want``: every recorded key when
    ``full`` (a traced pass), else only the keys in ``got``. Seed-dependent
    counts are recorded for the default seed only."""
    keys = set(got) | set(want) if full else set(got)
    problems = []
    for key in sorted(keys):
        if key in job.seed_dependent and not default_seed:
            continue
        if got.get(key, 0) != want.get(key, 0):
            problems.append(f"count {key} = {got.get(key, 0)}, recorded {want.get(key, 0)}")
    return problems
