"""The benchmark's workloads: the CLI invocations one pass runs, in order.

Each workload is a closed loop with one client: a pass runs its jobs one
after another through ``shufflemix.cli.main`` with the arguments a user
would type. Sizes are the paper's (n=30, k=3 for the exact curves; n=100,
k=3 for the one-start regime; n=200 for the couplings); horizons and trial
counts are cut so that one pass takes a few seconds on a 2-core machine.

The ``toy`` scale keeps every job but shrinks n, horizons and trials, so the
benchmark's own tests can run a whole pass in well under a second.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

WORKLOADS = ("exact-paper", "exact-wide", "montecarlo")
SCALES = ("paper", "toy")

# The workload seed whose Monte Carlo data-file hashes and seed-dependent
# counts are recorded in expected.json.
DEFAULT_SEED = 0
# Workload seed s runs the Monte Carlo jobs with --seed CLI_SEED_BASE + s, so
# the default workload seed is the library's own default seed.
CLI_SEED_BASE = 271828

# Per-job counts that repeat exactly for a fixed seed but change with it:
# data-file bytes of seeded jobs, and the k-deck coupling's live trial-steps,
# which stop at each trial's (random) mismatch.
_MC_SEEDED = ("cli.bytes_written",)
_KDECK_SEEDED = _MC_SEEDED + ("montecarlo.couple_k_decks.trial_steps",)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its name, its arguments, and its data file."""

    name: str
    argv: tuple
    out: str
    monte_carlo: bool = False
    seed_dependent: tuple = ()

    def args(self, workdir: str) -> list:
        return [*self.argv, "--out", os.path.join(workdir, self.out)]


def cli_seed(seed: int) -> int:
    return CLI_SEED_BASE + seed


# (name, argv) per workload and scale; Monte Carlo argv get --seed/--threads.
_EXACT_PAPER = {
    "paper": (
        ("worst-tv-top", "worst-tv --rule top --n 30 --k 3 --t-max 30"),
        ("worst-tv-random", "worst-tv --rule random --n 30 --k 3 --t-max 30"),
        ("worst-tv-cyclic", "worst-tv --rule cyclic --n 30 --k 2 --t-max 60"),
        ("mix-time-top", "mix-time --rule top --n 30 --k 3"),
        ("cutoff-top", "cutoff --rule top --n 60 --k 2 --alphas 0,0.5,1"),
        ("cyclic-bound", "cyclic-bound --fit --n 60"),
        ("eig-opt", "eig-opt"),
    ),
    "toy": (
        ("worst-tv-top", "worst-tv --rule top --n 8 --k 2 --t-max 20"),
        ("worst-tv-random", "worst-tv --rule random --n 8 --k 2 --t-max 20"),
        ("worst-tv-cyclic", "worst-tv --rule cyclic --n 8 --k 2 --t-max 20"),
        ("mix-time-top", "mix-time --rule top --n 8 --k 2"),
        ("cutoff-top", "cutoff --rule top --n 10 --k 2"),
        ("cyclic-bound", "cyclic-bound --fit --n 10"),
        ("eig-opt", "eig-opt"),
    ),
}

_EXACT_WIDE = {
    "paper": (
        ("exact-tv-top", "exact-tv --rule top --n 100 --k 3 --t-max 3"),
        ("exact-tv-cyclic", "exact-tv --rule cyclic --n 100 --k 3 --t-max 3"),
    ),
    "toy": (
        ("exact-tv-top", "exact-tv --rule top --n 12 --k 3 --t-max 4"),
        ("exact-tv-cyclic", "exact-tv --rule cyclic --n 12 --k 3 --t-max 4"),
    ),
}

_MONTECARLO = {
    "paper": (
        # two blocks of 16,384 trials, so block parallelism can show
        ("couple-k-deck", "couple k-deck --rule random --n 200 --k 3 --trials 32768 --horizon 100"),
        ("couple-one-card", "couple one-card --rule cyclic --n 200 --trials 32768 --horizon 100"),
        ("couple-two-hand", "couple two-hand --n 200 --trials 32768 --horizon 100"),
        ("mc-tv", "mc-tv --rule random --n 30 --k 2 --t 60 --samples 100000"),
        ("lower-bound", "lower-bound --rule top --n 100 --k 10 --t 200 --threshold 2 --samples 32768"),
        ("hits", "hits --rule cyclic --n 200 --k 3 --t 100 --trials 32768"),
    ),
    "toy": (
        ("couple-k-deck", "couple k-deck --rule random --n 40 --k 2 --trials 2000 --horizon 30"),
        ("couple-one-card", "couple one-card --rule cyclic --n 20 --trials 2000 --horizon 40"),
        ("couple-two-hand", "couple two-hand --n 20 --trials 2000 --horizon 40"),
        ("mc-tv", "mc-tv --rule random --n 6 --k 2 --t 12 --samples 4000"),
        ("lower-bound", "lower-bound --rule top --n 20 --k 4 --t 20 --threshold 2 --samples 2000"),
        ("hits", "hits --rule cyclic --n 20 --k 3 --t 40 --trials 2000"),
    ),
}

_TABLES = {
    "exact-paper": _EXACT_PAPER,
    "exact-wide": _EXACT_WIDE,
    "montecarlo": _MONTECARLO,
}


def _data_name(name: str, argv: str) -> str:
    # the CLI's JSON subcommands, as in its default --format
    json_heads = ("mix-time", "mc-tv", "lower-bound", "hits", "eig-opt")
    return f"{name}.{'json' if argv.split()[0] in json_heads else 'csv'}"


def jobs(workload: str, seed: int, threads: int, scale: str = "paper") -> list:
    """The job list of one pass of ``workload``.

    Exact jobs take no seed: a user computing an exact curve passes none.
    Monte Carlo jobs take ``--seed cli_seed(seed)`` and ``--threads threads``.
    """
    if workload not in _TABLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    monte_carlo = workload == "montecarlo"
    out = []
    for name, argv in _TABLES[workload][scale]:
        tokens = tuple(argv.split())
        seeded = ()
        if monte_carlo:
            tokens += ("--seed", str(cli_seed(seed)), "--threads", str(threads))
            seeded = _KDECK_SEEDED if name == "couple-k-deck" else _MC_SEEDED
        out.append(Job(name, tokens, _data_name(name, argv), monte_carlo, seeded))
    return out


def job_names() -> list:
    """Every job name of every workload, in workload order."""
    return [name for table in _TABLES.values() for name, _ in table["paper"]]
