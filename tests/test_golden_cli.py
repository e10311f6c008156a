"""Golden CLI runs: every subcommand must keep writing the same bytes.

``golden_cli.json`` holds, for each case below, the exit code and the
SHA-256 of the data file the CLI writes at toy sizes (Monte Carlo cases
with a fixed ``--seed``), taken before the CLI was driven from one command
table. No case passes ``--out``, so the default file name is pinned too.
The error cases pin the documented exit codes. Sidecars carry the wall
time and are not hashed. Regenerate it only when a data file is meant to
change:

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from shufflemix.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
SEED = ("--seed", "5")

# (name, argv, data file written by default or None for an error case)
CASES = (
    ("exact-tv-top", "exact-tv --rule top --n 6 --k 2 --t-max 12", "exact-tv.csv"),
    ("exact-tv-cyclic", "exact-tv --rule cyclic --phase 2 --n 6 --k 2 --times 1,3,9",
     "exact-tv.csv"),
    ("worst-tv-random", "worst-tv --rule random --n 6 --k 2 --t-max 12", "worst-tv.csv"),
    ("worst-tv-sampled", "worst-tv --rule cyclic --n 6 --k 2 --t-max 8 --strategy sampled",
     "worst-tv.csv"),
    ("mix-time", "mix-time --rule top --n 8 --k 2", "mix-time.json"),
    ("cutoff", "cutoff --rule random --n 8 --k 2 --alphas 0,1", "cutoff.csv"),
    ("mc-tv", "mc-tv --rule random --n 6 --k 2 --t 8 --samples 2000", "mc-tv.json"),
    ("lower-bound", "lower-bound --rule top --n 10 --k 3 --t 10 --threshold 2 "
     "--samples 2000", "lower-bound.json"),
    ("couple-one-card", "couple one-card --rule cyclic --n 10 --card 3 --trials 1000 "
     "--horizon 30", "couple-one-card.csv"),
    ("couple-two-hand", "couple two-hand --n 10 --card 2 --trials 1000 --horizon 30",
     "couple-two-hand.csv"),
    ("couple-k-deck", "couple k-deck --rule random --n 12 --k 2 --trials 1000 "
     "--horizon 30", "couple-k-deck.csv"),
    ("hits", "hits --rule cyclic --n 12 --k 2 --t 20 --trials 1000", "hits.json"),
    ("tau-hat", "tau-hat --n 100", "tau-hat.json"),
    ("p0-json", "p0 --n 200 --epsilon 0.4", "p0.json"),
    ("p0-csv", "p0 --n 200 --format csv", "p0.csv"),
    ("eig-scan", "eig-scan --num 20 --xi 0.1", "eig-scan.csv"),
    ("eig-opt", "eig-opt --xi 0.1", "eig-opt.json"),
    ("cyclic-bound", "cyclic-bound --n 10 --t-max 30 --c 0.5", "cyclic-bound.csv"),
    ("cyclic-bound-fit", "cyclic-bound --n 8 --t-max 20 --fit", "cyclic-bound.csv"),
    ("cyclic-mix", "cyclic-mix --n 50 --k 3 --c 0.5", "cyclic-mix.json"),
    ("k-exceeds-n", "exact-tv --n 2 --k 3", None),
    ("horizon-exhausted", "mix-time --rule top --n 30 --epsilon 0.01 --horizon 3", None),
    ("state-cap", "mc-tv --rule random --n 100 --k 5 --t 1 --samples 10", None),
    ("unknown-subcommand", "frobnicate --n 5", None),
    ("unknown-couple-mode", "couple sideways --n 10", None),
)


def run_case(argv: str, data_file) -> dict:
    """Run one case in a fresh directory; return its exit code and data hash."""
    tokens = argv.split()
    if tokens[0] in ("mc-tv", "lower-bound", "couple", "hits"):
        tokens += SEED
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(tokens)
            out = {"exit": code}
            if data_file is not None:
                out["sha256"] = hashlib.sha256(Path(data_file).read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return out


def compute() -> dict:
    return {name: run_case(argv, data_file) for name, argv, data_file in CASES}


def test_golden_cases_all_present():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name, argv, data_file", CASES, ids=[c[0] for c in CASES])
def test_golden_cli_case(monkeypatch, name, argv, data_file):
    monkeypatch.delenv("SHUFFLE_MIX_SEED", raising=False)
    assert run_case(argv, data_file) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    os.environ.pop("SHUFFLE_MIX_SEED", None)
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
