"""Command line contract: files, formats, seeds, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shufflemix.cli import (
    COMMAND_TABLE,
    COMMANDS,
    COUPLE_MODES,
    _float_list,
    _int_list,
    build_parser,
    config_from_args,
    main,
)
from shufflemix.errors import ParameterError
from shufflemix.exact import LumpedEvolver
from shufflemix.indexing import DEFAULT_STATE_CAP
from shufflemix.rng import DEFAULT_SEED

from conftest import run_bounded


def run(tmp_path, *argv):
    """Invoke the CLI in-process with outputs under tmp_path."""
    return main([str(a) for a in argv])


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_command_list_is_stable():
    assert COMMANDS == (
        "exact-tv",
        "worst-tv",
        "mix-time",
        "cutoff",
        "mc-tv",
        "lower-bound",
        "couple",
        "hits",
        "tau-hat",
        "p0",
        "eig-scan",
        "eig-opt",
        "cyclic-bound",
        "cyclic-mix",
    )


def test_exact_tv_curve_file(tmp_path, capsys):
    code = run(tmp_path, "exact-tv", "--rule", "top", "--n", "20", "--k", "1",
               "--t-max", "100", "--out", "curve.csv")
    assert code == 0
    header, rows = read_csv(tmp_path / "curve.csv")
    assert header == "t,tv"
    assert len(rows) == 100
    for t_str, tv_str in rows:
        assert float(tv_str) <= math.exp(-int(t_str) / 20.0) + 1e-12
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["config"]["command"] == "exact-tv"
    assert meta["config"]["seed"] == DEFAULT_SEED
    assert meta["data_file"] == "curve.csv"
    assert "wall_time_s" in meta and "version" in meta
    assert "-> curve.csv" in capsys.readouterr().out


def test_eig_opt_reproduces_window(tmp_path):
    assert run(tmp_path, "eig-opt", "--xi", "0", "--out", "opt.json") == 0
    rec = json.loads((tmp_path / "opt.json").read_text())
    assert abs(rec["epsilon"] - 0.442) < 0.005
    assert abs(rec["lambda"] - 0.237) < 0.005
    assert rec["unimodal"] is True


def test_k_larger_than_n_is_parameter_error(tmp_path, capsys):
    code = run(tmp_path, "exact-tv", "--n", "2", "--k", "3")
    assert code == 2
    assert "k exceeds n (k=3, n=2)" in capsys.readouterr().err


def exits_2_listing(tmp_path, capsys, argv, choices):
    """argparse rejects argv: exit 2, its usage and the valid choices on
    stderr, and no file."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err and all(choice in err for choice in choices)
    assert not list(tmp_path.iterdir())


def test_unknown_subcommand(tmp_path, capsys):
    exits_2_listing(tmp_path, capsys, ("frobnicate", "--n", "5"), COMMANDS)


def test_no_subcommand(tmp_path, capsys):
    exits_2_listing(tmp_path, capsys, (), COMMANDS)


def test_unknown_couple_mode(tmp_path, capsys):
    exits_2_listing(tmp_path, capsys, ("couple", "sideways", "--n", "10"), COUPLE_MODES)


def test_couple_help_lists_the_modes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "couple", "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(mode in out for mode in COUPLE_MODES)


def test_couple_without_mode_prints_usage(tmp_path, capsys):
    exits_2_listing(tmp_path, capsys, ("couple", "--n", "10"), COUPLE_MODES)


def test_couple_flag_before_the_mode_names_the_missing_mode(tmp_path, capsys):
    """``couple --n 10`` is one usage error naming the missing mode, not
    argparse's ``invalid choice: '10'``."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "couple", "--n", "10")
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "missing couple mode" in errors[0]
    assert "invalid choice" not in errors[0] and "before --n" in errors[0]
    assert all(mode in errors[0] for mode in COUPLE_MODES)
    assert not list(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "couple", "--he")  # argparse's abbreviated --help still helps
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    "lower-bound --n 10 --k 2 --t -5",
    "couple one-card --n 10 --horizon 0",
    "couple two-hand --n 10 --horizon -2",
    "exact-tv --n 5 --t-max 0",
    "worst-tv --n 5 --t-max 0",
    "cyclic-bound --n 10 --t-max 0",
    "cyclic-bound --n 10 --t-max -5",
    "eig-scan --num 0",
    "eig-scan --num -1",
    "mix-time --n 6 --k 2 --horizon -5",
    # either-or flag pairs: neither value is dropped silently
    "exact-tv --n 5 --times 2 --t-max 3",
    "worst-tv --n 5 --times 2 --t-max 0",
    "cyclic-bound --n 8 --t-max 5 --fit --c 2",
])
def test_out_of_range_step_counts_exit_2(tmp_path, capsys, argv):
    assert run(tmp_path, *argv.split()) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_ABOVE_INT64, _INT64_MAX = "99999999999999999999", "9223372036854775807"


@pytest.mark.parametrize("code, argv", [
    (2, "cutoff --n 6 --k 2 --alphas=1e300"),
    (2, f"cutoff --n {_ABOVE_INT64} --k 2"),
    (2, f"worst-tv --n 5 --k 2 --times {_ABOVE_INT64}"),
    (2, f"exact-tv --n 5 --t-max {_ABOVE_INT64}"),
    (2, f"worst-tv --n 5 --t-max {_ABOVE_INT64}"),
    (2, f"cyclic-bound --n 6 --t-max {_ABOVE_INT64}"),
    (2, f"eig-scan --num {_ABOVE_INT64}"),
    (3, f"eig-scan --num {_INT64_MAX}"),
    (2, f"hits --n {_ABOVE_INT64} --t 5 --threads 1"),
    (2, f"lower-bound --n {_ABOVE_INT64} --t 5 --threads 1"),
    *((2, f"couple {mode} --n {_ABOVE_INT64} --threads 1") for mode in COUPLE_MODES),
    *((3, f"couple {mode} --n {_INT64_MAX} --threads 1") for mode in COUPLE_MODES),
    (2, f"couple k-deck --n 6 --k 2 --trials 100 --horizon {_ABOVE_INT64} --threads 1"),
    # state counts with thousands of digits pass the cap at once
    (3, "worst-tv --rule random --n 20000 --k 10000 --t-max 1"),
    (3, "mc-tv --rule random --n 20000 --k 10000 --t 1 --samples 10 --threads 1"),
    (3, f"exact-tv --rule top --n {_INT64_MAX} --k 200000 --t-max 1"),
])
def test_numbers_numpy_cannot_hold_exit_2_or_3(tmp_path, capsys, code, argv):
    """A value past int64 is an invalid parameter (2); an array longer than
    numpy can address is a resource limit (3), as running out of memory is."""
    assert run(tmp_path, *argv.split()) == code
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    "cyclic-mix --n 50 --k 3 --c={}",
    "cyclic-bound --n 20 --c={}",
    "cutoff --n 6 --k 2 --alphas={}",
    "cutoff --n 6 --k 2 --alphas=0,{}",
])
def test_non_finite_inputs_exit_2_without_files(tmp_path, capsys, argv, value):
    assert run(tmp_path, *argv.format(value).split()) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cap_exceeded_is_exit_3(tmp_path, capsys):
    above = str(DEFAULT_STATE_CAP + 1)  # tau-hat and p0 tabulate n values
    for argv in ("mc-tv --rule random --n 100 --k 5 --t 1 --samples 10",
                 f"tau-hat --n {above}", f"p0 --n {above}"):
        assert run(tmp_path, *argv.split()) == 3, argv
        assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _run_in_2_gib(tmp_path, argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a child interpreter whose address space is capped at
    2 GiB, with one BLAS thread so that importing numpy fits in it."""
    resource = pytest.importorskip("resource")  # POSIX only

    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH", "")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "shufflemix.cli", *argv.split()], cwd=tmp_path, env=env,
        preexec_fn=limit, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("code, message, argv", [
    (3, "state cap", "exact-tv --n 1000000000 --k 100000000 --t-max 1"),
    (3, "state cap", "worst-tv --n 10000001 --k 1"),
    (3, "state cap", "worst-tv --rule random --n 3000 --k 3 --t-max 100000000"),
    (2, "k must be at least 1, got 0", "exact-tv --n 2000000000 --k 0"),
    (2, "k exceeds n (k=10000002, n=10000001)", "worst-tv --n 10000001 --k 10000002"),
])
def test_k_and_the_state_cap_are_checked_before_the_start_and_the_grid(
    tmp_path, code, message, argv
):
    """Under a 2 GiB address-space limit these end at the k or state-cap
    check, before a start tuple of 10^8 positions or a grid of up to 2 * 10^10
    times runs out of memory."""
    proc = _run_in_2_gib(tmp_path, argv)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr and proc.stderr.count("error:") == 1
    assert "Traceback" not in proc.stderr
    assert not list(tmp_path.iterdir())


def test_out_of_memory_is_exit_3(tmp_path, capsys, monkeypatch):
    def exhausted(n):
        raise MemoryError
    monkeypatch.setattr("shufflemix.cli.tau_hat_moments", exhausted)
    assert run(tmp_path, "tau-hat", "--n", "100") == 3
    assert "error: out of memory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_horizon_exhausted_is_exit_3(tmp_path, capsys):
    code = run(tmp_path, "mix-time", "--rule", "top", "--n", "30",
               "--epsilon", "0.01", "--horizon", "3")
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_mix_time_record(tmp_path):
    assert run(tmp_path, "mix-time", "--rule", "top", "--n", "12", "--k", "2",
               "--epsilon", "0.25", "--out", "mix.json") == 0
    rec = json.loads((tmp_path / "mix.json").read_text())
    assert rec["op"] == "mix-time"
    assert rec["t_mix"] >= 1 and rec["tv"] < 0.25
    assert rec["params"]["n"] == 12
    assert "threads" not in rec["params"] and "out" not in rec["params"]


def test_cutoff_schema_and_default_alphas(tmp_path):
    assert run(tmp_path, "cutoff", "--rule", "top", "--n", "40", "--k", "2",
               "--out", "cut.csv") == 0
    header, rows = read_csv(tmp_path / "cut.csv")
    assert header == "alpha,t,tv,bound"
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_couple_one_card_survival_file(tmp_path):
    assert run(tmp_path, "couple", "one-card", "--rule", "top", "--n", "12",
               "--trials", "4000", "--horizon", "50", "--out", "c.csv") == 0
    header, rows = read_csv(tmp_path / "c.csv")
    assert header == "t,survivors,trials"
    assert len(rows) == 51
    survivors = [int(r[1]) for r in rows]
    assert all(a >= b for a, b in zip(survivors, survivors[1:]))
    assert all(int(r[2]) == 4000 for r in rows)
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["details"]["chisq_p_deck_one"] > 0.001


def test_couple_k_deck_sidecar_has_fit(tmp_path):
    assert run(tmp_path, "couple", "k-deck", "--rule", "top", "--n", "40",
               "--k", "2", "--trials", "3000", "--horizon", "120",
               "--out", "kd.csv") == 0
    meta = json.loads((tmp_path / "kd.csv.meta.json").read_text())
    assert meta["fitted_constants"]["constant"] > 0.0
    assert len(meta["situation_totals"]) == 4
    assert meta["details"]["r0_chisq_p"] > 0.001


def test_tau_hat_record(tmp_path):
    assert run(tmp_path, "tau-hat", "--n", "10000", "--out", "tau.json") == 0
    rec = json.loads((tmp_path / "tau.json").read_text())
    assert 0.36 <= rec["mean_over_n"] <= 0.375
    assert rec["variance"] > 0.0


def test_p0_outside_zero_one_is_exit_2(tmp_path, capsys):
    assert run(tmp_path, "p0", "--n", "60") == 2
    assert "outside [0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_domain_error_prints_plain_floats(tmp_path, capsys):
    assert run(tmp_path, "eig-opt", "--xi", "100") == 2
    err = capsys.readouterr().err
    assert "outside [0, 1]" in err and "np.float64" not in err


def test_p0_record_scrubs_plumbing(tmp_path):
    assert run(tmp_path, "p0", "--n", "1000", "--epsilon", "0.442",
               "--out", "p0.json") == 0
    rec = json.loads((tmp_path / "p0.json").read_text())
    assert abs(rec["p0"] - rec["p0_closed_form"]) < 5.0 / 1000
    assert rec["m"] == 442
    assert "threads" not in rec["params"] and "out" not in rec["params"]


def test_eig_scan_schema(tmp_path):
    assert run(tmp_path, "eig-scan", "--num", "25", "--out", "scan.csv") == 0
    header, rows = read_csv(tmp_path / "scan.csv")
    assert header == "epsilon,lambda2"
    assert len(rows) == 25
    lams = [float(r[1]) for r in rows]
    assert min(lams) < 0.25 < max(lams)


def test_cyclic_bound_fit(tmp_path):
    assert run(tmp_path, "cyclic-bound", "--n", "30", "--t-max", "90", "--fit",
               "--out", "cb.csv") == 0
    header, rows = read_csv(tmp_path / "cb.csv")
    assert header == "t,bound"
    assert len(rows) == 90
    meta = json.loads((tmp_path / "cb.csv.meta.json").read_text())
    c = meta["bound_params"]["c"]
    assert c > 0.0
    assert meta["bound_params"] == {"c": c, "lam": 0.237, "rate": 0.693}


def test_cyclic_bound_given_c_records_the_fixed_constants(tmp_path):
    assert run(tmp_path, "cyclic-bound", "--n", "30", "--t-max", "5", "--c", "2.5",
               "--out", "cb.csv") == 0
    meta = json.loads((tmp_path / "cb.csv.meta.json").read_text())
    assert meta["bound_params"] == {"c": 2.5, "lam": 0.237, "rate": 0.693}


def test_cyclic_mix_record(tmp_path):
    assert run(tmp_path, "cyclic-mix", "--n", "200", "--k", "4", "--c", "0.5",
               "--out", "cm.json") == 0
    rec = json.loads((tmp_path / "cm.json").read_text())
    assert rec["t"] >= 1
    assert rec["generic_bound"] == pytest.approx(200 * (math.log(4) + 1.5))


def test_cyclic_bound_fit_refuses_a_lower_bound(tmp_path, capsys, monkeypatch):
    """Past the start budget the worst case is only sampled: no c is fitted."""
    monkeypatch.setattr("shufflemix.exact._EXHAUSTIVE_BUDGET", 63)
    assert run(tmp_path, "cyclic-bound", "--n", "8", "--t-max", "10", "--fit") == 2
    err = capsys.readouterr().err
    assert err.startswith(LOWER_BOUND_NOTE + "\nerror:")
    assert not (tmp_path / "cyclic-bound.csv").exists()


def test_cyclic_bound_fit_refuses_a_zero_curve(tmp_path, capsys):
    """At n = 2 one step mixes the card: no positive c fits a zero curve."""
    assert run(tmp_path, "cyclic-bound", "--n", "2", "--fit", "--t-max", "3") == 2
    assert "no c > 0 fits" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _arguments(spec):
    """(flag, argparse keywords) of every flag an entry offers, --out too."""
    return (*spec.flags, ("--out", {}))


def words(name):
    """The argv words that select a COMMAND_TABLE entry."""
    return ["couple", name[len("couple-"):]] if name.startswith("couple-") else [name]


def _choices(name, flag):
    parser = build_parser()
    for word in words(name):
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    action = next(a for a in parser._actions if flag in a.option_strings)
    return action.choices


# worst-tv runs, and the start label the rule and state count give each
START_LABELS = {
    "--rule random --n 5 --k 2": "exact-canonical",
    "--rule cyclic --n 6 --k 2": "exhaustive",
    "--rule cyclic --n 16 --k 3": "sampled-lower-bound",  # 3360 states, 3360^2 over budget
}


LOWER_BOUND_NOTE = "note: sampled starts: this worst case is only a lower bound"


def test_worst_tv_start_labels(tmp_path, capsys):
    for argv, label in START_LABELS.items():
        assert run(tmp_path, "worst-tv", *argv.split(), "--t-max", "4",
                   "--out", "w.csv") == 0, argv
        meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
        assert meta["start_strategy"] == label, argv
        sampled = label == "sampled-lower-bound"
        assert meta["lower_bound_only"] == sampled
        assert capsys.readouterr().err.count(LOWER_BOUND_NOTE) == sampled, argv


@pytest.mark.parametrize("argv, sampled", [
    ("cutoff --rule cyclic --n 16 --k 3 --alphas 0", True),
    ("cutoff --rule cyclic --n 6 --k 2 --alphas 0", False),
    ("mix-time --rule cyclic --n 16 --k 3", True),
    ("mix-time --rule top --n 8 --k 2", False),
])
def test_lower_bound_note_on_stderr(tmp_path, capsys, argv, sampled):
    """Only a worst case over sampled starts says on stderr, once, that it
    is a lower bound."""
    assert run(tmp_path, *argv.split(), "--out", "o.out") == 0
    assert capsys.readouterr().err.count(LOWER_BOUND_NOTE) == sampled


@pytest.mark.parametrize("argv, note", [
    ("couple k-deck --rule random --n 12 --k 2 --trials 100 --horizon 30",
     "note: k^2 log(max(horizon, 2)) = 13.6 is not small against n=12"),
    ("mc-tv --rule random --n 12 --k 2 --t 3 --samples 100",
     "note: samples=100 is below 100x the state count 132"),
])
def test_library_warning_is_one_note_line(tmp_path, capsys, argv, note):
    """A library warning reaches stderr as one note line, not as a warning
    trace that quotes the CLI's own source."""
    assert run(tmp_path, *argv.split(), "--out", "w.out") == 0
    err = capsys.readouterr().err
    assert err.startswith(note) and err.count("\n") == 1
    assert "cli.py" not in err and "UserWarning" not in err


def test_library_warning_is_noted_when_the_run_fails(tmp_path, capsys, monkeypatch):
    def warn_then_fail(config):
        warnings.warn("weak regime")
        raise ParameterError("bad input")

    monkeypatch.setattr("shufflemix.cli.dispatch", warn_then_fail)
    assert run(tmp_path, "hits", "--rule", "top", "--n", "8", "--t", "3") == 2
    assert capsys.readouterr().err == "note: weak regime\nerror: bad input\n"


@pytest.mark.parametrize("argv", [
    "exact-tv --rule top --n 6 --k 2 --t-max 5",
    "worst-tv --rule cyclic --n 5 --k 2 --t-max 5",
    "cutoff --rule random --n 6 --k 2",
    "mix-time --rule top --n 12 --k 2",
])
def test_exact_curve_sidecars_record_mass_drift(tmp_path, argv):
    assert run(tmp_path, *argv.split(), "--out", "c.csv") == 0
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert 0.0 <= meta["max_mass_drift"] < 1e-14


@pytest.mark.parametrize("argv", [
    "exact-tv --rule top --n 6 --k 2 --t-max 3 --phase 3",
    "couple one-card --rule random --n 8 --trials 100 --horizon 5 --phase 1",
])
def test_phase_outside_the_cyclic_rule_is_exit_2(tmp_path, capsys, argv):
    assert run(tmp_path, *argv.split(), "--out", "p.csv") == 2
    assert "phase needs the cyclic rule" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_top_rule_every_card_tracked_cli(tmp_path):
    assert run(tmp_path, "worst-tv", "--rule", "top", "--n", "3", "--k", "3",
               "--t-max", "10", "--out", "w.csv") == 0
    assert run(tmp_path, "mix-time", "--rule", "top", "--n", "4", "--k", "4",
               "--out", "m.json") == 0


def test_mass_drift_is_exit_3(tmp_path, monkeypatch, capsys):
    step = LumpedEvolver.step
    monkeypatch.setattr(
        LumpedEvolver, "step", lambda self, p, t: step(self, p, t) * (1.0 - 1e-6)
    )
    assert run(tmp_path, "worst-tv", "--rule", "top", "--n", "6", "--k", "2",
               "--t-max", "5", "--out", "w.csv") == 3
    assert "drift" in capsys.readouterr().err


def test_hits_record(tmp_path):
    assert run(tmp_path, "hits", "--rule", "cyclic", "--n", "50", "--k", "2",
               "--t", "200", "--trials", "2000", "--threads", "3",
               "--out", "h.json") == 0
    rec = json.loads((tmp_path / "h.json").read_text())
    assert rec["estimate"] > 0.0
    assert rec["fitted_constants"]["constant"] > 0.0
    assert set(rec["tallies"]) == {"fit_constant", "fit_shape", "shape_value"}
    assert "threads" not in rec["params"] and "out" not in rec["params"]


# every Monte Carlo subcommand at 20,000 trials: two blocks of trials
_MC_TWO_BLOCKS = (
    ["mc-tv", "--rule", "top", "--n", "10", "--k", "2", "--t", "8",
     "--samples", "20000"],
    ["lower-bound", "--rule", "random", "--n", "12", "--k", "3", "--t", "10",
     "--samples", "20000"],
    ["hits", "--rule", "cyclic", "--n", "12", "--k", "2", "--t", "10",
     "--trials", "20000"],
    ["couple", "one-card", "--rule", "top", "--n", "15", "--trials", "20000",
     "--horizon", "20"],
    ["couple", "two-hand", "--n", "15", "--trials", "20000", "--horizon", "20"],
    ["couple", "k-deck", "--rule", "random", "--n", "40", "--k", "2",
     "--trials", "20000", "--horizon", "20"],
)


def test_data_files_identical_across_threads(tmp_path):
    """The worker count never touches the data file, only the sidecar."""
    two_blocks = min(2, len(os.sched_getaffinity(0)))
    for cmd in _MC_TWO_BLOCKS:
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert run(tmp_path, *cmd, "--seed", "5", "--threads", "1", "--out", a) == 0
        assert run(tmp_path, *cmd, "--seed", "5", "--threads", "7", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes(), cmd[0]
        meta_a = json.loads((tmp_path / "a.out.meta.json").read_text())
        meta_b = json.loads((tmp_path / "b.out.meta.json").read_text())
        assert meta_a["config"]["threads"] == 1
        assert meta_b["config"]["threads"] == 7
        assert (meta_a["workers"], meta_b["workers"]) == (1, two_blocks), cmd


def test_huge_threads_clamped_to_cpus(tmp_path):
    cmd = ["hits", "--rule", "top", "--n", "10", "--k", "2", "--t", "4",
           "--trials", "100000", "--threads", "1000000", "--out", "h.json"]
    assert run(tmp_path, *cmd) == 0
    meta = json.loads((tmp_path / "h.json.meta.json").read_text())
    assert meta["config"]["threads"] == 1000000
    assert 1 <= meta["workers"] <= len(os.sched_getaffinity(0))


def test_same_seed_same_bytes_different_seed_differs(tmp_path):
    base = ["mc-tv", "--rule", "random", "--n", "8", "--k", "1", "--t", "4",
            "--samples", "5000"]
    run(tmp_path, *base, "--seed", "1", "--out", "s1.json")
    run(tmp_path, *base, "--seed", "1", "--out", "s1b.json")
    run(tmp_path, *base, "--seed", "2", "--out", "s2.json")
    s1 = (tmp_path / "s1.json").read_text()
    assert s1 == (tmp_path / "s1b.json").read_text()
    assert s1 != (tmp_path / "s2.json").read_text()


def test_seed_flag_sets_the_seed(tmp_path):
    base = ["mc-tv", "--rule", "top", "--n", "8", "--k", "1", "--t", "3",
            "--samples", "2000"]
    run(tmp_path, *base, "--seed", "123", "--out", "flag.json")
    assert json.loads((tmp_path / "flag.json").read_text())["seed"] == 123


def test_default_output_name_follows_command(tmp_path):
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(["tau-hat", "--n", "100"]))
    assert cfg["out"] == "tau-hat.json" and cfg["format"] == "json"
    cfg = config_from_args(parser.parse_args(
        ["couple", "two-hand", "--n", "10"]))
    assert cfg["command"] == "couple-two-hand"
    assert cfg["out"] == "couple-two-hand.csv" and cfg["format"] == "csv"


def test_config_echo_roundtrip(tmp_path):
    parser = build_parser()
    echo = config_from_args(parser.parse_args(
        ["hits", "--n", "9", "--k", "2", "--t", "5", "--seed", "4", "--threads", "2"]))
    assert echo["command"] == "hits"
    assert echo["seed"] == 4
    assert echo["threads"] == 2
    assert echo["n"] == 9 and echo["k"] == 2


def test_parser_is_built_once_and_reused_after_a_usage_error(tmp_path, capsys):
    """Every call shares one parser; a usage error (exit 2) leaves nothing
    behind in it, so the next parse gives the config it would alone."""
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "hits", "--n", "9", "--k", "2", "--t", "x")
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    echo = config_from_args(build_parser().parse_args(
        ["hits", "--rule", "cyclic", "--n", "9", "--t", "5"]))
    assert echo == config_from_args(argparse.Namespace(
        command="hits", rule="cyclic", n=9, k=1, phase=0, t=5, trials=100_000,
        seed=DEFAULT_SEED, threads=None, out=None))
    assert echo["out"] == "hits.json" and echo["format"] == "json"


def test_threads_below_one_is_parameter_error(tmp_path, capsys):
    for threads in ("0", "-2"):
        assert run(tmp_path, "mc-tv", "--n", "6", "--t", "3", "--threads", threads) == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "mc-tv.json").exists()


def test_bad_number_list_is_usage_exit_2(tmp_path, capsys):
    for argv in (["exact-tv", "--n", "5", "--times", "1,x"],
                 ["cutoff", "--n", "5", "--alphas", "0,y"],
                 ["exact-tv", "--n", "6", "--times", ","],
                 ["cutoff", "--n", "5", "--alphas", ","]):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2
        assert "expected comma-separated" in capsys.readouterr().err


# one toy invocation per COMMAND_TABLE entry
TOY = {
    "exact-tv": "--n 5 --k 2 --t-max 4",
    "worst-tv": "--rule random --n 5 --k 2 --t-max 4",
    "mix-time": "--n 5 --k 2",
    "cutoff": "--n 6 --k 2 --alphas 0,1",
    "mc-tv": "--n 5 --k 1 --t 3 --samples 500",
    "lower-bound": "--n 8 --k 2 --t 4 --samples 500",
    "couple-one-card": "--n 8 --trials 200 --horizon 10",
    "couple-two-hand": "--n 8 --trials 200 --horizon 10",
    "couple-k-deck": "--n 12 --k 2 --trials 200 --horizon 10",
    "hits": "--n 8 --k 2 --t 10 --trials 200",
    "tau-hat": "--n 50",
    "p0": "--n 100",
    "eig-scan": "--num 5",
    "eig-opt": "--xi 0.1",
    "cyclic-bound": "--n 8 --t-max 10",
    "cyclic-mix": "--n 40 --k 2",
}


def _assert_format(name, out, fmt):
    if fmt == "json":
        assert json.loads(out.read_text())["op"] == name
    else:
        header, rows = read_csv(out)
        assert rows and all(len(r) == header.count(",") + 1 for r in rows)
        assert all(math.isfinite(float(v)) for r in rows for v in r), name


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_every_format_choice_writes_that_format(tmp_path, capsys):
    """Only p0 writes two formats, so only p0 offers --format; every other
    entry writes its table format by default and rejects the flag."""
    assert sorted(TOY) == sorted(COMMAND_TABLE)
    assert [n for n, c in COMMAND_TABLE.items() if "--format" in dict(c.flags)] == ["p0"]
    assert _choices("p0", "--format") == ("json", "csv")
    for fmt in ("json", "csv"):
        out = tmp_path / f"p0.{fmt}"
        assert run(tmp_path, "p0", *TOY["p0"].split(), "--format", fmt,
                   "--out", out) == 0, fmt
        _assert_format("p0", out, fmt)
    for name, argv in TOY.items():
        if name == "p0":
            continue
        fmt = COMMAND_TABLE[name].format
        base = [*words(name), *argv.split()]
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *base, "--format", fmt)
        assert exc.value.code == 2, name
        assert "unrecognized arguments" in capsys.readouterr().err
        assert run(tmp_path, *base) == 0, name
        _assert_format(name, tmp_path / f"{name}.{fmt}", fmt)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", sorted(COMMAND_TABLE))
def test_every_sidecar_records_peak_rss(tmp_path, name):
    """Every subcommand's sidecar holds the process's peak resident set so
    far, and the worker pool's only when one ran."""
    out = tmp_path / "run.out"
    assert run(tmp_path, *words(name), *TOY[name].split(), "--out", out) == 0
    meta = json.loads((tmp_path / "run.out.meta.json").read_text())
    assert type(meta["peak_rss_mb"]) is float and meta["peak_rss_mb"] > 0, name
    assert ("workers_peak_rss_mb" in meta) == (meta.get("workers", 1) > 1), name


def test_sidecar_records_the_worker_pool_peak_rss(tmp_path):
    assert run(tmp_path, "hits", "--n", "8", "--k", "2", "--t", "10",
               "--trials", "20000", "--threads", "2", "--out", "h.json") == 0
    meta = json.loads((tmp_path / "h.json.meta.json").read_text())
    if meta["workers"] == 1:
        pytest.skip("one usable CPU: the trial blocks ran in this process")
    assert type(meta["workers_peak_rss_mb"]) is float
    assert meta["workers_peak_rss_mb"] > 0


_SCIPY_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import shufflemix
import shufflemix.cli as cli
seen = {"import": scipy_modules()}
for name, argv in %r:
    assert cli.main(argv) == 0, name
    seen[name] = scipy_modules()
print(json.dumps(seen))
"""


def test_cli_start_loads_no_scipy():
    """Importing the package loads no scipy module, nor do hits and mc-tv;
    only the couplings' chi-square p-values load scipy.special, never
    scipy.stats."""
    calls = [(name, [*words(name), *TOY[name].split(), "--threads", "1"])
             for name in ("hits", "mc-tv", "couple-one-card")]
    # the CLI prints one line per file written; the probe prints last
    seen = json.loads(run_bounded(_SCIPY_PROBE % calls).splitlines()[-1])
    assert seen["import"] == seen["hits"] == seen["mc-tv"] == []
    loaded = seen["couple-one-card"]
    assert "scipy.special" in loaded and "scipy.stats" not in loaded


# flags each couple mode ignored before it stopped offering them
IGNORED_COUPLE_FLAGS = {
    "one-card": (("--k", "2"), ("--card", "2")),
    "two-hand": (("--rule", "top"), ("--phase", "1"), ("--k", "4"), ("--card", "2")),
    "k-deck": (("--card", "2"),),
}
# the subcommands that run no trials, and so ignored --threads
NO_TRIALS = ("exact-tv", "worst-tv", "mix-time", "cutoff", "tau-hat", "p0",
             "eig-scan", "eig-opt", "cyclic-bound", "cyclic-mix")


def _offers_only_the_flags_it_reads(tmp_path, capsys, name, base, ignored):
    """Each ignored flag is a usage error, and absent from the sidecar."""
    for flag, value in ignored:
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *base, flag, value)
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err
    assert run(tmp_path, *base, "--out", "c.out") == 0
    config = json.loads((tmp_path / "c.out.meta.json").read_text())["config"]
    offered = {flag for flag, _ in _arguments(COMMAND_TABLE[name])}
    for flag, _ in ignored:
        assert flag not in offered and flag[2:] not in config


@pytest.mark.parametrize("mode", COUPLE_MODES)
def test_couple_mode_offers_only_the_flags_it_reads(tmp_path, capsys, mode):
    base = ["couple", mode, "--n", "8", "--trials", "100", "--horizon", "5"]
    _offers_only_the_flags_it_reads(
        tmp_path, capsys, f"couple-{mode}", base, IGNORED_COUPLE_FLAGS[mode]
    )


def test_threads_offered_by_the_six_monte_carlo_subcommands():
    threaded = {name for name, spec in COMMAND_TABLE.items()
                if "--threads" in dict(spec.flags)}
    assert len(threaded) == 6
    assert threaded == set(COMMAND_TABLE) - set(NO_TRIALS)


@pytest.mark.parametrize("name", NO_TRIALS)
def test_threads_only_where_trials_run(tmp_path, capsys, name):
    base = [*words(name), *TOY[name].split()]
    _offers_only_the_flags_it_reads(tmp_path, capsys, name, base, (("--threads", "2"),))


def _offering(flag):
    return {name for name, spec in COMMAND_TABLE.items()
            if flag in dict(spec.flags)}


# the Monte Carlo subcommands that take --rule, and so --phase
PHASED = ("mc-tv", "lower-bound", "couple-one-card", "couple-k-deck", "hits")


def test_seed_and_phase_offered_only_where_they_change_the_answer():
    assert _offering("--seed") == _offering("--threads")
    assert _offering("--phase") == {"exact-tv", *PHASED}
    assert {name for name in _offering("--threads")
            if "--rule" in dict(COMMAND_TABLE[name].flags)} == set(PHASED)
    assert sum(len(_arguments(spec)) for spec in COMMAND_TABLE.values()) == 97


@pytest.mark.parametrize("name", sorted(set(COMMAND_TABLE) - set(PHASED)))
def test_seed_and_phase_rejected_but_echoed_as_defaults(tmp_path, capsys, name):
    """A subcommand that draws no random numbers rejects --seed, and one
    that is not exact-tv or a Monte Carlo one with --rule rejects --phase;
    the echo keeps both keys at their default values."""
    base = [*words(name), *TOY[name].split()]
    offered = dict(COMMAND_TABLE[name].flags)
    for flag, value in (("--seed", "5"), ("--phase", "1")):
        if flag in offered:
            continue
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *base, flag, value)
        assert exc.value.code == 2, flag
        assert "unrecognized arguments" in capsys.readouterr().err
    assert run(tmp_path, *base, "--out", "c.out") == 0
    config = json.loads((tmp_path / "c.out.meta.json").read_text())["config"]
    assert config["seed"] == DEFAULT_SEED
    assert ("phase" in config) == ("--rule" in offered)
    assert config.get("phase", 0) == 0


def test_threads_default_to_every_usable_cpu(tmp_path):
    assert run(tmp_path, "hits", "--n", "8", "--k", "2", "--t", "10",
               "--trials", "20000", "--out", "h.json") == 0
    meta = json.loads((tmp_path / "h.json.meta.json").read_text())
    assert meta["config"]["threads"] is None
    assert meta["workers"] == min(2, len(os.sched_getaffinity(0)))


def test_worst_tv_takes_no_start_strategy(tmp_path, capsys):
    """The rule and the state count choose the starts; no flag does."""
    base = ["worst-tv", *TOY["worst-tv"].split()]
    _offers_only_the_flags_it_reads(
        tmp_path, capsys, "worst-tv", base, (("--strategy", "auto"),)
    )


def _value(flag, kwargs):
    """A strategy for (command-line text, parsed value) of one flag."""
    kind = kwargs.get("type")
    if kwargs.get("action") == "store_true":
        return st.just((None, True))
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"]).map(lambda v: (v, v))
    if flag == "--threads":
        return st.integers(1, 64).map(lambda v: (str(v), v))
    if kind is int:
        return st.integers(0, 10**6).map(lambda v: (str(v), v))
    finite = st.floats(0.0, 1e6, allow_nan=False)
    if kind is float:
        return finite.map(lambda v: (repr(v), v))
    if kind is _int_list:
        ints = st.lists(st.integers(0, 1000), min_size=1, max_size=5)
        return ints.map(lambda v: (",".join(map(str, v)), v))
    if kind is _float_list:
        floats = st.lists(finite, min_size=1, max_size=5)
        return floats.map(lambda v: (",".join(map(repr, v)), v))
    assert kind is None, flag
    return st.text("abcxyz019_.", min_size=1, max_size=12).map(lambda v: (v, v))


@st.composite
def invocations(draw, name):
    """A random valid argv for one table entry, and the values it set."""
    argv, given_values = words(name), {}
    for flag, kwargs in _arguments(COMMAND_TABLE[name]):
        if kwargs.get("required") or draw(st.booleans()):
            text, value = draw(_value(flag, kwargs))
            argv += [flag] if text is None else [flag, text]
            given_values[flag] = value
    return argv, given_values


@pytest.mark.parametrize("name", sorted(COMMAND_TABLE))
@settings(
    max_examples=30,
    deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_config_roundtrip_property(name, data):
    """The config echo carries every flag's value; defaults follow the table."""
    argv, given_values = data.draw(invocations(name))
    spec = COMMAND_TABLE[name]
    echo = config_from_args(build_parser().parse_args(argv))
    assert echo["command"] == name
    assert echo["format"] == given_values.get("--format", spec.format)
    defaults = {
        "--format": spec.format,
        "--out": f"{name}.{echo['format']}",
        "--seed": DEFAULT_SEED,
    }
    for flag, kwargs in _arguments(spec):
        want = given_values.get(flag, defaults.get(flag, kwargs.get("default", False)))
        assert echo[flag[2:].replace("-", "_")] == want, (argv, flag)


def test_readme_subcommand_table_lists_every_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    names = [name for first, _ in rows for name in re.findall(r"`([^`]+)`", first)]
    assert tuple(names) == COMMANDS
    couple = next(second for first, second in rows if first.strip() == "`couple`")
    assert tuple(re.findall(r"`([^`]+)`", couple)) == COUPLE_MODES


def test_readme_quick_start_prints_its_comments():
    """The Quick start block runs, in a child interpreter bounded in time, and
    prints what its comments say: a value ending in "..." is a prefix of the
    printed one, any other is exact."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    expected = re.findall(r"^print\(.*\)\s+#\s*(\S+)$", block, flags=re.M)
    assert expected == ["0.2439...", "58"]
    printed = run_bounded(block).splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want
