"""Command line contract: files, formats, seeds, exit codes."""

import argparse
import json
import math

import numpy as np
import pytest

from shufflemix.cli import COMMANDS, build_parser, config_from_args, main
from shufflemix.exact import LumpedEvolver
from shufflemix.rng import DEFAULT_SEED


def run(tmp_path, *argv):
    """Invoke the CLI in-process with outputs under tmp_path."""
    return main([str(a) for a in argv])


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SHUFFLE_MIX_SEED", raising=False)


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


def test_unknown_subcommand(tmp_path, capsys):
    assert run(tmp_path, "frobnicate", "--n", "5") == 1
    assert "unknown subcommand" in capsys.readouterr().err


def test_no_subcommand(tmp_path, capsys):
    assert run(tmp_path) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_couple_mode(tmp_path, capsys):
    assert run(tmp_path, "couple", "sideways", "--n", "10") == 1
    assert "unknown couple mode" in capsys.readouterr().err


def test_cap_exceeded_is_exit_3(tmp_path, capsys):
    code = run(tmp_path, "mc-tv", "--rule", "random", "--n", "100", "--k", "5",
               "--t", "1", "--samples", "10")
    assert code == 3
    assert "error:" in capsys.readouterr().err


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


def test_p0_record_scrubs_plumbing(tmp_path):
    assert run(tmp_path, "p0", "--n", "1000", "--epsilon", "0.442",
               "--threads", "3", "--out", "p0.json") == 0
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
    assert meta["bound_params"]["c"] > 0.0
    assert meta["bound_params"]["lam"] == 0.237


def test_cyclic_mix_record(tmp_path):
    assert run(tmp_path, "cyclic-mix", "--n", "200", "--k", "4", "--c", "0.5",
               "--out", "cm.json") == 0
    rec = json.loads((tmp_path / "cm.json").read_text())
    assert rec["t"] >= 1
    assert rec["generic_bound"] == pytest.approx(200 * (math.log(4) + 1.5))


def test_worst_tv_strategy_flag(tmp_path):
    assert run(tmp_path, "worst-tv", "--rule", "random", "--n", "10", "--k", "1",
               "--t-max", "20", "--strategy", "exhaustive", "--out", "w.csv") == 0
    header, rows = read_csv(tmp_path / "w.csv")
    assert header == "t,tv" and len(rows) == 20
    meta = json.loads((tmp_path / "w.csv.meta.json").read_text())
    assert meta["start_strategy"] == "exhaustive"


def _choices(command, flag):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if flag in a.option_strings)
    return action.choices


# every --strategy name, and the sidecar label it resolves to for the random rule
STRATEGY_LABELS = {
    "auto": "exact-canonical",
    "canonical": "exact-canonical",
    "exhaustive": "exhaustive",
    "sampled": "sampled-lower-bound",
}


def test_worst_tv_every_strategy_choice(tmp_path):
    assert sorted(_choices("worst-tv", "--strategy")) == sorted(STRATEGY_LABELS)
    for strategy, label in STRATEGY_LABELS.items():
        out = f"w-{strategy}.csv"
        assert run(tmp_path, "worst-tv", "--rule", "random", "--n", "5", "--k", "2",
                   "--t-max", "8", "--strategy", strategy, "--out", out) == 0, strategy
        meta = json.loads((tmp_path / f"{out}.meta.json").read_text())
        assert meta["start_strategy"] == label, strategy
        assert meta["lower_bound_only"] == (label == "sampled-lower-bound")


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
               "--t", "200", "--trials", "2000", "--out", "h.json") == 0
    rec = json.loads((tmp_path / "h.json").read_text())
    assert rec["estimate"] > 0.0
    assert rec["fitted_constants"]["constant"] > 0.0


def test_data_files_identical_across_threads(tmp_path):
    """The worker count never touches the data file, only the sidecar."""
    for cmd in (
        ["mc-tv", "--rule", "top", "--n", "10", "--k", "2", "--t", "8",
         "--samples", "20000"],
        ["couple", "one-card", "--rule", "top", "--n", "15", "--trials",
         "3000", "--horizon", "60"],
        ["p0", "--n", "500"],
    ):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert run(tmp_path, *cmd, "--seed", "5", "--threads", "1", "--out", a) == 0
        assert run(tmp_path, *cmd, "--seed", "5", "--threads", "7", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes(), cmd[0]
        meta_a = json.loads((tmp_path / "a.out.meta.json").read_text())
        meta_b = json.loads((tmp_path / "b.out.meta.json").read_text())
        assert meta_a["config"]["threads"] == 1
        assert meta_b["config"]["threads"] == 7


def test_same_seed_same_bytes_different_seed_differs(tmp_path):
    base = ["mc-tv", "--rule", "random", "--n", "8", "--k", "1", "--t", "4",
            "--samples", "5000"]
    run(tmp_path, *base, "--seed", "1", "--out", "s1.json")
    run(tmp_path, *base, "--seed", "1", "--out", "s1b.json")
    run(tmp_path, *base, "--seed", "2", "--out", "s2.json")
    s1 = (tmp_path / "s1.json").read_text()
    assert s1 == (tmp_path / "s1b.json").read_text()
    assert s1 != (tmp_path / "s2.json").read_text()


def test_seed_environment_and_flag_precedence(tmp_path, monkeypatch):
    base = ["mc-tv", "--rule", "top", "--n", "8", "--k", "1", "--t", "3",
            "--samples", "2000"]
    monkeypatch.setenv("SHUFFLE_MIX_SEED", "99")
    run(tmp_path, *base, "--out", "env.json")
    assert json.loads((tmp_path / "env.json").read_text())["seed"] == 99
    run(tmp_path, *base, "--seed", "123", "--out", "flag.json")
    assert json.loads((tmp_path / "flag.json").read_text())["seed"] == 123
    monkeypatch.setenv("SHUFFLE_MIX_SEED", "not-a-number")
    assert run(tmp_path, *base, "--out", "bad.json") == 2


def test_default_output_name_follows_command(tmp_path):
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(["tau-hat", "--n", "100"]))
    assert cfg.out == "tau-hat.json" and cfg.format == "json"
    cfg = config_from_args(parser.parse_args(
        ["couple", "two-hand", "--n", "10"]))
    assert cfg.command == "couple-two-hand"
    assert cfg.out == "couple-two-hand.csv" and cfg.format == "csv"


def test_config_echo_roundtrip(tmp_path):
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(
        ["exact-tv", "--n", "9", "--k", "2", "--seed", "4", "--threads", "2"]))
    echo = cfg.echo()
    assert echo["command"] == "exact-tv"
    assert echo["seed"] == 4
    assert echo["threads"] == 2
    assert echo["n"] == 9 and echo["k"] == 2
