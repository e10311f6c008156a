"""Command line front end: configure an experiment, run it, emit files.

Every subcommand writes one data file (CSV or JSON) plus a ``.meta.json``
sidecar echoing the full configuration, the library version, and the wall
time; Monte Carlo sidecars also record the worker processes the trial blocks
ran in (``workers``, from --threads). Data files contain no timestamps, so
identical invocations produce byte-identical data files; only the sidecar
varies. The seed defaults to
``DEFAULT_SEED``, can be overridden by the SHUFFLE_MIX_SEED environment
variable, and an explicit --seed wins over both.

Each subcommand is one entry of ``COMMAND_TABLE`` (couple modes as
``couple-<mode>``); the parser, the config and ``dispatch`` are loops over it.

Exit codes: 0 success, 1 usage error, 2 invalid parameter, 3 resource
limit (state cap, horizon, or mass drift).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .cyclic import (
    CyclicBoundParams,
    cyclic_mixing_upper,
    cyclic_one_card_bound,
    fit_cyclic_bound_constant,
    optimize_epsilon,
    p_recursion,
    scan_epsilon,
    tau_hat_moments,
)
from .deck import ShuffleKind, ShuffleRule
from .errors import ParameterError, ShuffleMixError
from .exact import (
    cutoff_profile,
    exact_tv_curve,
    partial_mixing_time,
    worst_case_curve,
    write_csv,
    write_sidecar,
)
from .montecarlo import (
    KDeckCouplingParams,
    block_workers,
    couple_k_decks,
    couple_one_card,
    couple_two_hands_random,
    fit_mismatch_bound,
    left_hand_hit_count,
    mc_tv_plugin,
    survival_counts,
    tv_lower_bound_fixed_cards,
)
from .rng import DEFAULT_SEED, RandomStream


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed, seed-resolved experiment ready for dispatch."""

    command: str
    params: dict
    seed: int
    out: str
    format: str
    threads: int = 1

    def echo(self) -> dict:
        rec = {
            "command": self.command,
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
            "threads": self.threads,
        }
        rec.update(self.params)
        return rec


def _resolve_seed(explicit) -> int:
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("SHUFFLE_MIX_SEED")
    if env is not None and env != "":
        try:
            return int(env)
        except ValueError:
            raise ParameterError(
                f"SHUFFLE_MIX_SEED must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}")


def _rule_from(params: dict) -> ShuffleRule:
    return ShuffleRule(
        kind=ShuffleKind(params["rule"]), n=params["n"], phase=params["phase"]
    )


def _times_from(params: dict) -> np.ndarray:
    if params.get("times"):
        return np.asarray(sorted(set(params["times"])), dtype=np.int64)
    t_max = params.get("t_max") or 10 * params["n"]
    return np.arange(1, t_max + 1, dtype=np.int64)


def _pick(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


# -- runners: (params, config) -> (data, sidecar extras, summary line) ----------
# data is a JSON record, to which dispatch adds "op" and "params", or a
# (CSV header, rows) pair. Runners call the library by module-global name at
# call time, so code that patches this module's attributes reaches them too.


def _curve_output(command, times, curve):
    rows = zip(curve.times.tolist(), curve.values.tolist())
    summary = f"{command}: {times.size} rows, final tv {curve.values[-1]:.6g}"
    return ("t,tv", rows), dict(curve.metadata), summary


def _run_exact_tv(params, config):
    k, times = params["k"], _times_from(params)
    curve = exact_tv_curve(_rule_from(params), k, tuple(range(1, k + 1)), times)
    return _curve_output("exact-tv", times, curve)


def _run_worst_tv(params, config):
    rule, k, times = _rule_from(params), params["k"], _times_from(params)
    curve = worst_case_curve(rule, k, times, start_strategy=params["strategy"])
    return _curve_output("worst-tv", times, curve)


def _run_mix_time(params, config):
    rule, horizon = _rule_from(params), params["horizon"]
    result = partial_mixing_time(rule, params["k"], params["epsilon"], horizon=horizon)
    fields = ("tv", "epsilon", "horizon", "strategy")
    record = {"t_mix": result.t, **_pick(result, *fields)}
    return record, {}, f"mix-time: t_mix({result.epsilon}) = {result.t}"


def _run_cutoff(params, config):
    alphas = params["alphas"] or [0.0, 0.5, 1.0, 1.5, 2.0]
    profile = cutoff_profile(_rule_from(params), params["k"], alphas)
    summary = f"cutoff: {len(alphas)} alphas"
    return ("alpha,t,tv,bound", profile.rows()), dict(profile.metadata), summary


def _estimate_record(est, fitted=None) -> dict:
    kept = (int, float, str, bool, list, tuple)
    tallies = {key: v for key, v in est.details.items() if isinstance(v, kept)}
    record = {"estimate": est.value, **_pick(est, "std_error", "samples", "seed")}
    return {**record, "fitted_constants": fitted, "tallies": tallies}


def _mc_options(config) -> dict:
    return {"rng": RandomStream(config.seed), "workers": config.threads}


def _workers_used(config, trials: int) -> dict:
    """The sidecar's record of the worker processes the trials ran in."""
    return {"workers": block_workers(config.threads, trials)}


def _run_mc_tv(params, config):
    rule, n, k, t = _rule_from(params), params["n"], params["k"], params["t"]
    samples = params["samples"]
    est = mc_tv_plugin(rule, n, k, None, None, t, samples, **_mc_options(config))
    summary = f"mc-tv: {est.value:.6g} +- {est.std_error:.2g}"
    return _estimate_record(est), _workers_used(config, samples), summary


def _run_lower_bound(params, config):
    rule, n, k, t = _rule_from(params), params["n"], params["k"], params["t"]
    threshold, samples = params["threshold"], params["samples"]
    est = tv_lower_bound_fixed_cards(
        rule, n, k, t, threshold, samples, **_mc_options(config)
    )
    extras = _workers_used(config, samples)
    return _estimate_record(est), extras, f"lower-bound: {est.value:.6g}"


def _run_hits(params, config):
    rule, n, k, t = _rule_from(params), params["n"], params["k"], params["t"]
    trials = params["trials"]
    est = left_hand_hit_count(rule, n, k, None, t, trials, **_mc_options(config))
    details = est.details
    fitted = {"constant": details["fit_constant"], "shape": details["fit_shape"]}
    summary = f"hits: mean {est.value:.4g}, constant {fitted['constant']:.4g}"
    return _estimate_record(est, fitted), _workers_used(config, trials), summary


def _survival_rows(times: np.ndarray, horizon: int, trials: int):
    survivors = survival_counts(times, horizon)
    for t in range(horizon + 1):
        yield t, int(survivors[t]), trials


def _couple_output(config, times, horizon, extras):
    trials = config.params["trials"]
    censored = int(np.count_nonzero(times < 0))
    summary = f"{config.command}: {trials} trials, {censored} censored at t={horizon}"
    rows = _survival_rows(times, horizon, trials)
    extras = {**extras, **_workers_used(config, trials)}
    return ("t,survivors,trials", rows), extras, summary


def _couple_options(params, config) -> dict:
    horizon, trials = params["horizon"], params["trials"]
    return {"horizon": horizon, "trials": trials, **_mc_options(config)}


def _one_card_output(config, result):
    details = {k: v for k, v in result.details.items() if not isinstance(v, np.ndarray)}
    extras = {"details": details}
    return _couple_output(config, result.match_times, result.horizon, extras)


def _run_couple_one_card(params, config):
    rule, options = _rule_from(params), _couple_options(params, config)
    result = couple_one_card(rule, params["n"], params["card"], **options)
    return _one_card_output(config, result)


def _run_couple_two_hand(params, config):
    options = _couple_options(params, config)
    result = couple_two_hands_random(params["n"], params["card"], **options)
    return _one_card_output(config, result)


def _run_couple_k_deck(params, config):
    kd = KDeckCouplingParams(n=params["n"], k=params["k"], horizon=params["horizon"])
    rule, cards = _rule_from(params), list(range(1, kd.k + 1))
    result = couple_k_decks(rule, kd, cards, params["trials"], **_mc_options(config))
    fit = fit_mismatch_bound(result)
    extras = {
        "details": dict(result.details),
        "fitted_constants": {"constant": fit.constant, "shape": fit.shape},
        "situation_totals": result.situation_counts.sum(axis=0).tolist(),
    }
    return _couple_output(config, result.mismatch_times, kd.horizon, extras)


def _run_tau_hat(params, config):
    m = tau_hat_moments(params["n"])
    fields = ("mean", "second_moment", "variance", "closed_form_mean")
    record = {**_pick(m, *fields, "closed_form_gap"), "mean_over_n": m.mean / m.n}
    return record, {}, f"tau-hat: mean {m.mean:.4f} ({m.mean / m.n:.4f} n)"


def _run_p0(params, config):
    sweep = p_recursion(params["epsilon"], params["n"])
    summary = f"p0: {sweep.p0:.6f} (closed form {sweep.p0_closed_form:.6f})"
    if config.format == "csv":
        return ("s,p", enumerate(sweep.values.tolist())), {}, summary
    fields = ("p0", "p0_closed_form", "p0_gap", "midrange_max_gap", "m")
    return _pick(sweep, *fields), {}, summary


def _run_eig_scan(params, config):
    eps, lams = scan_epsilon(params["xi"], params["lo"], params["hi"], params["num"])
    rows = zip(eps.tolist(), lams.tolist())
    return ("epsilon,lambda2", rows), {}, f"eig-scan: {eps.size} points"


def _run_eig_opt(params, config):
    opt = optimize_epsilon(params["xi"])
    record = {**_pick(opt, "epsilon", "xi", "unimodal"), "lambda": opt.lam}
    summary = f"eig-opt: epsilon {opt.epsilon:.4f}, lambda {opt.lam:.4f}"
    return record, {}, summary


def _run_cyclic_bound(params, config):
    n = params["n"]
    t_max = params["t_max"] or 10 * n
    if params["fit"]:
        bound = fit_cyclic_bound_constant(n=n, t_max=t_max)
    else:
        bound = CyclicBoundParams(c=params["c"])
    rows = ((t, cyclic_one_card_bound(t, n, bound)) for t in range(1, t_max + 1))
    extras = {"bound_params": _pick(bound, "c", "lam", "rate")}
    return ("t,bound", rows), extras, f"cyclic-bound: c = {bound.c:.4g}"


def _run_cyclic_mix(params, config):
    result = cyclic_mixing_upper(params["n"], params["k"], params["c"])
    fields = (
        "t", "threshold", "coefficient_logk", "generic_bound", "constant_direct",
        "coefficient_direct", "constant_inverted", "coefficient_inverted",
    )
    summary = f"cyclic-mix: t = {result.t} (generic {result.generic_bound:.1f})"
    return _pick(result, *fields), {}, summary


# -- the command table -----------------------------------------------------------


def _opt(flag: str, type=None, default=None, **kwargs) -> tuple:
    """A flag and its argparse keywords."""
    return flag, {"type": type, "default": default, **kwargs}


_RULE_FLAGS = (
    _opt("--rule", None, "top", choices=("top", "random", "cyclic"),
         help="left-hand rule (default top)"),
    _opt("--phase", int, 0, help="cyclic sweep offset"),
)
_N = _opt("--n", int, required=True, help="deck size")
_K = _opt("--k", int, 1, help="tracked cards")
_PLUMBING_FLAGS = (
    _opt("--seed", int),
    _opt("--out", help="output data file path"),
    _opt("--threads", int, 1,
         help="Monte Carlo worker processes, at least 1 (capped at the CPUs and "
              "trial blocks); results are worker-count independent"),
)
_T_MAX, _TIMES = _opt("--t-max", int), _opt("--times", _int_list)
_T, _HORIZON = _opt("--t", int, required=True), _opt("--horizon", int)
_TRIALS, _SAMPLES = _opt("--trials", int, 100_000), _opt("--samples", int, 100_000)
_CARD, _C = _opt("--card", int, 1), _opt("--c", float, 1.0)
_XI = _opt("--xi", float, 0.0)
_STRATEGY = _opt("--strategy", None, "auto",
                 choices=("auto", "canonical", "exhaustive", "sampled"))
_FIT = ("--fit", {"action": "store_true",
                  "help": "fit c against the exact worst-case curve instead of --c"})


@dataclass(frozen=True)
class Command:
    """One subcommand: its runner, extra flags, formats and shared flags.

    ``run(params, config)`` returns (data, sidecar extras, summary line).
    ``rule``, ``n`` and ``k`` say whether it takes --rule/--phase, --n, --k.
    """

    help: str
    run: Callable
    flags: tuple = ()
    formats: tuple = ("csv",)  # default first
    rule: bool = True
    n: bool = True
    k: bool = True

    def arguments(self):
        """(flag, argparse keywords) of every flag the subcommand offers."""
        if self.rule:
            yield from _RULE_FLAGS
        if self.n:
            yield _N
        if self.k:
            yield _K
        yield from _PLUMBING_FLAGS
        yield _opt("--format", None, self.formats[0], choices=self.formats)
        yield from self.flags


_JSON = ("json",)
COMMAND_TABLE = {
    "exact-tv": Command("exact TV curve from a fixed start", _run_exact_tv,
                        (_T_MAX, _TIMES)),
    "worst-tv": Command("exact worst-case TV curve", _run_worst_tv,
                        (_T_MAX, _TIMES, _STRATEGY)),
    "mix-time": Command("smallest t with worst-case TV < eps", _run_mix_time,
                        (_opt("--epsilon", float, 0.25), _HORIZON), _JSON),
    "cutoff": Command("worst-case TV at n log k + alpha n", _run_cutoff,
                      (_opt("--alphas", _float_list),)),
    "mc-tv": Command("plug-in Monte Carlo TV estimate", _run_mc_tv,
                     (_T, _SAMPLES), _JSON),
    "lower-bound": Command("TV lower bound from the never-touched statistic",
                           _run_lower_bound,
                           (_T, _opt("--threshold", int, 1), _SAMPLES), _JSON),
    "couple-one-card": Command("one tracked card, right hand mirrored",
                               _run_couple_one_card, (_CARD, _HORIZON, _TRIALS),
                               k=False),
    "couple-two-hand": Command("one tracked card, both hands mirrored (random rule)",
                               _run_couple_two_hand, (_CARD, _HORIZON, _TRIALS),
                               rule=False, k=False),
    "couple-k-deck": Command("(k+1)-deck coupling of k tracked cards",
                             _run_couple_k_deck, (_HORIZON, _TRIALS)),
    "hits": Command("left-hand hit count on tracked cards", _run_hits,
                    (_T, _TRIALS), _JSON),
    "tau-hat": Command("moments of the touch waiting time", _run_tau_hat,
                       (), _JSON, rule=False, k=False),
    "p0": Command("gap-closing probability recursion", _run_p0,
                  (_opt("--epsilon", float, 0.442),), ("json", "csv"),
                  rule=False, k=False),
    "eig-scan": Command("second eigenvalue over an eps grid", _run_eig_scan,
                        (_XI, _opt("--lo", float, 0.01), _opt("--hi", float, 0.49),
                         _opt("--num", int, 500)),
                        rule=False, n=False, k=False),
    "eig-opt": Command("eps minimizing the second eigenvalue", _run_eig_opt,
                       (_XI,), _JSON, rule=False, n=False, k=False),
    "cyclic-bound": Command("one-card cyclic bound curve", _run_cyclic_bound,
                            (_T_MAX, _C, _FIT), rule=False, k=False),
    "cyclic-mix": Command("k-card mixing bound, cyclic rule", _run_cyclic_mix,
                          (_C,), _JSON, rule=False),
}
_COUPLE = "couple-"
COMMANDS = tuple(
    dict.fromkeys("couple" if c.startswith(_COUPLE) else c for c in COMMAND_TABLE)
)
COUPLE_MODES = tuple(c[len(_COUPLE):] for c in COMMAND_TABLE if c.startswith(_COUPLE))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflemix",
        description="exact and Monte Carlo analysis of semi-random "
        "transposition shuffles",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    modes = None
    for name, spec in COMMAND_TABLE.items():
        if not name.startswith(_COUPLE):
            p = sub.add_parser(name, help=spec.help)
        else:
            if modes is None:
                couple = sub.add_parser("couple", help="run a coupling simulation")
                modes = couple.add_subparsers(dest="mode", metavar="mode")
            p = modes.add_parser(name[len(_COUPLE):], help=spec.help)
        for flag, kwargs in spec.arguments():
            p.add_argument(flag, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    seed = _resolve_seed(args.seed)
    if args.threads < 1:
        raise ParameterError(f"--threads must be at least 1, got {args.threads}")
    skip = {"command", "seed", "out", "format", "threads"}
    params = {key: v for key, v in sorted(vars(args).items()) if key not in skip}
    command = args.command
    if command == "couple":
        command = f"{_COUPLE}{args.mode}"
    return ExperimentConfig(
        command=command,
        params=params,
        seed=seed,
        out=args.out or f"{command}.{args.format}",
        format=args.format,
        threads=args.threads,
    )


def _check_k(params: dict):
    n, k = params["n"], params["k"]
    if k > n:
        raise ParameterError(f"k exceeds n (k={k}, n={n})")
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")


def _write_json(path, record: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# data files must be byte-identical across reruns; plumbing flags that do
# not affect the result (worker count, output path) stay in the sidecar only
_DATA_ECHO_SKIP = {"threads", "out"}


def _data_params(config: ExperimentConfig) -> dict:
    return {
        key: value
        for key, value in config.echo().items()
        if value is not None and key not in _DATA_ECHO_SKIP
    }


def dispatch(config: ExperimentConfig) -> int:
    """Run the configured experiment and write its artifacts."""
    started = time.perf_counter()
    spec = COMMAND_TABLE.get(config.command)
    if spec is None:
        raise ParameterError(f"unknown command {config.command!r}")
    if spec.k:
        _check_k(config.params)
    data, extras, summary = spec.run(config.params, config)
    if isinstance(data, dict):
        record = {"op": config.command, "params": _data_params(config), **data}
        _write_json(config.out, record)
    else:
        write_csv(config.out, *data)
    meta = {"config": config.echo(), "version": __version__, **extras}
    meta["wall_time_s"] = time.perf_counter() - started
    meta["data_file"] = str(config.out)
    write_sidecar(config.out, meta)
    print(f"{summary} -> {config.out}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    words = [tok for tok in argv if not tok.startswith("-")]
    asks_help = any(tok in ("-h", "--help") for tok in argv)
    if not words and not asks_help:
        build_parser().print_usage(sys.stderr)
        return 1
    if words and words[0] not in COMMANDS:
        print(f"unknown subcommand: {words[0]}", file=sys.stderr)
        build_parser().print_usage(sys.stderr)
        return 1
    # `couple --help` with no mode goes to argparse, which lists the modes
    if words[:1] == ["couple"] and (len(words) > 1 or not asks_help):
        mode = words[1] if len(words) > 1 else None
        if mode not in COUPLE_MODES:
            if mode is not None:
                print(f"unknown couple mode: {mode}", file=sys.stderr)
            modes = ",".join(COUPLE_MODES)
            print(f"usage: shufflemix couple {{{modes}}} ...", file=sys.stderr)
            return 1
    args = build_parser().parse_args(argv)
    try:
        return dispatch(config_from_args(args))
    except ShuffleMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
