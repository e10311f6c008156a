"""Command line front end: parse the flags, run the experiment, emit files.

Every subcommand writes one data file (CSV or JSON) plus a ``.meta.json``
sidecar echoing the full configuration, the library version, the wall
time and the peak resident set (``peak_rss_mb``, plus ``workers_peak_rss_mb``
when a pool of worker processes ran). Data files contain no timestamps, so
identical invocations produce byte-identical data files; only the sidecar
varies. Every flag a subcommand offers can change what it writes. Only the
six Monte Carlo subcommands draw random numbers, so only they take --seed
(default ``DEFAULT_SEED``) and --threads (default: every CPU this process may
use); their sidecars also record the worker processes the trial blocks ran
in (``workers``). Only ``exact-tv`` and the five Monte Carlo subcommands that
take --rule take --phase: a worst-case scan over every start is the same at
every phase. The other subcommands still echo ``seed`` (as ``DEFAULT_SEED``)
and, where they take --rule, ``phase`` (as 0). Only ``p0`` writes two
formats, so only it takes --format. --times and --t-max are either-or, as are
--fit and --c. A library ``UserWarning`` reaches stderr as one ``note:`` line.

Each subcommand is one entry of ``COMMAND_TABLE`` (couple modes as
``couple-<mode>``), a ``Command`` of four fields: its help line, its runner,
every flag it offers but --out (which all offer), and the one format it
writes (p0 lists its own --format flag). The parser is a loop over the
table. The parsed flags travel as one dict, the config, from
``config_from_args`` to the runner and into both files.

The CLI checks only what no library function checks before work starts, so
that the error names the flag: the either-or pairs, --t-max >= 1, int64
--times and --threads >= 1. The library checks every other input, k among
them, before it builds anything sized by it, the time grid included.

Exit codes: 0 success; 2 invalid parameter, any argparse usage error (no
subcommand, an unknown subcommand or couple mode too) or both flags of an
either-or pair; 3 resource limit (state cap, n above it for tau-hat and p0,
horizon, mass drift, or out of memory). Exit 1 only ever means an uncaught
exception: report it as a bug.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cyclic import (
    CYCLIC_BOUND_LAM,
    CYCLIC_BOUND_RATE,
    cyclic_mixing_upper,
    cyclic_one_card_bound,
    fit_cyclic_bound_constant,
    optimize_epsilon,
    p_recursion,
    scan_epsilon,
    tau_hat_moments,
)
from .deck import ShuffleKind, ShuffleRule
from .errors import CapExceededError, ParameterError, ShuffleMixError
from .errors import check_array_length, check_int64
from .exact import (
    cutoff_profile,
    exact_tv_curve,
    partial_mixing_time,
    worst_case_curve,
    write_csv,
    write_sidecar,
)
from .montecarlo import (
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
from .rng import DEFAULT_SEED


def _number_list(text: str, kind, what: str) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}: {text!r}")
    return values


def _int_list(text: str) -> list:
    return _number_list(text, int, "integers")


def _float_list(text: str) -> list:
    return _number_list(text, float, "numbers")


def _rule_from(config: dict) -> ShuffleRule:
    return ShuffleRule(
        kind=ShuffleKind(config["rule"]), n=config["n"], phase=config["phase"]
    )


def _t_max_from(config: dict) -> int:
    """--t-max, or 10 n when it is not given."""
    t_max = config["t_max"]
    if t_max is None:
        return 10 * config["n"]
    if t_max < 1:
        raise ParameterError(f"--t-max must be at least 1, got {t_max}")
    return check_array_length("--t-max", check_int64("--t-max", t_max))


def _times_from(config: dict):
    """--times as a sorted list, or 1..--t-max as a range, for the library."""
    if config["times"] is not None:
        if config["t_max"] is not None:
            raise ParameterError("give --times or --t-max, not both")
        return [check_int64("--times", t) for t in sorted(set(config["times"]))]
    return range(1, _t_max_from(config) + 1)


def _pick(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


# -- runners: config -> (data, sidecar extras, summary line) --------------------
# config is the dict from config_from_args. data is a JSON record, to which
# dispatch adds "op" and "params", or a (CSV header, rows) pair. Runners call
# the library by module-global name at call time, so code that patches this
# module's attributes reaches them too.


def _with_drift(curve) -> dict:
    """A curve's metadata plus the largest mass drift, for the sidecar."""
    return {**curve.metadata, "max_mass_drift": curve.max_mass_drift}


def _curve_output(command, curve):
    rows = zip(curve.times.tolist(), curve.values.tolist())
    summary = f"{command}: {curve.times.size} rows, final tv {curve.values[-1]:.6g}"
    return ("t,tv", rows), _with_drift(curve), summary


def _run_exact_tv(config):
    k, times = config["k"], _times_from(config)
    curve = exact_tv_curve(_rule_from(config), k, range(1, k + 1), times)
    return _curve_output("exact-tv", curve)


def _run_worst_tv(config):
    rule, k, times = _rule_from(config), config["k"], _times_from(config)
    curve = worst_case_curve(rule, k, times)
    return _curve_output("worst-tv", curve)


def _run_mix_time(config):
    rule, horizon = _rule_from(config), config["horizon"]
    result = partial_mixing_time(rule, config["k"], config["epsilon"], horizon=horizon)
    fields = ("tv", "epsilon", "horizon", "strategy")
    record = {"t_mix": result.t, **_pick(result, *fields)}
    extras = _pick(result, "max_mass_drift")
    return record, extras, f"mix-time: t_mix({result.epsilon}) = {result.t}"


def _run_cutoff(config):
    alphas = config["alphas"] or [0.0, 0.5, 1.0, 1.5, 2.0]
    profile = cutoff_profile(_rule_from(config), config["k"], alphas)
    summary = f"cutoff: {len(alphas)} alphas"
    return ("alpha,t,tv,bound", profile.rows()), _with_drift(profile), summary


def _estimate_record(est, fitted=None) -> dict:
    record = {"estimate": est.value, **_pick(est, "std_error", "samples", "seed")}
    return {**record, "fitted_constants": fitted, "tallies": est.details}


def _mc_options(config) -> dict:
    return {"seed": config["seed"], "workers": config["threads"]}


def _workers_used(config, trials: int) -> dict:
    """The sidecar's record of the worker processes the trials ran in."""
    return {"workers": block_workers(config["threads"], trials)}


def _run_mc_tv(config):
    rule, k, t = _rule_from(config), config["k"], config["t"]
    samples = config["samples"]
    est = mc_tv_plugin(rule, k, t, samples, **_mc_options(config))
    summary = f"mc-tv: {est.value:.6g} +- {est.std_error:.2g}"
    return _estimate_record(est), _workers_used(config, samples), summary


def _run_lower_bound(config):
    rule, k, t = _rule_from(config), config["k"], config["t"]
    threshold, samples = config["threshold"], config["samples"]
    options = _mc_options(config)
    est = tv_lower_bound_fixed_cards(rule, k, t, threshold, samples, **options)
    extras = _workers_used(config, samples)
    return _estimate_record(est), extras, f"lower-bound: {est.value:.6g}"


def _run_hits(config):
    rule, k, t = _rule_from(config), config["k"], config["t"]
    trials = config["trials"]
    est = left_hand_hit_count(rule, k, t, trials, **_mc_options(config))
    details = est.details
    fitted = {"constant": details["fit_constant"], "shape": details["fit_shape"]}
    summary = f"hits: mean {est.value:.4g}, constant {fitted['constant']:.4g}"
    return _estimate_record(est, fitted), _workers_used(config, trials), summary


def _survival_rows(times: np.ndarray, horizon: int, trials: int):
    survivors = survival_counts(times, horizon)
    for t in range(horizon + 1):
        yield t, int(survivors[t]), trials


def _couple_output(config, times, horizon, extras):
    trials = config["trials"]
    censored = int(np.count_nonzero(times < 0))
    summary = (f"{config['command']}: {trials} trials, "
               f"{censored} censored at t={horizon}")
    rows = _survival_rows(times, horizon, trials)
    extras = {**extras, **_workers_used(config, trials)}
    return ("t,survivors,trials", rows), extras, summary


def _couple_options(config) -> dict:
    horizon, trials = config["horizon"], config["trials"]
    return {"horizon": horizon, "trials": trials, **_mc_options(config)}


def _one_card_output(config, result):
    extras = {"details": dict(result.details)}
    return _couple_output(config, result.match_times, result.horizon, extras)


def _run_couple_one_card(config):
    rule, options = _rule_from(config), _couple_options(config)
    result = couple_one_card(rule, **options)
    return _one_card_output(config, result)


def _run_couple_two_hand(config):
    options = _couple_options(config)
    result = couple_two_hands_random(config["n"], **options)
    return _one_card_output(config, result)


def _run_couple_k_deck(config):
    rule, options = _rule_from(config), _couple_options(config)
    result = couple_k_decks(rule, config["k"], **options)
    fit = fit_mismatch_bound(result)
    extras = {
        "details": dict(result.details),
        "fitted_constants": {"constant": fit.constant, "shape": fit.shape},
        "situation_totals": result.situation_counts.sum(axis=0).tolist(),
    }
    return _couple_output(config, result.mismatch_times, result.params.horizon, extras)


def _run_tau_hat(config):
    m = tau_hat_moments(config["n"])
    fields = ("mean", "second_moment", "variance", "closed_form_mean")
    record = {**_pick(m, *fields, "closed_form_gap"), "mean_over_n": m.mean / m.n}
    return record, {}, f"tau-hat: mean {m.mean:.4f} ({m.mean / m.n:.4f} n)"


def _run_p0(config):
    sweep = p_recursion(config["epsilon"], config["n"])
    summary = f"p0: {sweep.p0:.6f} (closed form {sweep.p0_closed_form:.6f})"
    if config["format"] == "csv":
        return ("s,p", enumerate(sweep.values.tolist())), {}, summary
    fields = ("p0", "p0_closed_form", "p0_gap", "midrange_max_gap", "m")
    return _pick(sweep, *fields), {}, summary


def _run_eig_scan(config):
    eps, lams = scan_epsilon(config["xi"], config["lo"], config["hi"], config["num"])
    rows = zip(eps.tolist(), lams.tolist())
    return ("epsilon,lambda2", rows), {}, f"eig-scan: {eps.size} points"


def _run_eig_opt(config):
    opt = optimize_epsilon(config["xi"])
    record = {**_pick(opt, "epsilon", "xi", "unimodal"), "lambda": opt.lam}
    summary = f"eig-opt: epsilon {opt.epsilon:.4f}, lambda {opt.lam:.4f}"
    return record, {}, summary


def _run_cyclic_bound(config):
    n, t_max, c = config["n"], _t_max_from(config), config["c"]
    if config["fit"]:
        if c is not None:
            raise ParameterError("give --fit or --c, not both")
        c = fit_cyclic_bound_constant(n=n, t_max=t_max)
    elif c is None:
        c = 1.0
    ts = np.arange(1, t_max + 1)
    rows = zip(ts.tolist(), cyclic_one_card_bound(ts, n, c).tolist())
    extras = {"bound_params": {"c": c, "lam": CYCLIC_BOUND_LAM, "rate": CYCLIC_BOUND_RATE}}
    return ("t,bound", rows), extras, f"cyclic-bound: c = {c:.4g}"


def _run_cyclic_mix(config):
    result = cyclic_mixing_upper(config["n"], config["k"], config["c"])
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


_RULE = _opt("--rule", None, "top", choices=("top", "random", "cyclic"),
             help="left-hand rule (default top)")
_N = _opt("--n", int, required=True, help="deck size")
_K = _opt("--k", int, 1, help="tracked cards")
_PHASE = _opt("--phase", int, 0, help="cyclic sweep offset")
# the flags of every subcommand that runs trials
_TRIAL_FLAGS = (
    _opt("--seed", int, DEFAULT_SEED),
    _opt("--threads", int,
         help="worker processes for the trial blocks, at least 1 (default and cap: "
              "the CPUs and blocks); results are worker-count independent"),
)
_T_MAX, _TIMES = _opt("--t-max", int), _opt("--times", _int_list)
_T, _HORIZON = _opt("--t", int, required=True), _opt("--horizon", int)
_TRIALS, _SAMPLES = _opt("--trials", int, 100_000), _opt("--samples", int, 100_000)
_C, _XI = _opt("--c", float, 1.0), _opt("--xi", float, 0.0)
_FIT = ("--fit", {"action": "store_true",
                  "help": "fit c against the exact worst-case curve; not with --c"})


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, runner, flags and data format.

    ``run(config)`` returns (data, sidecar extras, summary line). ``flags``
    holds (flag, argparse keywords) of every flag it offers but --out, which
    every subcommand offers. ``format`` is the one format it writes; p0 lists
    its own --format flag, and its ``format`` is that flag's default.
    """

    help: str
    run: Callable
    flags: tuple
    format: str = "csv"


COMMAND_TABLE = {
    "exact-tv": Command("exact TV curve from a fixed start", _run_exact_tv,
                        (_RULE, _N, _K, _PHASE, _T_MAX, _TIMES)),
    "worst-tv": Command("exact worst-case TV curve", _run_worst_tv,
                        (_RULE, _N, _K, _T_MAX, _TIMES)),
    "mix-time": Command("smallest t with worst-case TV < eps", _run_mix_time,
                        (_RULE, _N, _K, _opt("--epsilon", float, 0.25), _HORIZON), "json"),
    "cutoff": Command("worst-case TV at n log k + alpha n", _run_cutoff,
                      (_RULE, _N, _K, _opt("--alphas", _float_list))),
    "mc-tv": Command("plug-in Monte Carlo TV estimate", _run_mc_tv,
                     (_RULE, _N, _K, _PHASE, _T, _SAMPLES, *_TRIAL_FLAGS), "json"),
    "lower-bound": Command("TV lower bound from the never-touched statistic",
                           _run_lower_bound,
                           (_RULE, _N, _K, _PHASE, _T, _opt("--threshold", int, 1),
                            _SAMPLES, *_TRIAL_FLAGS), "json"),
    "couple-one-card": Command("one tracked card, right hand mirrored", _run_couple_one_card,
                               (_RULE, _N, _PHASE, _HORIZON, _TRIALS, *_TRIAL_FLAGS)),
    "couple-two-hand": Command("one tracked card, both hands mirrored (random rule)",
                               _run_couple_two_hand, (_N, _HORIZON, _TRIALS, *_TRIAL_FLAGS)),
    "couple-k-deck": Command("(k+1)-deck coupling of k tracked cards", _run_couple_k_deck,
                             (_RULE, _N, _K, _PHASE, _HORIZON, _TRIALS, *_TRIAL_FLAGS)),
    "hits": Command("left-hand hit count on tracked cards", _run_hits,
                    (_RULE, _N, _K, _PHASE, _T, _TRIALS, *_TRIAL_FLAGS), "json"),
    "tau-hat": Command("moments of the touch waiting time", _run_tau_hat, (_N,), "json"),
    "p0": Command("gap-closing probability recursion", _run_p0,
                  (_N, _opt("--format", None, "json", choices=("json", "csv")),
                   _opt("--epsilon", float, 0.442)), "json"),
    "eig-scan": Command("second eigenvalue over an eps grid", _run_eig_scan,
                        (_XI, _opt("--lo", float, 0.01), _opt("--hi", float, 0.49),
                         _opt("--num", int, 500))),
    "eig-opt": Command("eps minimizing the second eigenvalue", _run_eig_opt, (_XI,), "json"),
    "cyclic-bound": Command("one-card cyclic bound curve", _run_cyclic_bound,
                            (_N, _T_MAX, _opt("--c", float), _FIT)),
    "cyclic-mix": Command("k-card mixing bound, cyclic rule", _run_cyclic_mix,
                          (_N, _K, _C), "json"),
}
_COUPLE = "couple-"
COMMANDS = tuple(
    dict.fromkeys("couple" if c.startswith(_COUPLE) else c for c in COMMAND_TABLE)
)
COUPLE_MODES = tuple(c[len(_COUPLE):] for c in COMMAND_TABLE if c.startswith(_COUPLE))


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser. One that takes modes (``couple``) reports a flag
    where the mode belongs, as in ``couple --n 10``, as a missing mode rather
    than reading the flag's value as an invalid mode."""

    modes: tuple = ()

    def parse_known_args(self, args=None, namespace=None):
        flag = args[0] if self.modes and args else ""
        asks_help = flag == "-h" or (len(flag) > 2 and "--help".startswith(flag))
        if flag.startswith("-") and not asks_help:
            self.error(f"missing couple mode: put one of {', '.join(self.modes)} before {flag}")
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; a new one per call grows memory."""
    parser = argparse.ArgumentParser(
        prog="shufflemix",
        description="exact and Monte Carlo analysis of semi-random "
        "transposition shuffles",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    modes = None
    for name, spec in COMMAND_TABLE.items():
        if not name.startswith(_COUPLE):
            p = sub.add_parser(name, help=spec.help)
        else:
            if modes is None:
                couple = sub.add_parser("couple", help="run a coupling simulation")
                couple.modes = COUPLE_MODES
                modes = couple.add_subparsers(dest="mode", required=True)
            p = modes.add_parser(name[len(_COUPLE):], help=spec.help)
        for flag, kwargs in spec.flags:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help="output data file path")
    return parser


def config_from_args(args: argparse.Namespace) -> dict:
    """The parsed flags as one dict, the config that runners read and both
    files echo: ``command`` names the ``COMMAND_TABLE`` entry (couple modes
    as ``couple-<mode>``), ``format`` is the entry's format unless p0's
    --format chose another, and ``out`` defaults to ``<command>.<format>``.
    A subcommand that does not offer --seed or --phase echoes
    ``DEFAULT_SEED`` and, where it takes --rule, phase 0."""
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        raise ParameterError(f"--threads must be at least 1, got {threads}")
    config = dict(vars(args))
    if args.command == "couple":
        config["command"] = f"{_COUPLE}{args.mode}"
    spec = COMMAND_TABLE[config["command"]]
    config.setdefault("format", spec.format)
    config.setdefault("seed", DEFAULT_SEED)
    if "rule" in config:
        config.setdefault("phase", 0)
    config["out"] = args.out or f"{config['command']}.{config['format']}"
    return config


def _write_json(path, record: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# data files must be byte-identical across reruns; plumbing flags that do
# not affect the result (worker count, output path) stay in the sidecar only
_DATA_ECHO_SKIP = {"threads", "out"}


def _data_params(config: dict) -> dict:
    return {
        key: value
        for key, value in config.items()
        if value is not None and key not in _DATA_ECHO_SKIP
    }


def _peak_rss_mb(who) -> float:
    """The high-water resident set of this process (or its largest reaped
    child) so far, in MB: Linux reports ``ru_maxrss`` in KiB."""
    return resource.getrusage(who).ru_maxrss / 1024


def dispatch(config: dict) -> int:
    """Run the configured experiment and write its data file and sidecar."""
    started = time.perf_counter()
    command, out = config["command"], config["out"]
    data, extras, summary = COMMAND_TABLE[command].run(config)
    if isinstance(data, dict):
        _write_json(out, {"op": command, "params": _data_params(config), **data})
    else:
        write_csv(out, *data)
    meta = {"config": config, **extras}
    meta["wall_time_s"] = time.perf_counter() - started
    meta["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    if extras.get("workers", 1) > 1:  # a forked pool ran the trial blocks
        meta["workers_peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    meta["data_file"] = str(out)
    write_sidecar(out, meta)
    print(f"{summary} -> {out}")
    return 0


def _dispatch_with_notes(config: dict) -> int:
    """``dispatch``, printing each ``UserWarning`` it raises as one stderr
    ``note:`` line instead of a source trace, also when it raises."""
    caught = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            return dispatch(config)
    finally:
        for w in caught:
            if issubclass(w.category, UserWarning):
                print(f"note: {w.message}", file=sys.stderr)
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch_with_notes(config_from_args(args))
    except ShuffleMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print("error: out of memory; try a smaller size", file=sys.stderr)
        return CapExceededError.exit_code


if __name__ == "__main__":
    sys.exit(main())
