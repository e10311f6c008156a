"""Command line front end: configure an experiment, run it, emit files.

Every subcommand writes one data file (CSV or JSON) plus a ``.meta.json``
sidecar echoing the full configuration, the library version, and the wall
time. Data files contain no timestamps, so identical invocations produce
byte-identical data files; only the sidecar varies. The seed defaults to
``DEFAULT_SEED``, can be overridden by the SHUFFLE_MIX_SEED environment
variable, and an explicit --seed wins over both.

Exit codes: 0 success, 1 unknown subcommand, 2 parameter error,
3 horizon or state-count cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

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

COMMANDS = (
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
COUPLE_MODES = ("one-card", "two-hand", "k-deck")


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
        raise ParameterError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflemix",
        description="exact and Monte Carlo analysis of semi-random "
        "transposition shuffles",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def common(p, rule=True, k=True):
        if rule:
            p.add_argument(
                "--rule",
                choices=["top", "random", "cyclic"],
                default="top",
                help="left-hand rule (default top)",
            )
            p.add_argument(
                "--phase", type=int, default=0, help="cyclic sweep offset"
            )
        p.add_argument("--n", type=int, required=True, help="deck size")
        if k:
            p.add_argument("--k", type=int, default=1, help="tracked cards")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output data file path")
        p.add_argument("--format", choices=["csv", "json"], default=None)
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker count; results are worker-count independent",
        )

    p = sub.add_parser("exact-tv", help="exact TV curve from a fixed start")
    common(p)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--times", type=_int_list, default=None)

    p = sub.add_parser("worst-tv", help="exact worst-case TV curve")
    common(p)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--times", type=_int_list, default=None)
    p.add_argument(
        "--strategy",
        choices=["auto", "canonical", "exhaustive", "sampled"],
        default="auto",
    )

    p = sub.add_parser("mix-time", help="smallest t with worst-case TV < eps")
    common(p)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--horizon", type=int, default=None)

    p = sub.add_parser("cutoff", help="worst-case TV at n log k + alpha n")
    common(p)
    p.add_argument("--alphas", type=_float_list, default=None)

    p = sub.add_parser("mc-tv", help="plug-in Monte Carlo TV estimate")
    common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser(
        "lower-bound", help="TV lower bound from the never-touched statistic"
    )
    common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--threshold", type=int, default=1)
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("couple", help="run a coupling simulation")
    p.add_argument("mode", choices=list(COUPLE_MODES))
    common(p)
    p.add_argument("--card", type=int, default=1)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--trials", type=int, default=100_000)

    p = sub.add_parser("hits", help="left-hand hit count on tracked cards")
    common(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)

    p = sub.add_parser("tau-hat", help="moments of the touch waiting time")
    common(p, rule=False, k=False)

    p = sub.add_parser("p0", help="gap-closing probability recursion")
    common(p, rule=False, k=False)
    p.add_argument("--epsilon", type=float, default=0.442)

    p = sub.add_parser("eig-scan", help="second eigenvalue over an eps grid")
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--lo", type=float, default=0.01)
    p.add_argument("--hi", type=float, default=0.49)
    p.add_argument("--num", type=int, default=500)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("eig-opt", help="eps minimizing the second eigenvalue")
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("cyclic-bound", help="one-card cyclic bound curve")
    common(p, rule=False, k=False)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument(
        "--fit",
        action="store_true",
        help="fit c against the exact worst-case curve instead of --c",
    )

    p = sub.add_parser("cyclic-mix", help="k-card mixing bound, cyclic rule")
    common(p, rule=False)
    p.add_argument("--c", type=float, default=1.0)

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    seed = _resolve_seed(getattr(args, "seed", None))
    skip = {"command", "seed", "out", "format", "threads"}
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip
    }
    command = args.command
    if command == "couple":
        command = f"couple-{args.mode}"
    default_format = "json" if command in _JSON_COMMANDS else "csv"
    fmt = getattr(args, "format", None) or default_format
    out = getattr(args, "out", None) or f"{command}.{fmt}"
    return ExperimentConfig(
        command=command,
        params=params,
        seed=seed,
        out=out,
        format=fmt,
        threads=getattr(args, "threads", 1),
    )


_JSON_COMMANDS = {
    "mix-time",
    "mc-tv",
    "lower-bound",
    "hits",
    "tau-hat",
    "p0",
    "eig-opt",
    "cyclic-mix",
}


def _rule_from(params: dict) -> ShuffleRule:
    return ShuffleRule(
        kind=ShuffleKind(params.get("rule", "top")),
        n=params["n"],
        phase=params.get("phase", 0),
    )


def _check_k(params: dict):
    n, k = params["n"], params.get("k", 1)
    if k > n:
        raise ParameterError(f"k exceeds n (k={k}, n={n})")
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")


def _times_from(params: dict) -> np.ndarray:
    if params.get("times"):
        return np.asarray(sorted(set(params["times"])), dtype=np.int64)
    t_max = params.get("t_max") or 10 * params["n"]
    return np.arange(1, t_max + 1, dtype=np.int64)


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


def _estimate_record(op: str, config: ExperimentConfig, est, fitted=None) -> dict:
    tallies = {
        key: value
        for key, value in est.details.items()
        if isinstance(value, (int, float, str, bool, list, tuple))
    }
    return {
        "op": op,
        "params": _data_params(config),
        "estimate": est.value,
        "std_error": est.std_error,
        "samples": est.samples,
        "seed": est.seed,
        "fitted_constants": fitted,
        "tallies": tallies,
    }


def _survival_rows(times: np.ndarray, horizon: int, trials: int):
    survivors = survival_counts(times, horizon)
    for t in range(horizon + 1):
        yield t, int(survivors[t]), trials


def dispatch(config: ExperimentConfig) -> int:
    """Run the configured experiment and write its artifacts."""
    started = time.perf_counter()
    command = config.command
    params = config.params
    out = config.out
    meta = {"config": config.echo(), "version": __version__}
    summary = ""

    if command in ("exact-tv", "worst-tv"):
        _check_k(params)
        rule = _rule_from(params)
        times = _times_from(params)
        k = params.get("k", 1)
        if command == "exact-tv":
            curve = exact_tv_curve(rule, k, tuple(range(1, k + 1)), times)
        else:
            curve = worst_case_curve(
                rule, k, times, start_strategy=params.get("strategy", "auto")
            )
        write_csv(out, "t,tv", zip(curve.times.tolist(), curve.values.tolist()))
        meta.update(curve.metadata)
        summary = f"{command}: {times.size} rows, final tv {curve.values[-1]:.6g}"
    elif command == "mix-time":
        _check_k(params)
        rule = _rule_from(params)
        result = partial_mixing_time(
            rule,
            params.get("k", 1),
            params.get("epsilon", 0.25),
            horizon=params.get("horizon"),
        )
        _write_json(
            out,
            {
                "op": command,
                "params": _data_params(config),
                "t_mix": result.t,
                "tv": result.tv,
                "epsilon": result.epsilon,
                "horizon": result.horizon,
                "strategy": result.strategy,
            },
        )
        summary = f"mix-time: t_mix({result.epsilon}) = {result.t}"
    elif command == "cutoff":
        _check_k(params)
        rule = _rule_from(params)
        alphas = params.get("alphas") or [0.0, 0.5, 1.0, 1.5, 2.0]
        profile = cutoff_profile(rule, params.get("k", 1), alphas)
        write_csv(out, "alpha,t,tv,bound", profile.rows())
        meta.update(profile.metadata)
        summary = f"cutoff: {len(alphas)} alphas"
    elif command == "mc-tv":
        _check_k(params)
        rule = _rule_from(params)
        k = params.get("k", 1)
        est = mc_tv_plugin(
            rule,
            params["n"],
            k,
            None,
            None,
            params["t"],
            params["samples"],
            rng=RandomStream(config.seed),
        )
        _write_json(out, _estimate_record(command, config, est))
        summary = f"mc-tv: {est.value:.6g} +- {est.std_error:.2g}"
    elif command == "lower-bound":
        _check_k(params)
        rule = _rule_from(params)
        est = tv_lower_bound_fixed_cards(
            rule,
            params["n"],
            params.get("k", 1),
            params["t"],
            params.get("threshold", 1),
            params["samples"],
            rng=RandomStream(config.seed),
        )
        _write_json(out, _estimate_record(command, config, est))
        summary = f"lower-bound: {est.value:.6g}"
    elif command.startswith("couple-"):
        mode = command[len("couple-"):]
        n = params["n"]
        trials = params.get("trials", 100_000)
        stream = RandomStream(config.seed)
        if mode == "one-card":
            result = couple_one_card(
                _rule_from(params),
                n,
                params.get("card", 1),
                horizon=params.get("horizon"),
                trials=trials,
                rng=stream,
            )
            times, horizon = result.match_times, result.horizon
            meta["details"] = {
                k: v
                for k, v in result.details.items()
                if not isinstance(v, np.ndarray)
            }
        elif mode == "two-hand":
            result = couple_two_hands_random(
                n,
                params.get("card", 1),
                horizon=params.get("horizon"),
                trials=trials,
                rng=stream,
            )
            times, horizon = result.match_times, result.horizon
            meta["details"] = {
                k: v
                for k, v in result.details.items()
                if not isinstance(v, np.ndarray)
            }
        else:
            kd_params = KDeckCouplingParams(
                n=n, k=params.get("k", 1), horizon=params.get("horizon")
            )
            result = couple_k_decks(
                _rule_from(params),
                kd_params,
                list(range(1, kd_params.k + 1)),
                trials,
                rng=stream,
            )
            times, horizon = result.mismatch_times, kd_params.horizon
            fit = fit_mismatch_bound(result)
            meta["details"] = dict(result.details)
            meta["fitted_constants"] = {
                "constant": fit.constant,
                "shape": fit.shape,
            }
            meta["situation_totals"] = result.situation_counts.sum(axis=0).tolist()
        write_csv(out, "t,survivors,trials", _survival_rows(times, horizon, trials))
        censored = int(np.count_nonzero(times < 0))
        summary = f"{command}: {trials} trials, {censored} censored at t={horizon}"
    elif command == "hits":
        _check_k(params)
        rule = _rule_from(params)
        k = params.get("k", 1)
        est = left_hand_hit_count(
            rule,
            params["n"],
            k,
            None,
            params["t"],
            params.get("trials", 100_000),
            rng=RandomStream(config.seed),
        )
        fitted = {
            "constant": est.details["fit_constant"],
            "shape": est.details["fit_shape"],
        }
        _write_json(out, _estimate_record(command, config, est, fitted=fitted))
        summary = f"hits: mean {est.value:.4g}, constant {fitted['constant']:.4g}"
    elif command == "tau-hat":
        moments = tau_hat_moments(params["n"])
        _write_json(
            out,
            {
                "op": command,
                "params": _data_params(config),
                "mean": moments.mean,
                "second_moment": moments.second_moment,
                "variance": moments.variance,
                "mean_over_n": moments.mean / moments.n,
                "closed_form_mean": moments.closed_form_mean,
                "closed_form_gap": moments.closed_form_gap,
            },
        )
        summary = f"tau-hat: mean {moments.mean:.4f} ({moments.mean / moments.n:.4f} n)"
    elif command == "p0":
        sweep = p_recursion(params.get("epsilon", 0.442), params["n"])
        if config.format == "csv":
            write_csv(out, "s,p", enumerate(sweep.values.tolist()))
        else:
            _write_json(
                out,
                {
                    "op": command,
                    "params": _data_params(config),
                    "p0": sweep.p0,
                    "p0_closed_form": sweep.p0_closed_form,
                    "p0_gap": sweep.p0_gap,
                    "midrange_max_gap": sweep.midrange_max_gap,
                    "m": sweep.m,
                },
            )
        summary = f"p0: {sweep.p0:.6f} (closed form {sweep.p0_closed_form:.6f})"
    elif command == "eig-scan":
        eps, lams = scan_epsilon(
            params.get("xi", 0.0),
            params.get("lo", 0.01),
            params.get("hi", 0.49),
            params.get("num", 500),
        )
        write_csv(out, "epsilon,lambda2", zip(eps.tolist(), lams.tolist()))
        summary = f"eig-scan: {eps.size} points"
    elif command == "eig-opt":
        opt = optimize_epsilon(params.get("xi", 0.0))
        _write_json(
            out,
            {
                "op": command,
                "params": _data_params(config),
                "epsilon": opt.epsilon,
                "lambda": opt.lam,
                "xi": opt.xi,
                "unimodal": opt.unimodal,
            },
        )
        summary = f"eig-opt: epsilon {opt.epsilon:.4f}, lambda {opt.lam:.4f}"
    elif command == "cyclic-bound":
        n = params["n"]
        t_max = params.get("t_max") or 10 * n
        if params.get("fit"):
            bound_params = fit_cyclic_bound_constant(n=n, t_max=t_max)
        else:
            bound_params = CyclicBoundParams(c=params.get("c", 1.0))
        rows = (
            (t, cyclic_one_card_bound(t, n, bound_params))
            for t in range(1, t_max + 1)
        )
        write_csv(out, "t,bound", rows)
        meta["bound_params"] = {
            "c": bound_params.c,
            "lam": bound_params.lam,
            "rate": bound_params.rate,
        }
        summary = f"cyclic-bound: c = {bound_params.c:.4g}"
    elif command == "cyclic-mix":
        _check_k(params)
        result = cyclic_mixing_upper(
            params["n"], params.get("k", 1), params.get("c", 1.0)
        )
        _write_json(
            out,
            {
                "op": command,
                "params": _data_params(config),
                "t": result.t,
                "threshold": result.threshold,
                "coefficient_logk": result.coefficient_logk,
                "constant_direct": result.constant_direct,
                "coefficient_direct": result.coefficient_direct,
                "constant_inverted": result.constant_inverted,
                "coefficient_inverted": result.coefficient_inverted,
                "generic_bound": result.generic_bound,
            },
        )
        summary = f"cyclic-mix: t = {result.t} (generic {result.generic_bound:.1f})"
    else:
        raise ParameterError(f"unknown command {command!r}")

    meta["wall_time_s"] = time.perf_counter() - started
    meta["data_file"] = str(out)
    write_sidecar(out, meta)
    print(f"{summary} -> {out}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    head = next((tok for tok in argv if not tok.startswith("-")), None)
    if head is None and not any(tok in ("-h", "--help") for tok in argv):
        build_parser().print_usage(sys.stderr)
        return 1
    if head is not None and head not in COMMANDS:
        print(f"unknown subcommand: {head}", file=sys.stderr)
        build_parser().print_usage(sys.stderr)
        return 1
    if head == "couple":
        mode = next(
            (tok for tok in argv[argv.index(head) + 1 :] if not tok.startswith("-")),
            None,
        )
        if mode not in COUPLE_MODES:
            print(f"unknown couple mode: {mode}", file=sys.stderr)
            return 1
    args = build_parser().parse_args(argv)
    try:
        return dispatch(config_from_args(args))
    except ShuffleMixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
