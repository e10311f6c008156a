"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test exercises the stated parameter sizes and tolerances; run with
``pytest -v`` for the per-criterion pass/fail lines (the prints show under
``-s`` or on failure).
"""

import json
import math
import time

import numpy as np
import pytest

from shufflemix.cli import main as cli_main
from shufflemix.cyclic import optimize_epsilon, p_recursion, tau_hat_moments
from shufflemix.exact import (
    LumpedEvolver,
    partial_mixing_time,
    worst_case_curve,
)
from shufflemix.montecarlo import (
    couple_k_decks,
    couple_one_card,
    fit_mismatch_bound,
    mc_tv_plugin,
    tv_lower_bound_fixed_cards,
)
from shufflemix.exact import exact_tv_curve

from conftest import ALL_KINDS, brute_force_marginals, make_rule


def note(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_one_card_universal_bound():
    n, times = 30, np.arange(1, 151)
    bound = np.exp(-times / n)
    started = time.perf_counter()
    worst = {}
    for kind in ("top", "random", "cyclic"):
        curve = worst_case_curve(make_rule(kind, n), 1, times)
        worst[kind] = float(np.max(curve.values - bound))
    elapsed = time.perf_counter() - started
    ok = all(v <= 1e-12 for v in worst.values()) and elapsed < 1.0
    note(1, ok, f"max excess over e^(-t/n) {worst}, {elapsed:.2f}s")


def test_criterion_02_random_rule_improved_rate():
    n, times = 30, np.arange(1, 151)
    started = time.perf_counter()
    curve = worst_case_curve(make_rule("random", n), 1, times)
    bound = np.exp(-2.0 * times * (1.0 - 2.0 / n) / n)
    excess = float(np.max(curve.values - bound))
    elapsed = time.perf_counter() - started
    ok = excess <= 1e-12 and elapsed < 1.0
    note(2, ok, f"max excess over e^(-2t(1-2/n)/n) = {excess:.3e}, {elapsed:.2f}s")


# exact k-card mixing times, shared by criteria 3 and 4; the uniform and
# pinned-top rules run at every pair, the sweep rule at the smallest pair
MIX_CASES = [
    ("top", 30, 2), ("top", 30, 3), ("top", 40, 2),
    ("random", 30, 2), ("random", 30, 3), ("random", 40, 2),
    ("cyclic", 30, 2),
]
_mix_cache = {}


def _mix_times():
    if not _mix_cache:
        started = time.perf_counter()
        for kind, n, k in MIX_CASES:
            rule = make_rule(kind, n)
            _mix_cache[(kind, n, k)] = partial_mixing_time(rule, k, 0.25).t
        _mix_cache["elapsed"] = time.perf_counter() - started
    return _mix_cache


def test_criterion_03_k_card_mixing_time_bound():
    mix = _mix_times()
    rows = []
    ok = mix["elapsed"] < 30.0
    for kind, n, k in MIX_CASES:
        cap = n * (math.log(k) + 1.5)
        t = mix[(kind, n, k)]
        ok = ok and t <= cap
        rows.append(f"{kind}({n},{k}): {t} <= {cap:.1f}")
    note(3, ok, "; ".join(rows) + f"; {mix['elapsed']:.1f}s")


def test_criterion_04_reduction_to_one_card():
    mix = _mix_times()
    rows = []
    ok = True
    for kind, n, k in MIX_CASES:
        t_k = mix[(kind, n, k)]
        t_one = partial_mixing_time(make_rule(kind, n), 1, (0.25 - 0.01) / k).t
        ok = ok and t_k <= t_one
        rows.append(f"{kind}({n},{k}): {t_k} <= {t_one} (slack {t_one - t_k})")
    note(4, ok, "; ".join(rows))


def test_criterion_05_eigenvalue_reproduction():
    started = time.perf_counter()
    opt = optimize_epsilon(0.0)
    elapsed = time.perf_counter() - started
    ok = 0.437 <= opt.epsilon <= 0.447 and 0.232 <= opt.lam <= 0.242 and elapsed < 0.1
    note(5, ok, f"eps* = {opt.epsilon:.6f}, lam* = {opt.lam:.6f}, {elapsed * 1000:.0f}ms")


def test_criterion_06_recursion_vs_closed_forms():
    sw = p_recursion(0.442, 1000)
    ok = sw.midrange_max_gap <= 1e-9 and abs(sw.p0_gap) < 5.0 / 1000
    note(6, ok, f"mid-range gap {sw.midrange_max_gap:.2e}, p0 gap {sw.p0_gap:.2e} < 5e-3")


def test_criterion_07_tau_hat_oracle():
    worst = 0.0
    for n in range(4, 51):
        mean = tau_hat_moments(n).mean
        q = 1.0 - 1.0 / n
        exhaustive = 0.0
        r_max = 60 * n
        for h in range(1, n + 1):
            acc = sum(min(h, r) * q ** (r - 1) / n for r in range(1, r_max + 1))
            exhaustive += (acc + h * q**r_max) / n
        worst = max(worst, abs(mean - exhaustive))
    big = tau_hat_moments(10_000)
    frac = big.mean / 10_000
    linear = all(tau_hat_moments(n).mean >= 0.18 * n for n in (20, 35, 50, 200, 1000))
    ok = worst <= 1e-12 and 0.36 <= frac <= 0.375 and linear
    note(7, ok, f"exhaustive gap {worst:.2e}, mean/n {frac:.5f}, "
         f"closed form gap {big.closed_form_gap:.1f} (reported only)")


def test_criterion_08_coupling_marginal_integrity():
    n, trials = 30, 100_000
    one = couple_one_card(make_rule("random", n), trials=trials, seed=101)
    with pytest.warns(UserWarning, match="not small"):
        # k^2 log(horizon) ~ 2n here; only marginal integrity is under test
        kd = couple_k_decks(
            make_rule("random", n), 3, trials=trials,
            seed=102,
        )
    p_vals = (
        one.details["chisq_p_deck_one"],
        one.details["chisq_p_deck_two"],
        kd.details["r0_chisq_p"],
    )
    ok = all(p > 0.001 for p in p_vals)
    designed = one.designed_times
    surv_rows = []
    for t in (n, 2 * n, 3 * n):
        p = (1.0 - 1.0 / n) ** t
        hat = float(((designed > t) | (designed < 0)).mean())
        se = math.sqrt(p * (1.0 - p) / trials)
        ok = ok and abs(hat - p) <= 3.0 * se
        surv_rows.append(f"t={t}: {hat:.4f} vs {p:.4f} (se {se:.4f})")
    note(8, ok, f"chi-square p {tuple(round(p, 4) for p in p_vals)}; " + "; ".join(surv_rows))


def test_criterion_09_mismatch_bound_fit():
    n, k, trials = 200, 3, 100_000
    times = [200, 1000, 5000]
    started = time.perf_counter()
    res = couple_k_decks(
        make_rule("random", n), k, horizon=5000, trials=trials,
        seed=103,
    )
    fit = fit_mismatch_bound(res, times=times)
    elapsed = time.perf_counter() - started
    fails = {
        t: float(((res.mismatch_times >= 0) & (res.mismatch_times <= t)).mean())
        for t in times
    }
    ok = fit.constant <= 20.0 and (fit.residuals >= -1e-12).all() and elapsed < 300.0
    note(9, ok, f"fail probs {fails}, fitted c = {fit.constant:.3f} <= 20, {elapsed:.0f}s")


def test_criterion_10_coupon_collector_moments():
    n, k, t, trials = 100, 10, 200, 100_000
    est = tv_lower_bound_fixed_cards(
        make_rule("top", n), k, t=t, c_threshold=2, samples=trials,
        seed=104,
    )
    mean, var = est.details["mean_statistic"], est.details["var_statistic"]
    target = k * (1.0 - 1.0 / n) ** t
    se_mean = math.sqrt(var / trials)
    se_var = var * math.sqrt(2.0 / (trials - 1))
    ok = abs(mean - target) <= 3.0 * se_mean and var <= target + 3.0 * se_var
    note(10, ok, f"mean {mean:.4f} vs {target:.4f} (3se {3 * se_mean:.4f}); "
         f"var {var:.4f} <= {target:.4f} + {3 * se_var:.4f}")


def test_criterion_11_cutoff_lower_floor():
    n, k = 60, 2
    rows = []
    ok = True
    times = sorted(int(math.floor(n * math.log(k) + a * n)) for a in (0, 1, 2))
    curve = worst_case_curve(make_rule("top", n), k, times)
    for alpha, t in zip((0, 1, 2), times):
        floor = math.exp(-alpha) / k - 2.0 / n
        d = curve.value_at(t)
        ok = ok and d >= floor
        rows.append(f"alpha={alpha}: d({t}) = {d:.4f} >= {floor:.4f}")
    note(11, ok, "; ".join(rows))


def test_criterion_12_oracle_equivalence():
    worst = 0.0
    worst_case = None
    for kind in ALL_KINDS:
        for n in range(2, 7):
            rule = make_rule(kind, n)
            for k in range(1, n + 1):
                start = tuple(range(1, k + 1))
                want = brute_force_marginals(rule, k, start, 10)
                evolver = LumpedEvolver(rule, k)
                probs = np.zeros(evolver.indexer.count)
                probs[evolver.indexer.encode(start)] = 1.0
                gap = float(np.abs(probs - want[0]).max())
                for t in range(1, 11):
                    probs = evolver.step(probs, t)
                    gap = max(gap, float(np.abs(probs - want[t]).max()))
                if gap > worst:
                    worst, worst_case = gap, (kind, n, k)
    ok = worst <= 1e-10
    note(12, ok, f"max |lumped - brute| = {worst:.2e} (at {worst_case})")


def test_criterion_13_mc_agrees_with_exact():
    n, k, samples = 10, 2, 1_000_000
    rule = make_rule("top", n)
    exact = exact_tv_curve(rule, k, (1, 2), times=[5, 20])
    rows = []
    ok = True
    for t in (5, 20):
        est = mc_tv_plugin(rule, k, t, samples, seed=105 + t)
        gap = abs(est.value - exact.value_at(t))
        tol = 3.0 * est.std_error + 0.02
        ok = ok and gap <= tol
        rows.append(f"t={t}: |{est.value:.5f} - {exact.value_at(t):.5f}| <= {tol:.5f}")
    note(13, ok, "; ".join(rows))


def test_criterion_14_cli_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        ["exact-tv", "--rule", "top", "--n", "20", "--k", "2", "--t-max", "40"],
        ["mc-tv", "--rule", "random", "--n", "12", "--k", "2", "--t", "10",
         "--samples", "30000"],
        ["couple", "k-deck", "--rule", "top", "--n", "50", "--k", "2",
         "--trials", "5000", "--horizon", "200"],
    ]
    ok = True
    rows = []
    for i, cmd in enumerate(commands):
        a, b = tmp_path / f"a{i}.dat", tmp_path / f"b{i}.dat"
        # exact-tv runs no trials, so it takes no --seed or --threads
        threaded = cmd[0] != "exact-tv"
        for out, threads in ((a, "1"), (b, "8")):
            extra = ["--seed", "7", "--threads", threads] if threaded else []
            assert cli_main([*cmd, *extra, "--out", str(out)]) == 0
        same = a.read_bytes() == b.read_bytes()
        ok = ok and same
        rows.append(f"{cmd[0]}: {'identical' if same else 'DIFFER'}")
    capsys.readouterr()
    note(14, ok, "; ".join(rows))


def test_cutoff_sharpening_report():
    """Qualitative only, nothing asserted beyond range checks: lower bounds
    on the distance at t = r * (n log k) for r around 1.  As k grows the
    transition occupies a shrinking fraction of the mixing scale, so the
    r=0.75 column should drift upward while r=1.25 stays low."""
    n = 200
    rule = make_rule("top", n)
    print("cutoff sharpening report (lower-bound statistic, n=200):")
    for k in (2, 4, 8):
        vals = []
        for r in (0.75, 1.0, 1.25):
            t = int(round(r * n * math.log(k)))
            best = 0.0
            for c in range(1, min(k, 3)):
                est = tv_lower_bound_fixed_cards(
                    rule, k, t=t, c_threshold=c, samples=30_000,
                    seed=200 + k,
                )
                assert 0.0 <= est.value <= 1.0
                best = max(best, est.value)
            vals.append(f"r={r:.2f}: {best:.4f}")
        print(f"  k={k}: " + ", ".join(vals))
