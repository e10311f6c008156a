"""Sweep-based rule analysis: waiting times, phase chain, window optimum."""

import math

import numpy as np
import pytest

from shufflemix.cyclic import (
    CYCLIC_BOUND_LAM,
    block_spectrum,
    cyclic_mixing_upper,
    cyclic_one_card_bound,
    fit_cyclic_bound_constant,
    lambda2_of_epsilon,
    optimize_epsilon,
    p_recursion,
    per_step_rate,
    phase_matrix_exact,
    phase_matrix_limit,
    scan_epsilon,
    tau_hat_moments,
)
from shufflemix.errors import DomainError, HorizonError, ParameterError
from shufflemix.rng import RandomStream


# -- touch waiting time ----------------------------------------------------------


def exhaustive_tau_mean(n, r_max=None):
    """Plain double loop over H and a truncated geometric R, plus the tail."""
    if r_max is None:
        r_max = n
    q = 1.0 - 1.0 / n
    total = 0.0
    for h in range(1, n + 1):
        acc = 0.0
        for r in range(1, r_max + 1):
            acc += min(h, r) * q ** (r - 1) / n
        # beyond r_max the minimum is min(h, r) = h whenever r_max >= h
        acc += h * q**r_max
        total += acc / n
    return total


def test_tau_hat_matches_exhaustive_small_n():
    for n in (4, 7, 12, 25, 50):
        mean = tau_hat_moments(n).mean
        assert abs(mean - exhaustive_tau_mean(n, r_max=50 * n)) < 1e-12, n


def test_tau_hat_large_n_fraction():
    m = tau_hat_moments(10_000)
    assert 0.36 <= m.mean / 10_000 <= 0.375
    assert m.variance > 0.0
    assert math.isfinite(m.closed_form_gap)  # reported, not asserted


def test_tau_hat_linear_lower_bound():
    for n in (20, 50, 200, 1000, 5000):
        assert tau_hat_moments(n).mean >= 0.18 * n, n


def test_tau_hat_frozen_values():
    m = tau_hat_moments(50)
    assert m.mean == pytest.approx(18.844314324268726, abs=1e-12)
    assert m.variance == pytest.approx(179.34180060451234, abs=1e-9)
    assert m.second_moment == pytest.approx(m.variance + m.mean**2, rel=1e-12)


def test_tau_hat_validation():
    with pytest.raises(ParameterError):
        tau_hat_moments(3)


# -- gap-closing recursion ---------------------------------------------------------


def test_recursion_terminal_value():
    sw = p_recursion(0.442, 1000)
    assert sw.values[-1] == pytest.approx(2.0 * 0.442 * 1000 / 999, abs=1e-15)
    assert sw.m == 442


def test_recursion_values_are_probabilities():
    for n in (100, 1000, 2500):
        sw = p_recursion(0.442, n)
        assert sw.values.min() >= 0.0 and sw.values.max() <= 1.0, n


def test_recursion_matches_midrange_closed_form():
    # closed form 2 eps (1-1/n)^{s + eps n - n} holds on the open mid-range
    sw = p_recursion(0.442, 1000)
    assert sw.midrange_max_gap < 1e-9
    # the solution vector covers s in [0, n - m); mid-range means s in (m, n - m)
    assert sw.values.shape == (1000 - 442,)
    q = 1.0 - 1.0 / 1000
    s = 500
    assert sw.values[s] == pytest.approx(2.0 * 0.442 * q ** (s + 442 - 1000), rel=1e-9)


def test_recursion_start_value_near_closed_form():
    for n in (100, 1000, 10_000):
        sw = p_recursion(0.442, n)
        assert abs(sw.p0_gap) < 5.0 / n, n
        assert sw.p0 == pytest.approx(sw.values[0])


def test_recursion_frozen_start_value():
    sw = p_recursion(0.442, 1000)
    assert sw.p0 == pytest.approx(0.9887625776896604, abs=1e-12)


def test_recursion_domain_checks():
    with pytest.raises(ParameterError):
        p_recursion(0.6, 100)
    with pytest.raises(ParameterError):
        p_recursion(0.0, 100)
    with pytest.raises(ParameterError):
        p_recursion(0.442, 3)
    with pytest.raises(ParameterError):
        p_recursion(0.005, 100)  # window rounds to zero
    with pytest.raises(ParameterError):
        p_recursion(0.49, 49)  # no mid-range left
    with pytest.raises(DomainError, match=r"p_0 .* is 1\.004\d+, outside \[0, 1\]"):
        p_recursion(0.442, 60)  # p_0 above 1


# -- phase-chain matrices ------------------------------------------------------------


def test_phase_matrices_are_stochastic():
    for chain in (
        phase_matrix_exact(0.442, 1000),
        phase_matrix_exact(0.3, 5000),
        phase_matrix_limit(0.442, 0.0),
        phase_matrix_limit(0.442, 0.01),
    ):
        mat = chain.matrix
        assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12
        assert mat.min() >= 0.0
        # S is absorbing
        assert chain.entry("S", "S") == 1.0


def test_exact_approaches_limit():
    gap = np.abs(
        phase_matrix_exact(0.442, 1_000_000).matrix
        - phase_matrix_limit(0.442, 0.0).matrix
    ).max()
    assert gap < 1e-4


def test_exact_dominates_slack_limit_where_it_should():
    """With slack 0.001 the finite chain at n = 10^4 beats the limit's
    success and return entries; the (C, C) entry goes the other way."""
    ex = phase_matrix_exact(0.442, 10_000)
    lim = phase_matrix_limit(0.442, 0.001)
    assert ex.entry("C", "S") > lim.entry("C", "S")
    assert ex.entry("F", "C") > lim.entry("F", "C")
    assert ex.entry("C", "S") == pytest.approx(0.7789278927892789, abs=1e-12)
    assert lim.entry("C", "S") == pytest.approx(0.778, abs=1e-12)
    assert ex.entry("F", "C") == pytest.approx(0.8840884088408841, abs=1e-12)
    assert lim.entry("F", "C") == pytest.approx(0.884, abs=1e-12)
    assert not ex.entry("C", "C") > lim.entry("C", "C")


def test_block_spectrum_frozen_values():
    sp = block_spectrum(phase_matrix_limit(0.442, 0.0))
    assert sp.lam_max == pytest.approx(0.23679676770129393, abs=1e-12)
    assert sp.lam_min == pytest.approx(0.0977029828268882, abs=1e-12)
    assert sp.trace == pytest.approx(0.33449975052818215, abs=1e-12)
    assert sp.det == pytest.approx(0.023135750528182158, abs=1e-12)
    # quadratic-formula self consistency
    assert sp.lam_max + sp.lam_min == pytest.approx(sp.trace, rel=1e-12)
    assert sp.lam_max * sp.lam_min == pytest.approx(sp.det, rel=1e-12)


def test_dense_eigenvalues_agree_with_quadratic():
    gen = RandomStream(83).generator
    for _ in range(1000):
        eps = float(gen.uniform(0.02, 0.49))
        xi = float(gen.uniform(0.0, 0.05))
        chain = phase_matrix_limit(eps, xi)
        dense = max(abs(np.linalg.eigvals(chain.block())))
        assert abs(dense - block_spectrum(chain).lam_max) < 1e-10


def test_lambda2_near_one_for_narrow_window():
    assert lambda2_of_epsilon(0.01) > 0.9
    assert lambda2_of_epsilon(0.2) > lambda2_of_epsilon(0.4)


# -- window optimization ----------------------------------------------------------------


def test_optimize_epsilon_frozen_optimum():
    opt = optimize_epsilon(0.0)
    assert opt.unimodal
    assert opt.epsilon == pytest.approx(0.44212763029152957, abs=1e-5)
    assert opt.lam == pytest.approx(0.23676637849967563, abs=1e-5)
    assert 0.437 <= opt.epsilon <= 0.447
    assert 0.232 <= opt.lam <= 0.242


def test_optimize_epsilon_interior_minimum():
    opt = optimize_epsilon(0.0)
    assert per_step_rate(opt.epsilon) < per_step_rate(0.3)
    assert per_step_rate(opt.epsilon) < per_step_rate(0.49)
    assert lambda2_of_epsilon(0.3) == pytest.approx(0.4408378898124878, abs=1e-12)
    assert lambda2_of_epsilon(0.49) == pytest.approx(0.24527156895247024, abs=1e-12)


def test_optimize_epsilon_slack_monotone():
    base = optimize_epsilon(0.0)
    slack = optimize_epsilon(0.01)
    assert slack.lam > base.lam
    assert slack.epsilon == pytest.approx(0.44800041099530963, abs=1e-5)
    assert slack.lam == pytest.approx(0.27539938571900174, abs=1e-5)
    with pytest.raises(ParameterError):
        optimize_epsilon(-0.1)


def test_scan_raw_eigenvalue_minimum_sits_wider():
    # the raw eigenvalue bottoms out past 0.45; the optimizer deliberately
    # discounts by cycle length and lands near 0.442 instead
    eps, lams = scan_epsilon()
    raw_argmin = float(eps[int(np.argmin(lams))])
    assert 0.448 <= raw_argmin <= 0.457
    assert float(lams.min()) == pytest.approx(0.2355535337677016, abs=1e-10)
    assert raw_argmin > optimize_epsilon(0.0).epsilon


# -- one-card failure bound and mixing-time solver ------------------------------------------


def test_bound_at_zero_steps():
    assert cyclic_one_card_bound(0, 100, 2.0) == pytest.approx(2.0 * (1.0 + 0.01))


def test_bound_validation():
    for bad in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError):
            cyclic_one_card_bound(5, 100, bad)
        with pytest.raises(ParameterError):
            cyclic_mixing_upper(100, 4, bad)
    with pytest.raises(ParameterError):
        cyclic_one_card_bound(-1, 100, 1.0)
    with pytest.raises(ParameterError):
        cyclic_one_card_bound(5, 1, 1.0)


def test_bound_over_an_array_matches_each_step():
    for n in (10, 20, 60, 137):
        ts = np.arange(0, 10 * n + 1)
        values = cyclic_one_card_bound(ts, n, 0.7)
        assert values.tolist() == [cyclic_one_card_bound(int(t), n, 0.7) for t in ts]
    with pytest.raises(ParameterError):
        cyclic_one_card_bound(np.array([3, -1]), 10, 0.7)


def test_fit_of_a_zero_curve_names_the_cause():
    with pytest.raises(ParameterError, match="curve at n=2 is 0"):
        fit_cyclic_bound_constant(n=2, t_max=3)


def test_fitted_constant_dominates_curve():
    c = fit_cyclic_bound_constant(n=60)
    assert type(c) is float and 0.0 < c <= 10.0
    # by construction the fitted bound touches the exact curve from above;
    # spot check it at a few times against a fresh evaluation
    from shufflemix.exact import worst_case_curve
    from conftest import make_rule

    curve = worst_case_curve(make_rule("cyclic", 60), 1, [30, 120, 360])
    for t, tv in zip(curve.times, curve.values):
        assert tv <= cyclic_one_card_bound(int(t), 60, c) + 1e-12


def test_mixing_solver_matches_threshold():
    res = cyclic_mixing_upper(200, 4, 0.5)
    target = math.exp(-1.5) / 4
    assert cyclic_one_card_bound(res.t, 200, 0.5) <= target
    assert cyclic_one_card_bound(res.t - 1, 200, 0.5) > target
    assert res.threshold == pytest.approx(target)
    assert res.generic_bound == pytest.approx(200 * (math.log(4) + 1.5))
    assert res.c == 0.5


def test_mixing_solver_bisection_matches_full_scan():
    """The bisection finds the first t of a scan over t = 1..horizon, and
    raises HorizonError exactly when the scan finds none."""
    crossed = exhausted = 0
    for n in (2, 3, 5, 8, 13):
        horizon = int(math.ceil(10.0 * n * math.log(n)))
        ts = np.arange(1, horizon + 1)
        for k in (2, 3, 7, 50):
            for c in (0.01, 0.3, 1.0, 4.0, 1e3, 1e6):
                below = np.flatnonzero(
                    cyclic_one_card_bound(ts, n, c) <= math.exp(-1.5) / k
                )
                if below.size:
                    assert cyclic_mixing_upper(n, k, c).t == ts[below[0]]
                    crossed += 1
                else:
                    with pytest.raises(HorizonError):
                        cyclic_mixing_upper(n, k, c)
                    exhausted += 1
    assert crossed and exhausted


def test_mixing_solver_scales_like_half_n_log_k():
    """The solved time is 0.5006 n (log k + shift) up to one stair width.

    The bound decays in stairs of width n/rate; between stairs only the
    e^{-t/n} factor moves, so the crossing can overshoot the smooth solution
    by at most log(1/lam) inside the bracket. Small k stays inside a 0.75
    shift; the stair-wide envelope holds for all k.
    """
    c = fit_cyclic_bound_constant(n=60)
    stair = math.log(1.0 / CYCLIC_BOUND_LAM)
    for k in (2, 4, 8, 16, 32):
        res = cyclic_mixing_upper(1000, k, c)
        cap = 0.5006 * 1000 * (math.log(k) + res.constant_direct + stair)
        assert res.t <= cap, k
        assert res.t >= 0.25 * 1000 * math.log(k)
        if k <= 8:
            tight = 0.5006 * 1000 * (math.log(k) + res.constant_direct + 0.75)
            assert res.t <= tight, k
    t_prev = 0
    for k in (2, 3, 5, 9):
        t_k = cyclic_mixing_upper(500, k, c).t
        assert t_k >= t_prev
        t_prev = t_k


def test_mixing_solver_validation():
    with pytest.raises(ParameterError):
        cyclic_mixing_upper(100, 1, 1.0)
    with pytest.raises(ParameterError):
        cyclic_mixing_upper(1, 4, 1.0)
