"""Simulation estimators and couplings.

Every stochastic assertion here runs on a fixed seed, so the suite is
deterministic; tolerance envelopes are 3 standard errors unless a quantity
is exact by construction.
"""

import dataclasses
import hashlib
import itertools
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from shufflemix.errors import CapExceededError, ParameterError
from shufflemix.exact import LumpedEvolver, exact_tv_curve, single_card_matrix
from shufflemix.indexing import KTupleIndexer
from shufflemix.montecarlo import (
    _TRIAL_BLOCK,
    _chisq_p,
    _hand_schedule,
    _k_deck_step,
    _map_blocks,
    _swap_positions as _swap_trials_last,
    _trial_blocks,
    KDeckCouplingParams,
    MCEstimate,
    block_workers,
    couple_k_decks,
    couple_one_card,
    couple_two_hands_random,
    fit_mismatch_bound,
    left_hand_hit_count,
    mc_tv_plugin,
    plugin_tv_from_counts,
    survival_counts,
    tv_lower_bound_fixed_cards,
    uniform_fixed_point_tail,
)
from shufflemix.rng import RandomStream

from conftest import ALL_KINDS, make_rule, run_bounded


def test_mc_estimate_validation():
    with pytest.raises(ParameterError):
        MCEstimate(value=0.1, std_error=-1.0, samples=10, seed=0)
    with pytest.raises(ParameterError):
        MCEstimate(value=0.1, std_error=0.0, samples=0, seed=0)


# -- the tracked-position walk -------------------------------------------------


def _deck_with(cards, start, n):
    """A full deck (entry p-1 is the card at position p) holding ``cards``
    at ``start``; the others fill in order."""
    deck = np.zeros(n, dtype=np.int64)
    deck[np.asarray(start) - 1] = cards
    deck[deck == 0] = [c for c in range(1, n + 1) if c not in cards]
    return deck


def _positions_of(deck, cards):
    return [int(np.flatnonzero(deck == c)[0]) + 1 for c in cards]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_walk_matches_full_deck_oracle(kind):
    """Tracked positions equal those of whole decks given the same hands,
    also with a per-deck axis of right hands (as the k-deck coupling uses)."""
    trials = 5
    for n in (4, 8):
        rule = make_rule(kind, n)
        for k in (1, 2, 3):
            gen = RandomStream(100 * n + k).generator
            other_gen = RandomStream(100 * n + k, 1).generator
            cards = list(range(1, k + 1))
            start = gen.permutation(n)[:k] + 1
            pos = np.tile(start[:, None], trials)  # pos[card, trial]
            pos2 = np.tile(start[:, None], (2, 1, trials))  # pos2[deck, card, trial]
            decks = np.tile(_deck_with(cards, start, n), (trials, 2, 1))
            for _, left, right in _hand_schedule(rule, 3 * n, gen, trials):
                other = other_gen.integers(1, n + 1, size=trials)
                lefts = np.broadcast_to(left, (trials,))
                for i in range(trials):
                    for deck, r in zip(decks[i], (right[i], other[i])):
                        deck[[lefts[i] - 1, r - 1]] = deck[[r - 1, lefts[i] - 1]]
                pos = _swap_trials_last(pos, left, right)
                rights = np.stack([right, other])[:, None, :]
                pos2 = _swap_trials_last(pos2, left, rights)
                want = [[_positions_of(d, cards) for d in pair] for pair in decks]
                assert pos.T.tolist() == [one for one, _ in want]
                assert pos2.transpose(2, 0, 1).tolist() == want


@settings(max_examples=40, deadline=2000, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(ALL_KINDS))
def test_hand_schedule_marginals(n, seed, kind):
    """Right hands are uniform on 1..n; left hands follow left_distribution."""
    rule, size = make_rule(kind, n), 3000
    gen = RandomStream(seed).generator
    for s, left, right in _hand_schedule(rule, 3, gen, size):
        assert right.shape == (size,)
        assert stats.chisquare(np.bincount(right - 1, minlength=n)).pvalue > 1e-6
        dist = rule.left_distribution(s)
        if np.ndim(left) == 0:
            assert dist[left - 1] == 1.0
            continue
        counts = np.bincount(left - 1, minlength=n)
        assert counts[dist == 0.0].sum() == 0
        live = dist > 0.0
        if live.sum() > 1:
            assert stats.chisquare(counts[live], dist[live] * size).pvalue > 1e-6


# -- plug-in TV estimator ------------------------------------------------------


def test_plugin_tv_on_uniform_counts():
    """A 10^6-draw uniform sample over 90 states lands near zero TV."""
    gen = RandomStream(2024, 1).generator
    counts = gen.multinomial(1_000_000, np.full(90, 1.0 / 90))
    tv, se = plugin_tv_from_counts(counts, 1_000_000)
    assert tv < 0.02
    assert 0.0 <= se <= 1.0


def test_plugin_se_when_no_observed_cell_lies_below_uniform():
    """With two or more cells seen and none below 1/N the delta method reads
    0; the SE is then the Efron-Stein bound sqrt(1/(2M)). A point mass still
    reads 0, and a cell below 1/N keeps the delta method."""
    spread = np.zeros(132, dtype=np.int64)
    spread[:100] = 1
    assert plugin_tv_from_counts(spread, 100)[1] == math.sqrt(1.0 / 200)
    point = np.zeros(132, dtype=np.int64)
    point[7] = 100
    assert plugin_tv_from_counts(point, 100)[1] == 0.0
    # N = 4, M = 8: the three cells at 1/8 lie below 1/4, g = 5/8 - 3/8
    tv, se = plugin_tv_from_counts(np.array([5, 1, 1, 1]), 8)
    assert tv == pytest.approx(0.375) and se == pytest.approx(math.sqrt((1 - 1 / 16) / 32))


def test_mc_tv_plugin_matches_exact():
    rule = make_rule("top", 10)
    est = mc_tv_plugin(rule, 1, t=5, samples=200_000, seed=7)
    exact = exact_tv_curve(rule, 1, (1,), times=[5]).values[0]
    assert abs(est.value - exact) <= 3.0 * est.std_error + est.details["bias_estimate"]


@pytest.mark.parametrize(
    "seed", (3.7, True, "7", np.random.default_rng(7), RandomStream(7)),
    ids=("float", "bool", "str", "generator", "stream"),
)
def test_seed_that_is_not_an_int_is_parameter_error(seed):
    with pytest.raises(ParameterError, match="seed must be an int"):
        mc_tv_plugin(make_rule("top", 6), 1, t=2, samples=1000, seed=seed)


_DRIVERS = {
    "mc_tv_plugin": lambda seed: mc_tv_plugin(
        make_rule("random", 6), 2, t=5, samples=_TRIAL_BLOCK + 3, seed=seed),
    "tv_lower_bound_fixed_cards": lambda seed: tv_lower_bound_fixed_cards(
        make_rule("top", 10), 3, t=5, c_threshold=1, samples=_TRIAL_BLOCK + 3,
        seed=seed),
    "left_hand_hit_count": lambda seed: left_hand_hit_count(
        make_rule("cyclic", 10), 2, t=5, trials=_TRIAL_BLOCK + 3, seed=seed),
    "couple_one_card": lambda seed: couple_one_card(
        make_rule("top", 20), horizon=5, trials=_TRIAL_BLOCK + 3, seed=seed),
    "couple_two_hands_random": lambda seed: couple_two_hands_random(
        20, horizon=5, trials=_TRIAL_BLOCK + 3, seed=seed),
    "couple_k_decks": lambda seed: couple_k_decks(
        make_rule("random", 40), 2, horizon=5, trials=_TRIAL_BLOCK + 3, seed=seed),
}


def _unseeded_fields(result) -> dict:
    """Every field of a result but its seed, with arrays as comparable bytes."""
    out = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype.str, value.shape, value.tobytes())
        out[field.name] = value
    del out["seed"]
    return out


@pytest.mark.parametrize("driver", _DRIVERS)
def test_recorded_seed_replays_the_run(driver):
    """Over two trial blocks, rerunning with the seed a result records gives
    the same arrays and details; another seed gives other draws."""
    run = _DRIVERS[driver]
    first = run(7)
    assert first.seed == 7
    assert _unseeded_fields(run(first.seed)) == _unseeded_fields(first)
    assert _unseeded_fields(run(8)) != _unseeded_fields(first)


def test_mc_tv_plugin_at_zero_steps():
    # a point mass puts everything in one cell: TV is exactly 1 - 1/N
    rule = make_rule("top", 10)
    with pytest.warns(UserWarning):
        est = mc_tv_plugin(rule, 2, t=0, samples=1000, seed=7)
    assert est.value == pytest.approx(1.0 - 1.0 / 90, abs=1e-12)
    assert est.std_error == 0.0
    assert est.details["undersampled"]


def test_mc_tv_plugin_cap_redirects():
    rule = make_rule("random", 100)
    with pytest.raises(CapExceededError, match="lower bound"):
        mc_tv_plugin(rule, 5, t=1, samples=10, seed=0)


# -- fixed-card statistic lower bound ------------------------------------------


def test_uniform_fixed_point_tail_brute():
    def brute(n, cards, c):
        hits = 0
        for p in itertools.permutations(range(1, n + 1)):
            fixed = sum(1 for pos in cards if p[pos - 1] == pos)
            hits += fixed > c
        return hits / math.factorial(n)

    assert uniform_fixed_point_tail(5, 3, 1) == pytest.approx(brute(5, (3, 4, 5), 1), abs=1e-12)
    assert uniform_fixed_point_tail(6, 4, 2) == pytest.approx(brute(6, (3, 4, 5, 6), 2), abs=1e-12)
    assert uniform_fixed_point_tail(6, 2, 2) == 0.0  # can't exceed k


def test_lower_bound_at_zero_steps():
    rule = make_rule("random", 20)
    est = tv_lower_bound_fixed_cards(rule, 4, t=0, c_threshold=1, samples=2000, seed=3)
    # every sample keeps all 4 cards in place, so the bound is 1 - tail
    assert est.value == pytest.approx(1.0 - est.details["uniform_tail"])
    assert est.details["p_hat"] == 1.0


def test_lower_bound_coupon_moments():
    """Untouched-card count has mean k(1-1/n)^t and variance below it.

    Under the top rule the left hand never reaches the bottom cards, so a
    card goes untouched exactly while the right hand misses it.
    """
    n, k, t = 100, 10, 200
    rule = make_rule("top", n)
    est = tv_lower_bound_fixed_cards(rule, k, t=t, c_threshold=2, samples=100_000, seed=11)
    mean = est.details["mean_statistic"]
    var = est.details["var_statistic"]
    target = k * (1.0 - 1.0 / n) ** t
    se_mean = math.sqrt(var / est.samples)
    assert abs(mean - target) <= 3.0 * se_mean
    se_var = var * math.sqrt(2.0 / (est.samples - 1))
    assert var <= target + 3.0 * se_var
    assert 0.0 <= est.value <= 1.0


def test_lower_bound_start_positions_at_bottom():
    rule = make_rule("top", 12)
    est = tv_lower_bound_fixed_cards(rule, 3, t=1, c_threshold=1, samples=500, seed=5)
    assert est.details["start_positions"] == [10, 11, 12]
    with pytest.raises(ParameterError):
        tv_lower_bound_fixed_cards(rule, 3, t=1, c_threshold=0, samples=500, seed=5)
    with pytest.raises(ParameterError, match="t must be at least 0, got -1"):
        tv_lower_bound_fixed_cards(rule, 3, t=-1, c_threshold=1, samples=500, seed=5)


def test_lower_bound_reads_zero_once_mixed():
    """Every card is touched by t = 1000 at n = 4, so P̂(X_t > C) = 0 and the
    one-sided bound is 0, not the uniform tail (0.2917 here)."""
    rule = make_rule("random", 4)
    est = tv_lower_bound_fixed_cards(
        rule, 4, t=1000, c_threshold=1, samples=20_000, seed=1, workers=1
    )
    assert est.details["p_hat"] == 0.0
    assert est.details["uniform_tail"] > 0.29
    assert est.value == 0.0


def test_lower_bound_warns_when_threshold_reaches_k():
    """X_t > C cannot hold once C >= k: the bound is 0, with a warning."""
    rule = make_rule("top", 10)
    with pytest.warns(UserWarning, match="bound is 0"):
        est = tv_lower_bound_fixed_cards(rule, 2, t=3, c_threshold=2, samples=200, seed=5)
    assert est.value == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tv_lower_bound_fixed_cards(rule, 2, t=3, c_threshold=1, samples=200, seed=5)


def test_chisq_p_is_scipy_chisquare_bit_for_bit():
    """The sidecars' p-values are the floats scipy.stats.chisquare gives,
    on histograms of 2..300 cells, some with empty cells."""
    gen = np.random.default_rng(19)
    sizes = [2, 3, 2, 3, *gen.integers(2, 301, size=400)]
    for i, size in enumerate(sizes):
        hist = gen.integers(0, [3, 40, 10**6][i % 3], size=size)
        hist[gen.integers(size)] = 0
        hist[gen.integers(size)] += 1  # never all zero
        assert _chisq_p(hist) == float(stats.chisquare(hist).pvalue), hist


# -- one-card coupling ---------------------------------------------------------


def test_one_card_designed_times_are_geometric():
    n = 50
    res = couple_one_card(make_rule("random", n), trials=100_000, seed=13)
    designed = res.designed_times
    live = designed[designed > 0]
    # horizon 20n censors a (1-1/n)^{1000} ~ 1.7e-9 sliver; ignore it
    mean = live.mean()
    se = live.std(ddof=1) / math.sqrt(live.size)
    assert abs(mean - n) <= 3.0 * se
    # survival at t = n within 3 binomial standard errors
    p = (1.0 - 1.0 / n) ** n
    surv = float((live > n).mean())
    assert abs(surv - p) <= 3.0 * math.sqrt(p * (1 - p) / live.size)


def test_one_card_realized_not_after_designed():
    n = 30
    res = couple_one_card(make_rule("top", n), trials=20_000, seed=17)
    match, designed = res.match_times, res.designed_times
    both = (match >= 0) & (designed >= 0)
    assert (match[both] <= designed[both]).all()
    assert res.details["chisq_p_deck_one"] > 0.001
    assert res.details["chisq_p_deck_two"] > 0.001


def test_one_card_final_marginal_matches_exact_chain():
    """Deck one's final position follows the exact one-card law."""
    n, horizon, trials = 15, 40, 30_000
    rule = make_rule("cyclic", n)
    res = couple_one_card(rule, horizon=horizon, trials=trials, seed=23)
    dist = np.zeros(n)
    dist[0] = 1.0
    for t in range(1, horizon + 1):
        dist = dist @ single_card_matrix(rule, t)
    counts = np.bincount(res.final_positions[:, 0] - 1, minlength=n)
    p = stats.chisquare(counts, dist * trials).pvalue
    assert p > 0.001


def test_one_card_censoring_within_survival_bound():
    n, horizon, trials = 40, 80, 50_000
    res = couple_one_card(make_rule("random", n), horizon=horizon, trials=trials, seed=29)
    bound = (1.0 - 1.0 / n) ** horizon
    rate = res.details["censored_match"] / trials
    assert rate <= bound + 3.0 * math.sqrt(bound * (1 - bound) / trials)


def test_one_card_validation():
    rule = make_rule("top", 10)
    with pytest.raises(ParameterError):
        couple_one_card(rule, trials=0)
    for horizon in (0, -2):
        with pytest.raises(ParameterError, match="horizon"):
            couple_one_card(rule, horizon=horizon, trials=10)


# -- two-hand coupling -----------------------------------------------------------


def test_two_hand_survival_bound():
    n, trials = 50, 100_000
    res = couple_two_hands_random(n, trials=trials, seed=37)
    match = res.match_times
    for t in (25, 50, 100):
        surv = float(((match < 0) | (match > t)).mean())
        bound = math.exp(-2.0 * t * (1.0 - 2.0 / n) / n)
        assert surv <= bound + 3.0 * math.sqrt(bound * (1 - bound) / trials), t
    assert res.details["chisq_p_mirrored_left"] > 0.001
    assert res.details["chisq_p_mirrored_right"] > 0.001


def test_two_hand_beats_one_hand():
    n, trials, seed = 50, 40_000, 41
    one = couple_one_card(make_rule("random", n), trials=trials, seed=seed)
    two = couple_two_hands_random(n, trials=trials, seed=seed)
    t_one = np.where(one.match_times < 0, one.horizon, one.match_times)
    t_two = np.where(two.match_times < 0, two.horizon, two.match_times)
    assert t_two.mean() < t_one.mean()


def test_two_hand_validation():
    for horizon in (0, -2):
        with pytest.raises(ParameterError, match="horizon"):
            couple_two_hands_random(10, horizon=horizon, trials=10)
    with pytest.raises(ParameterError):
        couple_two_hands_random(1, trials=10)


# -- k-deck coupling --------------------------------------------------------------


def test_coupling_params():
    p = KDeckCouplingParams(n=30, k=3)
    assert p.horizon == 600
    assert p.coin_p == pytest.approx(1.0 / (3 / 30 + (1 - 1 / 30) ** 3))
    assert KDeckCouplingParams(n=50, k=1).coin_p == 1.0  # exact for k = 1
    with pytest.raises(ParameterError):
        KDeckCouplingParams(n=5, k=5)
    with pytest.raises(ParameterError):
        KDeckCouplingParams(n=5, k=0)
    with pytest.raises(ParameterError):
        KDeckCouplingParams(n=30, k=3, horizon=0)


def test_coin_p_gap_is_order_k2_over_n2():
    # 1 - coin_p <= 0.75 k^2/n^2 across a parameter sweep
    for n in (20, 50, 100, 200):
        for k in range(1, 6):
            gap = 1.0 - KDeckCouplingParams(n=n, k=k).coin_p
            assert gap <= 0.75 * k * k / (n * n), (n, k)


def test_k_deck_warning_reports_the_value_it_tested():
    """At horizon 1 the test reads log(2), not log(1) = 0."""
    n = 4
    with pytest.warns(UserWarning, match="not small") as record:
        couple_k_decks(make_rule("top", n), 3, horizon=1, trials=10,
                       seed=5)
    value = float(str(record[0].message).split(" = ")[1].split()[0])
    assert value >= n and value == pytest.approx(9 * math.log(2), abs=0.05)


def test_k_deck_nonspecial_card_stays_uniform():
    n, k = 30, 3
    with pytest.warns(UserWarning, match="not small"):
        # small-n regime on purpose, only the marginal is under test
        res = couple_k_decks(make_rule("top", n), k, horizon=200,
                             trials=20_000, seed=43)
    rate = res.details["nonspecial_hit_rate"]
    se = res.details["nonspecial_hit_se"]
    assert abs(rate - 1.0 / n) <= 3.0 * se
    assert res.details["r0_chisq_p"] > 0.001
    assert res.details["coin_p"] == res.params.coin_p
    assert res.details["nonspecial_card"] == k + 1


def test_k_deck_situation_four_rate():
    """Situation-4 steps happen at most at rate P(two relevant events) per
    live trial-step."""
    n, k, t, trials = 50, 3, 500, 4000
    with pytest.warns(UserWarning, match="not small"):
        res = couple_k_decks(
            make_rule("random", n), k, horizon=t, trials=trials,
            seed=47,
        )
    q = 1.0 - 1.0 / n
    p_two = 1.0 - q**k - (k / n) * q ** (k - 1)
    steps = res.details["steps_tallied"]
    rate = res.situation_counts[:, 3].sum() / steps
    assert rate <= p_two + 3.0 * math.sqrt(p_two * (1.0 - p_two) / steps)


def test_k_deck_mismatch_fit():
    n, k = 60, 2
    res = couple_k_decks(make_rule("random", n), k, horizon=300, trials=20_000, seed=53)
    fit = fit_mismatch_bound(res)
    assert fit.constant > 0.0
    assert (fit.residuals >= -1e-12).all()


def test_mismatch_fit_times_outside_the_horizon_are_parameter_errors():
    res = couple_k_decks(make_rule("random", 30), 2, horizon=20, trials=200, seed=5)
    for times in ([], [0, 5], [5, 30]):
        with pytest.raises(ParameterError):
            fit_mismatch_bound(res, times=times)
    assert fit_mismatch_bound(res, times=[1, 20]).residuals.shape == (2,)


def test_mismatch_fit_default_grid_keeps_step_one():
    """At t = 1 the shape is only k^2/n^2, so the trials that break at step
    1 set the constant; the default grid keeps t = 1 so the fitted bound
    covers them too."""
    rule = make_rule("random", 12)
    with pytest.warns(UserWarning, match="mismatch bound will be weak"):
        res = couple_k_decks(rule, 2, horizon=30, trials=1000, seed=5)
    fit, from_one = fit_mismatch_bound(res), fit_mismatch_bound(res, times=range(1, 31))
    assert fit.constant == from_one.constant
    assert np.array_equal(fit.residuals, from_one.residuals)
    assert fit.constant == pytest.approx(2.052, abs=5e-4)
    assert fit.residuals[0] == pytest.approx(0.0, abs=1e-12)  # t = 1 sets it
    assert fit_mismatch_bound(res, times=range(2, 31)).constant < 0.5


def test_k_deck_reports_every_trial():
    n, k, trials = 40, 2, 3000
    res = couple_k_decks(make_rule("top", n), k, horizon=100, trials=trials, seed=59)
    assert res.situation_counts.shape == (trials, 4)
    assert res.mismatch_times.shape == (trials,)


# sha256 prefixes of (mismatch_times, situation_counts, r0_histogram) at
# n=40, k=3, horizon 25, 20,000 trials (two blocks), seed 7, recorded before
# the blocks could run in worker processes; top and cyclic take the scalar
# left hand, random the per-trial one
_K_DECK_GOLDEN = {
    "random": ("d479df1cd3bcceea", "16e578f01c7cd79a", "98da692cf3b09a21"),
    "top": ("f0c526b86d2c955b", "8947b395e88c0669", "9a510f1cd8557f0a"),
    "cyclic": ("179849f17d71e2e7", "c1573940c979640a", "d726b38dd375818f"),
}


@pytest.mark.parametrize("workers", (1, 2))
def test_k_deck_golden_across_workers(workers):
    n, trials = 40, 20_000
    assert trials > _TRIAL_BLOCK
    for kind, golden in _K_DECK_GOLDEN.items():
        res = couple_k_decks(
            make_rule(kind, n), 3, horizon=25, trials=trials,
            seed=7, workers=workers,
        )
        arrays = (res.mismatch_times, res.situation_counts, res.r0_histogram)
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in arrays)
        assert got == golden, kind


# Reference for couple_k_decks: its block with the state trial-first,
# S[trial, deck, card], and every trial taking the general branch.
# couple_k_decks must match it output for output. It swaps with its own
# trial-first _swap_positions.


def _along_trials(hand, pos: np.ndarray) -> np.ndarray:
    """``hand`` (a scalar, or an array whose leading axes match ``pos``'s)
    with trailing unit axes, so it broadcasts against ``pos``."""
    h = np.asarray(hand)
    return h.reshape(h.shape + (1,) * (pos.ndim - h.ndim))


def _swap_positions(pos: np.ndarray, left, right) -> np.ndarray:
    """Apply the transposition (left, right) to an array of positions.

    ``pos`` has trials along axis 0; left/right are scalars, per-trial
    vectors, or per-trial-and-deck arrays, and broadcast across the
    remaining axes.
    """
    l = _along_trials(left, pos)
    r = _along_trials(right, pos)
    return np.where(pos == l, r, np.where(pos == r, l, pos))


def _tracked_at(spec: np.ndarray, pos: np.ndarray):
    """Per trial, whether one of deck 0's tracked cards sits at ``pos``,
    and the index of the first that does (0 when none does)."""
    eq = spec == pos[:, None]
    return eq.any(axis=1), np.argmax(eq, axis=1)


def _crossed_risk(S: np.ndarray, R: np.ndarray, idx: np.ndarray, own: np.ndarray):
    """Risk flag for the designated reference deck idx (one per trial):
    its right hand lands on another tracked card in its own deck, or some
    other reference deck's right hand lands on that deck's own card."""
    size, k = R.shape
    rows = np.arange(size)
    deck_positions = S[rows, 1 + idx, :]
    eq = deck_positions == R[rows, idx][:, None]
    eq[rows, idx] = False
    other_position_hit = eq.any(axis=1)
    other_own_hit = (own.sum(axis=1) - own[rows, idx]) > 0
    return other_position_hit | other_own_hit


def _reference_k_deck_block(rule, k, horizon, gen, size):
    n = rule.n
    p_heads = KDeckCouplingParams(n, k, horizon).coin_p
    dtype = np.int32
    extra_card = k + 1
    S = np.broadcast_to(np.arange(1, k + 1, dtype=dtype), (size, k + 1, k)).copy()
    extra = np.full(size, extra_card, dtype=dtype)
    mismatch = np.full(size, -1, dtype=np.int64)
    sits = np.zeros((size, 4), dtype=np.int64)
    hist = np.zeros(n, dtype=np.int64)
    nonspecial_hits = steps_tallied = 0
    run_rows = np.arange(size)
    for s in range(1, horizon + 1):
        cur = run_rows.size
        if cur == 0:
            break
        left = rule.left_positions(s, gen, cur)
        R = gen.integers(1, n + 1, size=(cur, k), dtype=dtype)
        coin = gen.random(cur)
        tails_idx = gen.integers(0, k, size=cur)
        u_draw = gen.integers(1, n + 1, size=cur, dtype=dtype)
        pick_draw = gen.random(cur)

        rows = np.arange(cur)
        left_arr = np.broadcast_to(np.asarray(left, dtype=dtype), (cur,))
        spec0 = S[:, 0, :]
        l_any, l_idx = _tracked_at(spec0, left_arr)
        u_any, u_idx = _tracked_at(spec0, u_draw)
        # reference deck j's own card j
        own = R == np.diagonal(S[:, 1:, :], axis1=1, axis2=2)
        e_size = own.sum(axis=1)
        cum = np.cumsum(own, axis=1)
        target = np.floor(pick_draw * e_size).astype(np.int64) + 1
        pick = np.argmax((cum == target[:, None]) & own, axis=1)
        # deck 0's branch, which is also its risk situation: 0 the left
        # hand on a tracked card, 1 tails, 2 U on a tracked card, 3 U
        # elsewhere (copy a deck of E, or keep U when E is empty)
        case = np.select([l_any, coin >= p_heads, u_any], [0, 1, 2], 3)
        idx = np.choose(case, (l_idx, tails_idx, u_idx, pick))
        r0 = np.select(
            [case == 1, (case == 3) & (e_size == 0)],
            [spec0[rows, idx], u_draw],
            R[rows, idx],
        )
        risk = np.where(case < 3, _crossed_risk(S, R, idx, own), e_size > 1)
        sits[run_rows[risk], case[risk]] += 1

        hist += np.bincount(r0 - 1, minlength=n)
        nonspecial_hits += int(np.count_nonzero(r0 == extra))
        steps_tallied += cur

        S = _swap_positions(S, left_arr, np.concatenate([r0[:, None], R], axis=1))
        extra = _swap_positions(extra, left_arr, r0)

        ref_diag = np.diagonal(S[:, 1:, :], axis1=1, axis2=2)
        broken = (ref_diag != S[:, 0, :]).any(axis=1)
        mismatch[run_rows[broken]] = s
        if broken.any():
            keep = ~broken
            S = S[keep]
            extra = extra[keep]
            run_rows = run_rows[keep]
    return mismatch, sits, hist, nonspecial_hits, steps_tallied


def _reference_k_deck(rule, k, horizon, trials, seed):
    """(mismatch_times, situation_counts, r0_histogram, steps_tallied,
    nonspecial_hit_rate) of the reference blocks, run in this process."""
    blocks = [_reference_k_deck_block(rule, k, horizon, gen, size)
              for gen, size in _trial_blocks(seed, trials)]
    mismatch, sits, hists, hits, tallied = zip(*blocks)
    return (np.concatenate(mismatch), np.concatenate(sits, axis=0),
            np.sum(hists, axis=0), sum(tallied), sum(hits) / sum(tallied))


def _k_deck_outputs(res):
    return (res.mismatch_times, res.situation_counts, res.r0_histogram,
            res.details["steps_tallied"], res.details["nonspecial_hit_rate"])


@pytest.mark.filterwarnings("ignore:k\\^2 log")
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_k_deck_matches_the_reference_block(kind):
    """Every case, tails and breaks fire often at n <= 12; the custom rule
    takes per-trial left hands from a non-uniform law, the cyclic one starts
    its sweep at a nonzero phase."""
    risky = np.zeros(4, dtype=np.int64)
    for k in range(1, 6):
        for n in range(k + 1, 13):
            rule = make_rule(kind, n, phase=3 if kind == "cyclic" else 0)
            seed = 100 * k + n
            res = couple_k_decks(rule, k, trials=500, horizon=40, seed=seed, workers=1)
            want = _reference_k_deck(rule, k, 40, 500, seed)
            for got, ref in zip(_k_deck_outputs(res), want):
                assert np.array_equal(got, ref), (kind, n, k)
            risky += res.situation_counts.sum(axis=0)
    assert (risky > 0).all()


@pytest.mark.filterwarnings("ignore:k\\^2 log")
@pytest.mark.parametrize("workers", (1, 2))
def test_k_deck_matches_the_reference_block_over_two_blocks(workers):
    rule, k, trials = make_rule("random", 12), 3, _TRIAL_BLOCK + 300
    res = couple_k_decks(rule, k, trials=trials, horizon=20, seed=13, workers=workers)
    want = _reference_k_deck(rule, k, 20, trials, 13)
    for got, ref in zip(_k_deck_outputs(res), want):
        assert np.array_equal(got, ref)


def _k_deck_draw_grid(n, k, p_heads):
    """Every draw combination of one k-deck step, one per trial, with its
    probability: R over [n]^k, heads (coin 0, weight p) or tails (a coin just
    below 1, weight 1 - p), tails_idx over k, U over [n], and pick_draw at the
    midpoints of a grid of lcm(1..k), where floor(pick * |E|) is uniform."""
    grid_size = math.lcm(*range(1, k + 1))
    g = np.indices((n,) * k + (2, k, n, grid_size)).reshape(k + 4, -1)
    heads = g[k] == 0
    weight = np.where(heads, p_heads, 1.0 - p_heads) / (n**k * k * n * grid_size)
    draws = ((g[:k].T + 1).astype(np.int32), np.where(heads, 0.0, 1.0 - 1e-10),
             g[k + 1], (g[k + 2] + 1).astype(np.int32), (g[k + 3] + 0.5) / grid_size)
    return draws, weight


@pytest.mark.parametrize("kind, n", (("top", 5), ("random", 5), ("top", 6)))
def test_k_deck_step_laws_are_exact(kind, n):
    """From every matched state reachable from the start and each left hand
    the rule can draw, the exact law of one step: r0 is uniform, and deck 0's
    new tuple moves as the lumped chain does with the left hand fixed there.
    A state is S[deck, card] and the extra card, coded in base n + 1; at k = 2
    every matched state is reached, n (n-1)^3 (n-2) of them."""
    k = 2
    p_heads = KDeckCouplingParams(n, k).coin_p
    lefts = np.flatnonzero(make_rule(kind, n).left_distribution(1)).astype(np.int32) + 1
    draws, weight = _k_deck_draw_grid(n, k, p_heads)
    combos, m = weight.size, lefts.size
    indexer = KTupleIndexer(n, k)
    evolver = LumpedEvolver(make_rule("custom", n, rows=tuple(np.eye(n))), k)
    # moves[i, a] is the lumped chain's law one step from tuple a, left hand at lefts[i]
    moves = np.array([[evolver.step(e, left) for e in np.eye(indexer.count)]
                      for left in lefts])
    dims = (n + 1,) * (k * (k + 1) + 1)
    seen = frontier = np.array([np.ravel_multi_index([*range(1, k + 1)] * (k + 1)
                                                     + [k + 1], dims)])
    while frontier.size:
        reached = []
        for lo in range(0, frontier.size, 64):
            states = np.array(np.unravel_index(frontier[lo:lo + 64], dims), dtype=np.int32)
            groups = states.shape[1] * m  # one per (state, left hand)
            S = np.repeat(states[:-1].reshape(k + 1, k, -1), m * combos, axis=2)
            extra = np.repeat(states[-1], m * combos)
            left = np.tile(np.repeat(lefts, combos), states.shape[1])
            tiled = (np.tile(d, (groups,) + (1,) * (d.ndim - 1)) for d in draws)
            S, extra, r0, special, _, _, broken = _k_deck_step(
                S, extra, left, *tiled, p_heads)
            group, w = np.repeat(np.arange(groups), combos), np.tile(weight, groups)
            r0_law = np.bincount(group * n + r0 - 1, w, groups * n)
            assert np.abs(r0_law - 1.0 / n).max() <= 1e-12
            codes = indexer.encode_many(S[0].T - 1)
            law = np.bincount(group * indexer.count + codes, w, groups * indexer.count)
            want = moves[:, indexer.encode_many(states[:k].T - 1)].transpose(1, 0, 2)
            assert np.abs(law - want.ravel()).max() <= 1e-12
            keep = np.ones(S.shape[2], dtype=bool)
            keep[special[broken]] = False
            after = np.concatenate([S.reshape(k * (k + 1), -1), extra[None]])[:, keep]
            reached.append(np.unique(np.ravel_multi_index(tuple(after), dims)))
        frontier = np.setdiff1d(np.concatenate(reached), seen)
        seen = np.union1d(seen, frontier)
    assert seen.size == n * (n - 1) ** 3 * (n - 2)


def test_block_workers_clamp():
    cpus = len(os.sched_getaffinity(0))
    assert block_workers(1, 10 * _TRIAL_BLOCK) == 1
    assert block_workers(None, 10**9) == cpus
    assert block_workers(None, _TRIAL_BLOCK) == 1
    assert block_workers(10**6, 10**9) == cpus
    assert block_workers(10**6, _TRIAL_BLOCK) == 1
    assert block_workers(10**6, _TRIAL_BLOCK + 1) == min(2, cpus)
    with pytest.raises(ParameterError):
        block_workers(0, 100)


_RANDOM6 = make_rule("random", 6)


@pytest.mark.parametrize("call", [
    lambda: mc_tv_plugin(_RANDOM6, 2, 5, 10, workers=0),
    lambda: couple_k_decks(_RANDOM6, 3, trials=10, horizon=50, workers=0),
    lambda: tv_lower_bound_fixed_cards(_RANDOM6, 2, 5, 3, 10, workers=0),
], ids=["mc-tv", "k-deck", "lower-bound"])
def test_bad_workers_raise_before_any_warning(call):
    """Each call would warn (too few samples, a weak regime, a threshold of
    at least k), but a worker count below 1 is refused first."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="workers must be at least 1, got 0"):
            call()
    assert caught == []


def _block_tally(gen, size):
    return size, gen.integers(0, 2**62)


def test_map_blocks_keeps_block_order():
    trials = 3 * _TRIAL_BLOCK + 5
    serial = list(_map_blocks(_block_tally, 11, trials, workers=1))
    pooled = list(_map_blocks(_block_tally, 11, trials, workers=2))
    assert [size for size, _ in serial] == [_TRIAL_BLOCK] * 3 + [5]
    assert pooled == serial


_DEAD_WORKER = """
import os
from concurrent.futures.process import BrokenProcessPool
from shufflemix.montecarlo import _TRIAL_BLOCK, _map_blocks

def block(gen, size):
    if size < _TRIAL_BLOCK:
        os._exit(3)
    return size

try:
    list(_map_blocks(block, 11, _TRIAL_BLOCK + 5, workers=2))
except BrokenProcessPool:
    print("raised")
"""


def test_map_blocks_dead_worker_raises():
    """A worker process that dies fails the run instead of hanging it."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a pool needs two usable CPUs")
    assert run_bounded(_DEAD_WORKER) == "raised"


def test_k_deck_weak_regime_warns():
    with pytest.warns(UserWarning, match="not.*small"):
        couple_k_decks(make_rule("top", 20), 4, horizon=100, trials=64, seed=3)


def test_survival_counts():
    times = np.array([-1, 0, 1, 1, 3, 5, -1])
    surv = survival_counts(times, horizon=4)
    # survivors strictly beyond t: t=0 drops one, t=1 two more, t=3 one more
    assert surv.tolist() == [6, 4, 4, 3, 3]


# -- left-hand hit counting --------------------------------------------------------


def test_hits_at_step_one_follow_the_left_hand():
    """Card 1 starts at position 1: the top rule's left hand lands on it at
    step 1 in every trial, and the cyclic sweep at phase 4 (position 5)
    never does."""
    top = left_hand_hit_count(make_rule("top", 20), 1, t=1, trials=2000, seed=61)
    assert (top.value, top.std_error) == (1.0, 0.0)
    cyclic = left_hand_hit_count(make_rule("cyclic", 20, phase=4), 1, t=1,
                                 trials=2000, seed=61)
    assert cyclic.value == 0.0


def test_hits_k_outside_one_to_n_is_parameter_error():
    for k, match in ((0, "k must be at least 1, got 0"), (21, "k exceeds n")):
        with pytest.raises(ParameterError, match=match):
            left_hand_hit_count(make_rule("top", 20), k, t=1, trials=10, seed=0)


def test_hits_scale_linearly_in_k():
    n, t, trials = 200, 2000, 400
    rule = make_rule("cyclic", n)
    one = left_hand_hit_count(rule, 1, t=t, trials=trials, seed=67)
    four = left_hand_hit_count(rule, 4, t=t, trials=trials, seed=68)
    assert four.value == pytest.approx(4.0 * one.value, rel=0.10)
    assert one.details["fit_constant"] > 0.0



_RULE6 = make_rule("top", 6)


@pytest.mark.parametrize("call, match", [
    (lambda: mc_tv_plugin(_RULE6, 2, -1, 100), "t must be at least 0, got -1"),
    (lambda: mc_tv_plugin(_RULE6, 2, 5, 0), "samples must be at least 1, got 0"),
    (lambda: uniform_fixed_point_tail(6, 0, 1), "k must be at least 1"),
    (lambda: uniform_fixed_point_tail(6, 7, 1), "k exceeds n"),
    (lambda: tv_lower_bound_fixed_cards(_RULE6, 2, 5, 1, 0), "samples must be at least 1, got 0"),
    (lambda: tv_lower_bound_fixed_cards(_RULE6, 0, 5, 1, 100), "k must be at least 1"),
    (lambda: tv_lower_bound_fixed_cards(_RULE6, 7, 5, 1, 100), "k exceeds n"),
    (lambda: couple_k_decks(_RULE6, 2, trials=0), "trials must be at least 1, got 0"),
    (lambda: left_hand_hit_count(_RULE6, 2, 0, 100), "t must be at least 1"),
    (lambda: left_hand_hit_count(_RULE6, 2, 5, 0), "trials must be at least 1, got 0"),
], ids=[
    "mc-tv-t", "mc-tv-samples", "tail-k-0", "tail-k-above-n", "lower-bound-samples",
    "lower-bound-k-0", "lower-bound-k-above-n", "k-deck-trials", "hits-t", "hits-trials",
])
def test_driver_arguments_out_of_domain_are_parameter_errors(call, match):
    with pytest.raises(ParameterError, match=match):
        call()
