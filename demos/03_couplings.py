"""Coupling simulators: designed match times, two-hand speedup, k decks.

Three experiments with the uniform-left rule at n = 50:
  1. one tracked card, mirrored right hand: the designed match time is
     exactly Geometric(1/n), so empirical survival tracks (1 - 1/n)^t
  2. mirroring both hands matches faster than mirroring one
  3. the (k+1)-deck construction, whose mismatch probability is fitted
     against the t k^2/n^2 + k^2 log(t)/n shape
"""

import numpy as np

from shufflemix import (
    RandomStream,
    ShuffleKind,
    ShuffleRule,
    couple_k_decks,
    couple_one_card,
    couple_two_hands_random,
    fit_mismatch_bound,
    survival_counts,
)

N = 50
TRIALS = 30_000


def main():
    rule = ShuffleRule(kind=ShuffleKind.RANDOM_TO_RANDOM, n=N)
    rng = RandomStream(7)

    one = couple_one_card(rule, trials=TRIALS, rng=rng.substream(0))
    print(f"one-card coupling, n = {N}, {TRIALS} trials")
    print("   t   survival   (1-1/n)^t")
    surv = survival_counts(one.designed_times, 3 * N)
    for t in (N // 2, N, 2 * N, 3 * N):
        print(f"{t:4d}   {surv[t] / TRIALS:.4f}     {(1 - 1 / N) ** t:.4f}")

    two = couple_two_hands_random(N, trials=TRIALS, rng=rng.substream(1))
    m_one = np.where(one.match_times < 0, one.horizon, one.match_times)
    m_two = np.where(two.match_times < 0, two.horizon, two.match_times)
    print(f"\nmean match time, one mirrored hand: {m_one.mean():.1f}")
    print(f"mean match time, both hands:        {m_two.mean():.1f}")

    big = 200
    big_rule = ShuffleRule(kind=ShuffleKind.RANDOM_TO_RANDOM, n=big)
    kd = couple_k_decks(
        big_rule, 2, cards=(1, 2), horizon=10 * big, trials=20_000,
        rng=rng.substream(2),
    )
    fit = fit_mismatch_bound(kd)
    fail = survival_counts(kd.mismatch_times, kd.params.horizon)
    print(f"\n(k+1)-deck coupling, n = {big}, k = 2, horizon = {kd.params.horizon}")
    print("    t   P(mismatch by t)   fitted bound")
    for t in (big // 2, 2 * big, 10 * big):
        p = 1.0 - fail[t] / kd.trials
        bound = fit.constant * (t * 4 / big**2 + 4 * np.log(t) / big)
        print(f"{t:5d}   {p:.4f}             {min(1.0, bound):.4f}")
    print(f"fitted constant: {fit.constant:.3f}"
          f" (residuals all nonnegative: {(fit.residuals >= 0).all()})")


if __name__ == "__main__":
    main()
