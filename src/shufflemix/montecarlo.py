"""Sampling estimators and executable coupling constructions.

Everything here simulates only the positions of the tracked cards, never
whole decks: a transposition at (left, right) moves a tracked card iff it
sits at one of the two positions, so a size-k position vector is a faithful
state. Every driver takes one int ``seed`` (default ``DEFAULT_SEED``) and
records it in its result, so rerunning with the recorded seed replays the
run. Trials are processed in fixed blocks of ``_TRIAL_BLOCK``, block b
drawing from ``RandomStream(seed).substream(b)`` (``_trial_blocks``), with a
fixed draw schedule per step (``_hand_schedule``: left hand first, then
right hand; the k-deck coupling draws its own hands after the left one).

Every driver but ``couple_two_hands_random``, which takes n, reads n from its
``ShuffleRule``. Card labels never matter, so each driver fixes where its
cards start: ``tv_lower_bound_fixed_cards`` at n-k+1..n, the other k-card
drivers at 1..k, and the one-card couplings at position 1 in deck one and
at a uniform position in deck two.

Each estimator and coupling runs one block function per block through
``_map_blocks``, which returns every block's tallies in block order for the
caller to sum. The blocks run in up to ``workers`` forked worker processes
(by default every CPU this process may use; ``block_workers`` says how
many), but substreams are created in the calling process and merged in block
order, so results depend only on (seed, parameters), never on the worker
count. Sidecar chi-square p-values come from ``_chisq_p`` (scipy.special).

Every walker keeps trials on the last axis of its state (``pos[card,
trial]``, ``xy[deck, trial]``, ``S[deck, card, trial]``), so per-trial hands
broadcast without reshaping, and each step's broadcasts and reductions run
along the long, contiguous trial axis. One ``_swap_positions`` moves them all.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .deck import ShuffleKind, ShuffleRule
from .errors import CapExceededError, ParameterError, check_array_length, check_count
from .indexing import KTupleIndexer, check_k
from .rng import DEFAULT_SEED, RandomStream

_TRIAL_BLOCK = 16384


@dataclass(frozen=True)
class MCEstimate:
    """A point estimate with its standard error and run metadata."""

    value: float
    std_error: float
    samples: int
    seed: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ParameterError("std_error must be non-negative")
        check_count("samples", self.samples, 1)


@dataclass(frozen=True)
class BoundFit:
    """A multiplicative constant fitted so constant * shape >= data.

    ``shape`` names the formula the constant multiplies; residuals are
    constant * shape - data per grid point (all non-negative when the fit
    certifies the bound).
    """

    constant: float
    shape: str
    residuals: np.ndarray


def _horizon(n: int, horizon: int | None) -> int:
    """A coupling's horizon: 20 n by default, positive, and tallyable by survival_counts."""
    if horizon is None:
        horizon = 20 * n
    check_array_length("horizon + 1", check_count("horizon", horizon, 1) + 1)
    return horizon


@dataclass(frozen=True)
class KDeckCouplingParams:
    """Sizes and coin bias for the k-deck coupling simulator."""

    n: int
    k: int
    horizon: int | None = None

    def __post_init__(self):
        check_k(self.n, self.k)
        if self.n <= self.k:
            raise ParameterError(
                f"need n > k (a non-special card must exist), got n={self.n}, k={self.k}"
            )
        object.__setattr__(self, "horizon", _horizon(self.n, self.horizon))

    @property
    def coin_p(self) -> float:
        """In (0, 1]: k/n + (1-1/n)^k >= 1 by Bernoulli's inequality."""
        n, k = self.n, self.k
        return 1.0 / (k / n + (1.0 - 1.0 / n) ** k)


@dataclass(frozen=True)
class CouplingResult:
    """Per-trial coupling times from a two-deck simulation.

    ``match_times[i]`` is the first step after which the tracked card sits
    at the same position in both decks (0 when already matched at the
    start); ``designed_times`` is the first step the construction's
    designated success event fires (the right hand landing on the second
    deck's copy), recorded only by the one-sided coupling. -1 marks a
    trial censored at the horizon.
    """

    n: int
    trials: int
    horizon: int
    seed: int
    match_times: np.ndarray
    designed_times: np.ndarray | None
    final_positions: np.ndarray
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KDeckCouplingResult:
    """Mismatch statistics from the (k+1)-deck coupling simulation."""

    params: KDeckCouplingParams
    trials: int
    seed: int
    mismatch_times: np.ndarray  # first step the matching breaks; -1 = never
    situation_counts: np.ndarray  # (trials, 4) occurrences of each risk situation
    r0_histogram: np.ndarray
    details: dict = field(default_factory=dict)


def _trial_blocks(seed: int, trials: int):
    """Yield (generator, size) for each block of at most ``_TRIAL_BLOCK``
    trials; block b draws from ``RandomStream(seed).substream(b)``."""
    stream = RandomStream(seed)
    for b, lo in enumerate(range(0, trials, _TRIAL_BLOCK)):
        yield stream.substream(b).generator, min(_TRIAL_BLOCK, trials - lo)


def block_workers(workers: int | None, trials: int) -> int:
    """The worker processes ``trials`` trials run in when ``workers`` are
    asked for (None: every CPU): at most the block count and the CPUs this
    process may use (taken as 1 on a platform without CPU affinity)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    wanted = cpus if workers is None else check_count("workers", workers, 1)
    return max(1, min(wanted, cpus, -(-trials // _TRIAL_BLOCK)))


_BLOCK_TASK = None  # (block function, blocks), set in each forked worker


def _init_block_worker(block_fn, blocks):
    global _BLOCK_TASK
    _BLOCK_TASK = block_fn, blocks


def _run_block(b: int):
    block_fn, blocks = _BLOCK_TASK
    return block_fn(*blocks[b])


def _map_blocks(block_fn, seed: int, trials: int, workers: int | None):
    """Yield ``block_fn(generator, size)`` for each block of
    ``_trial_blocks(seed, trials)``, in block order.

    One worker runs the blocks in this process. More fork a pool of
    ``block_workers(workers, trials)`` processes; the fork hands each worker
    the block function and the generators, which the calling process
    created, so only block indices and results cross between processes. A
    worker that dies raises ``BrokenProcessPool`` instead of hanging.
    """
    count = block_workers(workers, trials)
    if count == 1:
        for gen, size in _trial_blocks(seed, trials):
            yield block_fn(gen, size)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    blocks = list(_trial_blocks(seed, trials))
    fork = multiprocessing.get_context("fork")
    task = (block_fn, blocks)
    with ProcessPoolExecutor(count, fork, _init_block_worker, task) as pool:
        yield from pool.map(_run_block, range(len(blocks)))


def _hand_schedule(rule: ShuffleRule, steps: int, gen, size: int):
    """Yield (s, left, right) for s = 1..steps: the rule's left hand, then
    one uniform right hand per trial. Every walker draws its hands here, so
    the draw order (left first, then right) is fixed in one place."""
    for s in range(1, steps + 1):
        left = rule.left_positions(s, gen, size)
        yield s, left, gen.integers(1, rule.n + 1, size=size)


def _swap_positions(pos: np.ndarray, left, right) -> np.ndarray:
    """Apply the transposition (left, right) to an array of positions.

    ``pos`` has trials on its last axis; left/right are scalars or arrays
    that broadcast against it (per trial, or per deck and trial). Both masks
    are taken from ``pos`` before either copy.
    """
    out = pos.copy()
    np.copyto(out, right, where=pos == left)
    np.copyto(out, left, where=pos == right)
    return out


def _chisq_p(hist) -> float:
    """``scipy.stats.chisquare(hist).pvalue``, bit for bit, without scipy.stats."""
    from scipy.special import chdtrc

    obs = np.asarray(hist, dtype=np.float64)
    exp = obs.mean()
    stat = ((obs - exp) ** 2 / exp).sum()
    return float(chdtrc(obs.size - 1, stat))


# ---------------------------------------------------------------------------
# plug-in TV estimator


def plugin_tv_from_counts(counts: np.ndarray, samples: int):
    """Plug-in TV to uniform from a frequency table, with its standard error.

    The SE is the delta method's sqrt((1 - g^2) / 4M), g = sum sign(p - 1/N) p.
    With two or more cells observed and none below 1/N, g = 1 and that reads
    0; there the SE is the Efron-Stein bound sqrt(1/(2M)), since moving one
    of the M samples moves the plug-in TV by at most 1/M.
    """
    n_states = counts.size
    p_hat = counts / samples
    diff = p_hat - 1.0 / n_states
    tv = 0.5 * float(np.abs(diff).sum())
    seen = counts[counts > 0]
    if seen.size >= 2 and (seen * n_states >= samples).all():
        return tv, math.sqrt(0.5 / samples)
    sign = np.where(diff >= 0.0, 1.0, -1.0)
    g = float(np.sum(sign * p_hat))
    se = math.sqrt(max(1.0 - g * g, 0.0) / (4.0 * samples))
    return tv, se


def mc_tv_plugin(
    rule: ShuffleRule,
    k: int,
    t: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> MCEstimate:
    """Monte Carlo plug-in estimate of the k-card TV distance to uniform.

    Simulates ``samples`` independent trajectories of the positions of k
    tracked cards, started at positions 1..k, for t steps of
    ``rule``, tabulates the final k-tuples, and returns
    (1/2) sum_s |f_s/M - 1/N|. The estimator is biased upward by roughly
    sqrt(N/(2 pi M)); the bias is reported, not corrected.
    """
    n = rule.n
    check_count("t", t, 0)
    check_count("samples", samples, 1)
    block_workers(workers, samples)  # before the warning
    try:
        indexer = KTupleIndexer(n, k)
    except CapExceededError as exc:
        raise CapExceededError(
            f"{exc}; the frequency table is too large, use the "
            "statistic-based lower bound instead"
        ) from None
    if samples < 100 * indexer.count:
        warnings.warn(
            f"samples={samples} is below 100x the state count "
            f"{indexer.count}; the plug-in estimate will be bias-dominated",
            stacklevel=2,
        )

    def block(gen, size):
        pos = np.tile(np.arange(1, k + 1, dtype=np.int64)[:, None], size)
        for _, left, right in _hand_schedule(rule, t, gen, size):
            pos = _swap_positions(pos, left, right)
        return pos

    counts = np.zeros(indexer.count, dtype=np.int64)
    for pos in _map_blocks(block, seed, samples, workers):
        codes = indexer.encode_many(pos.T - 1)  # F-ordered: columns are contiguous
        counts += np.bincount(codes, minlength=indexer.count)
    tv, se = plugin_tv_from_counts(counts, samples)
    details = {
        "state_count": int(indexer.count),
        "bias_estimate": math.sqrt(indexer.count / (2.0 * math.pi * samples)),
        "bias_note": "plug-in TV is biased upward by O(sqrt(states/samples))",
        "undersampled": samples < 100 * indexer.count,
    }
    return MCEstimate(value=tv, std_error=se, samples=samples,
                      seed=seed, details=details)


# ---------------------------------------------------------------------------
# distinguishing-statistic lower bound


def uniform_fixed_point_tail(n: int, k: int, threshold: int) -> float:
    """P(more than ``threshold`` of k given cards are fixed) under a
    uniform permutation of n cards, by inclusion-exclusion."""
    check_k(n, k)
    total = 0.0
    for j in range(threshold + 1, k + 1):
        acc = 0.0
        for i in range(0, k - j + 1):
            falling = 1.0
            for step_ in range(j + i):
                falling *= n - step_
            acc += (-1.0) ** i * math.comb(k - j, i) / falling
        total += math.comb(k, j) * acc
    return total


def tv_lower_bound_fixed_cards(
    rule: ShuffleRule,
    k: int,
    t: int,
    c_threshold: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> MCEstimate:
    """TV lower bound from the never-touched-cards statistic.

    Tracks k cards starting in the bottom k positions; X_t counts those
    never selected by either hand up to t (such a card still sits at its
    start position, so {X_t > C} implies {more than C of the k cards
    fixed}), so TV >= P_t(X_t > C) - P_uniform(fixed > C). The bound is
    max(Phat(X_t > C) - tail, 0), the uniform tail computed exactly: once
    every card has been touched it reads 0, not the tail. For C >= k it is
    0, with a warning.
    """
    n = rule.n
    check_count("t", t, 0)
    check_count("threshold", c_threshold, 1)
    check_count("samples", samples, 1)
    check_k(n, k)
    block_workers(workers, samples)  # before the warning
    if c_threshold >= k:
        warnings.warn(
            f"threshold={c_threshold} is at least k={k}: X_t > threshold never "
            "holds, so the bound is 0",
            stacklevel=2,
        )
    start_pos = np.arange(n - k + 1, n + 1, dtype=np.int64)

    def block(gen, size):
        pos = np.tile(start_pos[:, None], size)
        touched = np.zeros((k, size), dtype=bool)
        for _, left, right in _hand_schedule(rule, t, gen, size):
            touched |= (pos == left) | (pos == right)
            pos = _swap_positions(pos, left, right)
        x = k - touched.sum(axis=0)
        fixed = (pos == start_pos[:, None]).sum(axis=0)
        return (
            int(np.count_nonzero(x > c_threshold)),
            int(np.count_nonzero(fixed > c_threshold)),
            float(x.sum()),
            float((x.astype(np.float64) ** 2).sum()),
        )

    # float tallies are integer-valued, so their sums are exact in any order
    blocks = _map_blocks(block, seed, samples, workers)
    exceed, exceed_fixed, sum_x, sum_x2 = map(sum, zip(*blocks))
    p_hat = exceed / samples
    tail = uniform_fixed_point_tail(n, k, c_threshold)
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / samples) / samples)
    mean_x = sum_x / samples
    var_x = sum_x2 / samples - mean_x * mean_x
    details = {
        "p_hat": p_hat,
        "p_hat_fixed": exceed_fixed / samples,
        "uniform_tail": tail,
        "mean_statistic": mean_x,
        "var_statistic": var_x,
        "threshold": int(c_threshold),
        "start_positions": start_pos.tolist(),
    }
    return MCEstimate(value=max(p_hat - tail, 0.0), std_error=se, samples=samples,
                      seed=seed, details=details)


# ---------------------------------------------------------------------------
# two-deck couplings for one tracked card


def _couple_two_decks(rule, horizon, trials, seed, workers, mirror):
    """Run a two-deck coupling of one tracked card under ``rule``.

    ``xy`` holds the card's position in deck one (row 0) and deck two
    (row 1). At each step ``mirror(left, right, xy)`` turns deck one's
    hands into both decks' hands, as arrays that broadcast against ``xy``;
    the mask of trials whose designed success event fires, or None for a
    construction without one (then ``designed_times`` is None); and two
    per-trial hands whose positions are tallied. Returns the result with the
    details both constructions share, and the (2, n) tally of those hands.
    """
    n = rule.n
    check_count("trials", trials, 1)
    check_array_length("n", n, bytes_each=16)  # the (2, n) hand tally
    horizon = _horizon(n, horizon)

    def block(gen, size):
        xy = np.empty((2, size), dtype=np.int64)
        xy[0] = 1
        xy[1] = gen.integers(1, n + 1, size=size)
        match = np.where(xy[0] == xy[1], 0, -1)
        designed = np.full(size, -1, dtype=np.int64)
        hist = np.zeros((2, n), dtype=np.int64)
        for s, left, right in _hand_schedule(rule, horizon, gen, size):
            lefts, rights, fires, tallied = mirror(left, right, xy)
            for row, hand in zip(hist, tallied):
                row += np.bincount(hand - 1, minlength=n)
            if fires is not None:
                designed[(designed < 0) & fires] = s
            xy = _swap_positions(xy, lefts, rights)
            match[(match < 0) & (xy[0] == xy[1])] = s
        return match, None if fires is None else designed, xy.T, hist

    blocks = _map_blocks(block, seed, trials, workers)
    match_all, designed_all, finals, hists = zip(*blocks)
    match = np.concatenate(match_all)
    details = {"censored_match": int(np.count_nonzero(match < 0))}
    designed = None if designed_all[0] is None else np.concatenate(designed_all)
    result = CouplingResult(
        n=n,
        trials=trials,
        horizon=horizon,
        seed=seed,
        match_times=match,
        designed_times=designed,
        final_positions=np.concatenate(finals),
        details=details,
    )
    return result, np.sum(hists, axis=0)


def couple_one_card(
    rule: ShuffleRule,
    horizon: int | None = None,
    trials: int = 100_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> CouplingResult:
    """Two decks, shared left hand, right hand mirrored across the pair.

    The card starts at position 1 in deck one and uniform in deck two. Deck
    two always selects position R; deck one selects R unless R hits one of
    the two copies of the tracked card, in which case the choices are
    swapped so the card is either chosen in both decks (R on deck two's
    copy: the designed success event, Geometric(1/n)) or in neither. Both
    realized co-location times and designed success times are returned;
    each deck's right-hand choice stays uniform, which the result's tallies
    verify.
    """

    def mirror(left, right, xy):
        r_one = _swap_positions(right, xy[0], xy[1])
        # tally the right hands of decks one and two
        return left, np.stack([r_one, right]), right == xy[1], (r_one, right)

    result, hist = _couple_two_decks(rule, horizon, trials, seed, workers, mirror)
    result.details.update(
        chisq_p_deck_one=_chisq_p(hist[0]),
        chisq_p_deck_two=_chisq_p(hist[1]),
        censored_designed=int(np.count_nonzero(result.designed_times < 0)),
    )
    return result


def couple_two_hands_random(
    n: int,
    horizon: int | None = None,
    trials: int = 100_000,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> CouplingResult:
    """Both hands mirrored between two decks of the uniform-left rule.

    The card starts at position 1 in deck one and uniform in deck two. Deck
    two's hands are deck one's with the two copies' positions swapped, so an
    unmatched pair matches exactly when one hand lands on deck one's copy
    while the other hand misses both copies: probability 2(1 - 2/n)/n per
    step, twice the one-sided rate.
    """
    rule = ShuffleRule(ShuffleKind.RANDOM_TO_RANDOM, n)

    def mirror(left, right, xy):
        m_left, m_right = _swap_positions(left, *xy), _swap_positions(right, *xy)
        # tally deck two's left and right hands
        return (np.stack([left, m_left]), np.stack([right, m_right]), None,
                (m_left, m_right))

    result, hist = _couple_two_decks(rule, horizon, trials, seed, workers, mirror)
    result.details.update(
        chisq_p_mirrored_left=_chisq_p(hist[0]),
        chisq_p_mirrored_right=_chisq_p(hist[1]),
        match_rate_per_step=2.0 * (1.0 - 2.0 / n) / n,
    )
    return result


def survival_counts(times: np.ndarray, horizon: int) -> np.ndarray:
    """survivors[t] = number of trials still unmatched after step t,
    for t = 0..horizon; censored trials (-1) survive throughout."""
    times = np.asarray(times)
    finite = times[times >= 0]
    dead = np.cumsum(np.bincount(finite, minlength=horizon + 1)[: horizon + 1])
    return times.size - dead


# ---------------------------------------------------------------------------
# the (k+1)-deck coupling


def _k_deck_step(S, extra, left, R, coin, tails_idx, u_draw, pick_draw, p_heads):
    """One step of ``couple_k_decks`` for the matched trials of a block.

    Takes the state ``S[deck, card, trial]`` and ``extra`` and the step's
    draws. Returns the new state, deck 0's right hand ``r0``, and the indices
    of the ``special`` (not plain) trials with their case, risk and broken
    flags."""
    k = S.shape[1]
    left = np.broadcast_to(np.asarray(left, dtype=S.dtype), coin.shape)
    right = np.empty((k + 1, coin.size), dtype=S.dtype)
    right[0], right[1:] = u_draw, R.T
    spec0 = S[0]
    own = right[1:] == spec0  # a matched trial has card j of deck j at S[0, j]
    hit = own | (spec0 == left) | (spec0 == u_draw)
    special = np.flatnonzero(hit.any(axis=0) | (coin >= p_heads))

    # deck 0's branch, which is also its risk situation: 0 the left hand on
    # a tracked card, 1 tails, 2 U on a tracked card, 3 U elsewhere (copy a
    # deck of E; a special trial there has E nonempty). Deck 0's positions
    # are distinct, so at most one row of each equality matches.
    cards = np.arange(k)[:, None]
    spec0, own = spec0[:, special], own[:, special]
    l_eq, u_eq = spec0 == left[special], spec0 == u_draw[special]
    e_size = own.sum(axis=0)
    target = np.floor(pick_draw[special] * e_size).astype(np.int64) + 1
    pick = (((np.cumsum(own, axis=0) == target) & own) * cards).sum(axis=0)
    case = np.where(l_eq.any(axis=0), 0, np.where(
        coin[special] >= p_heads, 1, np.where(u_eq.any(axis=0), 2, 3)))
    idx = np.choose(case, ((l_eq * cards).sum(axis=0), tails_idx[special],
                           (u_eq * cards).sum(axis=0), pick))
    cols = np.arange(special.size)
    R_idx = R[special, idx]
    # cases 0-2 risk that deck idx's right hand lands on another of its
    # tracked cards, or another reference deck's on its own card
    crossed = S[1 + idx, :, special] == R_idx[:, None]
    crossed[cols, idx] = False
    crossed = crossed.any(axis=1) | (e_size - own[idx, cols] > 0)
    risk = np.where(case < 3, crossed, e_size > 1)

    r0 = right[0]
    r0[special] = np.where(case == 1, spec0[idx, cols], R_idx)
    S = _swap_positions(S, left, right[:, None, :])
    after = S[:, :, special]
    broken = (after[1 + cards[:, 0], cards[:, 0]] != after[0]).any(axis=0)
    return S, _swap_positions(extra, left, r0), r0, special, case, risk, broken


def couple_k_decks(
    rule: ShuffleRule,
    k: int,
    trials: int,
    horizon: int | None = None,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> KDeckCouplingResult:
    """Coupled deck versus k independent single-card reference decks.

    The k tracked cards start at positions 1..k in every deck; deck 0 also
    tracks card k+1, whose right-hand hit rate must stay 1/n. All k+1 decks
    share the left hand. Decks 1..k draw independent uniform right hands
    R^1..R^k; deck 0's right hand is built from them: if the left hand sits
    on one of deck 0's tracked cards, copy that card's reference deck;
    otherwise flip a coin with heads probability 1/(k/n + (1-1/n)^k) - tails
    picks a tracked position of deck 0 uniformly, heads draws U uniform on
    all positions and either copies the reference deck whose card U hit,
    redirects to a reference deck that just hit its own card (the set E), or
    keeps U. Deck 0's right hand stays uniform; a trial stops at its first
    position mismatch.

    Broken trials are dropped from the simulated set and consume no further
    draws, so the draw stream depends on the mismatch history; it is still a
    pure function of seed and parameters. The situation counters and the
    uniformity tallies count every step a trial runs, the breaking step
    included.

    The state is ``S[deck, card, trial]``. Most steps are plain: neither
    the left hand nor U is on a tracked card of deck 0, the coin shows heads
    and E is empty. Then r0 = U with no risk, and the trial cannot break,
    since no card j moves in deck 0 or in deck j; ``_k_deck_step`` resolves
    the branch only for the other trials.

    ``k`` and ``horizon`` (default 20 n) make the result's ``params``.
    """
    n = rule.n
    check_array_length("n", n)  # the tally of deck 0's right hand
    params = KDeckCouplingParams(n, k, horizon)
    horizon = params.horizon
    check_count("trials", trials, 1)
    block_workers(workers, trials)  # before the warning
    weight = k * k * math.log(max(horizon, 2))
    if weight >= n:
        warnings.warn(
            f"k^2 log(max(horizon, 2)) = {weight:.1f} is not "
            f"small against n={n}; the mismatch bound will be weak",
            stacklevel=2,
        )
    p_heads = params.coin_p
    dtype = np.int32 if n < 2**31 - 1 else np.int64
    extra_card = k + 1  # tracked non-special card (n > k), see the docstring

    def block(gen, size):
        S = np.tile(np.arange(1, k + 1, dtype=dtype)[:, None], (k + 1, 1, size))
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

            S, new_extra, r0, special, case, risk, broken = _k_deck_step(
                S, extra, left, R, coin, tails_idx, u_draw, pick_draw, p_heads
            )
            sits[run_rows[special[risk]], case[risk]] += 1
            hist += np.bincount(r0 - 1, minlength=n)
            nonspecial_hits += int(np.count_nonzero(r0 == extra))
            steps_tallied += cur
            extra = new_extra
            if broken.any():
                keep = np.ones(cur, dtype=bool)
                keep[special[broken]] = False
                mismatch[run_rows[~keep]] = s
                S = np.compress(keep, S, axis=2)  # S[:, :, keep] is not C-ordered
                extra = extra[keep]
                run_rows = run_rows[keep]
        return mismatch, sits, hist, nonspecial_hits, steps_tallied

    blocks = _map_blocks(block, seed, trials, workers)
    mismatch_all, sits_all, hists, hits, tallied = zip(*blocks)
    mismatch = np.concatenate(mismatch_all)
    sits = np.concatenate(sits_all, axis=0)
    hist = np.sum(hists, axis=0)
    nonspecial_hits, steps_tallied = sum(hits), sum(tallied)
    # every trial runs step 1, so steps_tallied >= trials >= 1
    details = {
        "r0_chisq_p": _chisq_p(hist),
        "nonspecial_card": int(extra_card),
        "nonspecial_hit_rate": nonspecial_hits / steps_tallied,
        "nonspecial_hit_expected": 1.0 / n,
        "nonspecial_hit_se": math.sqrt((1.0 / n) * (1.0 - 1.0 / n) / steps_tallied),
        "steps_tallied": int(steps_tallied),
        "intact_at_horizon": int(np.count_nonzero(mismatch < 0)),
        "coin_p": p_heads,
    }
    return KDeckCouplingResult(
        params=params,
        trials=trials,
        seed=seed,
        mismatch_times=mismatch,
        situation_counts=sits,
        r0_histogram=hist,
        details=details,
    )


def fit_mismatch_bound(result: KDeckCouplingResult, times=None) -> BoundFit:
    """Fit the constant in front of t k^2/n^2 + k^2 log(t)/n so the bound
    dominates the empirical mismatch probability on the given time grid."""
    params = result.params
    n, k = params.n, params.k
    if times is None:
        times = np.unique(np.linspace(1, params.horizon, 32, dtype=np.int64))
    times = np.asarray(times, dtype=np.int64)
    if times.size == 0:
        raise ParameterError("need at least one fit time")
    if times.min() < 1 or times.max() > params.horizon:
        raise ParameterError(f"fit times must lie in 1..{params.horizon}")
    survivors = survival_counts(result.mismatch_times, params.horizon)
    fail_prob = 1.0 - survivors[times] / result.trials
    shape = times * k * k / n**2 + k * k * np.log(times) / n
    constant = float(np.max(fail_prob / shape))  # shape > 0 for every t >= 1
    residuals = constant * shape - fail_prob
    return BoundFit(
        constant=constant,
        shape="t*k^2/n^2 + k^2*log(t)/n",
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# left-hand hit counting


def left_hand_hit_count(
    rule: ShuffleRule,
    k: int,
    t: int,
    trials: int,
    seed: int = DEFAULT_SEED,
    workers: int | None = None,
) -> MCEstimate:
    """Mean number of times the left hand lands on one of k tracked cards,
    started at positions 1..k, by t, with the implied constant against the
    envelope k (t/n + log t)."""
    n = rule.n
    check_count("t", t, 1)
    check_count("trials", trials, 1)
    check_k(n, k)

    def block(gen, size):
        pos = np.tile(np.arange(1, k + 1, dtype=np.int64)[:, None], size)
        hits = np.zeros((k, size), dtype=np.int64)
        for _, left, right in _hand_schedule(rule, t, gen, size):
            hits += pos == left
            pos = _swap_positions(pos, left, right)
        hits = hits.sum(axis=0)
        return float(hits.sum()), float((hits.astype(np.float64) ** 2).sum())

    blocks = _map_blocks(block, seed, trials, workers)
    sum_hits, sum_hits2 = map(sum, zip(*blocks))
    mean = sum_hits / trials
    var = max(sum_hits2 / trials - mean * mean, 0.0)
    se = math.sqrt(var / trials)
    shape = k * (t / n + math.log(t))
    details = {
        "fit_constant": mean / shape,
        "fit_shape": "k*(t/n + log(t))",
        "shape_value": shape,
    }
    return MCEstimate(value=mean, std_error=se, samples=trials,
                      seed=seed, details=details)
