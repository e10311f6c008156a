"""Exact and Monte Carlo analysis of semi-random transposition shuffles.

A semi-random transposition shuffle swaps, at each step, the card at a
left-hand position (drawn from a per-step rule: deterministic top,
uniform, cyclic sweep, or a custom distribution) with the card at a
uniformly random right-hand position.  This package tracks how quickly
a fixed set of k cards forgets where it started: exact lumped-chain
distributions, worst-case total variation curves, partial mixing times,
coupling simulators, and the phase-chain machinery for the cyclic rule.
"""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    DomainError,
    HorizonError,
    MassDriftError,
    ParameterError,
    ShuffleMixError,
)
from .rng import DEFAULT_SEED
from .deck import ShuffleKind, ShuffleRule
from .indexing import DEFAULT_STATE_CAP, KTupleIndexer
from .exact import (
    CutoffProfile,
    LumpedEvolver,
    MixingTime,
    TVCurve,
    cutoff_profile,
    exact_tv_curve,
    partial_mixing_time,
    single_card_matrix,
    worst_case_curve,
)
from .montecarlo import (
    BoundFit,
    CouplingResult,
    KDeckCouplingParams,
    KDeckCouplingResult,
    MCEstimate,
    couple_k_decks,
    couple_one_card,
    couple_two_hands_random,
    fit_mismatch_bound,
    left_hand_hit_count,
    mc_tv_plugin,
    survival_counts,
    tv_lower_bound_fixed_cards,
    uniform_fixed_point_tail,
)
from .cyclic import (
    CyclicMixingResult,
    EpsilonOptimum,
    PhaseChainMatrix,
    SweepSuccess,
    TauHatMoments,
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
