"""Phase-chain analysis of one-card mixing under the cyclic sweep rule.

When the left hand sweeps positions 1, 2, ..., n in order, the fate of a
single tracked card is governed by a renewal structure.  This module
builds the pieces of that structure:

* the waiting-time model min(H, R) for the next touch of a tracked card
  (H uniform on [n] for the sweeping hand, R geometric for the uniform
  hand) and its first two moments,
* the backward recursion for the probability that two coupled copies of
  the card, currently a cyclic distance s apart, are brought together
  during the window of the next sweep,
* the three-state phase chain over (close, far, success), its finite-n and
  limit transition matrices, and the larger eigenvalue of its transient
  block, which sets the geometric decay rate of the coupling failure,
* the window-width optimization that minimizes that eigenvalue, and
* the resulting one-card failure bound c e^{-t/n} (lam^floor(rate t/n) + 1/n),
  whose lam and rate are module constants, so c is its one free number; a
  routine that fits c against the exact worst-case curve, and a solver
  that turns the bound into a k-card mixing time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deck import ShuffleKind, ShuffleRule
from .errors import CapExceededError, DomainError, HorizonError, ParameterError
from .errors import check_array_length, check_count
from .exact import _start_strategy, worst_case_curve
from .indexing import DEFAULT_STATE_CAP, check_k


def _check_n(n: int):
    check_count("n", n, 4)
    if n > DEFAULT_STATE_CAP:
        raise CapExceededError(f"n={n} exceeds the state cap {DEFAULT_STATE_CAP}")


# ---------------------------------------------------------------------------
# waiting-time model for the next touch of a tracked card


@dataclass(frozen=True)
class TauHatMoments:
    """First two moments of the touch waiting time, plus diagnostics."""

    n: int
    mean: float
    second_moment: float
    variance: float
    # simplified closed form for the mean, kept as a diagnostic only; the
    # double sum is the authority and the gap between them is reported
    closed_form_mean: float
    closed_form_gap: float


def tau_hat_moments(n: int) -> TauHatMoments:
    """Exact mean and second moment of the touch waiting time for n cards.

    The waiting time until a tracked card is touched is min(H, R): H is
    uniform on {1..n}, since the sweeping left hand returns to any given
    position within one full sweep, and R is Geometric(1/n), since each step
    the uniform right hand hits the card's position with probability 1/n;
    the two are independent. Conditioning on H = h, the geometric tail
    r >= h collapses to h q^{h-1} (q = 1 - 1/n); the head r < h is summed
    explicitly.
    """
    _check_n(n)
    q = 1.0 - 1.0 / n
    r = np.arange(1, n + 1, dtype=np.float64)
    w = q ** (r - 1.0)
    # head[h-1] = sum_{r < h} r q^{r-1}, same with r^2 for the second moment
    head1 = np.concatenate(([0.0], np.cumsum(r * w)))[:n]
    head2 = np.concatenate(([0.0], np.cumsum(r * r * w)))[:n]
    tail = r * w
    mean = float(np.sum(head1 / n + tail) / n)
    second = float(np.sum(head2 / n + r * tail) / n)
    closed = 0.5 * (n - 3.0) * q**n + 1.0
    return TauHatMoments(
        n=n,
        mean=mean,
        second_moment=second,
        variance=second - mean * mean,
        closed_form_mean=closed,
        closed_form_gap=mean - closed,
    )


# ---------------------------------------------------------------------------
# sweep success probabilities p_s


def _check_epsilon(epsilon: float):
    if not 0.0 < epsilon < 0.5:
        raise ParameterError(
            f"window fraction epsilon must lie in (0, 1/2), got {epsilon!r}"
        )


@dataclass(frozen=True)
class SweepSuccess:
    """Solution of the backward recursion for the gap-closing probability.

    ``values[s]`` is the probability that two coupled copies of the card,
    a cyclic distance s apart when the sweep reaches them, are brought
    together within the epsilon*n window.  The recursion is authoritative;
    the closed form for p_0 is recomputed for comparison.
    """

    epsilon: float
    n: int
    m: int
    values: np.ndarray
    p0: float
    p0_closed_form: float
    p0_gap: float
    midrange_max_gap: float


def p_recursion(epsilon: float, n: int) -> SweepSuccess:
    """Solve the gap-closing recursion exactly by backward substitution.

    The index s runs over [0, n - m) with m = floor(epsilon * n).  On the
    mid-range s in (m, n - m) each step multiplies by n/(n-1); entering
    s <= m an extra additive term appears because the sweep can also close
    the gap directly.  Termination: p at s = n - m - 1 equals 2 eps n/(n-1).
    A value outside [0, 1] (p_0 at epsilon=0.442, n=60, for one) is no
    probability and raises ``DomainError``.
    """
    _check_epsilon(epsilon)
    _check_n(n)
    m = int(math.floor(epsilon * n))
    if m < 1:
        raise ParameterError(
            f"window floor(epsilon*n) must be at least 1, got epsilon={epsilon}, n={n}"
        )
    if n - m - 1 <= m:
        raise ParameterError(
            f"no mid-range left: need n > 2*floor(epsilon*n) + 1 (n={n}, window={m})"
        )
    q = 1.0 - 1.0 / n
    grow = n / (n - 1.0)
    size = n - m
    p = np.empty(size)
    p[size - 1] = 2.0 * epsilon * n / (n - 1.0)
    for s in range(size - 2, m, -1):
        p[s] = p[s + 1] * grow
    # gap already inside the window: the additive window term joins, and the
    # geometric sum of mid-range values appears as a constant
    mid_sum = float(np.sum(q ** (np.arange(m, size, dtype=np.float64) + m - n)))
    p[m] = (epsilon * n + m - 1.0) / (n - 1.0) + 2.0 * epsilon * mid_sum / (n - 1.0)
    for s in range(m - 1, -1, -1):
        p[s] = p[s + 1] * grow - 1.0 / (n - 1.0)
    outside = np.flatnonzero((p < 0.0) | (p > 1.0))
    if outside.size:
        s = int(outside[0])
        raise DomainError(
            f"p_{s} of the recursion at epsilon={epsilon}, n={n} is "
            f"{float(p[s])}, outside [0, 1]"
        )
    p.setflags(write=False)

    en = epsilon * n
    p0_closed = 1.0 + 2.0 * epsilon * q ** (en - n) - q ** (-en - 1.0)
    s_mid = np.arange(m + 1, size, dtype=np.float64)
    closed_mid = 2.0 * epsilon * q ** (s_mid + en - n)
    mid_gap = float(np.max(np.abs(p[m + 1 :] - closed_mid)))
    return SweepSuccess(
        epsilon=epsilon,
        n=n,
        m=m,
        values=p,
        p0=float(p[0]),
        p0_closed_form=p0_closed,
        p0_gap=float(p[0]) - p0_closed,
        midrange_max_gap=mid_gap,
    )


# ---------------------------------------------------------------------------
# phase-chain transition matrices


PHASE_STATES = ("C", "F", "S")


@dataclass(frozen=True)
class PhaseChainMatrix:
    """Row-stochastic 3x3 transition matrix over phases (C, F, S).

    C: the two copies are close (within the window when the sweep arrives),
    F: they are far, S: they have been brought together (absorbing).
    ``kind`` says how it was made: "exact" (finite n) or "limit".
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        for i in range(3):
            for j in range(3):
                v = mat[i, j]
                if not 0.0 <= v <= 1.0:
                    raise DomainError(
                        f"entry ({PHASE_STATES[i]},{PHASE_STATES[j]}) of the "
                        f"{self.kind} phase matrix is {float(v)}, outside [0, 1]"
                    )
        sums = mat.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            raise DomainError(
                f"phase matrix rows must sum to 1 within 1e-12, got {sums!r}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def entry(self, row: str, col: str) -> float:
        return float(self.matrix[PHASE_STATES.index(row), PHASE_STATES.index(col)])

    def block(self) -> np.ndarray:
        """The transient (C, F) 2x2 block."""
        return np.array(self.matrix[:2, :2])


def phase_matrix_exact(epsilon: float, n: int) -> PhaseChainMatrix:
    """Finite-n phase transition matrix.

    The window width epsilon*n enters as the integer m = floor(epsilon*n)
    wherever it counts positions.
    """
    _check_epsilon(epsilon)
    _check_n(n)
    m = int(math.floor(epsilon * n))
    g = 1.0 - 1.0 / n
    a = (m + 1.0) / (2.0 * (n - 1.0))
    inner = g ** (-m - 1.0) - 2.0 * epsilon * g ** (m - n)
    far_to_close = 2.0 * m / (n - 1.0)
    mat = np.array(
        [
            [a * (1.0 - inner), a * inner, 1.0 - a],
            [far_to_close, 1.0 - far_to_close, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return PhaseChainMatrix(mat, "exact")


def phase_matrix_limit(epsilon: float, xi: float = 0.0) -> PhaseChainMatrix:
    """Large-n limit of the phase transition matrix with slack xi >= 0.

    The slack inflates the C row's failure entries so the limit chain
    dominates every sufficiently large finite-n chain entrywise where it
    matters; xi = 0 gives the bare limit.
    """
    _check_epsilon(epsilon)
    if xi < 0.0:
        raise ParameterError(f"slack xi must be non-negative, got {xi!r}")
    inner = math.exp(epsilon) - 2.0 * epsilon * math.exp(1.0 - epsilon)
    half = 0.5 * epsilon
    mat = np.array(
        [
            [half * (1.0 - inner + xi), half * inner + xi * (1.0 - half), 1.0 - half - xi],
            [2.0 * epsilon, 1.0 - 2.0 * epsilon, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return PhaseChainMatrix(mat, "limit")


# ---------------------------------------------------------------------------
# spectrum of the transient block


def block_spectrum(chain: PhaseChainMatrix) -> tuple[float, float]:
    """Eigenvalues (lam_max, lam_min) of the (C, F) block.

    S is absorbing, so the full spectrum is {1} plus these two, found here
    by the quadratic formula.  The discriminant is (a - d)^2 + 4bc >= 0,
    since every entry lies in [0, 1]; the clamp only absorbs rounding.
    """
    b = chain.block()
    tr = float(b[0, 0] + b[1, 1])
    det = float(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
    root = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr + root), 0.5 * (tr - root)


# ---------------------------------------------------------------------------
# window-width optimization


def lambda2_of_epsilon(epsilon: float, xi: float = 0.0) -> float:
    return block_spectrum(phase_matrix_limit(epsilon, xi))[0]


def per_step_rate(epsilon: float, xi: float = 0.0) -> float:
    """Per-shuffle decay factor of the phase-chain failure bound.

    One full phase cycle lasts about (1 + epsilon) n shuffles, so a
    phase-count decay of lambda2 per cycle is lambda2^(1/(1+epsilon))
    per shuffle. This, not lambda2 alone, is what the time-domain bound
    pays; widening the window trades a smaller eigenvalue against longer
    cycles.
    """
    return lambda2_of_epsilon(epsilon, xi) ** (1.0 / (1.0 + epsilon))


def scan_epsilon(
    xi: float = 0.0, lo: float = 0.01, hi: float = 0.49, num: int = 500
):
    """Grid of (epsilon, second eigenvalue) pairs for the limit chain."""
    eps = np.linspace(lo, hi, check_array_length("num", check_count("num", num, 1)))
    lams = np.array([lambda2_of_epsilon(float(e), xi) for e in eps])
    return eps, lams


def _golden_section(f, lo: float, hi: float, tol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class EpsilonOptimum:
    epsilon: float
    lam: float
    xi: float
    unimodal: bool


def optimize_epsilon(xi: float = 0.0) -> EpsilonOptimum:
    """Window fraction giving the fastest per-shuffle decay of the bound.

    The objective is per_step_rate, the eigenvalue discounted by the
    cycle length (1 + epsilon) n; minimizing the raw eigenvalue instead
    would pick a wider window (near 0.453) whose longer cycles give a
    weaker time-domain bound. The reported lam is the chain's second
    eigenvalue at the optimizer, the base of the per-cycle decay.

    A 500-point grid on [0.01, 0.49] establishes unimodality first; only
    then is the bracket refined by golden section to 1e-6 in epsilon.
    Otherwise the grid argmin is returned as-is. A negative xi raises
    ``ParameterError`` from ``phase_matrix_limit``.
    """
    eps, lams = scan_epsilon(xi)
    rates = lams ** (1.0 / (1.0 + eps))
    idx = int(np.argmin(rates))
    diffs = np.diff(rates)
    unimodal = bool(
        np.all(diffs[:idx] <= 1e-12) and np.all(diffs[idx:] >= -1e-12)
    )
    if not unimodal:
        return EpsilonOptimum(float(eps[idx]), float(lams[idx]), xi, False)
    lo = float(eps[max(idx - 1, 0)])
    hi = float(eps[min(idx + 1, eps.size - 1)])
    best_eps = _golden_section(lambda e: per_step_rate(e, xi), lo, hi, 1e-6)
    return EpsilonOptimum(
        float(best_eps), lambda2_of_epsilon(best_eps, xi), xi, True
    )


# ---------------------------------------------------------------------------
# one-card failure bound and the k-card mixing-time solver


# The bound's phase-chain decay per round, and the rounds per n shuffle
# steps: one round per (1 + epsilon) n steps, 1/1.442 at the optimal window.
CYCLIC_BOUND_LAM = 0.237
CYCLIC_BOUND_RATE = 0.693


def _check_c(c: float):
    if not 0.0 < c < math.inf:
        raise ParameterError(f"constant c must be finite and positive, got {c!r}")


def cyclic_one_card_bound(t, n: int, c: float):
    """The one-card failure bound c e^{-t/n} (lam^floor(rate t/n) + 1/n) at
    step t, or at every step of an array of them (floor kept exact): a float
    for a scalar t, else an array."""
    _check_c(c)
    ts = np.asarray(t, dtype=np.float64)
    if not (ts >= 0).all():  # NaN fails too
        raise ParameterError(f"time must be non-negative, got {t!r}")
    check_count("n", n, 2)
    rounds = np.floor(CYCLIC_BOUND_RATE * ts / n)
    values = c * np.exp(-ts / n) * (CYCLIC_BOUND_LAM**rounds + 1.0 / n)
    return float(values) if values.ndim == 0 else values


def fit_cyclic_bound_constant(n: int = 60, t_max: int | None = None) -> float:
    """Fit c so the bound dominates the exact worst-case one-card curve.

    c is the max over t in [1, t_max] of exact TV divided by the bound
    shape; by construction the fitted bound touches the curve from above.
    Past the exhaustive start budget only a lower bound on that curve is
    computable, which cannot bound c, so that raises ParameterError; so does
    a curve that is 0 on the whole grid (n = 2, where one step mixes the
    card), which no positive c fits.
    """
    if t_max is None:
        t_max = 10 * n
    rule = ShuffleRule(kind=ShuffleKind.CYCLIC_TO_RANDOM, n=n)
    if _start_strategy(rule, n) == "sampled-lower-bound":
        raise ParameterError(f"no exact worst-case curve to fit c to at n={n}")
    times = np.arange(1, t_max + 1)
    curve = worst_case_curve(rule, 1, times)
    c = float(np.max(curve.values / cyclic_one_card_bound(times, n, 1.0)))
    if not c > 0.0:
        raise ParameterError(f"the exact curve at n={n} is 0 on 1..{t_max}: no c > 0 fits")
    return c


@dataclass(frozen=True)
class CyclicMixingResult:
    """Smallest t with bound(t) <= e^{-3/2}/k, with implied constants.

    ``constant_direct`` is 3/2 + log c, the shift obtained by dropping the
    floor and the 1/n term and solving the bound threshold directly; the
    coefficient against n (log k + constant_direct) tends to
    1/(1 + 0.693 log(1/0.237)) ~ 0.5006 as log k grows, from above: the
    floor's stairs keep it near 0.67 at k = 2 and 0.52 at k = 1000 (n = 1000,
    c = 0.97).  ``constant_inverted`` is the
    alternative shift -log(e^{-3/2}/c - 1), defined only when c < e^{-3/2}.
    ``generic_bound`` is the rule-free n (log k + 3/2) for comparison, and
    ``c`` the bound's constant.
    """

    n: int
    k: int
    t: int
    threshold: float
    coefficient_logk: float
    constant_direct: float
    coefficient_direct: float | None
    constant_inverted: float | None
    coefficient_inverted: float | None
    generic_bound: float
    c: float


def cyclic_mixing_upper(n: int, k: int, c: float) -> CyclicMixingResult:
    """Solve the bound threshold for the k-card mixing time.

    Bisects for the smallest t up to 10 n log n with
    c e^{-t/n} (lam^floor(rate t/n) + 1/n) <= e^{-3/2}/k; the factor in
    front of the tolerance comes from trading accuracy 1/4 at k cards for
    accuracy e^{-3/2}/k at one card.
    """
    check_count("k", k, 2)
    check_count("n", n, 2)
    check_k(n, k)
    target = math.exp(-1.5) / k
    horizon = int(math.ceil(10.0 * n * math.log(n)))
    last_value = cyclic_one_card_bound(horizon, n, c)
    if last_value > target:
        raise HorizonError(
            f"bound never crossed {target:.3e} below horizon {horizon}",
            last_value=last_value,
        )
    # the bound is non-increasing in t: bisect, keeping bound(t_star) <=
    # target and lo = 0 or bound(lo) > target
    lo, t_star = 0, horizon
    while t_star - lo > 1:
        mid = (lo + t_star) // 2
        if cyclic_one_card_bound(mid, n, c) <= target:
            t_star = mid
        else:
            lo = mid
    logk = math.log(k)
    c_direct = 1.5 + math.log(c)
    ratio = target * k / c  # e^{-3/2} / c
    c_inv = -math.log(ratio - 1.0) if ratio > 1.0 else None
    coef_direct = (
        t_star / (n * (logk + c_direct)) if logk + c_direct > 0.0 else None
    )
    coef_inv = (
        t_star / (n * (logk + c_inv))
        if c_inv is not None and logk + c_inv > 0.0
        else None
    )
    return CyclicMixingResult(
        n=n,
        k=k,
        t=t_star,
        threshold=target,
        coefficient_logk=t_star / (n * logk),
        constant_direct=c_direct,
        coefficient_direct=coef_direct,
        constant_inverted=c_inv,
        coefficient_inverted=coef_inv,
        generic_bound=n * (logk + 1.5),
        c=c,
    )
