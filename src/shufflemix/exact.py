"""Exact joint-location distributions for k tracked cards.

Tracking the positions of k chosen cards under a semi-random transposition
shuffle is itself a Markov chain on ordered k-tuples of distinct positions
(the card labels never matter, only where the tracked cards sit). This
module evolves that chain exactly: one step pushes mass along every
transposition the two hands can produce, weighted by the left-hand rule and
the uniform right hand. From the exact distribution we get total-variation
curves, worst-case-over-starts curves, partial mixing times, and cutoff
profiles.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _pkg_version
from .deck import ShuffleKind, ShuffleRule
from .errors import HorizonError, MassDriftError, ParameterError, check_int64
from .indexing import DEFAULT_STATE_CAP, KTupleIndexer, tuple_count
from .rng import DEFAULT_SEED, RandomStream

MASS_TOL = 1e-10
# Largest #starts x #states product the exhaustive start scan will hold in RAM.
_EXHAUSTIVE_BUDGET = 9_000_000
# Starts in the lower-bound scan of rules over that budget.
_SAMPLED_STARTS = 64
_TARGET_CACHE_BUDGET = 40_000_000
# Most transposed tuples built and encoded at once; see LumpedEvolver._transposed.
_CHUNK_ROWS = 1 << 16


@dataclass
class KTupleDistribution:
    """Probability vector over the indexer's ordered k-tuples."""

    indexer: KTupleIndexer
    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (self.indexer.count,):
            raise ParameterError("probability vector has wrong length")
        self.validate()

    @classmethod
    def point_mass(cls, indexer: KTupleIndexer, positions) -> "KTupleDistribution":
        probs = np.zeros(indexer.count)
        probs[indexer.encode(positions)] = 1.0
        return cls(indexer, probs)

    def validate(self):
        if (self.probs < -MASS_TOL).any():
            raise MassDriftError("negative probability mass")
        drift = abs(float(self.probs.sum()) - 1.0)
        if not drift <= MASS_TOL:  # NaN mass fails too
            raise MassDriftError(f"probability mass drifted by {drift:.3e}")


class LumpedEvolver:
    """One-step pushforward for the k-tuple location chain.

    For a state T = (p_1..p_k), a step transposes positions (L, R). The
    tuple changes only if the transposition touches a tracked position:
    moving card i to q happens through the ordered hand pairs (L=p_i, R=q)
    and (L=q, R=p_i) (the latter only counted when q is untracked, so the
    tracked-tracked swap is not double counted). Everything else is a
    self-loop of total weight (1 - l(T)) (n-k)/n where l(T) is the left
    rule's mass on the tracked positions.

    One step depends only on the left hand's law at step t. When that law
    is a point mass, every move is scattered piece by piece with
    ``np.add.at``: a held card's n moves as one q-major batch, and each
    missed card's jump to the left slot. That adds in index order, so every
    sum is the one a loop over q, or a ``bincount``, gives, bit for bit.

    Transposed tuples are built coordinate-major, as the indexer's table is:
    a (k, q, rows) block filled one coordinate at a time, whose (q * rows, k)
    transpose ``encode_many`` reads column by column, rows q-major. The
    block is built and encoded in pieces of at most ``_CHUNK_ROWS`` = 2^16
    rows, runs of whole q blocks or row ranges within one q, sized so that a
    piece stays in a 2 MiB L2 cache (``_transposed`` gives the rule). No
    step holds a block or code array the length of a whole batch unless it
    returns one.
    """

    def __init__(self, rule: ShuffleRule, k: int):
        self.rule = rule
        self.n = rule.n
        self.k = k
        self.indexer = KTupleIndexer(self.n, k)
        self._pos0 = self.indexer.all_positions0()
        self._cache_targets = self.indexer.count * k * self.n <= _TARGET_CACHE_BUDGET
        self._targets: dict = {}
        self._step_matrices: dict = {}

    # -- transposition targets ------------------------------------------------

    def _transposed(self, rows: np.ndarray, i: int, qs) -> np.ndarray:
        """State indices of the 0-based tuples ``rows`` after transposing
        (p_i, q) for each q of ``qs`` (one position or an array), q-major:
        card i moves to q, and a tracked card at q takes p_i.

        The output is built and encoded in consecutive pieces of at most
        ``_CHUNK_ROWS`` = 2^16 rows: a run of whole q blocks, or a row range
        within one q when the rows alone are more. At k = 3 a piece's int32
        block and int64 codes take 1.25 MiB, inside a 2 MiB L2 cache, so
        ``encode_many`` reads what was just written; pieces of 2^15 to 2^17
        rows measured alike. The pieces are copied into one int64 array,
        except that a single piece covering the whole call is returned as is."""
        qs = np.atleast_1d(qs)
        pieces = self._pieces(rows, i, qs)
        m = rows.shape[0]
        if qs.size * m <= _CHUNK_ROWS:
            return next(pieces)[2]
        codes = np.empty(qs.size * m, dtype=np.int64)
        for q_run, row_run, piece in pieces:
            start = q_run.start * m + row_run.start
            codes[start:start + piece.size] = piece
        return codes

    def _pieces(self, rows: np.ndarray, i: int, qs: np.ndarray):
        """Yield ``_transposed``'s pieces in output order, each as (q slice,
        row slice, codes): the codes of ``qs[q slice]`` over ``rows[row slice]``."""
        m, nq = rows.shape[0], qs.size
        if m <= _CHUNK_ROWS:
            per = _CHUNK_ROWS // max(m, 1)
            runs = [(slice(q, min(q + per, nq)), slice(0, m)) for q in range(0, nq, per)]
        else:
            runs = [
                (slice(q, q + 1), slice(r, min(r + _CHUNK_ROWS, m)))
                for q in range(nq)
                for r in range(0, m, _CHUNK_ROWS)
            ]
        for q_run, row_run in runs:
            yield q_run, row_run, self._encode_moved(rows[row_run], i, qs[q_run, None])

    def _encode_moved(self, rows: np.ndarray, i: int, qs: np.ndarray) -> np.ndarray:
        """One piece: the (k, q, rows) block for the column ``qs`` of
        positions, encoded. The block is freed on return, before its codes
        are used."""
        block = np.empty((self.k, qs.shape[0], rows.shape[0]), dtype=rows.dtype)
        for j, moved in enumerate(block):
            if j == i:
                moved[:] = qs
            else:
                moved[:] = rows[:, j]
                np.copyto(moved, rows[:, i], where=moved == qs)
        return self.indexer.encode_many(block.reshape(self.k, -1).T)

    def _target(self, i: int, q: int) -> np.ndarray:
        """State index after transposing (p_i, q), vectorized over states."""
        key = (i, q)
        cached = self._targets.get(key)
        if cached is not None:
            return cached
        tgt = self._transposed(self._pos0, i, q)
        if self._cache_targets:
            self._targets[key] = tgt
        return tgt

    def _untracked(self, q: int) -> np.ndarray:
        """Per state: True when no tracked card sits at position q."""
        free = self._pos0[:, 0] != q
        for col in self._pos0.T[1:]:
            free &= col != q
        return free

    def _left_on_tracked(self, lvec: np.ndarray) -> np.ndarray:
        """Per state: the left hand's mass l(T) on the tracked positions.

        The gather is made C-ordered so each state's k terms are summed along
        a contiguous row, which numpy does pairwise from 8 terms on. Summed
        column by column instead, the uniform rule's l(T) at n = 9, k = 8
        reads 0.8888888888888891 rather than 0.8888888888888888, and the
        step changes in the last bits.
        """
        return np.ascontiguousarray(lvec[self._pos0]).sum(axis=1)

    def _moves(self, lvec: np.ndarray):
        """Yield (weight per state, i, q) for every move of tracked card i to
        position q: its own position drawn by the left hand, or q drawn by the
        left hand while untracked, each with the uniform right hand's 1/n."""
        pos = self._pos0
        left_at = [lvec[pos[:, i]] for i in range(self.k)]
        for q in range(self.n):
            lq = lvec[q] * self._untracked(q)
            for i in range(self.k):
                yield (left_at[i] + lq) / self.n, i, q

    # -- single step ----------------------------------------------------------

    def step(self, probs: np.ndarray, t: int) -> np.ndarray:
        lvec = self.rule.left_distribution(t)
        support = np.flatnonzero(lvec)
        if support.size == 1 and lvec[support[0]] == 1.0:
            return self._step_point_mass(probs, int(support[0]))
        return self._step_general(probs, lvec)

    def _step_point_mass(self, probs: np.ndarray, left0: int) -> np.ndarray:
        """The step when the left hand always draws ``left0``.

        A missed card's moves are scattered with ``np.add.at`` straight into
        the output, in pieces of at most ``_CHUNK_ROWS`` states: slices of the
        cached targets, or pieces encoded as they come past the cache budget.
        Each piece's weights serve all k cards, so the step holds nothing the
        length of the state space but the output and the ``miss`` mask. The
        sums are those of one ``bincount`` per card added to the self-loops,
        bit for bit: each target of card j has card j at ``left0``, so its
        self-loop term is exactly 0.0 and no other card's move lands there;
        ``np.add.at`` adds in state order, as ``bincount`` does; and the held
        cards' moves are still added after these.
        """
        n, k, count = self.n, self.k, self.indexer.count
        pos = self._pos0
        miss = self._untracked(left0)
        new = miss * ((n - k) / n)
        new *= probs
        left = np.array([[left0]])
        for start in range(0, count, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            w_miss = probs[rows] * miss[rows]
            w_miss /= n
            for j in range(k):
                # right hand lands on tracked card j, which moves to the left slot
                if self._cache_targets:
                    moved = self._target(j, left0)[rows]
                else:
                    moved = self._encode_moved(pos[rows], j, left)
                np.add.at(new, moved, w_miss)
        qs = np.arange(n)
        for i in range(k):
            # left hand holds card i: it moves to the uniform right position
            idx = np.flatnonzero(pos[:, i] == left0)
            held = probs[idx] / n
            for q_run, row_run, moved in self._pieces(pos[idx], i, qs):
                # full-size values: np.add.at mis-adds values it broadcasts
                np.add.at(new, moved, np.tile(held[row_run], q_run.stop - q_run.start))
        return new

    def _step_general(self, probs: np.ndarray, lvec: np.ndarray) -> np.ndarray:
        n, k, count = self.n, self.k, self.indexer.count
        new = probs * (1.0 - self._left_on_tracked(lvec)) * ((n - k) / n)
        for weight, i, q in self._moves(lvec):
            w = probs * weight
            new += np.bincount(self._target(i, q), weights=w, minlength=count)
        return new

    # -- sparse step matrices (for many simultaneous starts) -------------------

    def _matrix_key(self, t: int) -> bytes:
        """One cached kernel per distinct left-hand law."""
        return self.rule.left_distribution(t).tobytes()

    def step_matrix_T(self, t: int) -> sp.csr_matrix:
        """Transposed one-step kernel K^T, so columns of K^T @ D evolve."""
        key = self._matrix_key(t)
        mat = self._step_matrices.get(key)
        if mat is not None:
            return mat
        n, k, count = self.n, self.k, self.indexer.count
        lvec = self.rule.left_distribution(t)
        src = [np.arange(count, dtype=np.int64)]
        dst = [np.arange(count, dtype=np.int64)]
        val = [(1.0 - self._left_on_tracked(lvec)) * ((n - k) / n)]
        for w, i, q in self._moves(lvec):
            keep = np.flatnonzero(w)
            src.append(keep)
            dst.append(self._target(i, q)[keep])
            val.append(w[keep])
        import scipy.sparse as sp

        mat = sp.coo_matrix(
            (np.concatenate(val), (np.concatenate(dst), np.concatenate(src))),
            shape=(count, count),
        ).tocsr()
        self._step_matrices[key] = mat
        return mat

    def evolve_columns(self, dense: np.ndarray, t: int) -> np.ndarray:
        return self.step_matrix_T(t) @ dense


def single_card_matrix(rule: ShuffleRule, t: int) -> np.ndarray:
    """Row-stochastic n x n one-step matrix for a single tracked card.

    Entry (p-1, q-1) is the chance a card at position p sits at q after the
    step. Row p mixes the two ways the card moves: its own position drawn by
    the left hand (then it follows the uniform right hand), or the right
    hand landing on it (then it jumps to the left slot).
    """
    n = rule.n
    lvec = rule.left_distribution(t)
    mat = (lvec[:, None] + lvec[None, :]) / n
    diag = lvec / n + (1.0 - lvec) * (1.0 - 1.0 / n)
    np.fill_diagonal(mat, diag)
    return mat


# -- curves -------------------------------------------------------------------


@dataclass
class TVCurve:
    """Total-variation values on a time grid, plus how they were computed."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    max_mass_drift: float = 0.0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ParameterError("times and values must align")

    def value_at(self, t: int) -> float:
        hits = np.flatnonzero(self.times == t)
        if hits.size == 0:
            raise ParameterError(f"t={t} not on the curve grid")
        return float(self.values[hits[0]])


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header: str, rows):
    """Write rows deterministically (repr floats, LF endings)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_format_value(v) for v in row) + "\n")


def write_sidecar(path, metadata: dict):
    """Write ``<path>.meta.json``: the metadata plus the library version."""
    meta = {**metadata, "version": _pkg_version}
    with open(str(path) + ".meta.json", "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _check_times(times) -> np.ndarray:
    if isinstance(times, range):  # np.asarray would list every time as an int first
        times = np.arange(times.start, times.stop, times.step, dtype=np.int64)
    arr = np.asarray(times, dtype=np.int64)
    if arr.size == 0:
        raise ParameterError("need at least one time point")
    if (arr < 0).any():
        raise ParameterError("times must be non-negative")
    if (np.diff(arr) <= 0).any():
        raise ParameterError("times must be strictly increasing")
    return arr


def exact_tv_curve(
    rule: ShuffleRule,
    k: int,
    start,
    times,
) -> TVCurve:
    """Exact TV-to-uniform of the k tracked cards from one start tuple.

    ``start`` is the tracked cards' 1-based initial positions, any sequence
    of k; ``times`` the (strictly increasing) step counts to record.
    """
    tuple_count(rule.n, k)  # k and the state cap, before the grid
    times = _check_times(times)
    evolver = LumpedEvolver(rule, k)
    values, drift = _values_at(_worst_tv_steps(evolver, [start]), times)
    meta = _curve_metadata(rule, k, evolver, "single-start")
    meta["start"] = list(map(int, start))
    return TVCurve(times, values, meta, drift)


def _curve_metadata(rule, k, evolver, strategy) -> dict:
    return {
        "rule": rule.kind.value,
        "n": rule.n,
        "k": k,
        "states": evolver.indexer.count,
        "cap": DEFAULT_STATE_CAP,
        "start_strategy": strategy,
    }


def _worst_tv_steps(evolver: LumpedEvolver, starts):
    """Evolve point masses at ``starts`` together; ``None`` means every tuple.

    Yields (t, largest TV to uniform, largest mass drift) over the starts for
    t = 0, 1, 2, ... and raises MassDriftError as soon as a drift passes
    MASS_TOL. Listed starts are rows of a (starts x states) block, stepped one
    at a time; the exhaustive scan evolves the identity's columns through the
    cached kernel and reads its transpose as the block.
    """
    count = evolver.indexer.count
    uniform = 1.0 / count
    if starts is None:
        columns = np.eye(count)
        block = columns.T
    else:
        block = np.zeros((len(starts), count))
        for row, s in zip(block, starts):
            row[evolver.indexer.encode(s)] = 1.0
    yield 0, 1.0 - uniform, 0.0  # every start is a point mass
    t = 0
    while True:
        t += 1
        if starts is None:
            columns = evolver.evolve_columns(columns, t)
            block = columns.T
        else:
            for row in block:
                row[:] = evolver.step(row, t)
        drift = float(np.abs(block.sum(axis=1) - 1.0).max())
        if not drift <= MASS_TOL:  # NaN mass fails too
            raise MassDriftError(f"probability mass drifted by {drift:.3e} at t={t}")
        yield t, _max_tv(block, uniform), drift


def _max_tv(block: np.ndarray, uniform: float) -> float:
    """Largest TV to uniform over the rows of ``block``. The absolute gap is
    taken in place and freed on return, so at most two arrays of the block's
    size are held at once: the exhaustive scan's peak memory."""
    gap = block - uniform
    return float(0.5 * np.abs(gap, out=gap).sum(axis=1).max())


def _values_at(steps, times: np.ndarray) -> tuple[np.ndarray, float]:
    """The TV values ``steps`` yields at the grid ``times``, stepping no
    further, and the largest mass drift seen up to the last of them."""
    values = np.empty(times.size)
    cursor, max_drift = 0, 0.0
    for t, tv, drift in steps:
        max_drift = max(max_drift, drift)
        if t == times[cursor]:
            values[cursor] = tv
            cursor += 1
            if cursor == times.size:
                return values, max_drift


def _canonical_starts(rule: ShuffleRule, k: int) -> list[tuple]:
    """Start tuples covering every worst-case class of the top or random rule.

    With a uniform left hand all positions are exchangeable, so one start
    suffices. With the left hand pinned to the top, positions 2..n are
    exchangeable, so a start's class is whether a tracked card sits at
    position 1 (at k = n one always does); the k starts putting one there
    only relabel the cards, so they give the same curve.
    """
    if rule.kind is ShuffleKind.RANDOM_TO_RANDOM:
        return [tuple(range(1, k + 1))]
    pool = list(range(2, k + 1))
    reps = [tuple(range(2, k + 2))] if k < rule.n else []
    for j in range(k):
        reps.append(tuple(pool[:j] + [1] + pool[j:]))
    return reps


def _sampled_starts(rule: ShuffleRule, k: int) -> list[tuple]:
    """Structured starts plus a seeded sample. The structured ones are the
    contiguous, shifted and spread tuples, and the tail: the k positions
    phase-k+1..phase (mod n) that the cyclic sweep reaches last."""
    n, phase = rule.n, rule.phase
    cands = [tuple(range(1, k + 1))]
    if k < n:
        cands.append(tuple(range(2, k + 2)))
    shift = n // k  # shift * (k - 1) < n, so the spread is distinct
    cands.append(tuple(1 + j * shift for j in range(k)))
    cands.append(tuple(sorted((phase - j - 1) % n + 1 for j in range(k))))
    starts = list(dict.fromkeys(cands))
    seen = set(starts)
    size = min(_SAMPLED_STARTS, math.perm(n, k))
    rng = RandomStream(DEFAULT_SEED, 977).generator
    while len(starts) < size:
        cand = tuple(int(x) + 1 for x in rng.choice(n, size=k, replace=False))
        if cand not in seen:
            seen.add(cand)
            starts.append(cand)
    return starts


def _resolve_starts(
    rule: ShuffleRule, k: int, count: int
) -> tuple[list[tuple] | None, str]:
    """Start tuples for a worst-case scan over ``count`` states, and their label.

    - top and random rules: one representative per symmetry class, labelled
      ``exact-canonical``;
    - other rules with ``count``^2 within the exhaustive budget: every tuple,
      returned as ``None`` and labelled ``exhaustive``;
    - past the budget: structured plus seeded random starts, labelled
      ``sampled-lower-bound`` because the max over them only bounds the
      worst case from below; a ``UserWarning`` says so.
    """
    if rule.kind in (ShuffleKind.TOP_TO_RANDOM, ShuffleKind.RANDOM_TO_RANDOM):
        return _canonical_starts(rule, k), "exact-canonical"
    if count * count <= _EXHAUSTIVE_BUDGET:
        return None, "exhaustive"
    warnings.warn("sampled starts: this worst case is only a lower bound", stacklevel=3)
    return _sampled_starts(rule, k), "sampled-lower-bound"


def worst_case_curve(rule: ShuffleRule, k: int, times) -> TVCurve:
    """Max-over-starts exact TV curve.

    For rules with an exchangeability argument the max runs over canonical
    class representatives and is the true worst case. Otherwise every start
    tuple is scanned when the state space is small enough, else a structured
    plus seeded random start set is used and the curve is only a lower bound
    on the true worst case (flagged in metadata). See ``_resolve_starts``.
    """
    tuple_count(rule.n, k)  # k and the state cap, before the grid
    times = _check_times(times)
    evolver = LumpedEvolver(rule, k)
    starts, strategy = _resolve_starts(rule, k, evolver.indexer.count)
    values, drift = _values_at(_worst_tv_steps(evolver, starts), times)
    meta = _curve_metadata(rule, k, evolver, strategy)
    meta["lower_bound_only"] = strategy == "sampled-lower-bound"
    if starts is not None:
        meta["starts"] = len(starts)
    return TVCurve(times, values, meta, drift)


@dataclass
class MixingTime:
    t: int
    tv: float
    epsilon: float
    horizon: int
    strategy: str
    max_mass_drift: float


def partial_mixing_time(
    rule: ShuffleRule,
    k: int,
    epsilon: float,
    horizon: int | None = None,
) -> MixingTime:
    """Smallest t with worst-case exact TV below epsilon.

    Monotonicity is not assumed: the scan walks t upward and stops at the
    first time the threshold actually holds. ``max_mass_drift`` is the
    largest mass drift seen up to that time.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError("epsilon must lie in (0, 1)")
    n = rule.n
    if horizon is None:
        horizon = int(math.ceil(n * (math.log(max(k, 2)) + 4.0 * max(1.0, -math.log(epsilon)))))
    if horizon < 0:
        raise ParameterError(f"horizon must be non-negative, got {horizon}")
    evolver = LumpedEvolver(rule, k)
    starts, strategy = _resolve_starts(rule, k, evolver.indexer.count)
    max_drift = 0.0
    for t, tv, drift in _worst_tv_steps(evolver, starts):
        max_drift = max(max_drift, drift)
        if tv < epsilon:
            return MixingTime(t, tv, epsilon, horizon, strategy, max_drift)
        if t >= horizon:
            break
    raise HorizonError(
        f"worst-case TV still {tv:.6g} >= {epsilon} at the horizon {horizon}",
        last_value=tv,
    )


@dataclass
class CutoffProfile:
    alphas: np.ndarray
    times: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    metadata: dict
    max_mass_drift: float

    def rows(self):
        return zip(
            self.alphas.tolist(),
            self.times.tolist(),
            self.values.tolist(),
            self.bounds.tolist(),
        )


def cutoff_profile(
    rule: ShuffleRule,
    k: int,
    alphas,
) -> CutoffProfile:
    """Worst-case TV at times center + alpha*n (rounded down).

    The center is n log k for the top rule and n log k / 2 for the uniform
    rule, where the sharp profiles e^{-alpha} and e^{-2 alpha} are the
    comparison bounds. Other rules center at 0.5006 n log k and carry the
    generic k e^{-t/n} bound, capped at 1.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if alphas.size == 0:
        raise ParameterError("need at least one alpha")
    if not np.isfinite(alphas).all():
        raise ParameterError(f"alphas must be finite, got {alphas.tolist()}")
    n = rule.n
    if rule.kind is ShuffleKind.TOP_TO_RANDOM:
        center = n * math.log(k) if k > 1 else 0.0
        bound_fn = lambda a, t: math.exp(-a)
    elif rule.kind is ShuffleKind.RANDOM_TO_RANDOM:
        center = 0.5 * n * math.log(k) if k > 1 else 0.0
        bound_fn = lambda a, t: math.exp(-2.0 * a)
    else:
        center = 0.5006 * n * math.log(k) if k > 1 else 0.0
        bound_fn = lambda a, t: min(1.0, k * math.exp(-t / n))
    times = [check_int64("center + alpha*n", math.floor(center + a * n)) for a in alphas]
    times = np.array(times, dtype=np.int64)
    if (times < 0).any():
        raise ParameterError("center + alpha*n must be non-negative after rounding")
    grid = np.unique(times)
    curve = worst_case_curve(rule, k, grid)
    tv_by_t = dict(zip(curve.times.tolist(), curve.values.tolist()))
    values = np.array([tv_by_t[int(t)] for t in times])
    bounds = np.array([bound_fn(a, t) for a, t in zip(alphas, times)])
    meta = dict(curve.metadata)
    meta.update({"center": center, "profile": "cutoff"})
    return CutoffProfile(alphas, times, values, bounds, meta, curve.max_mass_drift)
