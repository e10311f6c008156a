"""Exact lumped-chain evolution, curves, and mixing times."""

import itertools
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflemix import exact
from shufflemix.deck import ShuffleKind, ShuffleRule
from shufflemix.errors import HorizonError, MassDriftError, ParameterError
from shufflemix.exact import (
    MASS_TOL,
    _sampled_starts,
    LumpedEvolver,
    TVCurve,
    cutoff_profile,
    exact_tv_curve,
    partial_mixing_time,
    single_card_matrix,
    worst_case_curve,
    write_csv,
    write_sidecar,
)
from shufflemix.indexing import KTupleIndexer

from conftest import (
    ALL_KINDS,
    brute_force_marginals,
    make_rule,
    random_chi2,
    run_bounded,
    untouched_law,
)


def test_uniform_is_fixed_point():
    """One lumped step leaves the uniform k-marginal unchanged, all kinds."""
    for kind in ALL_KINDS:
        evolver = LumpedEvolver(make_rule(kind, 6), 2)
        uniform = np.full(evolver.indexer.count, 1.0 / evolver.indexer.count)
        for t in (1, 2, 5):
            out = evolver.step(uniform, t)
            assert np.abs(out - uniform).max() < 1e-14, (kind, t)


def test_lumped_matches_brute_force_spot():
    """Lumped chain equals the full S_n pushforward on small decks."""
    cases = [
        (make_rule("top", 5), 2, (3, 5)),
        (make_rule("cyclic", 5, phase=1), 2, (1, 2)),
        (make_rule("custom", 5), 3, (2, 4, 5)),
    ]
    for rule, k, start in cases:
        want = brute_force_marginals(rule, k, start, 6)
        evolver = LumpedEvolver(rule, k)
        probs = np.zeros(evolver.indexer.count)
        probs[evolver.indexer.encode(start)] = 1.0
        assert np.abs(probs - want[0]).max() < 1e-12
        for t in range(1, 7):
            probs = evolver.step(probs, t)
            assert np.abs(probs - want[t]).max() < 1e-12, (rule.kind.value, t)


def test_mass_conserved_many_steps():
    rule = make_rule("cyclic", 8)
    evolver = LumpedEvolver(rule, 2)
    probs = np.zeros(evolver.indexer.count)
    probs[evolver.indexer.encode((4, 7))] = 1.0
    for t in range(1, 51):
        probs = evolver.step(probs, t)
        assert probs.min() >= -1e-15
        assert abs(probs.sum() - 1.0) < 1e-12


# A per-move reference step: one transposition, one encode and one scatter
# per (i, q), with "no tracked card at q" taken as ~(pos == q).any(axis=1).
# The batched LumpedEvolver step must reproduce it bit for bit.


def _reference_transposed(indexer, rows, i, q):
    moved = rows.astype(np.int64)
    old = moved[:, i].copy()
    hit = moved == q
    hit[:, i] = False
    moved[hit] = old[hit.any(axis=1)]
    moved[:, i] = q
    return indexer.encode_many(moved)


def _reference_step(evolver, probs, t):
    rule, indexer, k = evolver.rule, evolver.indexer, evolver.k
    n, count = rule.n, indexer.count
    # a C-ordered table of its own, so l(T) sums each state's k terms along a
    # contiguous row: numpy adds 8 or more such terms pairwise
    pos = np.array(list(itertools.permutations(range(n), k))).reshape(count, k)
    lvec = rule.left_distribution(t)
    if np.count_nonzero(lvec) == 1 and lvec.max() == 1.0:
        left0 = int(np.flatnonzero(lvec)[0])
        miss = ~(pos == left0).any(axis=1)
        new = probs * (miss * ((n - k) / n))
        w_miss = probs * miss / n
        for j in range(k):
            tgt = _reference_transposed(indexer, pos, j, left0)
            new += np.bincount(tgt, weights=w_miss, minlength=count)
        for i in range(k):
            idx = np.flatnonzero(pos[:, i] == left0)
            w = probs[idx] / n
            for q in range(n):
                np.add.at(new, _reference_transposed(indexer, pos[idx], i, q), w)
        return new
    new = probs * (1.0 - lvec[pos].sum(axis=1)) * ((n - k) / n)
    for q in range(n):
        lq = lvec[q] * ~(pos == q).any(axis=1)
        for i in range(k):
            w = probs * ((lvec[pos[:, i]] + lq) / n)
            tgt = _reference_transposed(indexer, pos, i, q)
            new += np.bincount(tgt, weights=w, minlength=count)
    return new


_REFERENCE_SIZES = [(2, 1), (2, 2), (3, 3), (5, 2), (7, 1), (8, 3)]


@pytest.mark.parametrize("n,k", _REFERENCE_SIZES)
def test_step_matches_per_move_reference_bit_for_bit(n, k):
    """Top, random, custom and the cyclic rule at every phase, over 2n steps
    from a dense start: equal arrays, not equal within a tolerance."""
    _step_like_the_reference(n, k)


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("n,k", _REFERENCE_SIZES)
def test_pieced_step_matches_per_move_reference_bit_for_bit(monkeypatch, chunk, n, k):
    """The same with transposed tuples encoded in pieces of 1, 5 or 64 rows:
    runs of whole q blocks, row ranges within one q for the held card and
    the targets, and single pieces all occur. At the default piece size no
    test here splits a piece; exact-wide's held card is a q run, and a
    held card is split from n = 43 at k = 4."""
    monkeypatch.setattr("shufflemix.exact._CHUNK_ROWS", chunk)
    _step_like_the_reference(n, k)


def _step_like_the_reference(n, k):
    rules = [make_rule(kind, n) for kind in ("top", "random", "custom")]
    rules += [make_rule("cyclic", n, phase=phase) for phase in range(n)]
    for rule in rules:
        evolver = LumpedEvolver(rule, k)
        probs = np.random.default_rng(n * 10 + k).random(evolver.indexer.count)
        want = got = probs / probs.sum()
        for t in range(1, 2 * n + 1):
            want = _reference_step(evolver, want, t)
            got = evolver.step(got, t)
            assert np.array_equal(got, want), (rule.kind.value, rule.phase, t)


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (8, 3)])
def test_uncached_targets_step_like_cached_ones(monkeypatch, n, k):
    """Past the target cache budget, as at exact-wide's n = 100, k = 3, every
    step recomputes its targets: that steps bit for bit like the cache, over
    2n steps from a dense start, and builds the same kernels."""
    row = np.random.default_rng(n).random(n)
    rules = [make_rule(kind, n) for kind in ("top", "random")]
    rules += [make_rule("cyclic", n, phase=phase) for phase in range(n)]
    rules.append(make_rule("custom", n, rows=(row / row.sum(), np.full(n, 1.0 / n))))
    for rule in rules:
        cached = LumpedEvolver(rule, k)
        with monkeypatch.context() as patch:
            patch.setattr("shufflemix.exact._TARGET_CACHE_BUDGET", 0)
            uncached = LumpedEvolver(rule, k)
        assert cached._cache_targets and not uncached._cache_targets
        probs = np.random.default_rng(n * 10 + k).random(cached.indexer.count)
        got = want = probs / probs.sum()
        for t in range(1, 2 * n + 1):
            got, want = uncached.step(got, t), cached.step(want, t)
            assert np.array_equal(got, want), (rule.kind.value, rule.phase, t)
            differ = uncached.step_matrix_T(t) != cached.step_matrix_T(t)
            assert differ.nnz == 0, (rule.kind.value, rule.phase, t)
        assert not uncached._targets


@pytest.mark.parametrize("cache_targets", [True, False], ids=["cached", "uncached"])
def test_int32_table_steps_like_the_int16_table(monkeypatch, cache_targets):
    """Past n = 32767 the tuple table is int32. Forced to int32 at n = 8,
    k = 3, it steps bit for bit like the int16 table over 2n steps from a
    dense start, for all four rules, and builds the same kernels."""
    if not cache_targets:
        monkeypatch.setattr("shufflemix.exact._TARGET_CACHE_BUDGET", 0)
    for kind in ALL_KINDS:
        rule = make_rule(kind, 8)
        narrow = LumpedEvolver(rule, 3)
        with monkeypatch.context() as patch:
            patch.setattr("shufflemix.indexing.position_dtype", lambda n: np.dtype(np.int32))
            wide = LumpedEvolver(rule, 3)
        assert narrow._pos0.dtype == np.int16 and wide._pos0.dtype == np.int32
        probs = np.random.default_rng(83).random(narrow.indexer.count)
        got = want = probs / probs.sum()
        for t in range(1, 17):
            got, want = wide.step(got, t), narrow.step(want, t)
            assert np.array_equal(got, want), (kind, t)
            differ = wide.step_matrix_T(t) != narrow.step_matrix_T(t)
            assert differ.nnz == 0, (kind, t)


def test_targets_are_int32_cached_or_not(monkeypatch):
    """Each (i, q) map is int32, the dtype ``encode_many`` returns, whether
    it is kept whole under the budget or encoded past it, in one lone piece
    or copied from several. Both hold the same codes."""
    rule = make_rule("random", 8)
    cached = LumpedEvolver(rule, 3)
    monkeypatch.setattr("shufflemix.exact._TARGET_CACHE_BUDGET", 0)
    uncached = LumpedEvolver(rule, 3)
    monkeypatch.setattr("shufflemix.exact._CHUNK_ROWS", 100)  # 336 states in four pieces
    rows = slice(150, 250)
    for i, q in itertools.product(range(3), range(8)):
        whole = cached._target(i, q)
        assert whole.dtype == cached._targets[i, q].dtype == np.int32
        assert cached._target(i, q, rows).dtype == np.int32
        for got in (uncached._target(i, q), uncached._target(i, q, rows)):
            assert got.dtype == np.int32
        assert np.array_equal(uncached._target(i, q), whole)
        assert np.array_equal(uncached._target(i, q, rows), whole[rows])
    assert len(cached._targets) == 24 and not uncached._targets


@pytest.mark.parametrize("kind,n,steps", [
    ("top", 8, 3), ("random", 8, 3), ("cyclic", 8, 3), ("random", 9, 1),
])
def test_step_matches_per_move_reference_at_eight_tracked_cards(kind, n, steps):
    """k = 8: each state's code sums 8 digits, and each l(T) sums 8 terms,
    past the point where numpy sums a contiguous row pairwise. At n = 9 the
    self-loop weight (n - k)/n is not 0, and the uniform rule's 1/9 terms
    round differently when summed one by one."""
    evolver = LumpedEvolver(make_rule(kind, n), 8)
    probs = np.random.default_rng(88).random(evolver.indexer.count)
    want = got = probs / probs.sum()
    for t in range(1, steps + 1):
        want = _reference_step(evolver, want, t)
        got = evolver.step(got, t)
        assert np.array_equal(got, want), (kind, t)


def _point_mass_pairs(n):
    """(custom rule, named rule) pairs with the same left hand at every step:
    the top card as a one-row custom sequence, and the n unit rows against
    the cyclic sweep at phase 0."""
    eye = np.eye(n)
    custom = lambda rows: ShuffleRule(ShuffleKind.CUSTOM_SEQUENCE, n, custom=rows)
    return [(custom(eye[:1]), make_rule("top", n)), (custom(eye), make_rule("cyclic", n))]


@pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (7, 3)])
def test_custom_point_mass_steps_like_the_named_rule(n, k):
    """The step follows the left hand's law, not the rule's name: a custom
    rule whose rows are point masses steps bit for bit like top or cyclic."""
    for custom, named in _point_mass_pairs(n):
        evolver, reference = LumpedEvolver(custom, k), LumpedEvolver(named, k)
        probs = np.random.default_rng(n * 10 + k).random(evolver.indexer.count)
        got = want = probs / probs.sum()
        for t in range(1, 2 * n + 1):
            got, want = evolver.step(got, t), reference.step(want, t)
            assert np.array_equal(got, want), (named.kind.value, t)


@pytest.mark.parametrize("n,k", [(5, 1), (6, 2)])
def test_custom_point_mass_worst_case_matches_the_named_rule(n, k):
    times = range(0, 2 * n + 1)
    for custom, named in _point_mass_pairs(n):
        got = worst_case_curve(custom, k, times).values
        want = worst_case_curve(named, k, times).values
        assert np.abs(got - want).max() <= 1e-12, named.kind.value


@pytest.mark.parametrize("kind,kernels", [("top", 1), ("random", 1), ("cyclic", 6)])
def test_step_matrix_cached_once_per_left_hand_law(kind, kernels):
    evolver = LumpedEvolver(make_rule(kind, 6), 2)
    for t in range(1, 13):
        evolver.step_matrix_T(t)
    assert len(evolver._step_matrices) == kernels


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_pieces_and_targets_match_the_reference_transpositions(data):
    """The pieces of a q batch, joined, are the per-q reference transpositions
    stacked q-major, and ``_target`` over a range of states is the same with
    the target cache and past its budget, whole or encoded in pieces of 1, 5
    or 64 rows."""
    n = data.draw(st.integers(2, 12))
    k = data.draw(st.integers(1, min(4, n)))
    evolver = LumpedEvolver(make_rule("top", n), k)
    with mock.patch.object(exact, "_TARGET_CACHE_BUDGET", 0):
        uncached = LumpedEvolver(make_rule("top", n), k)
    pos = evolver.indexer.all_positions0()
    picks = data.draw(st.lists(st.integers(0, len(pos) - 1), min_size=1, max_size=20))
    rows = pos[np.array(picks, dtype=np.intp)]
    i = data.draw(st.integers(0, k - 1))
    qs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    a = data.draw(st.integers(0, len(pos) - 1))
    b = data.draw(st.integers(a + 1, len(pos)))
    want = [_reference_transposed(evolver.indexer, rows, i, q) for q in qs]
    for chunk in (exact._CHUNK_ROWS, 1, 5, 64):  # whole calls, q runs, row ranges
        with mock.patch.object(exact, "_CHUNK_ROWS", chunk):
            pieces = [codes for *_, codes in evolver._pieces(rows, i, np.array(qs))]
            evolver._targets.clear()
            got = [evolver._target(i, q, slice(a, b)) for q in qs]
            got_uncached = [uncached._target(i, q, slice(a, b)) for q in qs]
        joined = np.concatenate(pieces)
        assert joined.dtype == np.int32
        assert np.array_equal(joined, np.concatenate(want)), chunk
        for q, cached, past_budget in zip(qs, got, got_uncached):
            ref = _reference_transposed(evolver.indexer, pos[a:b], i, q)
            assert np.array_equal(cached, ref) and np.array_equal(past_budget, ref), chunk
    assert evolver._targets and not uncached._targets


@pytest.mark.parametrize("cache_targets", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_no_step_encodes_more_than_a_piece_at_once(monkeypatch, kind, cache_targets):
    """Every ``encode_many`` call made in a step, the first one filling the
    target cache too, holds at most ``_CHUNK_ROWS`` rows: at n = 8, k = 3 the
    336 states are six pieces of 64 rows."""
    monkeypatch.setattr("shufflemix.exact._CHUNK_ROWS", 64)
    if not cache_targets:
        monkeypatch.setattr("shufflemix.exact._TARGET_CACHE_BUDGET", 0)
    evolver = LumpedEvolver(make_rule(kind, 8, phase=3 if kind == "cyclic" else 0), 3)
    assert evolver._cache_targets == cache_targets
    sizes = []
    encode_many = KTupleIndexer.encode_many

    def spy(indexer, rows):
        sizes.append(len(rows))
        return encode_many(indexer, rows)

    monkeypatch.setattr(KTupleIndexer, "encode_many", spy)
    probs = np.full(evolver.indexer.count, 1.0 / evolver.indexer.count)
    for t in (1, 2):
        evolver.step(probs, t)
    assert sizes and max(sizes) <= 64, kind


def _warm_step_peak(monkeypatch, rule, cache_targets=True):
    """The traced peak of one point-mass step at k = 3 in pieces of 4,096
    rows, after a first step has filled the target cache (when on)."""
    monkeypatch.setattr("shufflemix.exact._CHUNK_ROWS", 4096)
    with monkeypatch.context() as patch:
        if not cache_targets:
            patch.setattr("shufflemix.exact._TARGET_CACHE_BUDGET", 0)
        evolver = LumpedEvolver(rule, 3)
    assert evolver._cache_targets == cache_targets
    probs = np.full(evolver.indexer.count, 1.0 / evolver.indexer.count)
    evolver.step(probs, 1)
    tracemalloc.start()
    try:
        evolver.step(probs, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_point_mass_step_holds_pieces_not_whole_batches(monkeypatch):
    """One warm top step at n = 40, k = 3 (59,280 states), in pieces of 4,096
    rows, peaks at 710,044 traced bytes: the output, the missed card's mask
    and a piece. This bounds it 10% above that. Building each held card's
    59,280 moves as one block, with their codes and tiled mass, peaked at
    3,063,376 bytes."""
    assert _warm_step_peak(monkeypatch, make_rule("top", 40)) <= 1.1 * 710_044


@pytest.mark.parametrize("cache_targets", [True, False], ids=["cached", "uncached"])
@pytest.mark.parametrize("kind", ["top", "cyclic"])
def test_point_mass_step_scatters_missed_cards_in_pieces(monkeypatch, kind, cache_targets):
    """The missed cards' moves go straight into the output a piece at a time,
    from the target cache or encoded past its budget: one warm step at n = 40,
    k = 3 peaks at 710,044 traced bytes cached and 720,416 uncached, bounded
    here 10% above. A full-length bincount per card, with full-length weights
    and, uncached, full-length targets, peaked at 1,483,048 and 1,957,568."""
    rule = make_rule(kind, 40, phase=17 if kind == "cyclic" else 0)
    peak = _warm_step_peak(monkeypatch, rule, cache_targets)
    assert peak <= 1.1 * (710_044 if cache_targets else 720_416)


def test_curves_record_the_largest_mass_drift(monkeypatch):
    rule = make_rule("top", 6)
    curves = (
        exact_tv_curve(rule, 2, (1, 2), range(0, 11)),
        worst_case_curve(rule, 2, range(0, 11)),
        cutoff_profile(rule, 2, [0.0, 1.0]),
        partial_mixing_time(rule, 2, 0.25),
    )
    for curve in curves:
        assert 0.0 <= curve.max_mass_drift < 1e-14
    # a step that leaks 1e-12 of the mass drifts by about 10e-12 in 10 steps
    step = LumpedEvolver.step
    monkeypatch.setattr(
        LumpedEvolver, "step", lambda self, p, t: step(self, p, t) * (1.0 - 1e-12)
    )
    drift = exact_tv_curve(rule, 2, (1, 2), range(0, 11)).max_mass_drift
    assert drift == pytest.approx(10e-12, rel=1e-3)
    assert drift < MASS_TOL
    # and the mixing time's drift is the one up to t_mix
    mixing = partial_mixing_time(rule, 2, 0.25)
    assert mixing.max_mass_drift == pytest.approx(mixing.t * 1e-12, rel=1e-3)


@st.composite
def _custom_rules(draw):
    """A custom rule with n <= 7 and 1-3 rows, each the top's point mass at
    position 1, a point mass elsewhere, or random non-negative weights."""
    n = draw(st.integers(2, 7))
    top = np.eye(n)[0]
    point = st.integers(1, n - 1).map(lambda j: np.eye(n)[j])
    weights = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
    spread = weights.map(lambda w: np.array(w, dtype=float) / sum(w))
    rows = draw(st.lists(st.one_of(st.just(top), point, spread), min_size=1, max_size=3))
    return ShuffleRule(ShuffleKind.CUSTOM_SEQUENCE, n, custom=rows)


@settings(max_examples=60, deadline=2000, derandomize=True)
@given(rule=_custom_rules(), k=st.integers(1, 2))
def test_step_matrix_column_stochastic_property(rule, k):
    evolver = LumpedEvolver(rule, k)
    for t in range(1, len(rule.custom) + 1):
        mat = evolver.step_matrix_T(t)
        assert mat.shape == (evolver.indexer.count,) * 2
        assert mat.data.min() >= 0.0
        sums = np.asarray(mat.sum(axis=0)).ravel()
        assert np.abs(sums - 1.0).max() <= 1e-12, (rule.n, k, t)


def test_single_card_matrix_matches_evolver():
    for kind in ALL_KINDS:
        rule = make_rule(kind, 7)
        mat = single_card_matrix(rule, 3)
        assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12
        assert (mat >= 0).all()
        evolver = LumpedEvolver(rule, 1)
        dist = np.zeros(7)
        dist[4] = 1.0  # card at position 5
        via_matrix = dist @ mat
        via_evolver = evolver.step(dist, 3)
        assert np.abs(via_matrix - via_evolver).max() < 1e-14, kind


def test_exact_tv_curve_start_and_zero():
    rule = make_rule("top", 6)
    curve = exact_tv_curve(rule, 2, (1, 2), times=range(0, 11))
    count = KTupleIndexer(6, 2).count
    assert curve.value_at(0) == pytest.approx(1.0 - 1.0 / count)
    assert curve.values.min() >= 0.0 and curve.values.max() <= 1.0
    assert curve.metadata["rule"] == "top"
    assert curve.metadata["start"] == [1, 2]
    with pytest.raises(ParameterError):
        curve.value_at(99)


@pytest.mark.parametrize("call, error, match", [
    (lambda: TVCurve([1, 2, 3], [0.5, 0.4]), ParameterError, "must align"),
    (lambda: cutoff_profile(make_rule("top", 6), 2, []), ParameterError,
     "at least one alpha"),
], ids=["curve-misaligned", "cutoff-no-alphas"])
def test_exact_arguments_out_of_domain_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _unbuilt(self):
    raise AssertionError("the tuple table was built")


@pytest.mark.parametrize("curve", [
    lambda rule, times: exact_tv_curve(rule, 3, (1, 2, 3), times),
    lambda rule, times: worst_case_curve(rule, 3, times),
], ids=["exact-tv", "worst-tv"])
@pytest.mark.parametrize("times, match", [
    ([], "at least one time point"),
    ([-1], "must be non-negative"),
], ids=["empty", "negative"])
def test_bad_grid_is_rejected_before_the_tuple_table(monkeypatch, curve, times, match):
    """At n = 215, k = 3 (9,800,130 states, just below the cap) a bad grid
    ends before the (count, k) table of tuples is built."""
    monkeypatch.setattr(KTupleIndexer, "all_positions0", _unbuilt)
    with pytest.raises(ParameterError, match=match):
        curve(make_rule("random", 215), times)


@pytest.mark.parametrize("start, match", [
    ((1, 2), "expected a 3-tuple"),
    ((1, 2, 216), "must lie in 1..n"),
    ((0, 2, 3), "must lie in 1..n"),
    ((1, 2, 2), "must be distinct"),
    ((1.7, 2.2, 3), "must be an integer, got 1.7"),
    ((True, 2, 3), "must be an integer, got True"),
    ((1, 2, 2**64), "must lie in 1..n"),
], ids=["short", "above-n", "zero", "repeated", "float", "bool", "past-int64"])
def test_bad_start_is_rejected_before_the_tuple_table(monkeypatch, start, match):
    """At n = 215, k = 3 a start that is not 3 distinct integer positions in
    1..215 ends before the (count, k) table of tuples is built. A float start
    once evolved the tuple it truncates to, and a position past int64 raised
    OverflowError."""
    monkeypatch.setattr(KTupleIndexer, "all_positions0", _unbuilt)
    with pytest.raises(ParameterError, match=match):
        exact_tv_curve(make_rule("top", 215), 3, start, [1])


def test_times_grid_validation():
    rule = make_rule("top", 5)
    with pytest.raises(ParameterError):
        exact_tv_curve(rule, 1, (1,), times=[])
    with pytest.raises(ParameterError):
        exact_tv_curve(rule, 1, (1,), times=[2, 1])
    with pytest.raises(ParameterError):
        exact_tv_curve(rule, 1, (1,), times=[-1, 0])


def _max_over_every_start(rule, k, times):
    """Brute-force worst case: the largest single-start curve, pointwise."""
    starts = KTupleIndexer(rule.n, k).all_positions0() + 1
    return np.max([exact_tv_curve(rule, k, s, times).values for s in starts], axis=0)


def test_worst_case_strategies_agree():
    """Canonical class representatives reproduce the max over every start."""
    times = list(range(1, 16))
    for kind in ("top", "random"):
        for n, k in ((6, 2), (3, 3)):
            rule = make_rule(kind, n)
            canon = worst_case_curve(rule, k, times)
            want = _max_over_every_start(rule, k, times)
            assert np.abs(canon.values - want).max() < 1e-12, (kind, n, k)
            assert canon.metadata["start_strategy"] == "exact-canonical"
            assert not canon.metadata["lower_bound_only"]


@pytest.mark.parametrize("n, k", [(5, 1), (8, 2), (10, 3), (12, 4), (30, 3)])
def test_top_rule_worst_start_has_no_card_at_the_top(n, k):
    """The top rule's worst case is the start (2, ..., k+1), which no left
    hand touches: its curve is the worst-case curve, and it lies strictly
    above every start with a tracked card at position 1 for t >= 1. Those
    starts only relabel the cards, so their curves agree."""
    rule = make_rule("top", n)
    times = np.arange(0, 3 * n + 1)
    worst = worst_case_curve(rule, k, times).values
    untouched = exact_tv_curve(rule, k, tuple(range(2, k + 2)), times).values
    assert np.abs(worst - untouched).max() <= 1e-15
    pool = list(range(2, k + 1))
    at_top = [exact_tv_curve(rule, k, tuple(pool[:j] + [1] + pool[j:]), times).values
              for j in range(k)]
    for other in at_top:
        assert (untouched[1:] > other[1:]).all()
        assert np.abs(other - at_top[0]).max() <= 1e-15


def test_worst_case_auto_falls_back_to_exhaustive():
    rule = make_rule("cyclic", 6)
    curve = worst_case_curve(rule, 2, [1, 5, 10])
    assert curve.metadata["start_strategy"] == "exhaustive"
    assert not curve.metadata["lower_bound_only"]


def test_worst_case_sampled_is_flagged(monkeypatch):
    """Past the exhaustive budget the scan is a labelled lower bound."""
    for n in (6, 10):
        rule = make_rule("cyclic", n)
        exhaustive = worst_case_curve(rule, 2, [5])
        with monkeypatch.context() as m, pytest.warns(UserWarning, match="only a lower bound"):
            m.setattr("shufflemix.exact._EXHAUSTIVE_BUDGET", 100)
            curve = worst_case_curve(rule, 2, [5])
        assert curve.metadata["start_strategy"] == "sampled-lower-bound"
        assert curve.metadata["lower_bound_only"]
        assert curve.metadata["starts"] == min(64, n * (n - 1))
        assert curve.values[0] <= exhaustive.values[0] + 1e-15


@pytest.mark.parametrize("kind", ("top", "random"))
@pytest.mark.parametrize(
    "n, k", ((10, 1), (10, 2), (10, 3), (40, 1), (40, 2), (30, 3), (8, 4), (12, 4))
)
def test_worst_case_within_k_over_n_below_untouched_law(kind, n, k):
    """D - k/n <= d(t) <= D for 0 <= t <= n (log max(k, 2) + 6) / r; the
    lower side is tight at t = 0 for k = 1."""
    r = {"top": 1, "random": 2}[kind]
    times = np.arange(int(n * (math.log(max(k, 2)) + 6) / r) + 1)
    d = worst_case_curve(make_rule(kind, n), k, times).values
    law = untouched_law(n, k, r, times)
    assert np.all(d <= law + 1e-12)
    assert np.all(law - k / n <= d + 1e-12)


_CHI2_CASES = [(n, n, 6 * n) for n in (4, 5, 6, 7)] + [
    (n, k, 3 * n) for n, k in ((5, 1), (8, 3), (9, 4), (12, 4), (30, 3))
]


@pytest.mark.parametrize("n,k,t_max", _CHI2_CASES,
                         ids=[str(n) if k == n else f"{n}-{k}" for n, k, _ in _CHI2_CASES])
def test_full_deck_meets_the_diaconis_shahshahani_sum(n, k, t_max):
    """The random rule's k-tuple chain is the whole deck's walk seen through
    k cards, so its exact chi-square distance count sum (p - u)^2 is the
    character sum of ``random_chi2`` at every t <= t_max, and TV <=
    sqrt(chi-square) / 2. The full deck, k = n (ids by n alone), runs to 6n
    steps; k < n to 3n."""
    evolver = LumpedEvolver(make_rule("random", n), k)
    count = evolver.indexer.count
    probs = np.zeros(count)
    probs[evolver.indexer.encode(range(1, k + 1))] = 1.0
    for t, chi2 in enumerate(random_chi2(n, k, range(t_max + 1))):
        if t:
            probs = evolver.step(probs, t)
        gap = probs - 1.0 / count
        assert abs(count * np.dot(gap, gap) - chi2) <= 1e-12 * chi2 + 1e-18, t
        assert 0.5 * np.abs(gap).sum() <= 0.5 * math.sqrt(chi2), t


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rule=st.one_of(_custom_rules(), st.integers(2, 7).map(lambda n: make_rule("top", n))),
       data=st.data())
def test_worst_case_below_the_untouched_envelope_for_any_schedule(rule, data):
    """d(t) <= B(t) = 1 - (1 - (1 - 1/n)^t)^k for every left-hand schedule,
    t <= n (log max(k, 2) + 5): the right hand touches each tracked card
    with chance 1/n a step, whatever the left hand does. The right-hand
    coupling proves it at k = 1; at k >= 2 this test is the only check.
    Custom rules step the cached kernel over every start; the named top
    rule steps its canonical starts one at a time."""
    n = rule.n
    k = data.draw(st.integers(1, min(3, n)), label="k")
    times = np.arange(int(n * (math.log(max(k, 2)) + 5)) + 1)
    d = worst_case_curve(rule, k, times).values
    assert np.all(d <= untouched_law(n, k, 1, times) + 1e-12)


def test_one_card_universal_bound_small():
    # worst-case one-card TV sits below e^{-t/n} for every rule
    n, times = 10, np.arange(1, 31)
    for kind in ("top", "random", "cyclic"):
        curve = worst_case_curve(make_rule(kind, n), 1, times)
        bound = np.exp(-times / n)
        assert (curve.values <= bound + 1e-12).all(), kind


def test_partial_mixing_time_is_minimal():
    rule = make_rule("top", 12)
    res = partial_mixing_time(rule, 2, 0.25)
    assert res.tv < 0.25
    prev = worst_case_curve(rule, 2, [res.t - 1]).values[0]
    assert prev >= 0.25
    assert res.strategy == "exact-canonical"


def test_partial_mixing_time_zero_when_trivial():
    rule = make_rule("random", 8)
    res = partial_mixing_time(rule, 1, 0.999)
    assert res.t == 0
    assert res.tv == pytest.approx(1.0 - 1.0 / 8)


def test_partial_mixing_time_horizon_error():
    rule = make_rule("top", 30)
    with pytest.raises(HorizonError):
        partial_mixing_time(rule, 1, 0.01, horizon=3)


def test_partial_mixing_time_epsilon_domain():
    rule = make_rule("top", 6)
    with pytest.raises(ParameterError):
        partial_mixing_time(rule, 1, 0.0)
    with pytest.raises(ParameterError):
        partial_mixing_time(rule, 1, 1.0)


def test_cutoff_profile_top_rule():
    rule = make_rule("top", 20)
    prof = cutoff_profile(rule, 2, [0.0, 1.0, 2.0])
    center = 20 * math.log(2)
    assert np.array_equal(prof.times, [math.floor(center + a * 20) for a in (0, 1, 2)])
    assert prof.bounds == pytest.approx([1.0, math.exp(-1), math.exp(-2)])
    assert (np.diff(prof.values) < 0).all()  # panels later in time are more mixed
    rows = list(prof.rows())
    assert rows[0][0] == 0.0 and rows[0][1] == prof.times[0]


def test_cutoff_profile_negative_time_rejected():
    rule = make_rule("top", 20)
    with pytest.raises(ParameterError):
        cutoff_profile(rule, 2, [-5.0])


@pytest.mark.parametrize("alphas", [[math.nan], [0.0, math.inf], [-math.inf, 1.0]])
def test_cutoff_profile_non_finite_alpha_rejected(alphas):
    with pytest.raises(ParameterError, match="alphas must be finite"):
        cutoff_profile(make_rule("top", 20), 2, alphas)


def test_write_csv_repr_floats(tmp_path):
    path = tmp_path / "vals.csv"
    write_csv(path, "t,tv", [(1, 0.1), (2, 1.0 / 3.0)])
    text = path.read_text()
    assert text == "t,tv\n1,0.1\n2,0.3333333333333333\n"


def test_write_sidecar(tmp_path):
    path = tmp_path / "vals.csv"
    write_sidecar(path, {"b": 2, "a": 1})
    meta = json.loads((tmp_path / "vals.csv.meta.json").read_text())
    assert meta["a"] == 1 and meta["b"] == 2
    assert "version" in meta
    # keys are sorted on disk
    raw = (tmp_path / "vals.csv.meta.json").read_text()
    assert raw.index('"a"') < raw.index('"b"')


def test_curve_write_csv_roundtrip(tmp_path):
    rule = make_rule("random", 6)
    curve = exact_tv_curve(rule, 1, (3,), times=[1, 2, 3])
    out = tmp_path / "curve.csv"
    write_csv(out, "t,tv", zip(curve.times.tolist(), curve.values.tolist()))
    write_sidecar(out, curve.metadata)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,tv"
    assert [float(line.split(",")[1]) for line in lines[1:]] == curve.values.tolist()
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["rule"] == "random" and meta["n"] == 6


def test_top_rule_with_every_card_tracked():
    """At k = n some card always sits at position 1; that leaves k classes."""
    # test_worst_case_strategies_agree checks these curves at n = k = 3
    assert worst_case_curve(make_rule("top", 3), 3, [1, 5]).metadata["starts"] == 3
    res = partial_mixing_time(make_rule("top", 4), 4, 0.25)
    assert res.strategy == "exact-canonical" and res.tv < 0.25


def test_sampled_starts_clamped_to_tuple_count():
    out = run_bounded(
        "from conftest import make_rule\n"
        "from shufflemix import exact\n"
        "rule = make_rule('cyclic', 8)\n"
        "e = exact.worst_case_curve(rule, 2, [1, 5, 9])\n"
        "exact._EXHAUSTIVE_BUDGET = 0\n"
        "s = exact.worst_case_curve(rule, 2, [1, 5, 9])\n"
        "print(s.metadata['starts'], abs(s.values - e.values).max() < 1e-12)\n"
    )
    assert out == "56 True"


@pytest.mark.parametrize("phase", (0, 5))
def test_sampled_starts_hold_the_phase_tail(monkeypatch, phase):
    """Past the budget the cyclic scan starts from the k positions the sweep
    reaches last, phase-k+1..phase (mod n). At n=12, k=3 that brings it
    within 1e-3 of the exhaustive worst case; without it the gap was 0.091."""
    rule = make_rule("cyclic", 12, phase=phase)
    times = np.arange(41)
    exhaustive = worst_case_curve(rule, 3, times)
    monkeypatch.setattr("shufflemix.exact._EXHAUSTIVE_BUDGET", 0)
    with pytest.warns(UserWarning, match="only a lower bound"):
        sampled = worst_case_curve(rule, 3, times)
    assert exhaustive.metadata["start_strategy"] == "exhaustive"
    assert sampled.metadata["start_strategy"] == "sampled-lower-bound"
    assert sampled.metadata["starts"] == 64
    tail = {0: (10, 11, 12), 5: (3, 4, 5)}[phase]
    assert tail in _sampled_starts(rule, 3)
    gap = exhaustive.values - sampled.values
    assert gap.min() >= -1e-12 and gap.max() < 1e-3


def test_exhaustive_budget_applies_to_mixing_time(monkeypatch):
    monkeypatch.setattr("shufflemix.exact._EXHAUSTIVE_BUDGET", 100)
    with pytest.warns(UserWarning, match="only a lower bound"):
        res = partial_mixing_time(make_rule("cyclic", 6), 2, 0.25)
    assert res.strategy == "sampled-lower-bound" and res.tv < 0.25


_SCANS = {
    "worst_case_curve": lambda rule: worst_case_curve(rule, 2, [1, 5]),
    "partial_mixing_time": lambda rule: partial_mixing_time(rule, 2, 0.25),
    "cutoff_profile": lambda rule: cutoff_profile(rule, 2, [0.0, 1.0]),
}


@pytest.mark.parametrize("scan", sorted(_SCANS))
@pytest.mark.parametrize("budget, sampled", [(100, True), (900, False)])
def test_sampled_scan_warns_once_from_the_library(monkeypatch, scan, budget, sampled):
    """Each worst-case scan over sampled starts raises one UserWarning that
    it is a lower bound; a scan within the budget (30 states, 30^2 = 900)
    raises none."""
    monkeypatch.setattr("shufflemix.exact._EXHAUSTIVE_BUDGET", budget)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _SCANS[scan](make_rule("cyclic", 6))
    notes = [w for w in caught if issubclass(w.category, UserWarning)]
    assert [str(w.message) for w in notes] == (
        ["sampled starts: this worst case is only a lower bound"] if sampled else []
    )
    if sampled and scan != "cutoff_profile":
        # attributed to the caller of the scan, not to the library
        assert notes[0].filename == __file__


def test_single_start_past_the_exhaustive_budget_does_not_warn():
    """One start is exact at any size: the cyclic rule at n = 16, k = 3 has
    3,360 states, past the exhaustive budget, and its curve raises no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = exact_tv_curve(make_rule("cyclic", 16), 3, (1, 2, 3), [1])
    assert caught == []
    assert curve.metadata["start_strategy"] == "single-start"


_DRIVERS = {"exact_tv_curve": lambda rule: exact_tv_curve(rule, 2, (1, 2), [1, 5]), **_SCANS}


@pytest.mark.parametrize("driver", sorted(_DRIVERS))
def test_each_exact_driver_builds_one_index(monkeypatch, driver):
    """Every exact driver reads one scan, so it builds one k-tuple index."""
    built = []
    post_init = KTupleIndexer.__post_init__

    def spy(self):
        built.append((self.n, self.k))
        post_init(self)

    monkeypatch.setattr(KTupleIndexer, "__post_init__", spy)
    _DRIVERS[driver](make_rule("cyclic", 6))
    assert built == [(6, 2)]


@pytest.fixture(params=["step", "evolve_columns"])
def leaky_kernel(request, monkeypatch):
    """Make one evolution kernel lose 1e-6 of the mass at every step."""
    orig = getattr(LumpedEvolver, request.param)
    monkeypatch.setattr(
        LumpedEvolver, request.param, lambda self, p, t: orig(self, p, t) * (1.0 - 1e-6)
    )
    # the top rule's canonical starts go through step, the cyclic rule's
    # exhaustive scan through evolve_columns
    return request.param


def test_mass_drift_caught_on_every_exact_path(leaky_kernel):
    rule = make_rule("top" if leaky_kernel == "step" else "cyclic", 6)
    with pytest.raises(MassDriftError):
        worst_case_curve(rule, 2, [3])
    with pytest.raises(MassDriftError):
        partial_mixing_time(rule, 2, 0.25)
    if leaky_kernel == "step":
        with pytest.raises(MassDriftError):
            exact_tv_curve(rule, 2, (1, 2), [3])


@pytest.mark.parametrize("kernel", ["step", "evolve_columns"])
def test_nan_mass_is_drift(kernel, monkeypatch):
    """NaN mass fails the drift checks instead of reading as zero drift."""
    monkeypatch.setattr(LumpedEvolver, kernel, lambda self, p, t: np.full_like(p, np.nan))
    rule = make_rule("top" if kernel == "step" else "cyclic", 6)
    with pytest.raises(MassDriftError):
        worst_case_curve(rule, 2, [3])
    with pytest.raises(MassDriftError):
        partial_mixing_time(rule, 2, 0.25)
