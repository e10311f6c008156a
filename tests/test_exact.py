"""Exact lumped-chain evolution, curves, and mixing times."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflemix.deck import ShuffleKind, ShuffleRule
from shufflemix.errors import HorizonError, MassDriftError, ParameterError
from shufflemix.exact import (
    KTupleDistribution,
    LumpedEvolver,
    cutoff_profile,
    exact_tv_curve,
    partial_mixing_time,
    single_card_matrix,
    tv_distance,
    worst_case_curve,
    write_csv,
    write_sidecar,
)
from shufflemix.indexing import KTupleIndexer

from conftest import ALL_KINDS, brute_force_marginals, make_rule, run_bounded


def test_tv_distance_basics():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2)
    assert tv_distance([0.7, 0.3], [0.5, 0.5]) == tv_distance([0.5, 0.5], [0.7, 0.3])


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
        probs = KTupleDistribution.point_mass(evolver.indexer, start).probs
        assert np.abs(probs - want[0]).max() < 1e-12
        for t in range(1, 7):
            probs = evolver.step(probs, t)
            assert np.abs(probs - want[t]).max() < 1e-12, (rule.kind.value, t)


def test_mass_conserved_many_steps():
    rule = make_rule("cyclic", 8)
    evolver = LumpedEvolver(rule, 2)
    probs = KTupleDistribution.point_mass(evolver.indexer, (4, 7)).probs
    for t in range(1, 51):
        probs = evolver.step(probs, t)
        assert probs.min() >= -1e-15
        assert abs(probs.sum() - 1.0) < 1e-12


@st.composite
def _custom_rules(draw):
    """A custom rule with n <= 7: 1-3 rows of random non-negative weights."""
    n = draw(st.integers(2, 7))
    weights = st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any)
    rows = [np.array(w, dtype=float) for w in draw(st.lists(weights, min_size=1, max_size=3))]
    return ShuffleRule(ShuffleKind.CUSTOM_SEQUENCE, n, custom=[r / r.sum() for r in rows])


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
        with monkeypatch.context() as m:
            m.setattr("shufflemix.exact._EXHAUSTIVE_BUDGET", 100)
            curve = worst_case_curve(rule, 2, [5])
        assert curve.metadata["start_strategy"] == "sampled-lower-bound"
        assert curve.metadata["lower_bound_only"]
        assert curve.metadata["starts"] == min(64, n * (n - 1))
        assert curve.values[0] <= exhaustive.values[0] + 1e-15


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


def test_curve_to_csv_roundtrip(tmp_path):
    rule = make_rule("random", 6)
    curve = exact_tv_curve(rule, 1, (3,), times=[1, 2, 3])
    out = tmp_path / "curve.csv"
    curve.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,tv"
    assert len(lines) == 4
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


def test_exhaustive_budget_applies_to_mixing_time(monkeypatch):
    monkeypatch.setattr("shufflemix.exact._EXHAUSTIVE_BUDGET", 100)
    res = partial_mixing_time(make_rule("cyclic", 6), 2, 0.25)
    assert res.strategy == "sampled-lower-bound" and res.tv < 0.25


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
