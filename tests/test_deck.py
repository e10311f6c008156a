"""Rules and permutations."""

import numpy as np
import pytest

from shufflemix.deck import Permutation, ShuffleKind, ShuffleRule
from shufflemix.errors import ParameterError

from conftest import make_rule


def test_kind_values():
    assert ShuffleKind.TOP_TO_RANDOM.value == "top"
    assert ShuffleKind.RANDOM_TO_RANDOM.value == "random"
    assert ShuffleKind.CYCLIC_TO_RANDOM.value == "cyclic"
    assert ShuffleKind.CUSTOM_SEQUENCE.value == "custom"


def test_rule_validation():
    with pytest.raises(ParameterError):
        ShuffleRule(kind=ShuffleKind.TOP_TO_RANDOM, n=1)
    with pytest.raises(ParameterError):
        ShuffleRule(kind=ShuffleKind.CUSTOM_SEQUENCE, n=4)
    with pytest.raises(ParameterError):
        ShuffleRule(kind=ShuffleKind.CUSTOM_SEQUENCE, n=4, custom=((0.5, 0.5, 0.5, -0.5),))
    with pytest.raises(ParameterError):
        ShuffleRule(kind=ShuffleKind.TOP_TO_RANDOM, n=4, custom=((0.25,) * 4,))
    with pytest.raises(ParameterError):
        make_rule("random", 4).left_positions(0, np.random.default_rng(0), 1)


def test_left_distribution_top():
    rule = make_rule("top", 6)
    for t in (1, 5, 100):
        vec = rule.left_distribution(t)
        assert vec[0] == 1.0 and vec.sum() == 1.0


def test_left_distribution_cyclic_sweeps():
    rule = make_rule("cyclic", 5)
    seen = [int(np.argmax(rule.left_distribution(t))) + 1 for t in range(1, 11)]
    assert seen == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]


def test_cyclic_phase_offset():
    rule = make_rule("cyclic", 5, phase=2)
    assert rule.cyclic_position(1) == 3
    assert rule.cyclic_position(4) == 1  # wraps


def test_custom_rows_cycle():
    rule = make_rule("custom", 4)
    assert np.array_equal(rule.left_distribution(1), rule.left_distribution(3))
    assert np.array_equal(rule.left_distribution(2), rule.left_distribution(4))
    assert not np.array_equal(rule.left_distribution(1), rule.left_distribution(2))


def test_custom_rows_frozen():
    rule = make_rule("custom", 4)
    with pytest.raises(ValueError):
        rule.custom[0][0] = 0.9


def test_permutation_roundtrip():
    p = Permutation((3, 1, 4, 2))
    assert p.card_at(1) == 3
    assert p.position_of(3) == 1
    assert p.positions_of((1, 2)) == (2, 4)
    q = p.transpose(1, 3)
    assert q.card_at(1) == 4 and q.card_at(3) == 3
    assert p.card_at(1) == 3  # original untouched
    assert p.transpose(2, 2) == p


def test_permutation_validation():
    with pytest.raises(ParameterError):
        Permutation((1, 1, 3))
    with pytest.raises(ParameterError):
        Permutation.identity(3).transpose(0, 2)
