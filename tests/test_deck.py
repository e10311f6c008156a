"""Shuffle rules."""

import numpy as np
import pytest

from shufflemix.deck import ShuffleKind, ShuffleRule
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
    with pytest.raises(ParameterError, match="unknown rule kind 'bogus'"):
        ShuffleRule(kind="bogus", n=5)
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


@pytest.mark.parametrize("kind", ("top", "random", "custom"))
def test_phase_outside_the_cyclic_rule_is_parameter_error(kind):
    for phase in (3, -1):
        with pytest.raises(ParameterError, match="cyclic"):
            make_rule(kind, 4, phase=phase)


def test_custom_rows_cycle():
    rule = make_rule("custom", 4)
    assert np.array_equal(rule.left_distribution(1), rule.left_distribution(3))
    assert np.array_equal(rule.left_distribution(2), rule.left_distribution(4))
    assert not np.array_equal(rule.left_distribution(1), rule.left_distribution(2))


def test_custom_rows_frozen():
    rule = make_rule("custom", 4)
    with pytest.raises(ValueError):
        rule.custom[0][0] = 0.9


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_custom_rows_must_be_finite(bad):
    row = np.full(5, 0.2)
    row[2] = bad
    for rows in ([np.full(5, bad)], [row]):
        with pytest.raises(ParameterError, match="finite"):
            ShuffleRule(ShuffleKind.CUSTOM_SEQUENCE, 5, custom=rows)
