"""Stream replay and substream separation."""

import numpy as np
import pytest

from shufflemix.errors import ParameterError
from shufflemix.rng import DEFAULT_SEED, RandomStream


def test_default_seed_constant():
    assert DEFAULT_SEED == 271828


def test_same_key_replays():
    a = RandomStream(12345, 7).generator.random(100)
    b = RandomStream(12345, 7).generator.random(100)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RandomStream(12345, 0).generator.random(100)
    b = RandomStream(12345, 1).generator.random(100)
    assert not np.array_equal(a, b)


def test_substream_is_deterministic():
    parent = RandomStream(99, 3)
    assert parent.substream(5) == parent.substream(5)
    assert parent.substream(5) != parent.substream(6)


def test_substreams_of_distinct_parents_differ():
    # the SplitMix64 mix keeps (parent, index) pairs from colliding
    ids = {
        RandomStream(1, pid).substream(i).stream_id
        for pid in range(20)
        for i in range(20)
    }
    assert len(ids) == 400


def test_key_validation():
    with pytest.raises(ParameterError):
        RandomStream(-1)
    with pytest.raises(ParameterError):
        RandomStream(1 << 64)
    with pytest.raises(ParameterError):
        RandomStream(0).substream(-1)
