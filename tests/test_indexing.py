"""Falling-factorial tuple codes."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflemix.errors import CapExceededError, ParameterError
from shufflemix.indexing import DEFAULT_STATE_CAP, KTupleIndexer


def test_roundtrip_exhaustive():
    for n, k in ((4, 1), (4, 2), (5, 3), (5, 5)):
        idx = KTupleIndexer(n, k)
        seen = set()
        for tup in itertools.permutations(range(1, n + 1), k):
            code = idx.encode(tup)
            assert 0 <= code < idx.count
            assert idx.decode(code) == tup
            seen.add(code)
        assert len(seen) == idx.count


def test_codes_are_lexicographic():
    idx = KTupleIndexer(5, 3)
    tuples = list(itertools.permutations(range(1, 6), 3))
    codes = [idx.encode(t) for t in tuples]
    assert codes == sorted(codes) == list(range(idx.count))


def test_encode_many_matches_encode():
    idx = KTupleIndexer(6, 3)
    rows = idx.all_positions0()
    codes = idx.encode_many(rows.astype(np.int64))
    assert np.array_equal(codes, np.arange(idx.count))
    # spot check against the scalar path (which takes 1-based input)
    for i in (0, 7, idx.count - 1):
        assert idx.encode(tuple(int(v) + 1 for v in rows[i])) == i


@settings(max_examples=200, deadline=1000, derandomize=True)
@given(data=st.data())
def test_encode_decode_bijection_property(data):
    """decode inverts encode, and encode_many agrees with encode, well past
    the sizes the exhaustive round trip covers."""
    n = data.draw(st.integers(1, 40))
    idx = KTupleIndexer(n, data.draw(st.integers(1, min(n, 4))))
    tuples = st.permutations(range(1, n + 1)).map(lambda p: tuple(p[: idx.k]))
    rows = data.draw(st.lists(tuples, min_size=1, max_size=8))
    codes = [idx.encode(row) for row in rows]
    assert all(0 <= code < idx.count for code in codes)
    assert [idx.decode(code) for code in codes] == rows
    assert idx.encode_many(np.array(rows, dtype=np.int64) - 1).tolist() == codes
    index = data.draw(st.integers(0, idx.count - 1))
    assert idx.encode(idx.decode(index)) == index


def test_all_positions0_shape_and_dtype():
    idx = KTupleIndexer(6, 2)
    rows = idx.all_positions0()
    assert rows.shape == (30, 2)
    assert rows.dtype == np.int32
    assert not rows.flags.writeable
    assert rows is idx.all_positions0()  # cached


def test_validation():
    with pytest.raises(ParameterError):
        KTupleIndexer(3, 4)
    with pytest.raises(ParameterError):
        KTupleIndexer(3, 0)
    idx = KTupleIndexer(5, 2)
    with pytest.raises(ParameterError):
        idx.encode((1, 1))
    with pytest.raises(ParameterError):
        idx.encode((0, 2))
    with pytest.raises(ParameterError):
        idx.encode((1, 2, 3))
    with pytest.raises(ParameterError):
        idx.decode(idx.count)


def test_state_cap():
    assert math.perm(100, 5) > DEFAULT_STATE_CAP
    with pytest.raises(CapExceededError):
        KTupleIndexer(100, 5)
    # a raised cap admits the same size
    KTupleIndexer(100, 2)
