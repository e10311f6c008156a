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


_TABLE_SIZES = [(n, k) for n in range(1, 10) for k in range(1, min(n, 4) + 1)]
_TABLE_SIZES += [(n, n) for n in range(5, 8)]


@pytest.mark.parametrize("n,k", _TABLE_SIZES)
def test_all_positions0_is_permutations_order(n, k):
    idx = KTupleIndexer(n, k)
    want = np.array(list(itertools.permutations(range(n), k)), dtype=np.int32)
    rows = idx.all_positions0()
    assert rows.dtype == np.int32 and not rows.flags.writeable
    assert np.array_equal(rows, want.reshape(idx.count, k))
    assert rows is idx.all_positions0()
    assert all(rows[:, j].flags.c_contiguous for j in range(k))


def test_encode_many_ignores_layout_and_dtype():
    idx = KTupleIndexer(7, 4)
    want = np.arange(idx.count)
    rows = idx.all_positions0()
    for dtype in (np.int32, np.int64):
        for order in ("C", "F"):
            codes = idx.encode_many(np.asarray(rows, dtype=dtype, order=order))
            assert codes.dtype == np.int64
            assert np.array_equal(codes, want), (dtype, order)
    # a strided view of a larger block encodes the same
    block = np.zeros((2 * idx.count, idx.k + 1), dtype=np.int64)
    block[::2, 1:] = rows
    assert np.array_equal(idx.encode_many(block[::2, 1:]), want)


def test_int32_digits_cannot_overflow_below_the_cap():
    """The largest code under the cap fits int32; the table is never built."""
    assert DEFAULT_STATE_CAP < 2**31
    idx = KTupleIndexer(215, 3)
    assert idx.count == 215 * 214 * 213 <= DEFAULT_STATE_CAP
    last = np.array([[214, 213, 212]])
    assert idx.encode_many(last).tolist() == [idx.count - 1]
    assert idx.encode_many(last.astype(np.int32)).tolist() == [idx.count - 1]
    assert idx.decode(idx.count - 1) == (215, 214, 213)
    assert idx._all_pos0 is None


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


@pytest.mark.parametrize("n,k", [(20_000, 10_000), (2**63 - 1, 200_000), (10**400, 10**399)])
def test_state_cap_stops_the_count_early(n, k):
    """The count is multiplied only until it passes the cap, so huge n and k
    raise at once, and the message names n, k and the cap, not the count."""
    with pytest.raises(CapExceededError) as info:
        KTupleIndexer(n, k)
    message = str(info.value)
    assert str(n) in message and str(k) in message
    assert str(DEFAULT_STATE_CAP) in message
    assert len(message) < 2 * len(str(n)) + 100
