"""Dense indexing of ordered k-tuples of distinct positions.

The joint location of k tracked cards in an n-card deck is an ordered
k-tuple of distinct positions; there are n(n-1)...(n-k+1) of them. The
indexer maps tuples to 0..count-1 and back via a falling-factorial
mixed-radix code, so exact distributions can live in flat numpy arrays.
The code order coincides with lexicographic order of the raw tuples.

The table of all tuples is stored coordinate-major: a (k, count) int32
block whose transpose is handed out, so each coordinate is one contiguous
column and the per-coordinate loops of ``encode_many`` and the exact step
stream through memory. ``encode_many`` forms each digit times its place
value and sums them in int32, widening the codes to int64 once at the end.
That cannot overflow: each partial sum of digits times place values is the
code of a prefix with the later digits 0, so it is at most count - 1, and
count never exceeds ``DEFAULT_STATE_CAP`` < 2**31.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ParameterError

DEFAULT_STATE_CAP = 10_000_000


def check_k(n: int, k: int):
    """ParameterError unless 1 <= k <= n: the one rule for how many of n
    cards can be tracked, shared by every driver that tracks k cards."""
    if k > n:
        raise ParameterError(f"k exceeds n (k={k}, n={n})")
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")


def check_tuple(n: int, k: int, positions) -> np.ndarray:
    """``positions`` as an int64 array, or ParameterError unless they are k
    distinct positions in 1..n: the one rule for a start tuple."""
    pos = np.asarray(positions, dtype=np.int64)
    if pos.shape != (k,):
        raise ParameterError(f"expected a {k}-tuple")
    if (pos < 1).any() or (pos > n).any():
        raise ParameterError("positions must lie in 1..n")
    if np.unique(pos).size != k:
        raise ParameterError("positions must be distinct")
    return pos


def tuple_count(n: int, k: int) -> int:
    """The n (n - 1) ... (n - k + 1) ordered k-tuples, after ``check_k``. Past
    the state cap it raises at once: at huge n and k the product is slow to form."""
    check_k(n, k)
    count = 1
    for j in range(k):
        count *= n - j
        if count > DEFAULT_STATE_CAP:
            raise CapExceededError(
                f"ordered {k}-tuples on {n} positions exceed the state cap {DEFAULT_STATE_CAP}"
            )
    return count


@dataclass
class KTupleIndexer:
    """Bijection between ordered distinct k-tuples on {1..n} and 0..count-1."""

    n: int
    k: int
    count: int = field(init=False)

    def __post_init__(self):
        self.count = tuple_count(self.n, self.k)
        # Radix place values: digit j ranges over n-j values.
        self._bases = np.array(
            [math.perm(self.n - j - 1, self.k - j - 1) for j in range(self.k)],
            dtype=np.int64,
        )
        self._all_pos0 = None

    def encode(self, positions) -> int:
        """Index of a 1-based tuple of distinct positions."""
        pos = check_tuple(self.n, self.k, positions)
        return int(self.encode_many((pos - 1)[None, :])[0])

    def decode(self, index: int) -> tuple:
        """1-based tuple for an index in 0..count-1."""
        if not 0 <= index < self.count:
            raise ParameterError(f"index {index} out of range 0..{self.count - 1}")
        digits = []
        rem = int(index)
        for j in range(self.k):
            digits.append(rem // self._bases[j])
            rem %= self._bases[j]
        pos = []
        for d in digits:
            # d-th smallest value not used by the earlier coordinates
            p = int(d)
            for q in sorted(pos):
                if q <= p:
                    p += 1
            pos.append(p)
        return tuple(p + 1 for p in pos)

    def encode_many(self, pos0: np.ndarray) -> np.ndarray:
        """Vectorized index of 0-based position rows, shape (m, k) -> (m,) int64.

        Digit j is the rank of pos0[:, j] among the slots not taken by the
        earlier coordinates, i.e. pos0[:, j] minus the earlier entries below it.
        Any layout works; F-ordered rows read contiguous columns. The digits
        times their place values are summed in int32 and the codes widened to
        int64 once: every partial sum is below count <= ``DEFAULT_STATE_CAP``
        < 2**31, and adding int32 digits into int64 codes would be the
        slowest pass of the loop.
        """
        m = pos0.shape[0]
        cols = [pos0[:, j] for j in range(self.k)]
        codes = np.empty(m, dtype=np.int32)
        digit = np.empty(m, dtype=np.int32)
        below = np.empty(m, dtype=bool)
        for j, col in enumerate(cols):
            part = codes if j == 0 else digit
            np.copyto(part, col, casting="unsafe")
            for earlier in cols[:j]:
                part -= np.less(earlier, col, out=below)
            part *= int(self._bases[j])
            if j:
                codes += digit
        return codes.astype(np.int64)

    def all_positions0(self) -> np.ndarray:
        """(count, k) int32 array of 0-based tuples, row i decoding index i.

        Built one coordinate at a time from the sorted free slots of every
        prefix: coordinate j of the tuples is the free slots of the length-j
        prefixes in order, each repeated once per completion. The array is the
        transpose of a C-ordered (k, count) block, so its columns are
        contiguous; it is read-only and cached.
        """
        if self._all_pos0 is None:
            n, k = self.n, self.k
            block = np.empty((k, self.count), dtype=np.int32)
            free = np.arange(n, dtype=np.int32)[None, :]  # the empty prefix
            for j in range(k):
                block[j] = np.repeat(free.ravel(), int(self._bases[j]))
                if j + 1 < k:
                    # choosing free slot c leaves the others, still sorted
                    m = np.arange(n - j - 1)
                    others = m + (m >= np.arange(n - j)[:, None])
                    free = free[:, others].reshape(-1, n - j - 1)
            block.flags.writeable = False
            self._all_pos0 = block.T
        return self._all_pos0
