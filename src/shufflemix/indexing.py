"""Dense indexing of ordered k-tuples of distinct positions.

The joint location of k tracked cards in an n-card deck is an ordered
k-tuple of distinct positions; there are n(n-1)...(n-k+1) of them. The
indexer maps tuples to 0..count-1 and back via a falling-factorial
mixed-radix code, so exact distributions can live in flat numpy arrays.
The code order coincides with lexicographic order of the raw tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceededError, ParameterError

DEFAULT_STATE_CAP = 10_000_000


def tuple_count(n: int, k: int) -> int:
    """n(n-1)...(n-k+1): the number of ordered distinct k-tuples."""
    count = 1
    for j in range(k):
        count *= n - j
    return count


@dataclass
class KTupleIndexer:
    """Bijection between ordered distinct k-tuples on {1..n} and 0..count-1."""

    n: int
    k: int
    count: int = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ParameterError("need 1 <= k <= n")
        self.count = tuple_count(self.n, self.k)
        if self.count > DEFAULT_STATE_CAP:
            raise CapExceededError(
                f"{self.count} ordered {self.k}-tuples on {self.n} positions "
                f"exceed the state cap {DEFAULT_STATE_CAP}"
            )
        # Radix place values: digit j ranges over n-j values.
        self._bases = np.array(
            [tuple_count(self.n - j - 1, self.k - j - 1) for j in range(self.k)],
            dtype=np.int64,
        )
        self._all_pos0 = None

    def encode(self, positions) -> int:
        """Index of a 1-based tuple of distinct positions."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.shape != (self.k,):
            raise ParameterError(f"expected a {self.k}-tuple")
        if (pos < 1).any() or (pos > self.n).any():
            raise ParameterError("positions must lie in 1..n")
        if np.unique(pos).size != self.k:
            raise ParameterError("positions must be distinct")
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
        """Vectorized index of 0-based position rows, shape (m, k) -> (m,).

        Digit j is the rank of pos0[:, j] among the slots not taken by the
        earlier coordinates, i.e. pos0[:, j] minus the earlier entries below it.
        """
        codes = np.zeros(pos0.shape[0], dtype=np.int64)
        for j in range(self.k):
            digit = pos0[:, j].astype(np.int64)
            for i in range(j):
                digit -= pos0[:, i] < pos0[:, j]
            codes += digit * self._bases[j]
        return codes

    def all_positions0(self) -> np.ndarray:
        """(count, k) int32 array of 0-based tuples, row i decoding index i."""
        if self._all_pos0 is None:
            flat = np.fromiter(
                itertools.chain.from_iterable(
                    itertools.permutations(range(self.n), self.k)
                ),
                dtype=np.int32,
                count=self.count * self.k,
            )
            arr = flat.reshape(self.count, self.k)
            arr.flags.writeable = False
            self._all_pos0 = arr
        return self._all_pos0
