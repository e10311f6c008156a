"""Counter-based random streams.

Every stochastic routine in the package draws from a ``RandomStream``, a thin
wrapper around numpy's Philox bit generator keyed by ``(master_seed,
stream_id)``.  Two streams built from the same pair replay the same sequence;
distinct stream ids give statistically independent streams (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  The Monte Carlo
drivers take a plain int seed and give each block b of trials the stream
``RandomStream(seed).substream(b)``, created in the calling process; blocks
may then run in separate worker processes and are merged in block order, so
every experiment is reproducible from the one 64-bit seed its result
records, independent of the worker count.  ``RandomStream`` is the one place
a seed is checked: it must be a non-bool int in [0, 2^64).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
# SplitMix64 increment; used to derive child stream ids deterministically.
_GOLDEN = 0x9E3779B97F4A7C15

DEFAULT_SEED = 271828


@dataclass(frozen=True)
class RandomStream:
    """A replayable random stream identified by ``(master_seed, stream_id)``."""

    master_seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        for name, value in (("seed", self.master_seed), ("stream_id", self.stream_id)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an int, got {value!r}")
            if not 0 <= value <= _MASK64:
                raise ParameterError(f"{name} must fit in an unsigned 64-bit int")

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator (created lazily, then cached)."""
        if self._gen is None:
            key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
            object.__setattr__(
                self, "_gen", np.random.Generator(np.random.Philox(key=key))
            )
        return self._gen

    def substream(self, index: int) -> "RandomStream":
        """Derive the ``index``-th child stream.

        Children of distinct parents never collide in practice: the id is
        mixed SplitMix64-style, so the (parent, index) -> id map behaves like
        a hash. Same parent and index always give the same child.
        """
        if index < 0:
            raise ParameterError("substream index must be non-negative")
        child = (self.stream_id * _GOLDEN + index + 1) & _MASK64
        return RandomStream(self.master_seed, child)
