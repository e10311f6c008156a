"""Shuffle rules and deck arrangements.

A shuffle step swaps the cards under two hands: the left hand follows a
deterministic or random rule (always the top card, a uniformly random
position, or a cyclically sweeping position), while the right hand is always
uniform on all n positions. Positions and card labels are 1-based at every
interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ParameterError
from .rng import RandomStream


class ShuffleKind(str, enum.Enum):
    TOP_TO_RANDOM = "top"
    RANDOM_TO_RANDOM = "random"
    CYCLIC_TO_RANDOM = "cyclic"
    CUSTOM_SEQUENCE = "custom"


@dataclass(frozen=True)
class ShuffleRule:
    """Left-hand rule for an n-card deck.

    kind:   which rule drives the left hand each step.
    n:      deck size (>= 2).
    custom: per-step left-hand distributions over positions, only for
            CUSTOM_SEQUENCE. Row t-1 is used at step t; the sequence cycles
            when t exceeds its length.
    phase:  offset for CYCLIC_TO_RANDOM; step t uses position
            ((t - 1 + phase) mod n) + 1. Default 0 starts the sweep at the top.
    """

    kind: ShuffleKind
    n: int
    custom: tuple | None = None
    phase: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("deck size n must be at least 2")
        kind = ShuffleKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is ShuffleKind.CUSTOM_SEQUENCE:
            if self.custom is None or len(self.custom) == 0:
                raise ParameterError("custom rule needs at least one distribution")
            rows = []
            for row in self.custom:
                arr = np.asarray(row, dtype=float)
                if arr.shape != (self.n,):
                    raise ParameterError(
                        "custom distribution has wrong width "
                        f"({arr.shape} for n={self.n})"
                    )
                if (arr < 0).any() or abs(arr.sum() - 1.0) > 1e-12:
                    raise ParameterError(
                        "custom distribution must be non-negative and sum to 1"
                    )
                arr.flags.writeable = False
                rows.append(arr)
            object.__setattr__(self, "custom", tuple(rows))
        elif self.custom is not None:
            raise ParameterError("custom distributions only apply to the custom kind")

    @property
    def is_time_homogeneous(self) -> bool:
        return self.kind in (ShuffleKind.TOP_TO_RANDOM, ShuffleKind.RANDOM_TO_RANDOM)

    def cyclic_position(self, t: int) -> int:
        return (t - 1 + self.phase) % self.n + 1

    def left_positions(self, t: int, gen: np.random.Generator, size: int):
        """The left hand's 1-based position(s) at step t (t >= 1).

        A scalar for the deterministic top and cyclic rules; otherwise
        ``size`` independent draws from ``gen``, one per trial.
        """
        if t < 1:
            raise ParameterError("step index t starts at 1")
        if self.kind is ShuffleKind.TOP_TO_RANDOM:
            return 1
        if self.kind is ShuffleKind.CYCLIC_TO_RANDOM:
            return self.cyclic_position(t)
        if self.kind is ShuffleKind.RANDOM_TO_RANDOM:
            return gen.integers(1, self.n + 1, size=size)
        weights = self.custom[(t - 1) % len(self.custom)]
        return gen.choice(self.n, size=size, p=weights) + 1

    def left_distribution(self, t: int) -> np.ndarray:
        """The left hand's distribution at step t as a length-n vector.

        Entry j-1 is the probability of position j.
        """
        if t < 1:
            raise ParameterError("step index t starts at 1")
        if self.kind is ShuffleKind.RANDOM_TO_RANDOM:
            return np.full(self.n, 1.0 / self.n)
        if self.kind is ShuffleKind.CUSTOM_SEQUENCE:
            return self.custom[(t - 1) % len(self.custom)].copy()
        vec = np.zeros(self.n)
        pos = 1 if self.kind is ShuffleKind.TOP_TO_RANDOM else self.cyclic_position(t)
        vec[pos - 1] = 1.0
        return vec


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Permutation:
    """Arrangement of n distinct cards; immutable once built.

    forward[p-1] is the card label at position p; inverse[c-1] is the
    position of card c. Both are 1-based values stored in 0-indexed arrays.
    """

    forward: np.ndarray
    inverse: np.ndarray = field(default=None, compare=False)

    def __post_init__(self):
        fwd = np.array(self.forward, dtype=np.int64)
        n = fwd.size
        if n < 1 or not np.array_equal(np.sort(fwd), np.arange(1, n + 1)):
            raise ParameterError("forward must be a permutation of 1..n")
        inv = np.empty(n, dtype=np.int64)
        inv[fwd - 1] = np.arange(1, n + 1)
        object.__setattr__(self, "forward", _freeze(fwd))
        object.__setattr__(self, "inverse", _freeze(inv))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(1, n + 1))

    @classmethod
    def random(cls, n: int, rng: RandomStream) -> "Permutation":
        return cls(rng.generator.permutation(n) + 1)

    @property
    def n(self) -> int:
        return self.forward.size

    def card_at(self, position: int) -> int:
        return int(self.forward[position - 1])

    def position_of(self, card: int) -> int:
        return int(self.inverse[card - 1])

    def positions_of(self, cards: Iterable[int]) -> tuple:
        return tuple(int(self.inverse[c - 1]) for c in cards)

    def transpose(self, left: int, right: int) -> "Permutation":
        """Swap the cards at two positions; left == right is the identity."""
        n = self.n
        if not (1 <= left <= n and 1 <= right <= n):
            raise ParameterError("transposition positions must lie in 1..n")
        fwd = self.forward.copy()
        fwd[[left - 1, right - 1]] = fwd[[right - 1, left - 1]]
        return Permutation(fwd)

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(
            self.forward, other.forward
        )

    def __hash__(self):
        return hash(self.forward.tobytes())
