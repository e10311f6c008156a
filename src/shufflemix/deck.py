"""Shuffle rules.

A shuffle step swaps the cards under two hands: the left hand follows a
deterministic or random rule (always the top card, a uniformly random
position, or a cyclically sweeping position), while the right hand is always
uniform on all n positions. Positions and card labels are 1-based at every
interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


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
            Any other kind must keep the default.
    """

    kind: ShuffleKind
    n: int
    custom: tuple | None = None
    phase: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("deck size n must be at least 2")
        try:
            kind = ShuffleKind(self.kind)
        except ValueError:
            kinds = ", ".join(k.value for k in ShuffleKind)
            raise ParameterError(f"unknown rule kind {self.kind!r} (one of {kinds})") from None
        object.__setattr__(self, "kind", kind)
        if self.phase != 0 and kind is not ShuffleKind.CYCLIC_TO_RANDOM:
            raise ParameterError(f"phase needs the cyclic rule, got {kind.value}")
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
                if not np.isfinite(arr).all() or (arr < 0).any() or abs(arr.sum() - 1.0) > 1e-12:
                    raise ParameterError(
                        "custom distribution must be finite, non-negative and sum to 1"
                    )
                arr.flags.writeable = False
                rows.append(arr)
            object.__setattr__(self, "custom", tuple(rows))
        elif self.custom is not None:
            raise ParameterError("custom distributions only apply to the custom kind")

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
