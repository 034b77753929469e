"""Deterministic random streams.

Every stochastic component takes a :class:`SeededRNG` (or a child
stream derived from one) so that a whole cloud simulation is a pure
function of its seed.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRNG:
    """A named, seeded random stream with child-stream derivation."""

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._random = random.Random(seed)

    def child(self, name: str) -> "SeededRNG":
        """Derive an independent stream; stable for a given (seed, name)."""
        derived = (self.seed * 1_000_003 + _stable_hash(name)) & 0x7FFFFFFF
        return SeededRNG(derived, name=f"{self.name}/{name}")

    # Thin delegation — keeps call sites short.
    def random(self) -> float:
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def randbytes(self, n: int) -> bytes:
        return self._random.randbytes(n)


def _stable_hash(text: str) -> int:
    """FNV-1a — stable across processes, unlike ``hash(str)``."""
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 0x01000193) & 0xFFFFFFFF
    return value
