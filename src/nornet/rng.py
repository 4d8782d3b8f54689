"""Deterministic random number generation.

All randomness in the toolkit flows through :class:`SplitMix64`, a 64-bit
generator with a frozen algorithm: the state advances by the golden-gamma
increment and is scrambled by the standard xor-shift-multiply finalizer.
The sequence for a given seed is identical across platforms and Python
versions, which is what the reproducibility contracts rely on.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seedable 64-bit generator; one instance is one independent stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi], rejection-sampled
        so the distribution is exact."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        width = hi - lo + 1
        bound = ((1 << 64) // width) * width
        u = self.next_u64()
        while u >= bound:
            u = self.next_u64()
        return lo + (u % width)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi] (degenerates to the constant when lo == hi)."""
        return lo + self.next_float() * (hi - lo)

    def weighted_index(self, weights) -> int:
        """Index drawn proportionally to the given positive weights."""
        total = float(sum(weights))
        u = self.next_float() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1
