"""Deterministic 64-bit pseudo-random generator.

All randomized constructions in this package draw from SplitMix64 so that
a (seed, parameters) pair reproduces the same object on every platform.
The update is the standard one: the state advances by the golden-gamma
constant and the output is the finalized mix of the new state.
"""

from .limits import LimitExceeded, default_limits

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with an arbitrary integer (reduced mod 2^64)."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform draw from range(n) by 64-bit remainder.

        The modulo bias is below n/2^64, irrelevant at the ranges used here.
        """
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def sample(self, population: int, count: int) -> list[int]:
        """count distinct values from range(population), in draw order."""
        if count > population:
            raise ValueError("sample larger than population")
        seen: set[int] = set()
        out: list[int] = []
        while len(out) < count:
            v = self.below(population)
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    def rows(self, count: int, degree: int,
             bound: int) -> tuple[tuple[int, ...], ...]:
        """`count` rows of `degree` draws from range(bound), row after row:
        the neighbor lists of a random left-regular graph. Every randomized
        construction draws here, so the draws are charged to `gen_edges`."""
        edges, limit = count * degree, default_limits().gen_edges
        if edges > limit:
            raise LimitExceeded(f"{edges} edge draws exceed limit {limit}")
        return tuple(tuple(self.below(bound) for _ in range(degree))
                     for _ in range(count))
