"""Deterministic PRNG for trial generation.

SplitMix64: a 64-bit counter-based generator.  Every randomized suite and
generator in this package derives its draws from one of these, so a seed
reproduces a run bit-for-bit on any platform.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed):
        self._state = seed & _MASK

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span
