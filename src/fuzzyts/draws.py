"""Seeded uniform draws: a counter-based SplitMix64 stream in plain numpy.

Value j of stream ``(seed, layer)`` is ``mix(key + (j + 1) * GAMMA)``, its top
53 bits scaled into [0, 1), with ``key = mix(mix(seed * GAMMA + layer))`` and
all arithmetic mod 2**64; ``mix`` is SplitMix64's finaliser (Steele, Lea &
Flood 2014).  A value depends on (seed, layer, j) alone, so sample i keeps
its values whatever the sample count.  Layers: 0 the sandwich check, 1 the
Lipschitz check, 2 the direct route, 3 the monotonicity check.
"""

import numpy as np

GAMMA = 0x9E3779B97F4A7C15


def mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place, of a uint64 array: it wraps where a scalar warns."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


class Stream:
    """The uniforms of stream ``(seed, layer)``, drawn in order, through the
    three methods of numpy's ``Generator`` that the samplers call."""

    __slots__ = ("key", "drawn")

    def __init__(self, seed: int, layer: int):
        self.key = mix(mix(np.array([(int(seed) * GAMMA + layer) % 2 ** 64], dtype=np.uint64)))
        self.drawn = 0

    def random(self, size) -> np.ndarray:
        count = int(np.prod(size))
        j = np.arange(self.drawn + 1, self.drawn + count + 1, dtype=np.uint64)
        self.drawn += count
        z = mix(j * np.uint64(GAMMA) + self.key)
        return ((z >> np.uint64(11)) * 2.0 ** -53).reshape(size)

    def integers(self, low: int, high: int, size) -> np.ndarray:
        return low + np.floor(self.random(size) * (high - low)).astype(np.int64)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return low + (high - low) * self.random(size)
