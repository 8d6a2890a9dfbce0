"""Key-selection distributions for workload generators.

``Zipfian`` follows the standard YCSB/Gray self-similar construction with a
precomputed zeta constant, so hot keys match what the original benchmark
would produce for the same theta.
"""

from __future__ import annotations

import math
import random
from typing import Optional

__all__ = ["Uniform", "Zipfian", "randbelow"]


def randbelow(getrandbits, n: int) -> int:
    """``rng.randrange(n)`` given ``rng.getrandbits``, minus the argument
    checking: the same rejection loop as ``random.Random._randbelow``, so it
    consumes the same bits and returns the same value (pinned by a test on
    the running interpreter).  ``lo + randbelow(bits, hi - lo)`` is
    ``rng.randrange(lo, hi)``."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class Uniform:
    """Uniform over ``[0, n)`` — the paper's default for YCSB (§6.1.3)."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n

    def sample(self, rng: random.Random) -> int:
        return randbelow(rng.getrandbits, self.n)


class Zipfian:
    """Zipfian over ``[0, n)`` with skew ``theta`` (YCSB's generator)."""

    def __init__(self, n: int, theta: float = 0.99):
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self.zetan = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        denominator = 1 - self.zeta2 / self.zetan
        if denominator == 0:  # n == 2: the eta branch is never sampled
            self.eta = 0.0
        else:
            self.eta = (1 - (2.0 / n) ** (1 - theta)) / denominator

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)

