"""Tests for key-selection distributions."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.distributions import Uniform, Zipfian, randbelow


class TestUniform:
    def test_bounds(self):
        dist = Uniform(100)
        rng = random.Random(0)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert min(samples) >= 0 and max(samples) < 100

    def test_roughly_flat(self):
        dist = Uniform(10)
        rng = random.Random(1)
        counts = Counter(dist.sample(rng) for _ in range(10000))
        assert all(800 < counts[i] < 1200 for i in range(10))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Uniform(0)


class TestZipfian:
    def test_bounds(self):
        dist = Zipfian(1000, theta=0.99)
        rng = random.Random(0)
        for _ in range(5000):
            assert 0 <= dist.sample(rng) < 1000

    def test_skew_prefers_low_keys(self):
        dist = Zipfian(1000, theta=0.99)
        rng = random.Random(2)
        samples = [dist.sample(rng) for _ in range(20000)]
        counts = Counter(samples)
        top10 = sum(counts[i] for i in range(10))
        assert top10 > len(samples) * 0.3  # heavy head

    def test_higher_theta_more_skew(self):
        rng1, rng2 = random.Random(3), random.Random(3)
        mild = Zipfian(1000, theta=0.5)
        harsh = Zipfian(1000, theta=0.95)
        mild_head = sum(1 for _ in range(5000) if mild.sample(rng1) == 0)
        harsh_head = sum(1 for _ in range(5000) if harsh.sample(rng2) == 0)
        assert harsh_head > mild_head

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Zipfian(0)
        with pytest.raises(ValueError):
            Zipfian(10, theta=1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=10_000),
        theta=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_always_in_range(self, n, theta, seed):
        dist = Zipfian(n, theta=theta)
        rng = random.Random(seed)
        for _ in range(50):
            assert 0 <= dist.sample(rng) < n


@pytest.mark.parametrize("width", [1, 2, 63, 64, 65, 1000])
def test_randbelow_is_randrange_on_this_interpreter(width):
    """The unrolled draw consumes the same bits and returns the same values
    as ``randrange`` — including powers of two and their neighbours, where
    the rejection loop's bit width changes."""
    for seed in (1, 2):
        unrolled, reference = random.Random(seed), random.Random(seed)
        lo = 7 * width
        for _ in range(500):
            assert lo + randbelow(unrolled.getrandbits, width) == (
                reference.randrange(lo, lo + width)
            )
        assert unrolled.random() == reference.random()
