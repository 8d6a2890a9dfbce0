"""Tests for the YCSB workload generator."""

import hashlib
import random

import pytest

from repro.engine.granule import GranuleMap
from repro.workload.ycsb import YcsbConfig, YcsbWorkload


@pytest.fixture
def gmap():
    return GranuleMap(num_keys=4096, keys_per_granule=64)


class TestGeneration:
    def test_txn_shape(self, gmap):
        wl = YcsbWorkload(gmap)
        spec = wl.next_txn(random.Random(0))
        assert len(spec.ops) == 16
        assert all(op.table == "usertable" for op in spec.ops)

    def test_single_site(self, gmap):
        """All 16 requests fall in the home granule (§6.1.3)."""
        wl = YcsbWorkload(gmap)
        rng = random.Random(1)
        for _ in range(100):
            spec = wl.next_txn(rng)
            granules = {gmap.granule_of(op.key) for op in spec.ops}
            assert len(granules) == 1

    def test_read_write_mix(self, gmap):
        wl = YcsbWorkload(gmap)
        rng = random.Random(2)
        writes = reads = 0
        for _ in range(500):
            for op in wl.next_txn(rng).ops:
                if op.write:
                    writes += 1
                else:
                    reads += 1
        ratio = writes / (writes + reads)
        assert 0.45 < ratio < 0.55  # 50/50 per the paper

    def test_custom_request_count(self, gmap):
        wl = YcsbWorkload(gmap, YcsbConfig(requests_per_txn=4))
        assert len(wl.next_txn(random.Random(0)).ops) == 4

    def test_home_key_is_first_op(self, gmap):
        wl = YcsbWorkload(gmap)
        spec = wl.next_txn(random.Random(3))
        assert spec.home_key == spec.ops[0].key

    def test_key_range_restriction(self, gmap):
        wl = YcsbWorkload(gmap, key_lo=1024, key_hi=2048)
        rng = random.Random(4)
        for _ in range(200):
            home = wl.next_txn(rng).home_key
            assert 1024 <= home < 2048

    def test_bad_key_range(self, gmap):
        with pytest.raises(ValueError):
            YcsbWorkload(gmap, key_lo=100, key_hi=50)

    def test_zipfian_distribution(self, gmap):
        wl = YcsbWorkload(gmap, YcsbConfig(distribution="zipfian"))
        rng = random.Random(5)
        homes = [wl.next_txn(rng).home_key for _ in range(2000)]
        low = sum(1 for h in homes if h < 409)  # hottest 10% of keys
        assert low > len(homes) * 0.3

    def test_unknown_distribution(self, gmap):
        with pytest.raises(ValueError):
            YcsbWorkload(gmap, YcsbConfig(distribution="pareto"))

    def test_uniform_spreads_over_granules(self, gmap):
        wl = YcsbWorkload(gmap)
        rng = random.Random(6)
        granules = {
            gmap.granule_of(wl.next_txn(rng).home_key) for _ in range(2000)
        }
        assert len(granules) > gmap.num_granules * 0.8


def stream_digest(workload, seed, n=2000):
    """sha256 over the first ``n`` generated specs (and the generator's next
    float, so the number of draws consumed is pinned too)."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(n):
        spec = workload.next_txn(rng)
        digest.update(
            repr([(op.write, op.table, op.key, op.incr) for op in spec.ops]).encode()
        )
    digest.update(repr(rng.random()).encode())
    return digest.hexdigest()


#: Captured from the parent of the op-set-at-a-time PR (a2d109d), where every
#: key was ``rng.randrange(granule.lo, granule.hi)`` on a fresh ``Granule``:
#: the generators may get cheaper, the seeded streams may not move.
YCSB_STREAMS = {
    ("uniform", 1): "942f08b8c1ecf1de0d17872ac7815673095666da747e1ecb4781407ea7932236",
    ("uniform", 2): "26b8bfce6fa6eca42b316a4d69ccc6679f2ebad21b6a5010708c143e827efed0",
    ("zipfian", 1): "be0f5e6f91f85416bb2e7e1c40d37a239cde928b108a73e8df0e0c89956e19fc",
    ("zipfian", 2): "b7dce7d49d7f37efbc8b40f357ce735ade52e9042d300fb385b3f37d0f20a563",
    ("incr", 1): "8d0be177b963834d2f666f96499a954225196013315e4fd7fce88a0a702416f9",
    ("incr", 2): "5f277bdfee26fcac99ceee9d82b69f700c13fddeb2f600d3da0b3280b89f5f72",
    ("remote", 1): "8b1a5d629d019af4ef55896a8a575822531a99209acc8323c215353f03b36d4d",
    ("remote", 2): "65d4bad443eecbbc14a829d9bf33c5bb998694f8e4d91c2f30485aee0c68dd48",
}
YCSB_VARIANTS = {
    "uniform": YcsbConfig(),
    "zipfian": YcsbConfig(distribution="zipfian"),
    "incr": YcsbConfig(incr_fraction=0.2),
    "remote": YcsbConfig(remote_fraction=0.3),
}


@pytest.mark.parametrize("variant,seed", sorted(YCSB_STREAMS))
def test_seeded_stream_is_pinned(variant, seed):
    # 1000 keys in granules of 64: the last granule is short (40 keys).
    workload = YcsbWorkload(GranuleMap(1000, 64), YCSB_VARIANTS[variant])
    assert stream_digest(workload, seed) == YCSB_STREAMS[variant, seed]

