"""Unit tests for the region-aware network latency model."""

import pytest

from repro.sim.core import Simulator
from repro.sim.network import (
    AZURE_REGIONS,
    INTRA_REGION_ONE_WAY,
    LatencyModel,
    Network,
)


@pytest.fixture
def sim():
    return Simulator(seed=3)


def send(net, src_region, dst_region, fn, *args):
    net.deliver_addr(src_region, dst_region, "a", "b", fn, *args)


class TestLatencyModel:
    def test_intra_region_base(self):
        model = LatencyModel()
        assert model.base_one_way("us-west", "us-west") == INTRA_REGION_ONE_WAY

    def test_cross_region_base_is_symmetric(self):
        model = LatencyModel()
        for a in AZURE_REGIONS:
            for b in AZURE_REGIONS:
                assert model.base_one_way(a, b) == model.base_one_way(b, a)

    def test_cross_region_much_slower_than_intra(self):
        model = LatencyModel()
        for a in AZURE_REGIONS:
            for b in AZURE_REGIONS:
                if a != b:
                    assert model.base_one_way(a, b) > 100 * model.intra

    def test_unknown_pair_uses_default(self):
        model = LatencyModel(default_cross=0.2)
        assert model.base_one_way("mars", "venus") == 0.2

    def test_jitter_bounds(self, sim):
        net = Network(sim, LatencyModel(jitter_frac=0.1))
        base = net.latency.base_one_way("us-west", "asia-east")
        arrivals = []
        for _ in range(200):
            send(net, "us-west", "asia-east", lambda: arrivals.append(sim.now))
        sim.run()
        assert len(arrivals) == 200 and len(set(arrivals)) > 1
        assert all(base <= t <= base * 1.1 for t in arrivals)

    def test_zero_jitter_is_deterministic(self, sim):
        net = Network(sim, LatencyModel(jitter_frac=0.0))
        arrivals = []
        for _ in range(3):
            send(net, "us-west", "asia-east", lambda: arrivals.append(sim.now))
        state = sim.rng.getstate()
        sim.run()
        base = net.latency.base_one_way("us-west", "asia-east")
        assert arrivals == [base] * 3 and sim.rng.getstate() == state

    def test_custom_matrix(self):
        model = LatencyModel(cross={frozenset(("a", "b")): 0.5})
        assert model.base_one_way("a", "b") == 0.5


class TestNetwork:
    def test_delivery_delayed_by_latency(self, sim):
        net = Network(sim, LatencyModel(jitter_frac=0.0))
        seen = []
        send(net, "us-west", "us-west", lambda: seen.append(sim.now))
        sim.run()
        assert seen == [pytest.approx(INTRA_REGION_ONE_WAY)]

    def test_cross_region_delivery_slower(self, sim):
        net = Network(sim, LatencyModel(jitter_frac=0.0))
        times = {}
        send(net, "us-west", "us-west", lambda: times.setdefault("intra", sim.now))
        send(net, "us-west", "asia-east", lambda: times.setdefault("cross", sim.now))
        sim.run()
        assert times["cross"] > times["intra"] * 100

    def test_messages_counted(self, sim):
        net = Network(sim)
        for _ in range(5):
            send(net, "us-west", "us-west", lambda: None)
        sim.run()
        assert net.messages_sent == 5

    def test_delivery_passes_args(self, sim):
        net = Network(sim)
        seen = []
        send(net, "us-west", "us-west", lambda a, b: seen.append(a + b), 1, 2)
        sim.run()
        assert seen == [3]
