"""Tests for the router and closed-loop clients."""

import random

import pytest

from repro.workload.client import Client, Router
from repro.workload.ycsb import YcsbConfig, YcsbWorkload
from tests.conftest import make_cluster


@pytest.fixture
def pair():
    cluster = make_cluster("marlin", num_nodes=2)
    cluster.run(until=0.05)
    return cluster


def start_clients(cluster, count=4, seed=0, request_timeout=5.0, **ycsb_kwargs):
    router = Router(cluster.assignment_from_views())
    workload = YcsbWorkload(cluster.gmap, YcsbConfig(**ycsb_kwargs))
    clients = [
        Client(
            cluster.sim, cluster.network, "us-west", router, workload,
            cluster.metrics, cluster.gmap, seed=seed + i,
            request_timeout=request_timeout,
        )
        for i in range(count)
    ]
    for c in clients:
        c.start()
    return router, clients


class TestRouter:
    def test_route_known_granule(self):
        router = Router({0: 1, 1: 2})
        assert router.route(0) == 1
        assert router.route(1) == 2

    def test_unknown_granule_raises(self):
        with pytest.raises(KeyError):
            Router({}).route(5)

    def test_update_learns_hint(self):
        router = Router({0: 1})
        router.update(0, 3)
        assert router.route(0) == 3
        assert 3 in router.known_nodes
        assert router.redirects == 1

    def test_sync_bulk_refresh(self):
        router = Router({0: 1, 1: 1})
        router.sync({0: 2, 1: 2})
        assert router.route(0) == 2
        assert router.known_nodes == {2}

    def test_any_node_excludes(self):
        router = Router({0: 1, 1: 2})
        rng = random.Random(0)
        for _ in range(20):
            assert router.any_node(rng, exclude=1) == 2

    def test_any_node_falls_back_when_only_excluded(self):
        router = Router({0: 1})
        rng = random.Random(0)
        assert router.any_node(rng, exclude=1) == 1

    def test_any_node_cache_tracks_membership_changes(self):
        router = Router({0: 1})
        rng = random.Random(0)
        assert router.any_node(rng) == 1
        router.update(1, 5)
        assert {router.any_node(rng) for _ in range(30)} == {1, 5}
        router.sync({0: 7, 1: 7})
        assert {router.any_node(rng) for _ in range(30)} == {7}

    def test_any_node_exclude_unknown_node_uses_full_set(self):
        router = Router({0: 1, 1: 2})
        rng = random.Random(0)
        assert {router.any_node(rng, exclude=99) for _ in range(30)} == {1, 2}


class TestClient:
    def test_clients_commit_transactions(self, pair):
        _router, clients = start_clients(pair)
        pair.run(until=1.0)
        for c in clients:
            c.stop()
        assert pair.metrics.total_committed > 50
        assert all(c.committed > 0 for c in clients)

    def test_latency_recorded(self, pair):
        _router, clients = start_clients(pair, count=2)
        pair.run(until=1.0)
        for c in clients:
            c.stop()
        stats = pair.metrics.latency_stats()
        assert 0 < stats["p50"] < 0.5

    def test_closed_loop_one_txn_at_a_time(self, pair):
        """A single client's commits never exceed time/latency bound."""
        _router, clients = start_clients(pair, count=1)
        pair.run(until=1.0)
        clients[0].stop()
        floor = pair.metrics.latency_stats()["p50"]
        assert clients[0].committed <= 1.0 / floor * 1.5

    def test_stale_router_recovers_via_hint(self, pair):
        """Point every granule at node 0; misroutes redirect to node 1."""
        router, clients = start_clients(pair, count=2)
        for granule in list(router.map):
            router.map[granule] = 0
        pair.run(until=1.0)
        for c in clients:
            c.stop()
        assert router.redirects > 0
        assert pair.metrics.total_committed > 10
        assert pair.metrics.abort_reasons.get("wrong_node", 0) > 0

    def test_client_retries_through_node_freeze(self, pair):
        """Without failover, txns on the dead node's granules retry forever
        (the paper's clients never give up); timeouts are recorded."""
        router, clients = start_clients(pair, count=2, request_timeout=0.2)
        pair.run(until=0.5)
        retries_before = sum(c.retries for c in clients)
        pair.fail_node(1)
        pair.run(until=2.0)
        for c in clients:
            c.stop()
        assert pair.metrics.abort_reasons.get("timeout", 0) > 0
        assert sum(c.retries for c in clients) > retries_before

    def test_failover_unblocks_clients(self):
        """With ring detection on, commits resume after the failover."""
        cluster = make_cluster(
            "marlin", num_nodes=3, num_keys=3072, failure_detection=True
        )
        cluster.run(until=0.05)
        _router, clients = start_clients(cluster, count=3, request_timeout=0.2)
        cluster.run(until=0.5)
        cluster.fail_node(1)
        cluster.run(until=6.0)  # detection + recovery
        checkpoint = cluster.metrics.total_committed
        cluster.run(until=8.0)
        for c in clients:
            c.stop()
        assert cluster.metrics.failovers
        assert cluster.metrics.total_committed > checkpoint

    def test_stop_halts_issue_loop(self, pair):
        _router, clients = start_clients(pair, count=1)
        pair.run(until=0.5)
        clients[0].stop()
        count = pair.metrics.total_committed
        pair.run(until=1.5)
        assert pair.metrics.total_committed == count
