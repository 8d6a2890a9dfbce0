"""Unit tests for the RPC layer (sync/async calls, timeouts, crashes)."""

import pytest

from repro.sim.core import Simulator, Timeout, all_of
from repro.sim.network import LatencyModel, Network
from repro.sim.rpc import RemoteError, RpcEndpoint, RpcError, RpcTimeout


@pytest.fixture
def sim():
    return Simulator(seed=5)


@pytest.fixture
def net(sim):
    return Network(sim, LatencyModel(jitter_frac=0.0))


def make_pair(sim, net, region_a="us-west", region_b="us-west"):
    client = RpcEndpoint(sim, net, "client", region_a)
    server = RpcEndpoint(sim, net, "server", region_b)
    return client, server


class TestBasicCalls:
    def test_plain_handler(self, sim, net):
        client, server = make_pair(sim, net)
        server.register("add", lambda a, b: a + b)
        assert sim.run_until(client.call("server", "add", 2, 3)) == 5

    def test_generator_handler(self, sim, net):
        client, server = make_pair(sim, net)

        def slow_echo(x):
            yield Timeout(1.0)
            return x

        server.register("echo", slow_echo)
        fut = client.call("server", "echo", "hi")
        assert sim.run_until(fut) == "hi"
        assert sim.now > 1.0

    def test_round_trip_latency(self, sim, net):
        client, server = make_pair(sim, net)
        server.register("ping", lambda: "pong")
        fut = client.call("server", "ping")
        sim.run_until(fut)
        assert sim.now == pytest.approx(2 * net.latency.intra)

    def test_cross_region_round_trip(self, sim, net):
        client, server = make_pair(sim, net, "us-west", "asia-east")
        server.register("ping", lambda: "pong")
        fut = client.call("server", "ping")
        sim.run_until(fut)
        expected = 2 * net.latency.base_one_way("us-west", "asia-east")
        assert sim.now == pytest.approx(expected)

    def test_unknown_address_fails(self, sim, net):
        client, _server = make_pair(sim, net)
        fut = client.call("nowhere", "ping")
        with pytest.raises(RpcError):
            sim.run_until(fut)

    def test_unknown_method_fails(self, sim, net):
        client, _server = make_pair(sim, net)
        fut = client.call("server", "nope")
        with pytest.raises(RpcError):
            sim.run_until(fut)

    def test_handler_exception_becomes_remote_error(self, sim, net):
        client, server = make_pair(sim, net)

        def bad():
            raise ValueError("inner")

        server.register("bad", bad)
        fut = client.call("server", "bad")
        with pytest.raises(RemoteError) as excinfo:
            sim.run_until(fut)
        assert isinstance(excinfo.value.cause, ValueError)

    def test_generator_handler_exception(self, sim, net):
        client, server = make_pair(sim, net)

        def bad():
            yield Timeout(0.5)
            raise KeyError("later")

        server.register("bad", bad)
        fut = client.call("server", "bad")
        with pytest.raises(RemoteError) as excinfo:
            sim.run_until(fut)
        assert isinstance(excinfo.value.cause, KeyError)

    def test_async_calls_overlap(self, sim, net):
        """Two async RPCs issued together complete concurrently."""
        client, server = make_pair(sim, net)

        def slow(x):
            yield Timeout(1.0)
            return x

        server.register("slow", slow)
        results = []

        def proc():
            futs = [client.call("server", "slow", i) for i in range(3)]
            values = yield all_of(sim, futs)
            results.append((values, sim.now))

        sim.spawn(proc())
        sim.run()
        values, finished = results[0]
        assert values == [0, 1, 2]
        assert finished < 1.5  # parallel, not 3 seconds


class TestTimeouts:
    def test_timeout_fires_when_server_slow(self, sim, net):
        client, server = make_pair(sim, net)

        def very_slow():
            yield Timeout(10.0)
            return "late"

        server.register("slow", very_slow)
        fut = client.call("server", "slow", timeout=1.0)
        with pytest.raises(RpcTimeout):
            sim.run_until(fut)
        assert sim.now == pytest.approx(1.0)

    def test_fast_response_cancels_timeout(self, sim, net):
        client, server = make_pair(sim, net)
        server.register("ping", lambda: "pong")
        fut = client.call("server", "ping", timeout=5.0)
        assert sim.run_until(fut) == "pong"
        sim.run()  # timeout handle must be cancelled; no crash

    def test_late_response_discarded_after_timeout(self, sim, net):
        client, server = make_pair(sim, net)

        def slow():
            yield Timeout(2.0)
            return "late"

        server.register("slow", slow)
        fut = client.call("server", "slow", timeout=0.5)
        with pytest.raises(RpcTimeout):
            sim.run_until(fut)
        sim.run()  # late reply arrives; must not double-resolve
        assert isinstance(fut.exception, RpcTimeout)


class TestCrashes:
    def test_crashed_server_drops_request(self, sim, net):
        client, server = make_pair(sim, net)
        server.register("ping", lambda: "pong")
        server.crashed = True
        fut = client.call("server", "ping", timeout=1.0)
        with pytest.raises(RpcTimeout):
            sim.run_until(fut)

    def test_crashed_server_without_timeout_never_resolves(self, sim, net):
        client, server = make_pair(sim, net)
        server.register("ping", lambda: "pong")
        server.crashed = True
        fut = client.call("server", "ping")
        sim.run()
        assert not fut.done

    def test_server_crash_mid_handler_drops_response(self, sim, net):
        client, server = make_pair(sim, net)

        def slow():
            yield Timeout(2.0)
            return "done"

        server.register("slow", slow)
        fut = client.call("server", "slow", timeout=5.0)
        sim.timer(1.0, lambda: setattr(server, "crashed", True))
        with pytest.raises(RpcTimeout):
            sim.run_until(fut)

    def test_recovered_server_serves_again(self, sim, net):
        client, server = make_pair(sim, net)
        server.register("ping", lambda: "pong")
        server.crashed = True
        fut1 = client.call("server", "ping", timeout=0.5)
        sim.run()
        assert isinstance(fut1.exception, RpcTimeout)
        server.crashed = False
        fut2 = client.call("server", "ping", timeout=0.5)
        assert sim.run_until(fut2) == "pong"

    def test_crashed_caller_sends_nothing(self, sim, net):
        client, server = make_pair(sim, net)
        served = []
        server.register("ping", lambda: served.append(1) or "pong")
        client.crashed = True
        fut = client.call("server", "ping", timeout=0.5)
        sim.run()
        assert served == []
        assert isinstance(fut.exception, RpcTimeout)


class TestCast:
    def test_cast_delivers_one_way(self, sim, net):
        client, server = make_pair(sim, net)
        seen = []
        server.register("notify", lambda msg: seen.append(msg))
        client.cast("server", "notify", "hello")
        sim.run()
        assert seen == ["hello"]

    def test_cast_to_unknown_address_is_silent(self, sim, net):
        client, _server = make_pair(sim, net)
        client.cast("nowhere", "notify", "x")
        sim.run()  # no exception

    def test_cast_to_crashed_server_dropped(self, sim, net):
        client, server = make_pair(sim, net)
        seen = []
        server.register("notify", lambda msg: seen.append(msg))
        server.crashed = True
        client.cast("server", "notify", "x")
        sim.run()
        assert seen == []


class TestRegistration:
    def test_duplicate_address_rejected(self, sim, net):
        RpcEndpoint(sim, net, "dup", "us-west")
        with pytest.raises(Exception):
            RpcEndpoint(sim, net, "dup", "us-west")

    def test_requests_served_counter(self, sim, net):
        client, server = make_pair(sim, net)
        server.register("ping", lambda: "pong")
        for _ in range(3):
            sim.run_until(client.call("server", "ping"))
        assert server.requests_served == 3
