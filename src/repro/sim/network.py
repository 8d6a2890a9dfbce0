"""Region-aware network latency model.

The paper's geo-distributed experiment (§6.5) spans four Azure regions:
US West, Asia East, UK South and Australia East.  ``AZURE_REGIONS`` carries
approximate one-way latencies between those regions (derived from public
inter-region RTT measurements); intra-region delivery uses a small datacenter
latency.  Latencies are jittered multiplicatively with the simulator's seeded
RNG, so runs remain deterministic.

Fault injection
---------------

``Network.fault_plane`` is an optional :class:`NetworkFaultPlane` consulted on
every addressed delivery: a directed reachability matrix (partitions) and a
per-link drop rate (packet loss).  It is ``None`` by default, so fault-free
runs pay one attribute check and never touch the RNG — existing seeded runs
stay bit-identical.  The plane is installed and driven by
:class:`repro.chaos.ChaosController`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro.sim.core import Simulator

__all__ = ["AZURE_REGIONS", "LatencyModel", "Network", "NetworkFaultPlane"]

US_WEST = "us-west"
ASIA_EAST = "asia-east"
UK_SOUTH = "uk-south"
AUSTRALIA_EAST = "australia-east"

AZURE_REGIONS = (US_WEST, ASIA_EAST, UK_SOUTH, AUSTRALIA_EAST)

# Approximate one-way latencies (seconds) between Azure regions.
_AZURE_ONE_WAY: Dict[FrozenSet[str], float] = {
    frozenset((US_WEST, ASIA_EAST)): 0.075,
    frozenset((US_WEST, UK_SOUTH)): 0.070,
    frozenset((US_WEST, AUSTRALIA_EAST)): 0.080,
    frozenset((ASIA_EAST, UK_SOUTH)): 0.100,
    frozenset((ASIA_EAST, AUSTRALIA_EAST)): 0.060,
    frozenset((UK_SOUTH, AUSTRALIA_EAST)): 0.125,
}

#: One-way latency between two endpoints inside the same datacenter region.
INTRA_REGION_ONE_WAY = 0.00025


class LatencyModel:
    """One-way latencies between regions (:meth:`Network.deliver_addr`
    samples the jitter).

    Parameters
    ----------
    intra:
        One-way latency between endpoints in the same region.
    cross:
        Mapping of ``frozenset({region_a, region_b})`` to one-way latency.
        Unknown pairs fall back to ``default_cross``.
    jitter_frac:
        Uniform multiplicative jitter in ``[1, 1 + jitter_frac]``.
    """

    __slots__ = ("intra", "cross", "default_cross", "jitter_frac")

    def __init__(
        self,
        intra: float = INTRA_REGION_ONE_WAY,
        cross: Optional[Dict[FrozenSet[str], float]] = None,
        default_cross: float = 0.075,
        jitter_frac: float = 0.10,
    ):
        self.intra = intra
        self.cross = dict(_AZURE_ONE_WAY if cross is None else cross)
        self.default_cross = default_cross
        self.jitter_frac = jitter_frac

    def base_one_way(self, region_a: str, region_b: str) -> float:
        if region_a == region_b:
            return self.intra
        return self.cross.get(frozenset((region_a, region_b)), self.default_cross)


class NetworkFaultPlane:
    """Mutable directed fault state consulted by :meth:`Network.deliver_addr`.

    All state is keyed by directed ``(src_addr, dst_addr)`` pairs, so
    asymmetric pathologies (a node unreachable from its monitors but able to
    send, a lossy one-way link) are expressible directly.  Drop decisions are
    drawn from ``rng`` — the chaos controller's dedicated seeded RNG — so a
    chaotic run replays bit-identically.
    """

    __slots__ = ("rng", "blocked", "loss")

    def __init__(self, rng):
        self.rng = rng
        #: Directed (src, dst) address pairs with no connectivity at all.
        self.blocked: set = set()
        #: Directed (src, dst) -> drop probability in [0, 1].
        self.loss: Dict[Tuple[str, str], float] = {}

    def on_message(self, src: Optional[str], dst: Optional[str]) -> bool:
        """Verdict for one message: ``True`` to deliver it, ``False`` to drop."""
        pair = (src, dst)
        if pair in self.blocked:
            return False
        rate = self.loss.get(pair)
        return not rate or self.rng.random() >= rate

    # -- mutation helpers (used by the chaos controller) ---------------------

    def block(self, src: str, dst: str) -> None:
        self.blocked.add((src, dst))

    def unblock(self, src: str, dst: str) -> None:
        self.blocked.discard((src, dst))

    def partition(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        """Sever both directions between every cross pair of the two groups."""
        for a in group_a:
            for b in group_b:
                self.blocked.add((a, b))
                self.blocked.add((b, a))

    def heal(self, group_a: Iterable[str], group_b: Iterable[str]) -> None:
        for a in group_a:
            for b in group_b:
                self.blocked.discard((a, b))
                self.blocked.discard((b, a))

    def set_loss(self, src: str, dst: str, rate: float) -> None:
        if rate > 0.0:
            self.loss[(src, dst)] = rate
        else:
            self.loss.pop((src, dst), None)


class Network:
    """Delivers messages between registered endpoints with modeled latency."""

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None):
        self.sim = sim
        self.latency = latency or LatencyModel()
        #: address -> endpoint; populated by :class:`repro.sim.rpc.RpcEndpoint`.
        self.endpoints: Dict[str, object] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        #: Optional :class:`NetworkFaultPlane`; ``None`` on fault-free runs.
        self.fault_plane: Optional[NetworkFaultPlane] = None
        #: Optional :class:`repro.obs.Tracer` consulted by the RPC layer;
        #: ``None`` keeps the call path at one attribute check (chaos-hook
        #: idiom — see OBSERVABILITY.md).
        self.tracer = None
        # Per-network client-id allocator (see Client): ids restart at 0 for
        # every network so endpoint addresses — and the trace tracks derived
        # from them — are identical across same-seed runs in one process.
        self._next_client_id = 0
        # Base one-way latencies memoised per (src, dst); avoids the frozenset
        # allocation of ``base_one_way`` on every message.  The memo is never
        # cleared, so the latency model is fixed once a message has been
        # sent: a model swapped in later would not be read.
        self._base: Dict[str, Dict[str, float]] = {}

    def install_fault_plane(self, rng) -> NetworkFaultPlane:
        """Attach (or return the already-attached) fault plane."""
        if self.fault_plane is None:
            self.fault_plane = NetworkFaultPlane(rng)
        return self.fault_plane

    def deliver_addr(
        self,
        src_region: str,
        dst_region: str,
        src_addr: Optional[str],
        dst_addr: Optional[str],
        fn: Callable,
        *args,
    ) -> None:
        """Schedule ``fn(*args)`` after one sampled one-way latency.

        Hot path: messages become fire-and-forget timer entries, and
        jitter sampling is skipped when ``jitter_frac == 0``, so jitterless
        runs never touch the RNG here.  Every message takes this one path
        (the program's clusters all jitter).  The fault plane, when
        installed, may drop the message (partition / packet loss).
        """
        plane = self.fault_plane
        if plane is not None and not plane.on_message(src_addr, dst_addr):
            self.messages_dropped += 1
            return
        try:
            delay = self._base[src_region][dst_region]
        except KeyError:
            delay = self.latency.base_one_way(src_region, dst_region)
            self._base.setdefault(src_region, {})[dst_region] = delay
        jitter = self.latency.jitter_frac
        if jitter > 0.0:
            delay *= 1.0 + jitter * self.sim.rng.random()
        self.messages_sent += 1
        self.sim.timer(delay, fn, *args)
