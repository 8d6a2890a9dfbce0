"""What the external coordination services share: the keyspace layout for
membership/ownership state, and service-session liveness.

Real ZooKeeper clients hold a *session* the service expires when heartbeats
stop; ephemeral znodes (and with them, leadership) vanish with the session.
FDB clients similarly keep a connection the cluster controller tracks.  The
simulated services model the liveness half of that: every compute node's
ring detector pings the service each probe round (``sess_ping``), and a
monitor that suspects a peer asks the service how stale that peer's session
is (``sess_check``) before fencing — the node side of both is
:class:`SessionGate`.

This is the baselines' analogue of Marlin's SysLog suspicion vote: a node
partitioned from its peers but *not* from the service keeps a fresh session,
so peer monitors stand down and there is no mutual fencing — matching real
ZK, where an isolated-but-sessioned leader keeps its ephemeral nodes.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.failure import Gate
from repro.sim.core import Timeout
from repro.sim.rpc import RpcError

__all__ = [
    "MEMBER_PREFIX",
    "OWNER_PREFIX",
    "ServiceSessionMixin",
    "SessionGate",
    "seed_rows",
]

#: Keyspace layout every service and its client agree on: one key per member
#: (value: RPC address) and one per granule (value: owner node id).
MEMBER_PREFIX = "/members/"
OWNER_PREFIX = "/granules/"


def seed_rows(members: Dict[int, str], assignment: Dict[int, int]) -> Dict[str, object]:
    """The service rows for a cluster's bootstrap membership and ownership
    (written straight into a service's store at t=0, no quorum round)."""
    rows: Dict[str, object] = {
        f"{MEMBER_PREFIX}{nid}": address for nid, address in members.items()
    }
    for granule, owner in assignment.items():
        rows[f"{OWNER_PREFIX}{granule}"] = owner
    return rows


class ServiceSessionMixin:
    """Session-liveness handlers mixed into the external service actors.

    The host class must provide ``self.sim``, ``self.endpoint`` and a config
    with ``read_service``; it calls :meth:`_init_sessions` at the end of its
    ``__init__``.
    """

    def _init_sessions(self) -> None:
        self._last_seen: Dict[int, float] = {}
        self.pings_served = 0
        # sess_ping is a plain (non-generator) handler: a ping costs the
        # network round trip only, like a TCP keepalive the service absorbs.
        self.endpoint.register("sess_ping", self._h_sess_ping)
        self.endpoint.register("sess_check", self._h_sess_check)

    def _h_sess_ping(self, node_id: int) -> bool:
        self._last_seen[node_id] = self.sim.now
        self.pings_served += 1
        return True

    def _h_sess_check(self, node_id: int):
        """Age of ``node_id``'s session: seconds since its last ping, or
        ``None`` if the node never pinged (no session — treat as expired)."""
        yield Timeout(self.config.read_service)
        self.reads_served += 1
        last: Optional[float] = self._last_seen.get(node_id)
        if last is None:
            return None
        return self.sim.now - last


class SessionGate(Gate):
    """Confirm a ring suspicion against the service's session view.

    Fence only if the *service* also stopped hearing from the target
    (session older than ``timeout``, or no session at all).  A target that
    is partitioned from its peers but still pings the service keeps a fresh
    session, so every monitor suspecting it backs off — no mutual fencing,
    matching real ZK ephemeral sessions.  An unreachable service is no
    evidence either way: stand down.
    """

    def __init__(self, address: str, timeout: Optional[float] = None):
        #: RPC address of the service holding the sessions.
        self.address = address
        #: A session older than this is expired; None = the ring's own
        #: patience (``miss_threshold * interval``).
        self.timeout = timeout

    def keepalive(self, detector) -> None:
        # Keep our own service session fresh (one-way keepalive).
        node = detector.runtime.node
        node.endpoint.cast(self.address, "sess_ping", node.node_id)
        detector.renewal_rpcs += 1

    def confirm(self, detector, target: int) -> Generator:
        node = detector.runtime.node
        if target not in node.member_ids():
            return False  # already fenced by someone else
        try:
            age = yield node.endpoint.call(
                self.address, "sess_check", target, timeout=4 * detector.timeout
            )
        except RpcError:
            return False
        expiry = self.timeout
        if expiry is None:
            expiry = detector.miss_threshold * detector.interval
        return age is None or age >= expiry
