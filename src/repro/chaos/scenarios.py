"""Canned fault schedules for the coordination pathologies that matter.

Each builder returns a plain :class:`FaultSchedule`, so scenarios compose
(``rolling_partition(...).at(t, StorageStall(...))``) and any figure
experiment can run under any of them via the harness's ``fault_schedule``
parameter.  Times are absolute sim seconds, matching the harness convention
(``scale_at`` etc.).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.chaos.events import (
    Crash,
    FaultSchedule,
    Partition,
    SlowNode,
    StorageStall,
)

__all__ = [
    "coordination_outage",
    "crash_restart_cycle",
    "gray_failure",
    "replica_link_degradation",
    "rolling_partition",
    "storage_brownout",
]


def coordination_outage(
    node_ids: Sequence[int],
    at: float = 1.0,
    duration: float = 2.0,
    service: str = "zk",
    extra_endpoints: Sequence[str] = (),
) -> FaultSchedule:
    """Partition the external coordination service endpoint itself.

    The ``Cluster.service`` actor (``"zk"`` or ``"fdb"``) is just another
    addressable endpoint, so it can be isolated like any node: every compute
    node in ``node_ids`` (plus any ``extra_endpoints``, e.g. ``"admin"``)
    loses the service for ``duration`` seconds while peers, storage and
    clients stay connected.  The baselines' *data* path survives — user
    transactions never touch the service — but every reconfiguration
    (AddNodeTxn, MigrationTxn ownership updates, failover arbitration)
    stalls until the partition heals.  Marlin has no such endpoint to lose;
    that asymmetry is the paper's availability argument in schedule form.
    """
    members = tuple(node_ids) + tuple(extra_endpoints)
    if not members:
        raise ValueError("coordination_outage needs at least one endpoint to cut off")
    return FaultSchedule().at(
        at, Partition(groups=((service,), members), duration=duration)
    )


def rolling_partition(
    node_ids: Sequence[int],
    start: float = 1.0,
    hold: float = 1.0,
    gap: float = 0.5,
) -> FaultSchedule:
    """Isolate each node in turn from the rest of the compute plane.

    Node ``node_ids[i]`` loses peer connectivity for ``hold`` seconds
    starting at ``start + i * (hold + gap)``; storage and clients stay
    reachable throughout (the paper's network-partition shape — compute
    coordination is the thing being stressed, not durability).
    """
    schedule = FaultSchedule()
    node_ids = list(node_ids)
    at = start
    for victim in node_ids:
        others = tuple(n for n in node_ids if n != victim)
        schedule.at(
            at, Partition(groups=((victim,), others), duration=hold)
        )
        at += hold + gap
    return schedule


def gray_failure(
    node: int,
    at: float = 1.0,
    duration: Optional[float] = None,
    cpu_factor: float = 16.0,
    rpc_lag: float = 0.4,
) -> FaultSchedule:
    """One node turns slow-but-alive: CPU dilated, every RPC response late.

    With ``rpc_lag`` above the detector timeout the node keeps *serving*
    (slowly) while its heartbeats miss — the classic gray failure that must
    end in RecoveryMigrTxn fencing it through its own GLog, not in a
    double-owner split.  ``duration=None`` leaves it degraded until failover
    fences it.
    """
    return FaultSchedule().at(
        at,
        SlowNode(
            node=node, cpu_factor=cpu_factor, rpc_lag=rpc_lag,
            duration=duration,
        ),
    )


def storage_brownout(
    region: str,
    at: float = 1.0,
    stall: float = 0.5,
    repeat: int = 1,
    gap: float = 1.0,
) -> FaultSchedule:
    """``repeat`` storage stall windows of ``stall`` seconds, ``gap`` apart."""
    schedule = FaultSchedule()
    for i in range(repeat):
        schedule.at(at + i * (stall + gap), StorageStall(region=region, duration=stall))
    return schedule


def replica_link_degradation(
    primary: int,
    followers: Sequence[int],
    at: float = 1.0,
    duration: float = 2.0,
    stall_region: Optional[str] = None,
    stall: float = 0.5,
) -> FaultSchedule:
    """Degrade one primary's replica-ship paths without killing anything.

    Asymmetric partition: messages *into* the follower group are blocked, so
    the primary's ``repl_ship`` RPCs (and their retries) die on the wire
    while the followers can still send — heartbeats keep flowing and no
    failover fires.  sync_quorum commits stall against the quorum gate for
    ``duration`` seconds; async silently accrues ship lag (visible later as
    ``rpo_bytes`` if the primary dies before the lag drains).  An optional
    ``stall_region`` adds a storage brownout under the follower side, the
    "slow replica disk" half of the degradation.
    """
    followers = tuple(followers)
    if not followers:
        raise ValueError("replica_link_degradation needs at least one follower")
    if primary in followers:
        raise ValueError(f"primary {primary} cannot be its own follower")
    schedule = FaultSchedule().at(
        at,
        Partition(
            groups=(followers, (primary,)), symmetric=False, duration=duration
        ),
    )
    if stall_region is not None:
        schedule.at(at, StorageStall(region=stall_region, duration=stall))
    return schedule


def crash_restart_cycle(
    node: int,
    at: float = 1.0,
    down_for: float = 5.0,
    rejoin: bool = True,
) -> FaultSchedule:
    """Crash a node and bring it back ``down_for`` seconds later."""
    return FaultSchedule().at(
        at, Crash(node=node, rejoin=rejoin, duration=down_for)
    )
