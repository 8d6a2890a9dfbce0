"""Deterministic chaos engine: declarative fault schedules for the cluster.

The repro's failover machinery (§4.4.2 ring detection, RecoveryMigrTxn
fencing) is exactly the code whose correctness depends on messier faults
than an abrupt crash.  This package supplies them:

* :mod:`repro.chaos.events` — the typed fault vocabulary
  (:class:`Partition`, :class:`PacketLoss`, :class:`SlowNode`,
  :class:`StorageStall`, :class:`Crash`/:class:`Restart`,
  :class:`ClockJitter`) and :class:`FaultSchedule` timelines,
* :mod:`repro.chaos.controller` — :class:`ChaosController`, which executes
  schedules on the sim clock with every random choice drawn from a dedicated
  seeded RNG (bit-identical replays),
* :mod:`repro.chaos.scenarios` — canned schedules (rolling partitions, gray
  failures, storage brownouts) for tests, examples and experiments.

Entry point: ``cluster.chaos.run_schedule(schedule, verify_after=...)``.
See CHAOS.md for the schedule format and the determinism guarantee.
"""

from repro.chaos.controller import ChaosController
from repro.chaos.events import (
    EVENT_KINDS,
    ClockJitter,
    Crash,
    FaultEvent,
    FaultSchedule,
    PacketLoss,
    Partition,
    Restart,
    SlowNode,
    StorageStall,
)
from repro.chaos.scenarios import (
    coordination_outage,
    crash_restart_cycle,
    gray_failure,
    rolling_partition,
    storage_brownout,
)

__all__ = [
    "ChaosController",
    "ClockJitter",
    "Crash",
    "EVENT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "PacketLoss",
    "Partition",
    "Restart",
    "SlowNode",
    "StorageStall",
    "coordination_outage",
    "crash_restart_cycle",
    "gray_failure",
    "rolling_partition",
    "storage_brownout",
]
