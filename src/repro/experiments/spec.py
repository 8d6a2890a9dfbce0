"""Declarative, serializable experiment specs (the §6 grid as data).

The paper's evaluation is a grid — systems x workloads x topologies x fault
conditions — and every cell used to be a bespoke harness call.  This module
turns one cell into a :class:`ScenarioSpec`: pure data, JSON round-trippable
(``to_dict`` / ``from_dict``), composed from five orthogonal parts:

* :class:`TopologySpec` — nodes, regions, coordination mechanism, node
  parameters (a named preset plus overrides), storage latencies;
* :class:`WorkloadSpec` — workload kind, client population, table size,
  client/range binding;
* :class:`PhaseSpec` — the timeline: warmup -> timed actions (scale-out,
  client bursts, autoscaler, membership churn, ...) -> drain.  Actions are
  referenced by name and resolved in :mod:`repro.experiments.runner`'s
  registry, so specs stay serializable while figures can register custom
  actions;
* :class:`FaultSpec` — a ``repro.chaos`` fault schedule (declarative entry
  list, CHAOS.md vocabulary) plus the failure-detector parameters it is run
  against;
* :class:`ProbeSpec` — SLO probes (latency percentile ceilings, throughput
  floors, abort ceilings, unavailability windows) evaluated on the finished
  run.

:class:`Sweep` expands a base spec over named axes (``"faults.
detector_interval"``, ``"topology.coordination"``, ...) into the full grid.
``repro.experiments.runner.run_spec`` executes one spec; the ``python -m
repro.experiments`` CLI runs figures and ad-hoc spec files.  See
EXPERIMENTS.md for the format reference.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chaos.events import FaultSchedule
from repro.cluster.cluster import STATS
from repro.engine.node import NodeParams
from repro.engine.participant import EDGE_NAMES
from repro.engine.replication import ReplicationSpec
from repro.experiments.harness import EXP_NODE_PARAMS
from repro.experiments.result import PROBES

__all__ = [
    "FaultSpec",
    "NODE_PARAM_PRESETS",
    "PhaseSpec",
    "ProbeSpec",
    "ScenarioSpec",
    "Sweep",
    "TopologySpec",
    "TraceSpec",
    "WorkloadSpec",
    "scale_out_spec",
]


def _jsonify(value):
    """Tuples -> lists, recursively: canonical JSON-safe form."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


#: Named :class:`NodeParams` bases for :attr:`TopologySpec.node_params`.
#: "experiment" is the calibrated preset every figure uses (see
#: EXPERIMENTS.md "Calibration"); "default" is the engine's raw default.
NODE_PARAM_PRESETS = {
    "experiment": lambda: EXP_NODE_PARAMS,
    "default": NodeParams,
}


class _SpecBase:
    """Shared ``to_dict`` / ``from_dict`` for the flat spec dataclasses."""

    #: Fields omitted from ``to_dict`` while unset, so spec JSON that
    #: predates them (and the content-addressed cache keys derived from it)
    #: stays byte-identical.
    _OMIT_UNSET = ()

    def to_dict(self) -> Dict[str, Any]:
        data = _jsonify(asdict(self))
        for name in self._OMIT_UNSET:
            if data[name] is None:
                del data[name]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "_SpecBase":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"{cls.__name__}: unknown spec keys {sorted(unknown)}"
            )
        return cls(**data)


def _section(kind, name: str, data):
    """``kind.from_dict`` of one named section of a spec read from outside."""
    if not isinstance(data, dict):
        raise ValueError(f"spec section {name!r} must be a mapping, got {data!r}")
    return kind.from_dict(data)


def _sections(kind, name: str, items) -> list:
    items = items or ()
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"spec section {name!r} must be a list, got {items!r}")
    return [_section(kind, f"{name}[{i}]", item) for i, item in enumerate(items)]


@dataclass
class TopologySpec(_SpecBase):
    """The cluster under test: who coordinates, where, on what hardware."""

    nodes: int = 4
    coordination: str = "marlin"
    regions: Tuple[str, ...] = ("us-west",)
    #: Defaults to ``regions[0]`` (where SysLog and any external service live).
    home_region: Optional[str] = None
    #: Key into :data:`NODE_PARAM_PRESETS`.
    node_params: str = "experiment"
    #: Field overrides applied on top of the preset.
    node_param_overrides: Dict[str, Any] = field(default_factory=dict)
    storage_append_latency: Optional[float] = None
    storage_read_latency: Optional[float] = None
    provision_delay: float = 0.0
    metrics_bucket: float = 1.0
    #: Per-granule replica sets (``engine/replication.py``), as the plain
    #: dict form of :class:`repro.engine.replication.ReplicationSpec`
    #: (``{"factor": 3, "mode": "sync_quorum", "quorum": 2, ...}``) so sweep
    #: axes like ``"topology.replication.mode"`` work.  None = off.
    replication: Optional[Dict[str, Any]] = None

    _OMIT_UNSET = ("replication",)

    def __post_init__(self):
        self.regions = tuple(self.regions)
        if self.node_params not in NODE_PARAM_PRESETS:
            raise ValueError(
                f"unknown node_params preset {self.node_params!r}; "
                f"expected one of {sorted(NODE_PARAM_PRESETS)}"
            )
        # Validate eagerly so a bad sweep axis fails at expand time, not
        # deep inside a worker process.
        self.resolve_replication()

    def resolve_replication(self) -> Optional[ReplicationSpec]:
        if self.replication is None:
            return None
        return ReplicationSpec(**self.replication)

    def resolve_node_params(self) -> NodeParams:
        base = NODE_PARAM_PRESETS[self.node_params]()
        if self.node_param_overrides:
            return replace(base, **self.node_param_overrides)
        return base


@dataclass
class WorkloadSpec(_SpecBase):
    """What the clients do.  ``kind="none"`` runs a clientless scenario."""

    kind: str = "ycsb"
    clients: int = 0
    granules: int = 200
    keys_per_granule: int = 64
    #: Restrict client binding to these nodes' key ranges (default: all).
    bind_to_nodes: Optional[List[int]] = None
    #: Client RNG seed = ``ScenarioSpec.seed * client_seed_factor``, so one
    #: scenario seed drives both the cluster and the workload.
    client_seed_factor: int = 977
    #: YCSB only: fraction of transactions that are cross-granule
    #: global-counter increments (coordination-free fast-path candidates).
    incr_fraction: float = 0.0
    #: Fraction of transactions that spill to a second owner.  YCSB: the
    #: remaining (non-incr) transactions also write a second random granule
    #: — plain writes, forced through full 2PC.  TPC-C: overrides both
    #: remote-warehouse mix knobs (``remote_new_order`` / ``remote_payment``)
    #: with this value; 0.0 keeps the workload's calibrated defaults.
    remote_fraction: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ycsb", "tpcc", "none"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.bind_to_nodes is not None:
            self.bind_to_nodes = list(self.bind_to_nodes)
        for name in ("incr_fraction", "remote_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def num_keys(self) -> int:
        return self.granules * self.keys_per_granule


@dataclass
class PhaseSpec(_SpecBase):
    """One timed action on the scenario timeline.

    ``action`` names an entry in the runner's action registry
    (:data:`repro.experiments.runner.ACTIONS`): built-ins cover
    ``scale_out`` / ``scale_in`` / ``clients_start`` / ``clients_stop`` /
    ``autoscaler`` / ``membership_churn``; experiments may register more.
    Phases run in ``(at, declaration order)``; blocking actions (scale
    operations) run to completion before the timeline advances.
    """

    at: float = 0.0
    action: str = "scale_out"
    params: Dict[str, Any] = field(default_factory=dict)


#: Every FSM edge a fault point may name, participant and coordinator alike.
_FAULT_EDGES = frozenset(edge for role in EDGE_NAMES.values() for edge in role)


@dataclass
class FaultSpec(_SpecBase):
    """Chaos schedule + the detector configuration it runs against.

    ``schedule`` is the declarative entry list of
    :meth:`repro.chaos.FaultSchedule.to_spec` (CHAOS.md vocabulary); an empty
    list means "no injected faults" but still applies the detector knobs —
    that is what detector-parameter sweeps vary.
    """

    schedule: List[Dict[str, Any]] = field(default_factory=list)
    #: FSM-edge fault points: each entry arms a one-shot crash hook on one
    #: node that fires the first time that node journals the named 2PC
    #: transition after ``at`` — ``{"node": 1, "edge": "vote",
    #: "phase": "before", "at": 3.0, "rejoin_after": 0.5}``.  Edges are the
    #: :data:`repro.engine.participant.EDGE_NAMES` vocabulary; ``phase`` is
    #: ``"before"`` (WAL record not yet durable) or ``"after"``.  The node
    #: is restarted (with WAL recovery) ``rejoin_after`` seconds later.
    fault_points: List[Dict[str, Any]] = field(default_factory=list)
    failure_detection: bool = False
    detector_interval: float = 0.5
    detector_timeout: float = 0.25
    detector_misses: int = 3
    #: Gate RecoveryMigrTxn on a suspicion vote (see core/suspicion.py):
    #: a monitor that is itself suspected stands down instead of fencing.
    detector_vote_gate: bool = True
    #: Settle time after the schedule's horizon before quiescence checks.
    settle: float = 1.0

    def __post_init__(self):
        self.schedule = _jsonify(list(self.schedule))
        self.fault_points = _jsonify(list(self.fault_points))
        for point in self.fault_points:
            edge = point.get("edge")
            if edge not in _FAULT_EDGES:
                raise ValueError(f"unknown fault-point edge {edge!r}")
            phase = point.get("phase")
            if phase not in ("before", "after"):
                raise ValueError(f"unknown fault-point phase {phase!r}")
            if "node" not in point:
                raise ValueError(f"fault point needs a 'node': {point}")

    def to_schedule(self) -> Optional[FaultSchedule]:
        if not self.schedule:
            return None
        return FaultSchedule.from_spec(self.schedule)


@dataclass
class TraceSpec(_SpecBase):
    """Deterministic tracing configuration (off unless a spec carries one).

    When present (and ``enabled``), the runner attaches a
    :class:`repro.obs.Tracer` to the cluster before the run: every RPC,
    transaction, 2PC phase, WAL append, lock wait, migration, detector
    verdict and chaos action becomes a span/instant keyed by sim time, the
    run result carries the detached trace and its ``span_summary``, and
    each node keeps a bounded flight-recorder ring for failure forensics.
    Tracing is purely observational — a traced run executes the exact same
    event sequence as an untraced one.
    """

    enabled: bool = True
    #: Per-track flight-recorder ring size (last N span events kept).
    flight_recorder: int = 256
    #: Optional name prefixes; spans and instants matching none are dropped.
    filter: Optional[List[str]] = None

    def __post_init__(self):
        if self.filter is not None:
            self.filter = [str(p) for p in self.filter]
        if self.flight_recorder <= 0:
            raise ValueError(
                f"flight_recorder must be positive, got {self.flight_recorder}"
            )


@dataclass
class ProbeSpec(_SpecBase):
    """One SLO probe evaluated on the finished run.

    ``kind`` names a row of :data:`repro.experiments.result.PROBES` — what
    is read over the window (``pct`` for the percentile kinds, ``counter``
    for ``counter_max`` / ``counter_min``), whether ``threshold`` is a
    ceiling or a floor, and what an empty window reads.  EXPERIMENTS.md's
    ``ProbeSpec`` table is the same table in prose, row for row.

    ``every`` turns any probe into a *series* probe: besides the whole-window
    verdict, the probe is re-evaluated over consecutive ``every``-second
    sub-windows, and the result carries the per-window values plus the
    fraction of windows in violation (``ProbeResult.series`` /
    ``violation_fraction``).  ``every`` should be >= the topology's
    ``metrics_bucket`` — sub-bucket windows see no samples.
    """

    name: str = "slo"
    kind: str = "latency"
    threshold: float = 0.0
    pct: float = 99.0
    #: ``(t0, t1)`` absolute sim seconds; default = the whole run.
    window: Optional[Tuple[float, float]] = None
    #: Sub-window width (seconds) for the per-window probe series.
    every: Optional[float] = None
    #: ``Cluster.stats()`` key for the ``counter_max`` / ``counter_min`` kinds.
    counter: Optional[str] = None

    KINDS = tuple(PROBES)
    _OMIT_UNSET = ("counter",)

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(
                f"unknown probe kind {self.kind!r}; expected one of {self.KINDS}"
            )
        if not 0.0 <= self.pct <= 100.0:
            raise ValueError(f"probe `pct` must be in [0, 100], got {self.pct}")
        if self.window is not None:
            self.window = tuple(self.window)
            if len(self.window) != 2 or not self.window[0] < self.window[1]:
                # A reversed window selects nothing and would read as the
                # kind's vacuous empty-window verdict.
                raise ValueError(
                    f"probe `window` must be (t0, t1) with t0 < t1, "
                    f"got {self.window}"
                )
        if self.every is not None and self.every <= 0:
            raise ValueError(f"probe `every` must be positive, got {self.every}")
        if self.kind in ("counter_max", "counter_min") and self.counter not in STATS:
            raise ValueError(
                f"probe kind {self.kind!r} needs a `counter` that is a "
                f"Cluster.stats() key, got {self.counter!r}; valid: {sorted(STATS)}"
            )


@dataclass
class ScenarioSpec(_SpecBase):
    """One experiment cell: topology + workload + timeline + faults + SLOs.

    Two end-of-run modes:

    * ``duration=None`` (scale-out figures): the run ends ``tail`` seconds
      after the last phase completes, extended past any fault schedule's
      horizon — each system is measured over its own reconfiguration window
      plus a stable after-phase, mirroring the paper's methodology;
    * ``duration=T`` (dynamic / stress figures): fixed horizon, identical
      measurement window for every system.
    """

    name: str = "scenario"
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    phases: List[PhaseSpec] = field(default_factory=list)
    faults: Optional[FaultSpec] = None
    probes: List[ProbeSpec] = field(default_factory=list)
    #: Deterministic tracing; ``None`` (the default) keeps tracing fully off.
    trace: Optional[TraceSpec] = None
    seed: int = 1
    warmup: float = 0.1
    tail: float = 10.0
    duration: Optional[float] = None
    settle: float = 0.2
    check_invariants: bool = True
    #: ``run_until`` limit for blocking phase actions (scale operations).
    run_limit: float = 3600.0

    def with_(self, **kwargs) -> "ScenarioSpec":
        """A modified copy (specs compose immutably in sweeps)."""
        return replace(self, **kwargs)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "topology": self.topology.to_dict(),
            "workload": self.workload.to_dict(),
            "phases": [p.to_dict() for p in self.phases],
            "faults": self.faults.to_dict() if self.faults else None,
            "probes": [p.to_dict() for p in self.probes],
            "seed": self.seed,
            "warmup": self.warmup,
            "tail": self.tail,
            "duration": self.duration,
            "settle": self.settle,
            "check_invariants": self.check_invariants,
            "run_limit": self.run_limit,
        }
        # Tracing is observability-only: omit the key entirely when unset so
        # default spec JSON — and every cache key derived from it — is
        # byte-identical to pre-tracing specs.
        if self.trace is not None:
            data["trace"] = self.trace.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        data = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"ScenarioSpec: unknown spec keys {sorted(unknown)}")
        for name, kind in (("topology", TopologySpec), ("workload", WorkloadSpec)):
            if name in data:
                data[name] = _section(kind, name, data[name] or {})
        for name, kind in (("faults", FaultSpec), ("trace", TraceSpec)):
            if data.get(name) is not None:
                data[name] = _section(kind, name, data[name])
        for name, kind in (("phases", PhaseSpec), ("probes", ProbeSpec)):
            data[name] = _sections(kind, name, data.get(name))
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        with open(path) as f:
            return cls.from_json(f.read())


def scale_out_spec(
    system: str,
    *,
    initial_nodes: int = 8,
    added_nodes: int = 8,
    clients: int = 100,
    granules: int = 12_500,
    keys_per_granule: int = 64,
    scale_at: float = 5.0,
    tail: float = 10.0,
    workload: str = "ycsb",
    regions: Sequence[str] = ("us-west",),
    seed: int = 1,
    node_params: Optional[NodeParams] = None,
    check_invariants: bool = True,
    fault_schedule: Optional[FaultSchedule] = None,
    failure_detection: bool = False,
    chaos_settle: float = 1.0,
    probes: Sequence[ProbeSpec] = (),
    name: Optional[str] = None,
) -> ScenarioSpec:
    """The canonical §6.2-§6.4 scale-out scenario as a spec; every figure
    family builds on this shape.

    The run ends ``tail`` seconds after the last migration commits, so every
    system is measured over its own reconfiguration window plus a stable
    after-phase (mirroring the paper's fixed-duration plots).  A
    ``fault_schedule`` runs the whole scenario under chaos, extended past
    the schedule's horizon plus ``chaos_settle`` seconds; chaotic scale-outs
    usually want ``failure_detection=True`` so fenced nodes get failed over.
    """
    preset, overrides = "experiment", {}
    if node_params is not None:
        preset, overrides = "default", asdict(node_params)
    faults = None
    if fault_schedule is not None or failure_detection:
        faults = FaultSpec(
            schedule=(
                _jsonify(fault_schedule.to_spec()) if fault_schedule else []
            ),
            failure_detection=failure_detection,
            settle=chaos_settle,
        )
    return ScenarioSpec(
        name=name or f"scale-out-{system}",
        topology=TopologySpec(
            nodes=initial_nodes,
            coordination=system,
            regions=tuple(regions),
            home_region=regions[0],
            node_params=preset,
            node_param_overrides=overrides,
        ),
        workload=WorkloadSpec(
            kind=workload,
            clients=clients,
            granules=granules,
            keys_per_granule=keys_per_granule,
        ),
        phases=[
            PhaseSpec(at=scale_at, action="scale_out", params={"count": added_nodes})
        ],
        faults=faults,
        probes=list(probes),
        seed=seed,
        tail=tail,
        check_invariants=check_invariants,
    )


class Sweep:
    """A base spec expanded over named axes into the full experiment grid.

    Axis keys are dotted paths into the spec dict (``"seed"``,
    ``"topology.coordination"``, ``"faults.detector_interval"``,
    ``"phases.0.params.count"``); values are the list of settings to grid
    over.  ``expand()`` yields every combination in axis-declaration order
    (last axis fastest), each as a fresh :class:`ScenarioSpec` named
    ``base[k=v,...]``.

    Axes are validated against the base spec at construction: a path that
    does not resolve (typo, bad list index, unknown field), a duplicate
    axis, or two axes where one is a dotted prefix of the other all raise
    ``ValueError`` naming the offending path — not a confusing failure deep
    inside ``expand()``.
    """

    def __init__(self, base: ScenarioSpec, axes):
        self.base = base
        pairs = list(axes.items()) if isinstance(axes, dict) else list(axes)
        if not pairs:
            raise ValueError("Sweep needs at least one axis")
        self.axes: Dict[str, List[Any]] = {}
        for path, values in pairs:
            if path in self.axes:
                raise ValueError(f"duplicate sweep axis {path!r}")
            values = list(values)
            if not values:
                raise ValueError(f"sweep axis {path!r} has no values")
            self.axes[path] = values
        self._validate_axes()

    def _validate_axes(self) -> None:
        paths = sorted(self.axes)
        for shorter, longer in zip(paths, paths[1:]):
            if longer.startswith(shorter + "."):
                raise ValueError(
                    f"overlapping sweep axes: {longer!r} is nested inside "
                    f"{shorter!r}; sweep them through the outer axis instead"
                )
        # Probe each axis value independently against the base spec so the
        # error names the axis (and value) at fault, not the first bad
        # combination deep inside expand().
        for path, values in self.axes.items():
            for value in values:
                data = self.base.to_dict()
                try:
                    self._set_path(data, path, value)
                    ScenarioSpec.from_dict(data)
                except Exception as exc:
                    raise ValueError(
                        f"sweep axis {path!r} (value {value!r}) does not "
                        f"apply to the base spec "
                        f"({type(exc).__name__}: {exc})"
                    ) from exc

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    @staticmethod
    def _set_path(data: Dict[str, Any], path: str, value: Any) -> None:
        parts = path.split(".")
        target = data
        for part in parts[:-1]:
            if isinstance(target, list):
                target = target[int(part)]
            else:
                if target.get(part) is None:
                    target[part] = {}
                target = target[part]
        leaf = parts[-1]
        if isinstance(target, list):
            target[int(leaf)] = value
        else:
            target[leaf] = value

    @staticmethod
    def point_label(point: Dict[str, Any]) -> str:
        return ",".join(
            f"{path.rsplit('.', 1)[-1]}={value}" for path, value in point.items()
        )

    def points(self) -> Iterator[Dict[str, Any]]:
        paths = list(self.axes)
        for combo in itertools.product(*(self.axes[p] for p in paths)):
            yield dict(zip(paths, combo))

    def expand(self) -> Iterator[Tuple[Dict[str, Any], ScenarioSpec]]:
        for point in self.points():
            data = self.base.to_dict()
            for path, value in point.items():
                self._set_path(data, path, value)
            spec = ScenarioSpec.from_dict(data)
            spec.name = f"{self.base.name}[{self.point_label(point)}]"
            yield point, spec

    def run(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        cache=None,
    ) -> List[Tuple[Dict[str, Any], Any]]:
        """Run every cell; returns ``[(point, result), ...]`` in grid order.

        ``workers > 1`` or a ``timeout`` executes cells on a
        :class:`repro.experiments.parallel.ProcessPoolRunner`: results come
        back in the same deterministic cell order (keyed by index, not
        completion), seeded runs are bit-identical to the serial path, and a
        crashed / timed-out / failing cell yields a structured
        :class:`~repro.experiments.parallel.CellFailure` in its slot while
        the rest of the grid completes.  Serial mode (``workers`` None or
        <= 1, no ``timeout``) runs in-process and raises on the first failing
        cell.

        ``cache`` (a directory path or
        :class:`~repro.experiments.cache.ResultCache`) short-circuits cells
        whose content-addressed result is already stored and stores freshly
        executed ones — both serially and on a pool — so resuming an
        interrupted grid or re-summarizing a finished one re-executes only
        missed cells.  Cached summaries are bit-identical to cold runs.
        """
        from repro.experiments.parallel import run_cells

        pairs = list(self.expand())
        results = run_cells(
            [spec for _point, spec in pairs],
            workers=workers,
            timeout=timeout,
            cache=cache,
        )
        return [(point, result) for (point, _spec), result in zip(pairs, results)]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"base": self.base.to_dict(), "axes": _jsonify(dict(self.axes))}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Sweep":
        return cls(ScenarioSpec.from_dict(data["base"]), data["axes"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Sweep)
            and self.base == other.base
            and self.axes == other.axes
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Sweep({self.base.name!r}, axes={list(self.axes)}, cells={len(self)})"
