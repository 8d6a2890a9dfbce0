"""Shared experiment machinery: figure tables, client binding.

The canonical scenario (§6.2-§6.4) is *scale-out under load*: a cluster of
``initial_nodes`` serving a static client population doubles at
``scale_at`` seconds, migrating half of every old node's granules to the new
nodes.  Since the spec redesign (ISSUE 3) the scenario itself is data — see
:func:`repro.experiments.spec.scale_out_spec` — and a single runner
(:func:`repro.experiments.runner.run_spec`) owns setup, measurement and
serialization (a finished cell is a :class:`repro.experiments.result.
RunResult`); this module keeps the shared pieces: the calibrated node
parameters, the figure table and client binding.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import Cluster
from repro.engine.node import NodeParams
from repro.workload.client import Client, Router
from repro.workload.tpcc import TpccConfig, TpccWorkload
from repro.workload.ycsb import YcsbConfig, YcsbWorkload

__all__ = [
    "EXP_NODE_PARAMS",
    "FigureResult",
    "SYSTEM_LABELS",
    "start_clients",
]

#: Calibrated compute-node parameters for all experiments; see
#: EXPERIMENTS.md "Calibration" for the derivation.
EXP_NODE_PARAMS = NodeParams(
    vcpus=4,
    cache_pages=16384,
    keys_per_page=8,
    op_cpu=0.0053,
    interactive_delay=0.0004,
    reconfig_cpu=0.00012,
    migration_workers=8,
    warmup_enabled=True,
    warmup_time_per_granule=0.15,
    group_commit_batch=64,
)

SYSTEM_LABELS = {
    "marlin": "Marlin",
    "zk-small": "S-ZK",
    "zk-large": "L-ZK",
    "fdb": "FDB",
    "lease": "Lease",
}


class FigureResult:
    """Rows of one reproduced figure plus headline findings."""

    def __init__(self, figure: str, title: str):
        self.figure = figure
        self.title = title
        self.rows: List[Dict] = []
        self.findings: Dict[str, float] = {}

    def to_dict(self, include_series: bool = True) -> Dict:
        """JSON-ready form (the ``python -m repro.experiments`` CLI output)."""
        rows = []
        for row in self.rows:
            row = dict(row)
            if not include_series:
                for key in [k for k in row if k.endswith("series")]:
                    row.pop(key)
            rows.append(row)
        return {
            "figure": self.figure,
            "title": self.title,
            "rows": rows,
            "findings": dict(self.findings),
        }

    def format_table(self) -> str:
        if not self.rows:
            return f"{self.figure}: (no rows)"
        columns = [c for c in self.rows[0] if not c.endswith("series")]
        widths = {
            c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows))
            for c in columns
        }
        lines = [f"== {self.figure}: {self.title} =="]
        lines.append("  ".join(c.ljust(widths[c]) for c in columns))
        lines.append("  ".join("-" * widths[c] for c in columns))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns)
            )
        if self.findings:
            lines.append("-- findings --")
            for key, value in self.findings.items():
                lines.append(f"  {key}: {_fmt(value)}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def start_clients(
    cluster: Cluster,
    count: int,
    workload_kind: str = "ycsb",
    seed: int = 100,
    bind_to_nodes: Optional[Sequence[int]] = None,
    incr_fraction: float = 0.0,
    remote_fraction: float = 0.0,
) -> Tuple[Router, List[Client]]:
    """Closed-loop clients bound round-robin to initial nodes' key ranges.

    Binding each client to one node's contiguous range keeps geo clients
    region-local (§6.5: "each client accessing only local compute nodes").
    """
    assignment = cluster.assignment_from_views()
    router = Router(assignment)
    node_ids = list(bind_to_nodes or cluster.live_node_ids())
    ranges = {}
    for nid in node_ids:
        owned = sorted(
            g for g, owner in assignment.items() if owner == nid
        )
        if not owned:
            # A bound node can legitimately own nothing (more nodes than
            # granules, or everything migrated away); binding a client to an
            # empty range is meaningless, so skip it rather than crash.
            warnings.warn(
                f"start_clients: node {nid} owns no granules; "
                "skipping it in the client binding",
                stacklevel=2,
            )
            continue
        lo = cluster.gmap.granule(owned[0]).lo
        hi = cluster.gmap.granule(owned[-1]).hi
        ranges[nid] = (lo, hi)
    bound_ids = [nid for nid in node_ids if nid in ranges]
    if count and not bound_ids:
        raise ValueError(
            f"start_clients: none of the bound nodes {node_ids} owns any granule"
        )
    clients = []
    for i in range(count):
        nid = bound_ids[i % len(bound_ids)]
        lo, hi = ranges[nid]
        if workload_kind == "ycsb":
            config = (
                YcsbConfig(
                    incr_fraction=incr_fraction,
                    remote_fraction=remote_fraction,
                )
                if incr_fraction or remote_fraction
                else None
            )
            workload = YcsbWorkload(cluster.gmap, config, key_lo=lo, key_hi=hi)
        elif workload_kind == "tpcc":
            # ``remote_fraction`` maps onto TPC-C's remote-warehouse mix:
            # it overrides *both* remote_new_order and remote_payment (the
            # spec's 10%/15% split collapses to one knob so a sweep axis
            # means the same thing under either workload); 0.0 keeps the
            # calibrated defaults rather than forcing an all-local mix.
            config = (
                TpccConfig(
                    remote_new_order=remote_fraction,
                    remote_payment=remote_fraction,
                )
                if remote_fraction
                else None
            )
            workload = TpccWorkload(
                cluster.gmap,
                config,
                warehouse_lo=cluster.gmap.granule_of(lo),
                warehouse_hi=cluster.gmap.granule_of(hi - 1) + 1,
            )
        else:
            raise ValueError(f"unknown workload {workload_kind!r}")
        client = Client(
            cluster.sim,
            cluster.network,
            cluster.nodes[nid].region,
            router,
            workload,
            cluster.metrics,
            cluster.gmap,
            seed=seed + i,
        )
        client.start()
        clients.append(client)
    cluster.client_count = count
    return router, clients


def scaled(value: float, scale: float, minimum: int = 1) -> int:
    """Scale an integer experiment parameter, keeping it at least ``minimum``."""
    return max(minimum, int(round(value * scale)))
