"""The §6.2 scale-out family: one run per system, shared by Figures 8-10.

Paper parameters (SO8-16 on YCSB): 800 clients, 24 GB table (~200K granules,
~100K migrations), 8 -> 16 nodes at t=10 s.  Scaled defaults here: 100
clients, 12,500 granules (~6,250 migrations), scale-out at t=5 s; see
EXPERIMENTS.md for the scale-factor rationale.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.figure import Grid
from repro.experiments.harness import scaled
from repro.experiments.spec import ScenarioSpec, scale_out_spec

__all__ = ["DEFAULT_SYSTEMS", "GRID", "family_spec"]

DEFAULT_SYSTEMS = ("marlin", "zk-small", "zk-large")

#: Paper-shape defaults at scale=1.0.
BASE_CLIENTS = 100
BASE_GRANULES = 12_500
SCALE_AT = 5.0


def family_spec(
    system: str,
    scale: float = 1.0,
    workload: str = "ycsb",
    seed: int = 1,
    granules: Optional[int] = None,
    clients: Optional[int] = None,
) -> ScenarioSpec:
    """The §6.2 8->16 scale-out cell for one system, as a spec."""
    return scale_out_spec(
        system,
        initial_nodes=8,
        added_nodes=8,
        clients=clients if clients is not None else BASE_CLIENTS,
        granules=(
            granules if granules is not None else scaled(BASE_GRANULES, scale)
        ),
        scale_at=SCALE_AT,
        tail=5.0,
        workload=workload,
        seed=seed,
        name=f"family-{workload}-{system}",
    )


#: One run per system, shared by fig8/fig9/fig10.  ``scale`` shrinks the
#: table (and so the migration volume); the client population stays at the
#: paper's saturation point by default — the 2x post-scale-out throughput
#: jump of Figure 9 requires the 8-node cluster to be overloaded, which is a
#: clients-to-capacity ratio, not a data size.  Override ``clients`` for
#: quick shape tests.
GRID = Grid(
    "family", {"system": DEFAULT_SYSTEMS, "clients": (None,)}, family_spec
)
