"""TPC-C workload generator (§6.1.3).

"TPC-C models a warehouse-centric order processing application with nine
tables and five transaction types.  All tables except ITEM are partitioned by
the warehouse ID.  The ITEM table is replicated at each server.  10% of
NEW-ORDER and 15% of PAYMENT transactions access multiple warehouses; other
transactions access data on a single server.  We use a warehouse as the unit
of migration, and each granule contains one warehouse."

Transactions are generated as key-access footprints over the nine tables:
every warehouse owns one granule's key range, and a remote stock/customer
access lands in another warehouse's granule, making the transaction
distributed (2PC across the owning nodes) exactly as in the paper's testbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.engine.granule import GranuleMap
from repro.engine.node import TxnOp, TxnSpec
from repro.workload.distributions import randbelow

__all__ = ["TpccConfig", "TpccWorkload", "TPCC_TABLES"]

TPCC_TABLES = (
    "warehouse",
    "district",
    "customer",
    "history",
    "new_order",
    "orders",
    "order_line",
    "stock",
    "item",  # replicated: always read locally, never remote
)

#: Standard TPC-C transaction mix.
DEFAULT_MIX = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)


@dataclass(frozen=True)
class TpccConfig:
    """Scaled-down TPC-C parameters (the paper shrinks warehouses to ~1 MB)."""

    districts_per_warehouse: int = 10
    #: P(NEW-ORDER accesses a remote warehouse) — 10% in the spec and paper.
    remote_new_order: float = 0.10
    #: P(PAYMENT pays through a remote warehouse's customer) — 15%.
    remote_payment: float = 0.15
    min_items: int = 5
    max_items: int = 15


class TpccWorkload:
    """Generates TPC-C transactions; warehouse == granule."""

    def __init__(
        self,
        gmap: GranuleMap,
        config: Optional[TpccConfig] = None,
        warehouse_lo: int = 0,
        warehouse_hi: Optional[int] = None,
    ):
        self.gmap = gmap
        self.config = config or TpccConfig()
        self.num_warehouses = gmap.num_granules
        self.warehouse_lo = warehouse_lo
        self.warehouse_hi = (
            self.num_warehouses if warehouse_hi is None else warehouse_hi
        )
        if not 0 <= warehouse_lo < self.warehouse_hi <= self.num_warehouses:
            raise ValueError("bad warehouse range")
        self.mix = DEFAULT_MIX
        self.generated = {name: 0 for name, _weight in DEFAULT_MIX}

    # -- key construction ----------------------------------------------------------

    def _key(self, rng: random.Random, warehouse: int) -> int:
        """A pseudo-random key inside the warehouse's granule range."""
        lo, width = self.gmap.span(warehouse)
        return lo + randbelow(rng.getrandbits, width)

    def _home_key(self, warehouse: int) -> int:
        return self.gmap.span(warehouse)[0]

    def _pick_local(self, rng: random.Random) -> int:
        return rng.randrange(self.warehouse_lo, self.warehouse_hi)

    def _pick_remote(self, rng: random.Random, home: int) -> int:
        if self.num_warehouses == 1:
            return home
        while True:
            w = rng.randrange(self.num_warehouses)
            if w != home:
                return w

    # -- transaction types ------------------------------------------------------------

    def next_txn(self, rng: random.Random) -> TxnSpec:
        point = rng.random()
        acc = 0.0
        for name, weight in self.mix:
            acc += weight
            if point < acc:
                self.generated[name] += 1
                return getattr(self, f"_{name}")(rng)
        self.generated["stock_level"] += 1
        return self._stock_level(rng)

    def _new_order(self, rng: random.Random) -> TxnSpec:
        w = self._pick_local(rng)
        ops: List[TxnOp] = [
            TxnOp(False, "warehouse", self._home_key(w)),
            TxnOp(True, "district", self._key(rng, w)),
            TxnOp(False, "customer", self._key(rng, w)),
            TxnOp(True, "orders", self._key(rng, w)),
            TxnOp(True, "new_order", self._key(rng, w)),
        ]
        n_items = rng.randint(self.config.min_items, self.config.max_items)
        remote_txn = rng.random() < self.config.remote_new_order
        for _ in range(n_items):
            ops.append(TxnOp(False, "item", self._key(rng, w)))  # replicated read
            stock_w = w
            if remote_txn and rng.random() < 0.5:
                stock_w = self._pick_remote(rng, w)
            ops.append(TxnOp(True, "stock", self._key(rng, stock_w)))
            ops.append(TxnOp(True, "order_line", self._key(rng, w)))
        return TxnSpec(ops=tuple(ops))

    def _payment(self, rng: random.Random) -> TxnSpec:
        w = self._pick_local(rng)
        customer_w = w
        if rng.random() < self.config.remote_payment:
            customer_w = self._pick_remote(rng, w)
        ops = (
            TxnOp(True, "warehouse", self._home_key(w)),
            TxnOp(True, "district", self._key(rng, w)),
            TxnOp(True, "customer", self._key(rng, customer_w)),
            TxnOp(True, "history", self._key(rng, w)),
        )
        return TxnSpec(ops=ops)

    def _order_status(self, rng: random.Random) -> TxnSpec:
        w = self._pick_local(rng)
        ops = (
            TxnOp(False, "customer", self._home_key(w)),
            TxnOp(False, "orders", self._key(rng, w)),
            TxnOp(False, "order_line", self._key(rng, w)),
        )
        return TxnSpec(ops=ops)

    def _delivery(self, rng: random.Random) -> TxnSpec:
        w = self._pick_local(rng)
        ops: List[TxnOp] = [TxnOp(True, "new_order", self._home_key(w))]
        for _ in range(self.config.districts_per_warehouse):
            ops.append(TxnOp(True, "orders", self._key(rng, w)))
            ops.append(TxnOp(True, "order_line", self._key(rng, w)))
            ops.append(TxnOp(True, "customer", self._key(rng, w)))
        return TxnSpec(ops=tuple(ops))

    def _stock_level(self, rng: random.Random) -> TxnSpec:
        w = self._pick_local(rng)
        ops: List[TxnOp] = [TxnOp(False, "district", self._home_key(w))]
        for _ in range(8):
            ops.append(TxnOp(False, "order_line", self._key(rng, w)))
            ops.append(TxnOp(False, "stock", self._key(rng, w)))
        return TxnSpec(ops=tuple(ops))

    def remote_fraction(self) -> float:
        """Expected fraction of distributed transactions (sanity metric)."""
        return 0.45 * self.config.remote_new_order + 0.43 * self.config.remote_payment
