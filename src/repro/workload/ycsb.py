"""YCSB workload generator (§6.1.3).

"Each transaction is single-site and has 16 requests with 50% reads and 50%
updates accessing 16 tuples.  We generate requests following a uniform
distribution."  Single-site means all 16 keys fall in one granule — the
home granule — so user transactions conflict with a migration exactly when
it targets their granule, reproducing the interference in Figures 8-9.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.engine.granule import GranuleMap
from repro.engine.node import TxnOp, TxnSpec
from repro.workload.distributions import Uniform, Zipfian, randbelow

__all__ = ["YcsbConfig", "YcsbWorkload"]

TABLE = "usertable"


@dataclass(frozen=True)
class YcsbConfig:
    requests_per_txn: int = 16
    read_fraction: float = 0.5
    distribution: str = "uniform"  # "uniform" | "zipfian"
    zipf_theta: float = 0.99
    #: Fraction of transactions that are global-counter increments: blind
    #: commutative writes drawn from the *full* keyspace (cross-granule,
    #: cross-node by construction), eligible for the coordination-free
    #: fast path instead of 2PC.
    incr_fraction: float = 0.0
    #: Fraction of (non-increment) transactions that also write a second,
    #: globally-random granule — ordinary read/write ops, so they *must*
    #: take the full 2PC path.  Off by default: the paper's YCSB is
    #: single-site.
    remote_fraction: float = 0.0


class YcsbWorkload:
    """Generates single-site YCSB transactions over a granule-partitioned table."""

    def __init__(
        self,
        gmap: GranuleMap,
        config: Optional[YcsbConfig] = None,
        key_lo: int = 0,
        key_hi: Optional[int] = None,
    ):
        self.gmap = gmap
        self.config = config or YcsbConfig()
        self.key_lo = key_lo
        self.key_hi = gmap.num_keys if key_hi is None else key_hi
        if not 0 <= key_lo < self.key_hi <= gmap.num_keys:
            raise ValueError(f"bad key range [{key_lo}, {key_hi})")
        span = self.key_hi - self.key_lo
        if self.config.distribution == "uniform":
            self._picker = Uniform(span)
        elif self.config.distribution == "zipfian":
            self._picker = Zipfian(span, self.config.zipf_theta)
        else:
            raise ValueError(f"unknown distribution {self.config.distribution!r}")

    def next_txn(self, rng: random.Random) -> TxnSpec:
        """One single-site transaction: 16 ops inside one random granule."""
        config = self.config
        if config.incr_fraction and rng.random() < config.incr_fraction:
            return self._incr_txn(rng)
        home_key = self.key_lo + self._picker.sample(rng)
        gmap = self.gmap
        lo, width = gmap.span(gmap.granule_of(home_key))
        getrandbits, coin = rng.getrandbits, rng.random
        read_fraction = config.read_fraction
        # The home key leads so routing targets the right granule; it takes
        # the place of the first op's key draw, which is still consumed.
        randbelow(getrandbits, width)
        ops = [TxnOp(coin() >= read_fraction, TABLE, home_key)]
        for _ in range(config.requests_per_txn - 1):
            key = lo + randbelow(getrandbits, width)
            ops.append(TxnOp(coin() >= read_fraction, TABLE, key))
        if config.remote_fraction and coin() < config.remote_fraction:
            # Redirect the tail of the transaction at a second, globally
            # random granule: plain writes, so the commit needs 2PC.
            lo, width = gmap.span(
                gmap.granule_of(randbelow(getrandbits, gmap.num_keys))
            )
            spill = max(1, len(ops) // 4)
            for i in range(len(ops) - spill, len(ops)):
                ops[i] = TxnOp(True, TABLE, lo + randbelow(getrandbits, width))
        return TxnSpec(tuple(ops))

    def _incr_txn(self, rng: random.Random) -> TxnSpec:
        """A global-counter transaction: blind increments across the whole
        keyspace (deliberately *not* restricted to this client's range), so
        its ops routinely span granules owned by different nodes.  The home
        key stays in-range for correct routing; the rest are global."""
        home_key = self.key_lo + self._picker.sample(rng)
        getrandbits, num_keys = rng.getrandbits, self.gmap.num_keys
        ops = [TxnOp(True, TABLE, home_key, True)]
        for _ in range(self.config.requests_per_txn - 1):
            ops.append(TxnOp(True, TABLE, randbelow(getrandbits, num_keys), True))
        return TxnSpec(tuple(ops))
