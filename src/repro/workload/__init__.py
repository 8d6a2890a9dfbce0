"""Workload substrate: YCSB and TPC-C generators, closed-loop clients (§6.1.3).

Clients run in interactive mode: a new transaction is issued only after the
previous response arrives; aborted transactions are retried with exponential
backoff (bounded at 100 ms) until they succeed, as in §6.1.4.
"""

from repro.workload.client import Client, Router
from repro.workload.distributions import Uniform, Zipfian
from repro.workload.tpcc import TpccConfig, TpccWorkload
from repro.workload.ycsb import YcsbConfig, YcsbWorkload

__all__ = [
    "Client",
    "Router",
    "TpccConfig",
    "TpccWorkload",
    "Uniform",
    "YcsbConfig",
    "YcsbWorkload",
    "Zipfian",
]
