"""RPC layer on top of the simulated network.

Mirrors the paper's gRPC usage (§5): endpoints expose named methods; callers
issue synchronous calls (``result = yield ep.call(...)``) or asynchronous ones
(collect the future, yield later), exactly the ``RPC_sync/async`` notation of
Algorithm 1.  Crashed endpoints silently drop requests, so callers observe
timeouts — the failure signal that drives the paper's failover path.

Gray-failure injection: ``RpcEndpoint.degrade`` is an optional
:class:`EndpointDegradation` applied server-side to every inbound request —
a fixed processing lag, a seeded jitter component (clock slew), and a request
drop probability.  ``None`` by default; the fault-free request path pays one
attribute check.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Optional

from repro.sim.core import Future, SimError, Simulator
from repro.sim.network import Network

__all__ = [
    "EndpointDegradation",
    "RemoteError",
    "RpcEndpoint",
    "RpcError",
    "RpcTimeout",
]


class RpcError(SimError):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """The call did not complete within its timeout."""


class RemoteError(RpcError):
    """The remote handler raised; carries the original exception."""

    def __init__(self, address: str, method: str, cause: BaseException):
        super().__init__(f"{address}.{method} raised {cause!r}")
        self.address = address
        self.method = method
        self.cause = cause


class EndpointDegradation:
    """Server-side gray-failure knobs for one endpoint.

    ``lag`` delays every inbound request by a fixed amount; ``jitter`` adds a
    uniform ``[0, jitter)`` component drawn from ``rng`` (the chaos
    controller's seeded RNG — clock-slew semantics); ``drop_rate`` loses the
    request entirely (the caller's timeout fires).
    """

    __slots__ = ("lag", "jitter", "drop_rate", "rng")

    def __init__(
        self,
        lag: float = 0.0,
        jitter: float = 0.0,
        drop_rate: float = 0.0,
        rng=None,
    ):
        if (jitter > 0.0 or drop_rate > 0.0) and rng is None:
            raise SimError(
                "EndpointDegradation with jitter or drop_rate needs an rng "
                "(pass a seeded random.Random so runs stay deterministic)"
            )
        self.lag = lag
        self.jitter = jitter
        self.drop_rate = drop_rate
        self.rng = rng

    def sample_lag(self) -> float:
        if self.jitter > 0.0:
            return self.lag + self.jitter * self.rng.random()
        return self.lag


class _PendingCall:
    """Slotted per-call state: one allocation instead of two closures.

    Holds everything the response path needs — the caller's future, the
    network, the pre-resolved region pair and addresses — and exposes
    ``reply`` (server side: send the response back over the network) and
    ``respond`` (client side: settle the future) as bound methods.  The
    record also doubles as its own timeout-cancellation token
    (:meth:`Simulator.timer_token`): ``respond`` flips ``cancelled`` so the
    armed timeout entry is lazily discarded, with no separate cancel call.

    That entry stays in the cancellable heap until its deadline, so it holds
    this record and nothing else; whichever of ``respond`` and
    :func:`_pending_expired` settles the future first clears ``fut``, so an
    answered call's entry pins neither the future nor its reply (or its
    failure's traceback), and ``fut is None`` marks a settled call.
    """

    __slots__ = (
        "fut", "network", "caller_region", "callee_region",
        "caller_addr", "callee_addr", "cancelled", "span",
    )

    def __init__(
        self,
        fut: Future,
        network: Network,
        caller_region: str,
        callee_region: str,
        caller_addr: str,
        callee_addr: str,
    ):
        self.fut = fut
        self.network = network
        self.caller_region = caller_region
        self.callee_region = callee_region
        self.caller_addr = caller_addr
        self.callee_addr = callee_addr
        self.cancelled = False
        #: Trace context piggybacked on the call: ``(tracer, span_id)`` when
        #: tracing is on (set by :meth:`RpcEndpoint.call`), else ``None``.
        #: The server side reads it back via ``reply.__self__`` to parent its
        #: handler span under the client's call span.
        self.span = None

    def reply(self, value: Any, exc: Optional[BaseException]) -> None:
        # Response travels back over the network to the caller.
        self.network.deliver_addr(
            self.callee_region, self.caller_region,
            self.callee_addr, self.caller_addr,
            self.respond, value, exc,
        )

    def respond(self, value: Any, exc: Optional[BaseException]) -> None:
        fut = self.fut
        if fut is None:  # timed out already; late response discarded
            return
        self.fut = None
        self.cancelled = True  # lazily discards the armed timeout entry
        sp = self.span
        if sp is not None:
            sp[0].end(
                sp[1],
                None if exc is None else {"error": type(exc).__name__},
            )
        if exc is not None:
            fut.fail(exc)
        else:
            fut.resolve(value)


class _ServedRequest:
    """Slotted server-side state of one request whose handler suspended.

    The done-callback of the handler process: closes the serve span and sends
    the response (or surfaces a crashed one-way handler).  One small record
    per yielding request instead of a closure over six variables.
    """

    __slots__ = ("endpoint", "method", "reply", "tracer", "sid")

    def __init__(self, endpoint: "RpcEndpoint", method: str, reply, tracer, sid: int):
        self.endpoint = endpoint
        self.method = method
        self.reply = reply
        self.tracer = tracer
        self.sid = sid

    def __call__(self, fut: Future) -> None:
        exc = fut._exc
        if self.sid:
            self.tracer.end(
                self.sid,
                None if exc is None else {"error": type(exc).__name__},
            )
        endpoint = self.endpoint
        if endpoint.crashed:
            return  # crashed while handling; no response escapes
        reply = self.reply
        if reply is None:
            if exc is not None:
                raise exc  # one-way handler crashed: surface it
        elif exc is not None:
            reply(None, RemoteError(endpoint.address, self.method, exc))
        else:
            reply(fut._value, None)


class RpcEndpoint:
    """A network-addressable actor with registered method handlers.

    Handlers may be plain callables (returning a value) or generator functions
    (spawned as simulation processes); either way the caller's future resolves
    with the handler's result after a full round trip.
    """

    def __init__(self, sim: Simulator, network: Network, address: str, region: str):
        if address in network.endpoints:
            raise SimError(f"duplicate RPC address {address!r}")
        self.sim = sim
        self.network = network
        self.address = address
        self.region = region
        self.crashed = False
        #: Optional :class:`EndpointDegradation`; ``None`` on healthy nodes.
        self.degrade: Optional[EndpointDegradation] = None
        self._handlers: Dict[str, Callable] = {}
        # Unfinished handler processes; each removes itself when it finishes
        # (the ``owner`` registry of ``Simulator.spawn``).  Insertion-ordered
        # on purpose: killing in arrival order keeps crash delivery
        # deterministic (a set would iterate in id()-hash order, which varies
        # with heap state across runs in one process).
        self._live_processes: Dict[Any, None] = {}
        self.requests_served = 0
        network.endpoints[address] = self

    def register(self, method: str, handler: Callable) -> None:
        self._handlers[method] = handler

    def kill_processes(self) -> None:
        """Kill in-flight handler processes (node freeze/crash semantics)."""
        for proc in list(self._live_processes):
            proc.kill()
        # The kills are delivered on the next event cycle; dropping the
        # processes now keeps a second call from killing them twice.
        self._live_processes.clear()

    # -- client side ---------------------------------------------------------

    def call(
        self,
        address: str,
        method: str,
        *args: Any,
        timeout: Optional[float] = None,
    ) -> Future:
        """Invoke ``method(*args)`` on the endpoint at ``address``.

        Returns a future that resolves with the handler's return value, or
        fails with :class:`RemoteError` (handler raised), :class:`RpcTimeout`
        (no response in ``timeout`` seconds) or :class:`RpcError` (unknown
        address).  A crashed callee never responds: with no timeout set the
        future simply never resolves, as in a real partitioned network.
        """
        sim = self.sim
        network = self.network
        # Constant-ish future name on purpose: the old f"rpc:{addr}.{method}"
        # built a fresh string per call on the hottest path in the tree.
        fut = Future(sim, name=method)
        target = network.endpoints.get(address)
        if target is None:
            fut.fail(RpcError(f"unknown RPC address {address!r}"))
            return fut
        if self.crashed:
            # A crashed caller sends nothing; mirror the callee-crash behaviour.
            if timeout is not None:
                sim.timer(timeout, _timeout_expired, fut, address, method)
            return fut

        pending = _PendingCall(
            fut, network, self.region, target.region, self.address, address
        )
        tracer = network.tracer
        if tracer is not None:
            pending.span = (
                tracer,
                tracer.begin(self.address, "rpc:" + method,
                             args={"to": address}),
            )
        if timeout is not None:
            # The pending call is its own cancellation token; the RpcTimeout
            # itself is only materialised if the timer actually fires (the
            # common case is a reply in time, where building the exception +
            # message string would be waste).
            sim.timer_token(timeout, pending, _pending_expired, pending, method)

        network.deliver_addr(
            self.region, target.region, self.address, address,
            target._on_request, method, args, pending.reply,
        )
        return fut

    def cast(self, address: str, method: str, *args: Any) -> None:
        """One-way message: deliver and forget (no response, no failure)."""
        target = self.network.endpoints.get(address)
        if target is None or self.crashed:
            return
        self.network.deliver_addr(
            self.region, target.region, self.address, address,
            target._on_request, method, args, None,
        )

    # -- server side ---------------------------------------------------------

    def _on_request(
        self,
        method: str,
        args: tuple,
        reply: Optional[Callable[[Any, Optional[BaseException]], None]],
    ) -> None:
        degrade = self.degrade
        if degrade is not None:
            if degrade.drop_rate and degrade.rng.random() < degrade.drop_rate:
                return  # gray failure: request lost inside the node
            lag = degrade.sample_lag()
            if lag > 0.0:
                self.sim.timer(lag, self._serve, method, args, reply)
                return
        self._serve(method, args, reply)

    def _serve(
        self,
        method: str,
        args: tuple,
        reply: Optional[Callable[[Any, Optional[BaseException]], None]],
    ) -> None:
        if self.crashed:
            return  # dropped on the floor; the caller's timeout fires
        handler = self._handlers.get(method)
        if handler is None:
            if reply is not None:
                reply(None, RpcError(f"{self.address}: unknown method {method!r}"))
            return
        self.requests_served += 1
        sid = 0
        tracer = self.network.tracer
        if tracer is not None:
            parent = 0
            if reply is not None:
                # The trace context rides the _PendingCall the bound reply
                # method belongs to (casts arrive with reply=None: no parent).
                sp = reply.__self__.span
                if sp is not None:
                    parent = sp[1]
            sid = tracer.begin(self.address, "serve:" + method, parent=parent)
        try:
            result = handler(*args)
        except BaseException as exc:  # detlint: ok(DET108) — RPC serve trap: every handler failure is surfaced to the caller as RemoteError (and closes the trace span), never swallowed
            if sid:
                tracer.end(sid, {"error": type(exc).__name__})
            if reply is not None:
                reply(None, RemoteError(self.address, method, exc))
            return
        # Exact-type check (generators cannot be subclassed): cheaper than
        # inspect.isgenerator on the per-request path, and the non-generator
        # branch stays allocation-free — no Future, no Process spawn.
        if type(result) is not GeneratorType:
            if sid:
                tracer.end(sid)
            if reply is not None:
                reply(result, None)
            return
        proc = self.sim.spawn(
            result, (self.address, method), True, self._live_processes
        )
        proc.result.add_done_callback(
            _ServedRequest(self, method, reply, tracer, sid)
        )


def _timeout_expired(fut: Future, address: str, method: str) -> None:
    if not fut._done:
        fut.fail(RpcTimeout(f"{address}.{method}"))


def _pending_expired(pending: _PendingCall, method: str) -> None:
    """The armed timeout of a call still unanswered (else it was cancelled)."""
    fut, pending.fut = pending.fut, None
    _timeout_expired(fut, pending.callee_addr, method)
