"""Micro-batching dispatcher: per-tenant request coalescing.

Concurrent ``/v1/recognize`` requests for the same tenant are
coalesced into one executor forward: the first request into an empty
lane schedules the lane's flush for the next event-loop turn, so
every request that is ready in the same turn rides one batch and a
lone request never waits.  The batch flushes early the moment it
reaches ``max_batch``.  Lanes are strictly per-tenant: one tenant's
pending turn, fault fallback, or flush never delays another tenant.

The dispatcher is deliberately loop-agnostic.  Time comes from the
clock shim (:mod:`repro.serve.clock`; the next turn is
``clock.call_later(0.0, ...)``) and completion from a pluggable
future factory, so the same object runs under the asyncio server
(loop timers + ``loop.create_future``) and under the deterministic
test harness (:class:`repro.serve.testing.FakeClock`, whose
``run_due()`` is the next turn, + plain futures) — no sockets, no
sleeps, byte-identical results.

Backpressure is a bounded lane: more than ``max_pending`` queued
requests for one tenant rejects the submit with
:class:`TenantOverloaded` (HTTP 503) instead of growing the queue
without bound.  Shutdown (:meth:`Dispatcher.drain`) flushes every
lane's in-flight requests before refusing new ones, so accepted work
is never dropped.

Telemetry (all under the installed/injected ``repro.obs`` backend):

- ``serve.requests{tenant}`` / ``serve.batches{tenant}`` counters;
- ``serve.batch_size{tenant}`` histogram — its total observation mass
  equals ``serve.requests`` (a pinned invariant of the test suite);
- ``serve.latency_s{tenant}`` histogram, measured on the serving
  clock (deterministic under the fake clock);
- ``serve.plan_runs{tenant}`` vs ``serve.plan_fallbacks{tenant,
  reason}`` — compiled-plan serving vs event-driven-oracle fallback
  accounting;
- ``serve.rejected{tenant}`` backpressure rejections;
- ``serve.pending{tenant}`` gauge — lane occupancy, published through
  a pull collector so the hot path pays nothing (sampled by the
  flight recorder at each timeline tick).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serve.tenants import TenantPool, UnknownTenant

#: ``serve.batch_size`` histogram buckets (batch sizes are small ints).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


class DispatcherClosed(RuntimeError):
    """The dispatcher has drained and refuses new work (HTTP 503)."""


class TenantOverloaded(RuntimeError):
    """A tenant's lane is full; the request was rejected (HTTP 503)."""

    def __init__(self, tenant: str, pending: int) -> None:
        self.tenant = tenant
        self.pending = pending
        super().__init__(
            f"tenant {tenant!r} overloaded: {pending} requests pending"
        )


@dataclass(frozen=True)
class BatchPolicy:
    """The dispatcher's knobs.

    Args:
        max_batch: flush as soon as this many requests are pending.
        max_pending: backpressure bound — queued (not yet flushed)
            requests per tenant beyond which submits are rejected.
    """

    max_batch: int = 8
    max_pending: int = 256

    def validate(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )


@dataclass(frozen=True)
class ServeResult:
    """What a resolved request future carries."""

    tenant: str
    logits: np.ndarray     # one row, shape (n_classes,)
    label: str
    pred: int
    served_by: str         # "plan" or "fallback:<reason>"
    batch_size: int
    latency_s: float


class PlainFuture:
    """Minimal synchronous future for the loop-free test harness."""

    __slots__ = ("_done", "_result", "_exception", "_callbacks")

    def __init__(self) -> None:
        self._done = False
        self._result = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable] = []

    def done(self) -> bool:
        return self._done

    def set_result(self, result) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._result = result
        self._fire()

    def set_exception(self, exc: BaseException) -> None:
        if self._done:
            raise RuntimeError("future already resolved")
        self._done = True
        self._exception = exc
        self._fire()

    def result(self):
        if not self._done:
            raise RuntimeError("future is still pending")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise RuntimeError("future is still pending")
        return self._exception

    def add_done_callback(self, callback: Callable) -> None:
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class _Request:
    __slots__ = ("x", "future", "t_submit")

    def __init__(self, x: np.ndarray, future, t_submit: float) -> None:
        self.x = x
        self.future = future
        self.t_submit = t_submit


class _Lane:
    """One tenant's pending requests and its scheduled flush."""

    __slots__ = ("pending", "timer")

    def __init__(self) -> None:
        self.pending: List[_Request] = []
        self.timer = None


class Dispatcher:
    """Per-tenant micro-batching over a :class:`TenantPool`.

    Args:
        pool: the tenant registry (hot-swappable; resolved per flush).
        policy: batching knobs.
        clock: ``now()``/``call_later`` provider (see
            :mod:`repro.serve.clock`).
        telemetry: explicit ``repro.obs`` backend; defaults to the
            currently installed session.
        future_factory: creates the futures :meth:`submit` returns
            (``loop.create_future`` under the server,
            :class:`PlainFuture` by default).
    """

    def __init__(
        self,
        pool: TenantPool,
        policy: BatchPolicy,
        clock,
        telemetry=None,
        future_factory: Optional[Callable] = None,
    ) -> None:
        policy.validate()
        self.pool = pool
        self.policy = policy
        self.clock = clock
        self.closed = False
        self._lanes: Dict[str, _Lane] = {}
        self._future_factory = future_factory or PlainFuture
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry
        if telemetry.enabled:
            telemetry.metrics.register_collector(self._sync_occupancy)

    def _sync_occupancy(self, metrics) -> None:
        """Pull collector: publish each lane's queued depth as the
        ``serve.pending{tenant}`` gauge (batch occupancy)."""
        for name, lane in self._lanes.items():
            metrics.gauge("serve.pending", tenant=name).set(
                len(lane.pending)
            )

    # -- intake --------------------------------------------------------------
    def pending(self, tenant: str) -> int:
        lane = self._lanes.get(tenant)
        return len(lane.pending) if lane else 0

    def submit(self, tenant_name: str, x: np.ndarray):
        """Queue one recognition request; returns its future.

        Raises synchronously on intake errors: unknown tenant
        (:class:`UnknownTenant`), wrong input shape (``ValueError``),
        full lane (:class:`TenantOverloaded`), drained dispatcher
        (:class:`DispatcherClosed`).
        """
        if self.closed:
            raise DispatcherClosed("dispatcher is drained")
        tenant = self.pool.require(tenant_name)
        x = np.asarray(x, dtype=np.float64)
        if x.shape != tenant.input_shape:
            raise ValueError(
                f"tenant {tenant_name!r} expects input shape "
                f"{tenant.input_shape}, got {x.shape}"
            )
        lane = self._lanes.get(tenant_name)
        if lane is None:
            lane = self._lanes[tenant_name] = _Lane()
        if len(lane.pending) >= self.policy.max_pending:
            tel = self._telemetry
            if tel.enabled:
                tel.metrics.counter(
                    "serve.rejected", tenant=tenant_name
                ).inc()
            raise TenantOverloaded(tenant_name, len(lane.pending))
        future = self._future_factory()
        lane.pending.append(_Request(x, future, self.clock.now()))
        if len(lane.pending) >= self.policy.max_batch:
            self._flush(tenant_name)
        elif lane.timer is None:
            # Flush on the next loop turn: whatever else is ready in
            # this turn joins the batch, and nothing waits longer.
            lane.timer = self.clock.call_later(
                0.0, lambda: self._flush(tenant_name)
            )
        return future

    # -- flushing ------------------------------------------------------------
    def _flush(self, tenant_name: str) -> None:
        lane = self._lanes.get(tenant_name)
        if lane is None:
            return
        if lane.timer is not None:
            lane.timer.cancel()
            lane.timer = None
        requests, lane.pending = lane.pending, []
        if not requests:
            return
        tenant = self.pool.get(tenant_name)
        if tenant is None:
            # Removed between queueing and the flush.
            for request in requests:
                request.future.set_exception(UnknownTenant(tenant_name))
            return
        # Hot-swap may have changed the input shape since submit; serve
        # the requests that still fit, fail the rest individually.
        batch: List[_Request] = []
        for request in requests:
            if request.x.shape == tenant.input_shape:
                batch.append(request)
            else:
                request.future.set_exception(ValueError(
                    f"tenant {tenant_name!r} was swapped to input shape "
                    f"{tenant.input_shape}; request has {request.x.shape}"
                ))
        if not batch:
            return
        k = len(batch)
        x = np.stack([request.x for request in batch], axis=0)
        tel = self._telemetry
        if tel.enabled:
            with tel.tracer.span("serve.batch", tenant=tenant_name, size=k):
                logits, served_by = tenant.infer(x)
        else:
            logits, served_by = tenant.infer(x)
        now = self.clock.now()
        if tel.enabled:
            metrics = tel.metrics
            metrics.counter("serve.requests", tenant=tenant_name).inc(k)
            metrics.counter("serve.batches", tenant=tenant_name).inc()
            metrics.histogram(
                "serve.batch_size", buckets=BATCH_BUCKETS, tenant=tenant_name
            ).observe(k)
            latency_hist = metrics.histogram(
                "serve.latency_s", tenant=tenant_name
            )
            for request in batch:
                latency_hist.observe(now - request.t_submit)
            if served_by == "plan":
                metrics.counter("serve.plan_runs", tenant=tenant_name).inc()
            else:
                metrics.counter(
                    "serve.plan_fallbacks", tenant=tenant_name,
                    reason=served_by.partition(":")[2],
                ).inc()
        for i, request in enumerate(batch):
            row = logits[i].copy()
            pred = int(row.argmax())
            request.future.set_result(ServeResult(
                tenant=tenant_name,
                logits=row,
                label=tenant.labels[pred],
                pred=pred,
                served_by=served_by,
                batch_size=k,
                latency_s=now - request.t_submit,
            ))

    def flush_all(self) -> None:
        """Flush every lane's pending requests immediately."""
        for name in sorted(self._lanes):
            self._flush(name)

    def drain(self) -> None:
        """Shutdown: serve everything in flight, then refuse new work.

        Idempotent.  Every already-accepted request's future resolves
        (with its result or error) before this returns; subsequent
        :meth:`submit` calls raise :class:`DispatcherClosed`.
        """
        if self.closed:
            return
        self.closed = True
        self.flush_all()
