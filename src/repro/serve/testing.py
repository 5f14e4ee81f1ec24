"""Deterministic in-process test harness for the serving layer.

:class:`FakeClock` is a virtual clock with the same two-method
surface as :class:`repro.serve.clock.LoopClock` (``now`` /
``call_later``) plus an explicit :meth:`FakeClock.advance`.  Driving
the dispatcher on it makes batching, hot-swap races, fault fallback,
and shutdown draining fully deterministic: no sockets, no event loop,
no real sleeps.  :meth:`FakeClock.run_due` is the event loop's next
turn — the dispatcher's lane flush (``call_later(0.0, ...)``)
"happens" there, every submit made before it rides the same batch,
and latency histograms come out exact.

:class:`ServeHarness` bundles the pieces a dispatcher test needs:
tiny untrained (``train_epochs=0`` — still deterministic) tenants, a
fake clock, a live metrics registry, and helpers for deterministic
inputs and serial parity baselines.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.dispatch import BatchPolicy, Dispatcher
from repro.serve.tenants import Tenant, TenantConfig, TenantPool, build_tenant


class FakeTimer:
    """Handle for one scheduled callback; ``cancel()`` revokes it."""

    __slots__ = ("when", "callback", "cancelled")

    def __init__(self, when: float, callback) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class FakeClock:
    """Virtual monotonic clock with an explicit ``advance``.

    Callbacks fire in ``(deadline, schedule order)`` order while the
    clock advances; a callback scheduled *during* an advance (e.g. a
    timeline tick re-arming itself) fires within the same advance if
    its deadline falls inside it.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._seq = itertools.count()
        self._heap: List = []

    def now(self) -> float:
        return self._now

    def call_later(self, delay: float, callback) -> FakeTimer:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        timer = FakeTimer(self._now + float(delay), callback)
        heapq.heappush(self._heap, (timer.when, next(self._seq), timer))
        return timer

    def advance(self, dt: float) -> int:
        """Move time forward by ``dt`` seconds, firing every due
        callback in deadline order; returns how many fired."""
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        deadline = self._now + float(dt)
        fired = 0
        while self._heap and self._heap[0][0] <= deadline:
            when, __, timer = heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            self._now = when
            timer.callback()
            fired += 1
        self._now = deadline
        return fired

    def run_due(self) -> int:
        """Fire callbacks due *now* without moving time — the event
        loop's next turn, where zero-delay callbacks run."""
        return self.advance(0.0)

    def scheduled(self) -> int:
        """Live (non-cancelled) timers still in the wheel."""
        return sum(1 for __, __, t in self._heap if not t.cancelled)


class ServeHarness:
    """Dispatcher + tiny tenants on a fake clock, ready to drive.

    Args:
        tenants: scenario names to host (tenant name == scenario).
        policy: batching knobs (default: ``max_batch=4``).
        seed: tenant build seed.
        telemetry: explicit backend; a fresh live
            :class:`repro.obs.Telemetry` by default, so metric asserts
            need no installed session.
    """

    def __init__(
        self,
        tenants: Sequence[str] = ("fall", "hvac"),
        policy: Optional[BatchPolicy] = None,
        seed: int = 0,
        telemetry=None,
    ) -> None:
        if telemetry is None:
            from repro.obs.runtime import Telemetry

            telemetry = Telemetry()
        self.telemetry = telemetry
        self.clock = FakeClock()
        self.policy = policy or BatchPolicy(max_batch=4)
        self.pool = TenantPool([
            self.build_tenant(name, seed=seed) for name in tenants
        ])
        self.dispatcher = Dispatcher(
            self.pool, self.policy, self.clock, telemetry=self.telemetry
        )
        self._input_rngs: Dict[str, np.random.Generator] = {}

    def build_tenant(self, scenario: str, name: Optional[str] = None,
                     seed: int = 0) -> Tenant:
        """A fast (untrained) tenant wired to the harness telemetry."""
        return build_tenant(
            TenantConfig(
                name=name or scenario, scenario=scenario, seed=seed,
                train_epochs=0,
            ),
            telemetry=self.telemetry,
        )

    def make_input(self, tenant: str) -> np.ndarray:
        """Next deterministic input for ``tenant`` (per-tenant RNG
        substream, so interleavings don't change the values)."""
        rng = self._input_rngs.get(tenant)
        if rng is None:
            rng = self._input_rngs[tenant] = np.random.default_rng(
                zlib.crc32(tenant.encode("utf-8"))
            )
        shape = self.pool.require(tenant).input_shape
        return rng.normal(size=shape)

    def submit(self, tenant: str, x: Optional[np.ndarray] = None):
        if x is None:
            x = self.make_input(tenant)
        return self.dispatcher.submit(tenant, x)

    def advance(self, dt: float) -> int:
        return self.clock.advance(dt)

    def run_due(self) -> int:
        return self.clock.run_due()

    def drain(self) -> None:
        self.dispatcher.drain()

    # -- assertions helpers --------------------------------------------------
    def direct(self, tenant: str, xs: Sequence[np.ndarray]) -> np.ndarray:
        """Serial baseline logits for ``xs`` (one stacked direct forward
        on the tenant's executor; bitwise equal to each row served)."""
        return self.pool.require(tenant).direct_forward(
            np.stack(list(xs), axis=0)
        )

    def metric(self, name: str, **labels) -> float:
        return self.telemetry.metrics.value(name, **labels)

    def metric_total(self, name: str) -> float:
        return self.telemetry.metrics.total(name)

    def batch_size_mass(self) -> float:
        """Total observation mass (sum of observed batch sizes) of the
        ``serve.batch_size`` histogram across tenants — by the pinned
        invariant, equals ``serve.requests``."""
        out = 0.0
        for name, __, instrument in self.telemetry.metrics.series():
            if name == "serve.batch_size":
                out += instrument.sum
        return out
