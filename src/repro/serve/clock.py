"""The serving layer's one source of time.

Everything in :mod:`repro.serve` that needs "now" or "later" goes
through a clock object with two methods::

    clock.now() -> float
    clock.call_later(delay, callback) -> handle (with .cancel())

:class:`LoopClock` is the production implementation, backed by the
running asyncio event loop's monotonic clock and timer wheel.  The
test harness substitutes :class:`repro.serve.testing.FakeClock`, a
deterministic virtual clock advanced explicitly — which is why the
batching turns, latency histograms, and shutdown races are testable
without a single real sleep.

This module is the *only* place in ``repro.serve`` allowed to touch
the event loop's timing primitives; an AST lint in the test suite
bans ``time.time``/``time.monotonic``/``time.perf_counter`` and
``asyncio.sleep`` everywhere else in the package, so no code path can
accidentally bypass the shim and break the fake-clock harness.
"""

from __future__ import annotations

import asyncio
from typing import Callable


class LoopClock:
    """Monotonic clock + timers of the running asyncio event loop.

    The loop is resolved lazily per call (not captured at
    construction), so a :class:`~repro.serve.http.ServeApp` can be
    built before ``asyncio.run`` starts its loop.
    """

    def now(self) -> float:
        """Seconds on the loop's monotonic clock."""
        return asyncio.get_running_loop().time()

    def call_later(self, delay: float, callback: Callable[[], None]):
        """Schedule ``callback`` after ``delay`` seconds; returns the
        loop's timer handle (``.cancel()`` to revoke)."""
        return asyncio.get_running_loop().call_later(delay, callback)
