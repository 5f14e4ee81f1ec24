"""The discrete-event simulation engine."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised on scheduling violations such as scheduling into the past."""


class Simulator:
    """Discrete-event simulator with monotonic virtual time.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, handler, "payload")
        sim.run(until=10.0)

    The engine guarantees that callbacks observe a non-decreasing
    :attr:`now` and that same-time events run in (priority, insertion)
    order.
    """

    def __init__(self, start_time: float = 0.0, telemetry=None) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self._running = False
        self._processed = 0
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry
        if telemetry.enabled:
            # Spans recorded anywhere while this simulator exists are
            # stamped with its virtual clock (last simulator wins).
            telemetry.tracer.bind_clock(lambda: self._now)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def running(self) -> bool:
        """True while :meth:`run` is executing events."""
        return self._running

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule *callback(\\*args)* to run ``delay`` after :attr:`now`.

        Args:
            delay: non-negative offset from the current time.
            callback: function invoked when the event fires.
            priority: tie-break for same-time events; lower runs first.
            name: optional label for debugging.

        Returns:
            The :class:`Event` handle, usable with :meth:`cancel`.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = Event(
            time=self._now + delay,
            callback=callback,
            args=args,
            priority=priority,
            name=name,
        )
        return self._queue.push(event)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        name: Optional[str] = None,
    ) -> Event:
        """Schedule an event at absolute virtual time ``time``."""
        return self.schedule(
            time - self._now, callback, *args, priority=priority, name=name
        )

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event; a no-op if it already fired."""
        self._queue.cancel(event)

    def _fire_traced(self, event: Event) -> None:
        """Dispatch one event inside a ``sim.event`` span (same span
        shape from :meth:`run` and :meth:`step`, so traces are
        identical across drain strategies)."""
        with self._telemetry.tracer.span(
            "sim.event",
            name=event.name or getattr(event.callback, "__name__", "event"),
        ):
            event.fire()

    def step(self) -> bool:
        """Execute the next event. Returns False when the queue is empty."""
        try:
            event = self._queue.pop()
        except IndexError:
            return False
        self._now = event.time
        self._processed += 1
        if self._telemetry.enabled:
            self._fire_traced(event)
        else:
            event.fire()
        return True

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        Events scheduled exactly at ``until`` still run; events strictly
        later are left in the queue and the clock advances to ``until``.

        A handler that raises leaves the engine resumable: the failing
        event is consumed, the clock and queue stay consistent, and a
        subsequent :meth:`run` continues with the remaining events.

        Returns:
            The virtual time when the run stopped.

        Raises:
            SimulationError: when called re-entrantly from a handler
                (which would corrupt the run state).
        """
        if self._running:
            raise SimulationError(
                "run() called re-entrantly from an event handler"
            )
        executed = 0
        self._running = True
        try:
            while self._queue:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self._queue.peek_time()
                if until is not None and next_time > until:
                    self._now = until
                    break
                self.step()
                executed += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def reset(self, start_time: float = 0.0) -> None:
        """Clear all events and rewind the clock."""
        self._queue.clear()
        self._now = float(start_time)
        self._processed = 0
