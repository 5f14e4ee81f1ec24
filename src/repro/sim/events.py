"""Event and event-queue primitives for the discrete-event simulator."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass(order=False)
class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, sequence)`` so that ties at the
    same virtual time are broken first by explicit priority (lower runs
    first) and then by insertion order, which keeps runs deterministic.
    """

    time: float
    callback: Callable[..., None]
    args: tuple = ()
    priority: int = 0
    sequence: int = field(default=0, compare=False)
    cancelled: bool = field(default=False, compare=False)
    name: Optional[str] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback with the stored arguments."""
        self.callback(*self.args)

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.sequence)


class EventQueue:
    """Binary-heap priority queue of :class:`Event` objects.

    Cancelled events stay in the heap and are discarded lazily on pop,
    which makes :meth:`cancel` O(1).
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (so callers can keep a handle)."""
        event.sequence = next(self._counter)
        heapq.heappush(self._heap, (event.sort_key, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel an event previously pushed onto this queue."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        while self._heap:
            __, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise IndexError("pop from empty EventQueue")

    def peek_time(self) -> float:
        """Return the time of the earliest live event without removing it.

        Raises:
            IndexError: if the queue holds no live events.
        """
        while self._heap and self._heap[0][1].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0][1].time

    def clear(self) -> None:
        """Drop every event, live or cancelled."""
        self._heap.clear()
        self._live = 0
