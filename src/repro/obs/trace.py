"""Sim-clock-aware hierarchical tracer.

Spans are opened as context managers (``with tracer.span("forward",
layer=3):``) and stamped with **two** clocks: the simulated time of
whatever :class:`repro.sim.Simulator` (or other clock source) is bound
via :meth:`Tracer.bind_clock`, and the wall clock.  The simulated
timestamps are what serialize by default, so a trace of a seeded run is
byte-identical across machines and re-runs — the determinism property
the test suite pins.  Wall times ride along for humans
(``include_wall=True``).

Serialization is JSON-lines where every line is a valid Chrome
trace-event object (``ph: "X"`` complete spans, ``ph: "i"`` instant
events), so a trace file wraps directly into the Chrome ``about:tracing``
/ Perfetto array format via :func:`repro.obs.report.to_chrome_json`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


def canonical_value(value):
    """Coerce an attribute value into a JSON-stable python type."""
    if type(value) in (bool, int, float, str, type(None)):
        return value  # exact types only: numpy scalars coerce below
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in value.items()}
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return canonical_value(value.item())
    return str(value)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (``phase="X"``) or instant event (``"i"``).

    Attributes:
        span_id: 1-based id, unique within the tracer.
        parent_id: enclosing span's id (0 = root).
        name: span name, e.g. ``"exec.forward"``.
        phase: Chrome phase — ``"X"`` complete span, ``"i"`` instant.
        t_start / t_end: simulated time (seconds) at open/close; equal
            for instants.
        wall_start_s / wall_end_s: wall clock at open/close (excluded
            from the canonical serialization).
        attrs: canonicalized key/value annotations.
    """

    span_id: int
    parent_id: int
    name: str
    phase: str
    t_start: float
    t_end: float
    wall_start_s: float
    wall_end_s: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_chrome(self, include_wall: bool = False) -> Dict[str, object]:
        """This record as a Chrome trace-event dict (ts/dur in µs)."""
        args = dict(self.attrs)
        args["span_id"] = self.span_id
        args["parent_id"] = self.parent_id
        if include_wall:
            args["wall_dur_us"] = round(
                (self.wall_end_s - self.wall_start_s) * 1e6, 3
            )
        event: Dict[str, object] = {
            "name": self.name,
            "cat": "repro",
            "ph": self.phase,
            "ts": round(self.t_start * 1e6, 3),
            "pid": 0,
            "tid": 0,
            "args": args,
        }
        if self.phase == "X":
            event["dur"] = round((self.t_end - self.t_start) * 1e6, 3)
        else:
            event["s"] = "t"  # instant scope: thread
        return event

    def to_json(self, include_wall: bool = False) -> str:
        return json.dumps(
            self.to_chrome(include_wall=include_wall),
            sort_keys=True,
            separators=(",", ":"),
        )


class _OpenSpan:
    """Handle yielded by :meth:`Tracer.span`; supports late
    annotations via :meth:`annotate` while the span is open."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "t_start",
                 "wall_start_s", "attrs")

    def __init__(self, tracer, span_id, parent_id, name, t_start,
                 wall_start_s, attrs):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.t_start = t_start
        self.wall_start_s = wall_start_s
        self.attrs = attrs

    def annotate(self, **attrs) -> "_OpenSpan":
        for key, value in attrs.items():
            self.attrs[key] = canonical_value(value)
        return self

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer._close(self)
        return False


class Tracer:
    """Hierarchical span recorder over a pluggable simulated clock.

    Spans nest through a stack: a span opened while another is open
    becomes its child (``parent_id``).  Finished spans are recorded in
    *completion* order — children before parents — which is the order
    Chrome trace events conventionally stream in, and is deterministic
    for a deterministic program.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._events: List[SpanRecord] = []
        self._stack: List[_OpenSpan] = []
        self._next_id = 1

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated-time source (a :class:`Simulator` binds
        ``lambda: sim.now`` on construction)."""
        self._clock = clock

    @property
    def events(self) -> List[SpanRecord]:
        """Finished spans and instants, in completion order."""
        return list(self._events)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def __len__(self) -> int:
        return len(self._events)

    def span(self, name: str, /, **attrs) -> _OpenSpan:
        """Open a span; use as a context manager. ``name`` is
        positional-only so ``name=...`` is a legal attribute."""
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else 0
        handle = _OpenSpan(
            tracer=self,
            span_id=span_id,
            parent_id=parent_id,
            name=str(name),
            t_start=float(self._clock()),
            wall_start_s=time.perf_counter(),
            attrs={k: canonical_value(v) for k, v in sorted(attrs.items())},
        )
        self._stack.append(handle)
        return handle

    def _close(self, handle: _OpenSpan) -> None:
        if not self._stack or self._stack[-1] is not handle:
            raise RuntimeError(
                f"span {handle.name!r} closed out of order"
            )
        self._stack.pop()
        self._events.append(
            SpanRecord(
                span_id=handle.span_id,
                parent_id=handle.parent_id,
                name=handle.name,
                phase="X",
                t_start=handle.t_start,
                t_end=float(self._clock()),
                wall_start_s=handle.wall_start_s,
                wall_end_s=time.perf_counter(),
                attrs=handle.attrs,
            )
        )

    def instant(self, name: str, /, **attrs) -> SpanRecord:
        """Record a zero-duration event under the current span."""
        span_id = self._next_id
        self._next_id += 1
        now = float(self._clock())
        wall = time.perf_counter()
        rec = SpanRecord(
            span_id=span_id,
            parent_id=self._stack[-1].span_id if self._stack else 0,
            name=str(name),
            phase="i",
            t_start=now,
            t_end=now,
            wall_start_s=wall,
            wall_end_s=wall,
            attrs={k: canonical_value(v) for k, v in sorted(attrs.items())},
        )
        self._events.append(rec)
        return rec

    def clear(self) -> None:
        """Drop all finished events (open spans stay open)."""
        self._events = []

    def to_jsonl(self, include_wall: bool = False) -> str:
        """Canonical JSON-lines serialization; excludes wall times by
        default so seeded runs serialize byte-identically."""
        return "\n".join(
            rec.to_json(include_wall=include_wall) for rec in self._events
        )

    def digest(self) -> str:
        """SHA-256 of :meth:`to_jsonl` — a compact determinism pin."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()


def merge_digests(digests) -> str:
    """Combined SHA-256 over an ordered sequence of per-run trace
    digests — the parent-side merge of per-worker traces.  Pass the
    digests in canonical (point-index) order; the result is then
    independent of which worker produced which digest and of their
    completion order."""
    h = hashlib.sha256()
    for digest in digests:
        h.update(str(digest).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class _NullSpan:
    """Shared no-op span handle."""

    __slots__ = ()

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: every method returns immediately and records
    nothing; :meth:`span` hands back one shared inert handle."""

    def bind_clock(self, clock) -> None:
        pass

    @property
    def events(self) -> List[SpanRecord]:
        return []

    @property
    def depth(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def span(self, name: str, /, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, /, **attrs) -> None:
        return None

    def clear(self) -> None:
        pass

    def to_jsonl(self, include_wall: bool = False) -> str:
        return ""

    def digest(self) -> str:
        return hashlib.sha256(b"").hexdigest()
