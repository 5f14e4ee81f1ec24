"""Structured fault/degradation traces.

Every injected fault (crash, recovery, brownout, clock drift, link
drop/corruption/duplication) and every degradation decision the
resilient executor takes (retry, timeout, stale-activation fallback,
zero fallback, skipped weight update) is appended to a
:class:`FaultTrace` as a :class:`TraceRecord`.  Tests and benchmarks
assert on *how* the system failed, not just that it survived, so the
trace serializes canonically: :meth:`FaultTrace.to_jsonl` is
byte-identical for two runs of the same plan and seed.

Each record's canonical line is built once and kept on the record
(:attr:`TraceRecord.line`).  A chaos cell logs ~250 records, yet the
32 cells of a benchmark campaign (8 plan seeds x 4 loss rates) share
~250 distinct ``(kind, detail)`` pairs: the time is the one field that
keeps changing.  So a record whose detail values are all exact ``int``
or ``str`` takes its line's head (everything before the time) from a
process-wide cache, and appends ``repr(time)`` and ``}``.
:meth:`FaultTrace.digest` and :meth:`FaultTrace.to_jsonl` join the
stored lines.  :meth:`TraceRecord.to_json` stays the oracle:
:meth:`FaultTrace.record_reference` and
:meth:`FaultTrace.digest_reference` are the pre-optimization paths the
parity tests compare against.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Tuple

#: The canonical record encoder (sorted keys, compact separators),
#: shared: ``json.dumps`` with non-default settings builds a new
#: encoder on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Detail value types that are already canonical and encode the same
#: way in every record: exact types only (``bool`` and numpy integers
#: are hash-equal to ints but encode differently).
_PLAIN_TYPES = frozenset((int, str))

#: ``(kind, sorted detail items)`` -> the canonical line up to and
#: including ``"t":``.  A pure function of its key, shared by every
#: trace in the process and cleared when full.
_HEADS: Dict[Tuple[str, tuple], str] = {}
_HEADS_MAX = 4096


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped fault or degradation event.

    Attributes:
        time: virtual time the event was recorded at.
        kind: dotted event type, e.g. ``"fault.crash"``,
            ``"link.drop"``, ``"degrade.stale"``, ``"retry.timeout"``.
        detail: JSON-serializable payload (node ids, layers, counts).
    """

    time: float
    kind: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """The canonical line, encoded from the fields (the oracle)."""
        return _ENCODER.encode(
            {"t": self.time, "kind": self.kind, "detail": self.detail}
        )

    @cached_property
    def line(self) -> str:
        """The canonical line, encoded once per record object:
        :meth:`FaultTrace.record` sets it from the head cache, any
        other record encodes it with :meth:`to_json` on first use."""
        return self.to_json()

    @classmethod
    def _with_line(
        cls, time: float, kind: str, detail: Dict[str, object], line: str
    ) -> "TraceRecord":
        """A record whose :attr:`line` is already known.  Fills the
        instance dict in one update, as unpickling does: the frozen
        ``__init__`` sets each field through ``object.__setattr__``,
        which costs more than the rest of :meth:`FaultTrace.record`."""
        rec = object.__new__(cls)
        vars(rec).update(time=time, kind=kind, detail=detail, line=line)
        return rec


class FaultTrace:
    """Append-only, deterministically serializable event log."""

    def __init__(self) -> None:
        # The tracer's canonicalizer, bound lazily (no module outside
        # repro.obs imports it at module scope).
        from repro.obs.trace import canonical_value

        self._canonical = canonical_value
        self._records: List[TraceRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __getitem__(self, index) -> TraceRecord:
        return self._records[index]

    @property
    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def record(self, time: float, kind: str, **detail) -> TraceRecord:
        """Append one record; detail values are canonicalized.

        When every detail value is an exact ``int`` or ``str`` and the
        time is finite, the values are canonical as they are and the
        record's line is the cached head plus ``repr(time)`` and
        ``}`` (byte-equal to :meth:`TraceRecord.to_json`).  Any other
        record takes :meth:`record_reference`.
        """
        time = float(time)
        if not (_PLAIN_TYPES.issuperset(map(type, detail.values()))
                and math.isfinite(time)):
            return self.record_reference(time, kind, **detail)
        kind = str(kind)
        items = tuple(sorted(detail.items()))
        key = (kind, items)
        head = _HEADS.get(key)
        if head is None:
            if len(_HEADS) >= _HEADS_MAX:
                _HEADS.clear()
            # "t" sorts last, so the oracle's line ends in '"t":0.0}'.
            head = _HEADS[key] = TraceRecord(0.0, kind, dict(items)) \
                .to_json()[:-len("0.0}")]
        rec = TraceRecord._with_line(
            time, kind, dict(items), head + repr(time) + "}"
        )
        self._records.append(rec)
        return rec

    def record_reference(
        self, time: float, kind: str, **detail
    ) -> TraceRecord:
        """Pre-optimization :meth:`record`: every detail value goes
        through the recursive canonicalizer, and the line is encoded
        by :meth:`TraceRecord.to_json` when first needed."""
        canonical = self._canonical
        rec = TraceRecord(
            time=float(time),
            kind=str(kind),
            detail={k: canonical(v) for k, v in sorted(detail.items())},
        )
        self._records.append(rec)
        return rec

    def append(self, rec: TraceRecord) -> None:
        """Append an existing record again (records are frozen, so one
        event repeated at one instant can share a single object, and
        its one line)."""
        self._records.append(rec)

    def of_kind(self, prefix: str) -> List[TraceRecord]:
        """Records whose kind equals or starts with ``prefix``
        (``"fault"`` matches ``"fault.crash"``)."""
        return [
            r
            for r in self._records
            if r.kind == prefix or r.kind.startswith(prefix + ".")
        ]

    def summary(self) -> Dict[str, int]:
        """Count of records per kind, in first-seen order."""
        counts: Dict[str, int] = {}
        for r in self._records:
            counts[r.kind] = counts.get(r.kind, 0) + 1
        return counts

    def times(self) -> List[float]:
        return [r.time for r in self._records]

    def is_time_monotonic(self) -> bool:
        """True when record times never decrease — the chaos suite's
        virtual-time invariant."""
        times = self.times()
        return all(a <= b for a, b in zip(times, times[1:]))

    def to_jsonl(self) -> str:
        """Canonical JSON-lines serialization (sorted keys, compact
        separators): byte-identical across runs of the same seed.
        Joins the records' stored lines."""
        return "\n".join([r.line for r in self._records])

    def digest(self) -> str:
        """SHA-256 of :meth:`to_jsonl` — a compact determinism pin."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()

    def digest_reference(self) -> str:
        """:meth:`digest` re-encoding every record with
        :meth:`TraceRecord.to_json` (the pre-optimization path, kept
        for the parity tests and ``repro bench``'s ``fault_trace``)."""
        text = "\n".join(r.to_json() for r in self._records)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
