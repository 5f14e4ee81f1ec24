"""Structured fault/degradation traces.

Every injected fault (crash, recovery, brownout, clock drift, link
drop/corruption/duplication) and every degradation decision the
resilient executor takes (retry, timeout, stale-activation fallback,
zero fallback, skipped weight update) is appended to a
:class:`FaultTrace` as a :class:`TraceRecord`.  Tests and benchmarks
assert on *how* the system failed, not just that it survived, so the
trace serializes canonically: :meth:`FaultTrace.to_jsonl` is
byte-identical for two runs of the same plan and seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List


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
        return json.dumps(
            {"t": self.time, "kind": self.kind, "detail": self.detail},
            sort_keys=True,
            separators=(",", ":"),
        )


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
        """Append one record; detail values are canonicalized."""
        canonical = self._canonical
        rec = TraceRecord(
            time=float(time),
            kind=str(kind),
            detail={k: canonical(v) for k, v in sorted(detail.items())},
        )
        self._records.append(rec)
        return rec

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
        separators): byte-identical across runs of the same seed."""
        return "\n".join(r.to_json() for r in self._records)

    def digest(self) -> str:
        """SHA-256 of :meth:`to_jsonl` — a compact determinism pin."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()
