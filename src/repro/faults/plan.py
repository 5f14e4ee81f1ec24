"""Fault plans: deterministic, seedable schedules of fault events.

A :class:`FaultPlan` is the single source of truth for one chaos run:
*when* nodes crash, recover, brown out, or drift, plus the link-level
fault rates (drop / corrupt / duplicate) and the seed every random
draw derives from.  Two runs of the same plan produce byte-identical
traces — the property the determinism suite pins.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

#: Recognised scheduled-event kinds.
EVENT_KINDS = ("crash", "recover", "brownout", "clock_drift")


def check_int(name: str, value, minimum: int = 0) -> None:
    """Reject ``value`` unless it is an integer (not a bool) of at
    least ``minimum``, with a ``ValueError`` naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: virtual time the fault fires.
        kind: one of :data:`EVENT_KINDS`.
        node: target node id.
        duration: brownout outage length (brownout only).
        factor: clock-rate multiplier (clock_drift only; 1.0 = none).
    """

    time: float
    kind: str
    node: int
    duration: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("time", "duration", "factor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"event {name} must be finite, got {value}")
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"kind must be one of {EVENT_KINDS}, got {self.kind!r}"
            )
        if self.kind == "brownout" and self.duration <= 0:
            raise ValueError("brownout needs a positive duration")
        if self.kind == "clock_drift" and self.factor <= 0:
            raise ValueError("clock_drift needs a positive factor")


@dataclass
class FaultPlan:
    """A complete fault schedule plus link-fault configuration.

    Attributes:
        seed: root seed; every random draw of the run derives from it.
        loss_rate: per-hop packet drop probability.
        corrupt_rate: per-hop corruption probability (delivered but
            unusable — airtime is paid, the value is not).
        duplicate_rate: per-hop duplication probability.
        events: scheduled crash/recover/brownout/drift events.
    """

    seed: int = 0
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        for name in ("loss_rate", "corrupt_rate", "duplicate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        total = self.loss_rate + self.corrupt_rate + self.duplicate_rate
        if total >= 1.0:
            raise ValueError(
                f"link fault rates must sum below 1, got {total}"
            )

    # -- builder API --------------------------------------------------------
    def crash(self, time: float, node: int) -> "FaultPlan":
        """Schedule a node crash (chainable)."""
        self.events.append(FaultEvent(time=time, kind="crash", node=node))
        return self

    def recover(self, time: float, node: int) -> "FaultPlan":
        """Schedule a node recovery (chainable)."""
        self.events.append(FaultEvent(time=time, kind="recover", node=node))
        return self

    def brownout(self, time: float, node: int, duration: float) -> "FaultPlan":
        """Schedule an energy brownout: the node is down for
        ``duration`` and then recovers on its own (chainable)."""
        self.events.append(
            FaultEvent(time=time, kind="brownout", node=node, duration=duration)
        )
        return self

    def clock_drift(self, time: float, node: int, factor: float) -> "FaultPlan":
        """Schedule a clock-rate change: the node's local operations
        take ``factor`` times as long from ``time`` on (chainable)."""
        self.events.append(
            FaultEvent(time=time, kind="clock_drift", node=node, factor=factor)
        )
        return self

    def with_loss_rate(self, loss_rate: float) -> "FaultPlan":
        """A copy of this plan with a different link loss rate."""
        return replace(self, loss_rate=loss_rate, events=list(self.events))

    # -- queries ------------------------------------------------------------
    def events_sorted(self) -> List[FaultEvent]:
        """Events in firing order (time, then insertion order)."""
        indexed = sorted(
            enumerate(self.events), key=lambda pair: (pair[1].time, pair[0])
        )
        return [e for __, e in indexed]

    def crashed_before(self, time: float) -> List[int]:
        """Node ids whose latest event at or before ``time`` leaves
        them down (ignoring brownout auto-recovery)."""
        state = {}
        for e in self.events_sorted():
            if e.time > time:
                break
            if e.kind in ("crash", "brownout"):
                state[e.node] = False
            elif e.kind == "recover":
                state[e.node] = True
        return sorted(n for n, up in state.items() if not up)

    # -- generators ---------------------------------------------------------
    @staticmethod
    def random(
        seed: int,
        node_ids: Sequence[int],
        horizon: float,
        loss_rate: float = 0.1,
        corrupt_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        n_crashes: int = 1,
        n_brownouts: int = 0,
        n_drifts: int = 0,
        brownout_duration: Optional[float] = None,
    ) -> "FaultPlan":
        """A deterministic random plan for chaos testing.

        All draws come from ``default_rng(seed)`` in a fixed order, so
        the same arguments always yield the same plan.  The seed and
        the counts must be non-negative integers.
        """
        counts = {"seed": seed, "n_crashes": n_crashes,
                  "n_brownouts": n_brownouts, "n_drifts": n_drifts}
        for name, value in counts.items():
            check_int(name, value)
        if not (math.isfinite(horizon) and horizon > 0):
            raise ValueError(
                f"horizon must be positive and finite, got {horizon}"
            )
        node_ids = sorted(int(n) for n in node_ids)
        total = n_crashes + n_brownouts + n_drifts
        if total > 0 and not node_ids:
            raise ValueError("need node ids to target faults at")
        rng = np.random.default_rng(seed)
        plan = FaultPlan(
            seed=int(seed),
            loss_rate=loss_rate,
            corrupt_rate=corrupt_rate,
            duplicate_rate=duplicate_rate,
        )
        if brownout_duration is None:
            brownout_duration = horizon / 4.0
        for __ in range(n_crashes):
            plan.crash(
                float(rng.uniform(0.0, horizon)), int(rng.choice(node_ids))
            )
        for __ in range(n_brownouts):
            plan.brownout(
                float(rng.uniform(0.0, horizon)),
                int(rng.choice(node_ids)),
                float(brownout_duration),
            )
        for __ in range(n_drifts):
            plan.clock_drift(
                float(rng.uniform(0.0, horizon)),
                int(rng.choice(node_ids)),
                float(rng.uniform(1.1, 3.0)),
            )
        return plan
