"""Declarative SLO watchdog over the flight recorder.

A :class:`Watchdog` is an observer for
:class:`repro.obs.timeline.FlightRecorder`: at every sample tick it
evaluates a list of :class:`Rule` objects against the tick's series
points and fires :class:`Alert` records.  Firing is **edge-triggered
with hysteresis**: a rule must violate for ``windows`` *consecutive*
ticks before one alert fires, and it must recover (one clean tick)
before it can fire again — so a sustained breach yields one alert,
not one per tick.

Rule kinds (all compare with ``op`` ∈ ``>``, ``>=``, ``<``, ``<=``):

- ``threshold`` — the series' current value (counter/gauge level,
  histogram observation count) vs ``value``.
- ``rate`` — the rolling-window rate (counter/histogram throughput;
  gauges: rate of change of the level) vs ``value``.
- ``quantile`` — a histogram's windowed-delta quantile bound
  (``quantile`` field, default 0.99) vs ``value`` — the p99 latency
  budget rule.
- ``absence`` — fires when the series' windowed delta is **zero**
  (no activity) — a liveness check; ``op``/``value`` are ignored.
- ``trend`` — fires when the per-tick delta has satisfied
  ``delta op value`` for ``windows`` consecutive ticks — e.g.
  ``train.loss`` with ``op=">="``, ``value=0`` is "loss non-decreasing
  for N windows" (the drift watch).

A rule's ``labels`` is a subset filter: all series whose name matches
and whose labels contain every filter pair are aggregated (values and
deltas summed; for ``quantile`` rules the windowed bucket counts are
summed before the quantile is taken).  An unlabeled rule over
``serve.plan_fallbacks`` therefore watches fallbacks across every
tenant and reason at once.

Alerts serialize to the same canonical JSONL + sha256 digest scheme
as the tracer and the timeline — a seeded run fires byte-identical
alerts every time.  When the watchdog is built over a live telemetry
backend each firing also emits a ``watch.alert`` tracer instant and a
``watch.alerts{rule,severity}`` counter increment, so alerts are
visible in traces and ``/metrics`` too.

Rules load from JSON (:func:`load_rules` / :func:`parse_rules`)::

    {"rules": [
      {"name": "fallbacks", "series": "serve.plan_fallbacks",
       "kind": "rate", "op": ">", "value": 0.0,
       "severity": "critical"},
      {"name": "p99-latency", "series": "serve.latency_s",
       "kind": "quantile", "quantile": 0.99, "op": ">",
       "value": 0.25, "windows": 2}
    ]}

This module never imports ``time`` or ``repro.sim`` (lint-enforced):
it sees time only through the samples it is handed.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.timeline import quantile_from_counts

OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

KINDS = ("threshold", "rate", "absence", "trend", "quantile")
SEVERITIES = ("warning", "critical")


def _finite_real(value) -> bool:
    """A real number, never a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Rule:
    """One declarative SLO rule (see module docstring for semantics)."""

    name: str
    series: str
    kind: str = "threshold"
    op: str = ">"
    value: float = 0.0
    labels: Tuple[Tuple[str, str], ...] = ()
    windows: int = 1
    severity: str = "warning"
    quantile: float = 0.99

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("rule needs a non-empty name")
        if not isinstance(self.series, str) or not self.series:
            raise ValueError(f"rule {self.name!r} needs a series")
        for field_name, allowed in (
            ("kind", KINDS), ("op", tuple(OPS)), ("severity", SEVERITIES)
        ):
            value = getattr(self, field_name)
            if value not in allowed:
                raise ValueError(
                    f"rule {self.name!r}: unknown {field_name} {value!r} "
                    f"(expected one of {', '.join(allowed)})"
                )
        if (isinstance(self.windows, bool)
                or not isinstance(self.windows, numbers.Integral)
                or self.windows < 1):
            raise ValueError(
                f"rule {self.name!r}: windows must be an integer >= 1, "
                f"got {self.windows!r}"
            )
        if not _finite_real(self.value):
            raise ValueError(
                f"rule {self.name!r}: value must be a finite number, "
                f"got {self.value!r}"
            )
        if not (_finite_real(self.quantile) and 0.0 <= self.quantile <= 1.0):
            raise ValueError(
                f"rule {self.name!r}: quantile must be in [0, 1], "
                f"got {self.quantile!r}"
            )

    def matches(self, point) -> bool:
        """Does a series point pass this rule's name + label filter?"""
        if point.name != self.series:
            return False
        labels = {str(k): str(v) for k, v in point.labels.items()}
        return all(labels.get(k) == v for k, v in self.labels)


@dataclass(frozen=True)
class Alert:
    """One fired alert — everything needed to reconstruct why."""

    index: int
    t: float
    rule: str
    series: str
    kind: str
    severity: str
    observed: float
    op: str
    value: float

    def to_json(self) -> str:
        doc = {
            "i": self.index, "t": float(self.t), "rule": self.rule,
            "series": self.series, "kind": self.kind,
            "severity": self.severity,
            "observed": _finite(self.observed),
            "op": self.op, "value": float(self.value),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _finite(value: float):
    if value != value:
        return "nan"
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return float(value)


class Watchdog:
    """Evaluate :class:`Rule` objects at every flight-recorder tick.

    Attach with ``recorder.attach(watchdog)``; or call
    :meth:`observe` directly with a sample.  ``telemetry`` (optional)
    receives a tracer instant + counter per firing.
    """

    def __init__(self, rules, telemetry=None) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate rule names: {', '.join(dupes)}")
        self.telemetry = telemetry
        self.alerts: List[Alert] = []
        #: consecutive violating ticks per rule.
        self._streak: Dict[str, int] = {r.name: 0 for r in self.rules}
        #: rules currently in the fired state (until a clean tick).
        self._active: Dict[str, Alert] = {}

    # -- evaluation ----------------------------------------------------------
    def observe(self, sample, recorder=None) -> List[Alert]:
        """Evaluate every rule against one sample; returns the alerts
        fired at this tick (also appended to :attr:`alerts`)."""
        fired: List[Alert] = []
        for rule in self.rules:
            observed, violating = self._evaluate(rule, sample)
            if violating:
                self._streak[rule.name] += 1
            else:
                self._streak[rule.name] = 0
                self._active.pop(rule.name, None)
                continue
            if self._streak[rule.name] < rule.windows:
                continue
            if rule.name in self._active:
                continue  # still breached; already fired
            alert = Alert(
                index=sample.index, t=sample.t, rule=rule.name,
                series=rule.series, kind=rule.kind,
                severity=rule.severity, observed=observed,
                op=rule.op, value=rule.value,
            )
            self._active[rule.name] = alert
            self.alerts.append(alert)
            fired.append(alert)
            self._emit(alert)
        return fired

    def _evaluate(self, rule: Rule, sample) -> Tuple[float, bool]:
        points = [p for p in sample.points.values() if rule.matches(p)]
        if not points:
            # A series that has never existed violates an absence rule
            # (nothing is flowing) and passes every other kind.
            return (0.0, rule.kind == "absence")
        cmp = OPS[rule.op]
        if rule.kind == "threshold":
            observed = sum(p.value for p in points)
            return observed, cmp(observed, rule.value)
        if rule.kind == "rate":
            observed = sum(p.rate for p in points)
            return observed, cmp(observed, rule.value)
        if rule.kind == "absence":
            observed = sum(p.delta for p in points)
            return observed, observed == 0
        if rule.kind == "trend":
            observed = sum(p.delta for p in points)
            return observed, cmp(observed, rule.value)
        # quantile: sum windowed bucket counts across matching series.
        hists = [p for p in points if p.kind == "histogram"]
        if not hists:
            return (float("nan"), False)
        buckets = hists[0].buckets
        counts = [0] * len(hists[0].window_counts)
        usable = False
        for p in hists:
            if p.buckets != buckets or p.window_counts is None:
                continue
            counts = [a + b for a, b in zip(counts, p.window_counts)]
            usable = True
        if not usable:
            return (float("nan"), False)
        observed = quantile_from_counts(buckets, counts, rule.quantile)
        if observed != observed:  # empty window: nothing to judge
            return observed, False
        return observed, cmp(observed, rule.value)

    def _emit(self, alert: Alert) -> None:
        tel = self.telemetry
        if tel is None or not tel.enabled:
            return
        tel.tracer.instant(
            "watch.alert", rule=alert.rule, series=alert.series,
            severity=alert.severity, observed=_finite(alert.observed),
        )
        tel.metrics.counter(
            "watch.alerts", rule=alert.rule, severity=alert.severity
        ).inc()

    # -- read side -----------------------------------------------------------
    def active(self) -> List[Alert]:
        """Alerts whose rules are still breached, rule order."""
        return [
            self._active[r.name] for r in self.rules
            if r.name in self._active
        ]

    def critical_count(self) -> int:
        return sum(1 for a in self.alerts if a.severity == "critical")

    def clear(self) -> None:
        self.alerts = []
        self._streak = {r.name: 0 for r in self.rules}
        self._active = {}

    # -- export --------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical JSON-lines log of every fired alert, in firing
        order — byte-identical for a seeded run."""
        return "\n".join(a.to_json() for a in self.alerts)

    def digest(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()


# -- rule files ---------------------------------------------------------------

_RULE_KEYS = {
    "name", "series", "kind", "op", "value", "labels", "windows",
    "severity", "quantile",
}


def parse_rules(obj) -> List[Rule]:
    """Build :class:`Rule` objects from a parsed rule document:
    ``{"rules": [...]}`` or a bare list of rule dicts."""
    if isinstance(obj, dict):
        if "rules" not in obj:
            raise ValueError('rule document needs a "rules" list')
        items = obj["rules"]
    else:
        items = obj
    if not isinstance(items, list):
        raise ValueError(f"rules must be a list, got {type(items).__name__}")
    rules: List[Rule] = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"rule #{i} must be an object")
        unknown = sorted(set(item) - _RULE_KEYS)
        if unknown:
            raise ValueError(
                f"rule #{i}: unknown keys {', '.join(unknown)}"
            )
        kwargs = dict(item)
        labels = kwargs.pop("labels", {})
        if not isinstance(labels, dict):
            raise ValueError(f"rule #{i}: labels must be an object")
        kwargs["labels"] = tuple(
            sorted((str(k), str(v)) for k, v in labels.items())
        )
        try:
            rules.append(Rule(**kwargs))
        except TypeError as exc:
            raise ValueError(f"rule #{i}: {exc}") from exc
    return rules


def load_rules(path) -> List[Rule]:
    """Load rules from a JSON file (see :func:`parse_rules`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"invalid rule file {path}: {exc}") from exc
    return parse_rules(obj)


# -- health table -------------------------------------------------------------

def health_table(recorder, watchdog, last: int = 8) -> str:
    """A windowed plain-text health table for the CLI: one row per
    rule with its latest observed value, threshold, streak, and state
    over the last ``last`` retained samples."""
    samples = recorder.samples()[-last:]
    lines = []
    header = (
        f"{'rule':<24} {'series':<28} {'kind':<10} "
        f"{'observed':>12} {'target':>16} {'state':<8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    latest = samples[-1] if samples else None
    for rule in watchdog.rules:
        if latest is not None:
            observed, violating = watchdog._evaluate(rule, latest)
            shown = f"{observed:.6g}" if observed == observed else "nan"
        else:
            shown, violating = "-", False
        if rule.kind == "absence":
            target = "delta == 0"
        else:
            target = f"{rule.op} {rule.value:g}"
            if rule.kind == "quantile":
                target = f"p{rule.quantile * 100:g} {target}"
        state = "FIRING" if any(
            a.rule == rule.name for a in watchdog.active()
        ) else ("breach" if violating else "ok")
        lines.append(
            f"{rule.name:<24} {rule.series:<28} {rule.kind:<10} "
            f"{shown:>12} {target:>16} {state:<8}"
        )
    n = len(samples)
    lines.append(
        f"samples={recorder.n_samples} retained={len(recorder)} "
        f"window={n} alerts={len(watchdog.alerts)} "
        f"critical={watchdog.critical_count()}"
    )
    return "\n".join(lines)
