"""Labeled metrics registry: counters, gauges, fixed-bucket histograms.

A series is identified by ``(name, labels)``; instruments are
get-or-create, so instrumented code holds the returned object and
updates a plain attribute on the hot path::

    rx = registry.counter("net.rx_values", node=5)
    rx.inc(96)

Pull-model **collectors** (the Prometheus pattern) let a subsystem that
already keeps exact counters — e.g. :class:`repro.wsn.Network`'s
traffic stats — publish them with zero hot-path overhead: the callback
registered via :meth:`MetricsRegistry.register_collector` runs at
:meth:`collect` time (export, report, reconciliation), not per packet.

The module-level null backend (:class:`NullMetrics` and its inert
instruments) is what disabled instrumentation talks to; every method
is a no-op returning a shared singleton.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Tuple

from repro.obs.trace import canonical_value

LabelKey = Tuple[Tuple[str, object], ...]
SeriesKey = Tuple[str, LabelKey]

#: Default histogram buckets (upper bounds); the overflow bucket is
#: implicit.  Spans latencies in seconds and small counts alike.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0
)


class Counter:
    """Monotonically increasing scalar."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins scalar (queue depth, stored energy)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``counts[i]`` tallies observations with ``value <= buckets[i]``;
    the final slot is the overflow bucket.
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        if any(b != b for b in bounds):
            raise ValueError(f"bucket bounds must not be NaN: {bounds}")
        if any(b == float("inf") for b in bounds[:-1]):
            raise ValueError(
                f"only the terminal bucket bound may be +inf: {bounds}"
            )
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must increase: {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def quantile_bound(self, q: float) -> float:
        """Upper bucket bound covering the ``q``-quantile (``inf`` when
        it falls in the overflow bucket; ``nan`` when empty).

        ``q=0`` returns the bound of the first *non-empty* bucket (the
        minimum's bucket), not blindly ``buckets[0]``; ``q=1`` returns
        the bound covering the maximum observation.  A terminal +inf
        bucket bound is honoured: mass there reports ``inf`` just like
        the implicit overflow slot.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        seen = 0
        for bound, count in zip(self.buckets, self.counts):
            seen += count
            if seen >= target and seen > 0:
                return bound
        return float("inf")


def _canonical_items(items) -> LabelKey:
    """Sorted ``(label, canonical value)`` pairs of ``(label, value)``
    pairs — the label half of a series key."""
    out = [(k, canonical_value(v)) for k, v in items]
    if len(out) > 1:
        out.sort()
    return tuple(out)


class MetricsRegistry:
    """Get-or-create registry of labeled series plus pull collectors."""

    def __init__(self) -> None:
        self._series: Dict[SeriesKey, object] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def __len__(self) -> int:
        return len(self._series)

    def _get(self, factory, name: str, labels: Dict[str, object]):
        key = (str(name), _canonical_items(labels.items()))
        instrument = self._series.get(key)
        if instrument is None:
            instrument = factory()
            self._series[key] = instrument
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        instrument = self._get(Counter, name, labels)
        if not isinstance(instrument, Counter):
            raise TypeError(f"series {name!r} is a {instrument.kind}")
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        instrument = self._get(Gauge, name, labels)
        if not isinstance(instrument, Gauge):
            raise TypeError(f"series {name!r} is a {instrument.kind}")
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        instrument = self._get(lambda: Histogram(buckets), name, labels)
        if not isinstance(instrument, Histogram):
            raise TypeError(f"series {name!r} is a {instrument.kind}")
        return instrument

    def inc_counters(self, name: str, increments) -> None:
        """Bulk :meth:`counter` + ``inc`` over one series family, for
        collectors that push many label sets per :meth:`collect`:
        ``increments`` yields ``(label_items, amount)`` with
        ``label_items`` a tuple of ``(label, value)`` pairs."""
        series = self._series
        name = str(name)
        for label_items, amount in increments:
            key = (name, _canonical_items(label_items))
            instrument = series.get(key)
            if instrument is None:
                instrument = series[key] = Counter()
            elif not isinstance(instrument, Counter):
                raise TypeError(f"series {name!r} is a {instrument.kind}")
            instrument.inc(amount)

    # -- pull model ---------------------------------------------------------
    def register_collector(
        self, callback: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a callback run by :meth:`collect` to sync
        externally-kept counters into the registry."""
        self._collectors.append(callback)

    def collect(self) -> None:
        """Run every registered collector (idempotent by contract)."""
        for callback in self._collectors:
            callback(self)

    # -- read side ----------------------------------------------------------
    def series(self) -> List[Tuple[str, Dict[str, object], object]]:
        """All series as ``(name, labels, instrument)``, sorted by
        name then label key — the canonical export order."""
        return [
            (name, dict(label_key), self._series[(name, label_key)])
            for name, label_key in sorted(self._series)
        ]

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge series (0.0 when absent)."""
        key = (str(name), _canonical_items(labels.items()))
        instrument = self._series.get(key)
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise TypeError(f"series {name!r} is a histogram; read .counts")
        return instrument.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge's value across every label set."""
        out = 0.0
        for series_name, __, instrument in self.series():
            if series_name == name and not isinstance(instrument, Histogram):
                out += instrument.value
        return out

    def clear(self) -> None:
        """Drop every series (collectors stay registered)."""
        self._series = {}

    # -- mergeable snapshots ------------------------------------------------
    def snapshot(self) -> List[List]:
        """Canonical, picklable dump of every series.

        Runs :meth:`collect` first so externally-kept counters are
        synced, then emits ``[name, [[label, value], ...], kind,
        payload]`` entries in the canonical :meth:`series` order —
        counters/gauges carry their scalar, histograms a dict of
        buckets/counts/sum/count.  The format is what sweep workers
        ship back to the parent for an order-independent merge.
        """
        self.collect()
        out: List[List] = []
        for name, labels, instrument in self.series():
            label_items = [[k, v] for k, v in sorted(labels.items())]
            if isinstance(instrument, Histogram):
                payload: object = {
                    "buckets": list(instrument.buckets),
                    "counts": list(instrument.counts),
                    "sum": instrument.sum,
                    "count": instrument.count,
                }
            else:
                payload = instrument.value
            out.append([name, label_items, instrument.kind, payload])
        return out

    def merge_snapshot(self, snapshot: List[List]) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histograms accumulate (commutative, so merging a
        set of worker snapshots is order-independent); gauges are
        last-write-wins, so callers merge snapshots in a canonical
        order (the sweep engine uses ascending point index).
        """
        for name, label_items, kind, payload in snapshot:
            labels = {str(k): v for k, v in label_items}
            if kind == "counter":
                self.counter(name, **labels).inc(float(payload))
            elif kind == "gauge":
                self.gauge(name, **labels).set(float(payload))
            elif kind == "histogram":
                incoming = tuple(float(b) for b in payload["buckets"])
                if len(payload["counts"]) != len(incoming) + 1:
                    raise ValueError(
                        f"histogram {name!r} snapshot is malformed: "
                        f"{len(payload['counts'])} counts for "
                        f"{len(incoming)} bucket bounds "
                        f"(expected {len(incoming) + 1})"
                    )
                hist = self.histogram(name, buckets=incoming, **labels)
                if hist.buckets != incoming:
                    raise ValueError(
                        f"histogram {name!r} bucket boundaries mismatch "
                        f"on merge: registry has {hist.buckets}, "
                        f"snapshot has {incoming}"
                    )
                for i, count in enumerate(payload["counts"]):
                    hist.counts[i] += int(count)
                hist.sum += float(payload["sum"])
                hist.count += int(payload["count"])
            else:
                raise ValueError(f"unknown instrument kind {kind!r}")


def merge_snapshots(snapshots) -> "MetricsRegistry":
    """A fresh registry holding the fold of ``snapshots`` (applied in
    the given order — pass them in canonical point order)."""
    registry = MetricsRegistry()
    for snap in snapshots:
        registry.merge_snapshot(snap)
    return registry


# -- null backend -----------------------------------------------------------
class _NullCounter:
    __slots__ = ()
    kind = "counter"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"
    buckets = DEFAULT_BUCKETS
    sum = 0.0
    count = 0

    @property
    def counts(self) -> List[int]:
        return [0] * (len(DEFAULT_BUCKETS) + 1)

    def observe(self, value: float) -> None:
        pass

    def quantile_bound(self, q: float) -> float:
        return float("nan")


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullMetrics:
    """No-op registry: hands out shared inert instruments."""

    def __len__(self) -> int:
        return 0

    def counter(self, name: str, **labels) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS, **labels):
        return _NULL_HISTOGRAM

    def register_collector(self, callback) -> None:
        pass

    def collect(self) -> None:
        pass

    def series(self) -> List:
        return []

    def value(self, name: str, **labels) -> float:
        return 0.0

    def total(self, name: str) -> float:
        return 0.0

    def clear(self) -> None:
        pass

    def snapshot(self) -> List:
        return []

    def merge_snapshot(self, snapshot) -> None:
        pass
