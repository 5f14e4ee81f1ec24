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
A collector that owns many label sets of one counter (per-node and
per-link traffic) hands them over as one :class:`CounterFamily`
update: the registry holds the family as arrays, and every reader
still sees one ordinary counter series per member.

The module-level null backend (:class:`NullMetrics` and its inert
instruments) is what disabled instrumentation talks to; every method
is a no-op returning a shared singleton.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Tuple

import numpy as np

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


class CounterFamily:
    """One labeled counter family held as arrays.

    Member ``i`` is named by the label values ``keys[i]`` (in
    :attr:`labels` order) and counts ``values[i]``.  Members are only
    appended, so a member keeps its slot for the family's life, and an
    update naming the same members in the same order is one array add.
    Get one with :meth:`MetricsRegistry.counter_family`.
    """

    def __init__(self, labels: Tuple[str, ...]) -> None:
        self.labels = labels
        self.keys: List[tuple] = []
        self.values = np.zeros(0, dtype=np.float64)
        self._slots: Dict[tuple, int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def inc(self, keys: List[tuple], amounts) -> None:
        """Add ``amounts[i]`` to member ``keys[i]`` (created at 0).
        ``keys`` is a list of label-value tuples."""
        amounts = np.asarray(amounts, dtype=np.float64)
        if amounts.size and amounts.min() < 0:
            raise ValueError(
                f"counters only go up, got {float(amounts.min())}"
            )
        self._add(keys, amounts)

    def retract(self, keys: List[tuple], amounts) -> None:
        """Take back ``amounts`` a collector pushed earlier (its reset
        path) — :meth:`inc` with the sign flipped and unchecked."""
        self._add(keys, -np.asarray(amounts, dtype=np.float64))

    def _add(self, keys: List[tuple], amounts: np.ndarray) -> None:
        n = len(self.keys)
        if keys[:n] == self.keys:
            new = keys[n:]
            fresh = dict(zip(new, range(n, n + len(new))))
            if len(fresh) == len(new) and (
                not n or self._slots.keys().isdisjoint(fresh.keys())
            ):
                if new:
                    self.keys.extend(new)
                    self._slots.update(fresh)
                    values = np.zeros(n + len(new), dtype=np.float64)
                    values[:n] = self.values
                    self.values = values
                self.values += amounts
                return
        slots = [self._slot(key) for key in keys]
        np.add.at(self.values, slots, amounts)

    def _slot(self, key: tuple) -> int:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self.keys)
            self.keys.append(key)
            self.values = np.append(self.values, 0.0)
        return slot

    def value_of(self, labels: Dict[str, object]) -> float:
        """The member named by a label dict (0.0 when absent)."""
        if sorted(labels) != sorted(self.labels):
            return 0.0
        key = tuple(canonical_value(labels[name]) for name in self.labels)
        slot = self._slots.get(key)
        return 0.0 if slot is None else float(self.values[slot])

    def label_key(self, key: tuple) -> LabelKey:
        """The registry's canonical label key of member ``key`` (label
        values are canonicalized here, on the read side)."""
        return tuple(sorted(zip(self.labels, map(canonical_value, key))))


def _family_name_error(name: str) -> TypeError:
    return TypeError(
        f"series {name!r} is a counter family; update it through "
        "counter_family()"
    )


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
        #: name -> columnar counter family; a name lives either here
        #: or in :attr:`_series`, never in both.
        self._families: Dict[str, CounterFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        #: bumped by :meth:`clear`: a collector that pushes deltas
        #: republishes its full totals into a new generation.
        self.generation = 0

    def __len__(self) -> int:
        return len(self._series) + sum(map(len, self._families.values()))

    def _get(self, factory, name: str, labels: Dict[str, object]):
        if self._families and name in self._families:
            raise _family_name_error(name)
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
        if self._families and name in self._families:
            raise _family_name_error(name)
        for label_items, amount in increments:
            key = (name, _canonical_items(label_items))
            instrument = series.get(key)
            if instrument is None:
                instrument = series[key] = Counter()
            elif not isinstance(instrument, Counter):
                raise TypeError(f"series {name!r} is a {instrument.kind}")
            instrument.inc(amount)

    def counter_family(
        self, name: str, labels: Tuple[str, ...]
    ) -> CounterFamily:
        """Get-or-create the columnar counter family ``name`` whose
        members carry the label names ``labels`` — the one-call update
        path for collectors that own many label sets of one counter.
        A name is either a family or plain series: the other kind of
        access raises :class:`TypeError`."""
        name = str(name)
        family = self._families.get(name)
        if family is None:
            for key, instrument in self._series.items():
                if key[0] == name:
                    raise TypeError(
                        f"series {name!r} is a plain {instrument.kind}"
                    )
            family = self._families[name] = CounterFamily(tuple(labels))
        elif family.labels != tuple(labels):
            raise ValueError(
                f"family {name!r} has labels {family.labels}, "
                f"got {tuple(labels)}"
            )
        return family

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
        name then label key — the canonical export order.  A family's
        members read as counters holding their current value."""
        entries = list(self._series.items())
        for name, family in self._families.items():
            for key, value in zip(family.keys, family.values.tolist()):
                counter = Counter()
                counter.value = value
                entries.append(((name, family.label_key(key)), counter))
        entries.sort(key=lambda entry: entry[0])
        return [
            (name, dict(label_key), instrument)
            for (name, label_key), instrument in entries
        ]

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge series (0.0 when absent)."""
        family = self._families.get(str(name))
        if family is not None:
            return family.value_of(labels)
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
        """Drop every series (collectors stay registered) and start a
        new :attr:`generation`."""
        self._series = {}
        self._families = {}
        self.generation += 1

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
