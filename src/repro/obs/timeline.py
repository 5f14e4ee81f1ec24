"""Flight recorder: ring-buffer time series over the metrics registry.

Point-in-time artifacts (a Chrome trace, a ``/metrics`` snapshot) say
nothing about how latency, fallback rate, energy, or packet loss
*evolve* during a long run.  The :class:`FlightRecorder` closes that
gap with bounded memory: at every :meth:`~FlightRecorder.sample` tick
it walks the registry, records the **delta** of every counter and
histogram series since the previous tick (gauges record their level),
derives rolling-window aggregates (rates, histogram-delta p50/p99
bucket bounds), and appends one :class:`TimelineSample` to a
fixed-capacity ring buffer — old samples are overwritten, never
accumulated, so a recorder attached to a weeks-long run costs the
same memory as one attached to a test.

Time comes from a pluggable clock (a :class:`repro.sim.Simulator`'s
``lambda: sim.now``, serve's clock shim, or the default sample-index
clock), never from the wall — so the serialized timeline of a seeded
run is **byte-identical** across machines and re-runs, exactly like
the tracer's JSONL.  :meth:`FlightRecorder.to_jsonl` is the canonical
export; :meth:`FlightRecorder.digest` is its sha256 determinism pin.

:class:`NullFlightRecorder` is the disabled twin (the analogue of
:class:`repro.obs.trace.NullTracer`): every method is a no-op, so a
``sample_if_due()`` call on a hot path costs one attribute check.
Use :func:`flight_recorder` to get the right one for a telemetry
backend.

Hosts drive sampling in one of two styles:

- **push** — pre-schedule ticks on a discrete-event simulator with
  :func:`schedule_sampling` (the faults runtime does this);
- **pull** — call :meth:`~FlightRecorder.sample_if_due` from an
  event-driven hot path; it samples only once the clock has advanced
  past the cadence (the resilient executor does this), or arm a
  repeating timer on a clock shim (the serve app does this).

This module never imports ``time`` or ``repro.sim`` (an AST lint
enforces it): determinism is the whole point, and the recorder must
not be able to re-enter the event loop.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.trace import canonical_value

#: Default ring-buffer capacity (samples retained).
DEFAULT_CAPACITY = 512

#: Default rolling-window width (samples) for rates and quantiles.
DEFAULT_WINDOW = 8


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical flat key for one labeled series:
    ``name{k=v,...}`` with label keys sorted (bare ``name`` when
    unlabeled) — the key the timeline JSONL and the watchdog use."""
    if not labels:
        return name
    inner = ",".join(
        f"{k}={canonical_value(v)}" for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


class SeriesPoint:
    """One series' state at one tick.

    Attributes:
        name / labels / kind: series identity.
        value: current level (counter/gauge value; histogram count).
        delta: change since the previous tick (0 for gauges' first
            appearance; histograms: observation-count delta).
        rate: rolling-window rate — windowed delta sum over windowed
            elapsed time (0.0 while no time has passed).
        p50 / p99: histogram-only — upper bucket bounds covering the
            windowed *delta* distribution's quantiles (``None`` for
            non-histograms, ``nan`` when the window holds no mass).
        sum_delta: histogram-only — observed-sum delta this tick.
        window_counts: histogram-only — per-bucket windowed delta
            counts (in-memory only, for arbitrary-quantile reads; not
            serialized).
    """

    __slots__ = ("name", "labels", "kind", "value", "delta", "rate",
                 "p50", "p99", "sum_delta", "window_counts", "buckets")

    def __init__(self, name, labels, kind, value, delta, rate,
                 p50=None, p99=None, sum_delta=None,
                 window_counts=None, buckets=None) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind
        self.value = value
        self.delta = delta
        self.rate = rate
        self.p50 = p50
        self.p99 = p99
        self.sum_delta = sum_delta
        self.window_counts = window_counts
        self.buckets = buckets

    def to_payload(self) -> Dict[str, object]:
        """The serialized form (compact keys; see module docstring)."""
        out: Dict[str, object] = {
            "k": self.kind, "v": self.value, "d": self.delta,
            "r": self.rate,
        }
        if self.kind == "histogram":
            out["s"] = self.sum_delta
            out["p50"] = _json_float(self.p50)
            out["p99"] = _json_float(self.p99)
        return out


def _json_float(value: Optional[float]):
    """JSON has no nan/inf; encode them as strings, canonically."""
    if value is None:
        return None
    if value != value:  # nan
        return "nan"
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return float(value)


class TimelineSample:
    """One tick of the flight recorder: time plus every series'
    :class:`SeriesPoint`, keyed by :func:`series_key`."""

    __slots__ = ("index", "t", "points")

    def __init__(self, index: int, t: float,
                 points: Dict[str, SeriesPoint]) -> None:
        self.index = index
        self.t = t
        self.points = points

    def get(self, key: str) -> Optional[SeriesPoint]:
        return self.points.get(key)

    def to_json(self) -> str:
        doc = {
            "i": self.index,
            "t": float(self.t),
            "series": {
                key: self.points[key].to_payload()
                for key in sorted(self.points)
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def quantile_from_counts(
    buckets: Tuple[float, ...], counts: List[int], q: float
) -> float:
    """Upper bucket bound covering the ``q``-quantile of a bucketed
    count vector (the windowed-delta variant of
    :meth:`repro.obs.metrics.Histogram.quantile_bound`)."""
    total = sum(counts)
    if total == 0:
        return float("nan")
    target = q * total
    seen = 0
    for bound, count in zip(buckets, counts):
        seen += count
        if seen >= target and seen > 0:
            return bound
    return float("inf")


class FlightRecorder:
    """Fixed-capacity ring-buffer time series over a telemetry backend.

    Args:
        telemetry: the live :class:`repro.obs.runtime.Telemetry` whose
            registry is sampled (its tracer receives nothing; the
            watchdog emits the instants).
        clock: ``() -> float`` time source; defaults to the sample
            index (0.0, 1.0, ...) — deterministic even without a sim.
        interval: cadence in clock seconds honoured by
            :meth:`sample_if_due` (explicit :meth:`sample` calls
            ignore it).
        capacity: ring-buffer size; the oldest sample is overwritten
            once full (:attr:`dropped` counts the overwrites).
        window: rolling-window width, in samples, for rates and
            histogram-delta quantiles.
    """

    enabled = True

    def __init__(
        self,
        telemetry,
        clock: Optional[Callable[[], float]] = None,
        interval: float = 1.0,
        capacity: int = DEFAULT_CAPACITY,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.telemetry = telemetry
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.window = int(window)
        self._clock = clock
        self._ring: List[Optional[TimelineSample]] = [None] * self.capacity
        self._head = 0          # next write slot
        self._count = 0         # retained samples (<= capacity)
        self._n_samples = 0     # lifetime sample count
        self.dropped = 0
        self._next_due: Optional[float] = None
        #: previous tick's raw values, keyed by series_key.
        self._prev: Dict[str, object] = {}
        #: registry series key -> (flat key, name, labels dict); the
        #: flat-key strings are hot-path-expensive to rebuild per tick.
        self._key_cache: Dict = {}
        #: (registry dict, len, entries, sorted (series key, cached)
        #: pairs) — the entry list is reused while the registry holds
        #: the same series set, its order after a same-set refill.  The
        #: strong dict reference makes the identity check sound (a
        #: cleared registry swaps in a new dict; ids cannot be reused
        #: while the old one is held here).
        self._entries_cache: Optional[Tuple] = None
        self._observers: List = []

    # -- wiring --------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the time source (e.g. ``lambda: sim.now``)."""
        self._clock = clock

    def attach(self, observer) -> None:
        """Register an observer — anything with
        ``observe(sample, recorder)`` — run after every tick (the
        watchdog's hook)."""
        self._observers.append(observer)

    # -- sampling ------------------------------------------------------------
    def _now(self) -> float:
        if self._clock is not None:
            return float(self._clock())
        return float(self._n_samples)

    def sample_if_due(self) -> Optional[TimelineSample]:
        """Sample only when the clock has advanced past the cadence
        (the pull-style hook for event-driven hosts); returns the new
        sample or ``None``."""
        now = self._now()
        if self._next_due is not None and now < self._next_due:
            return None
        sample = self.sample()
        self._next_due = sample.t + self.interval
        return sample

    def _series_entries(self, metrics):
        """``((flat_key, name, labels), instrument)`` pairs in the
        canonical sorted order, with the flat keys and label dicts
        cached across ticks (registry keys are stable identities)."""
        raw = getattr(metrics, "_series", None)
        if raw is None:  # registry-shaped stand-ins in tests
            return [
                ((series_key(name, labels), name, labels), instrument)
                for name, labels, instrument in metrics.series()
            ]
        cached_entries = self._entries_cache
        if cached_entries is not None and cached_entries[1] == len(raw):
            if cached_entries[0] is raw:
                return cached_entries[2]
            # A registry cleared between runs and refilled with the same
            # series: every old key still present at the same count
            # means the same key set, so the sorted order stands and
            # only the instruments are new.
            order = cached_entries[3]
            try:
                entries = [(keys, raw[skey]) for skey, keys in order]
            except KeyError:
                pass
            else:
                self._entries_cache = (raw, len(raw), entries, order)
                return entries
        cache = self._key_cache
        entries = []
        order = []
        for skey in sorted(raw):
            cached = cache.get(skey)
            if cached is None:
                labels = dict(skey[1])
                cached = (series_key(skey[0], labels), skey[0], labels)
                cache[skey] = cached
            entries.append((cached, raw[skey]))
            order.append((skey, cached))
        self._entries_cache = (raw, len(raw), entries, order)
        return entries

    def sample(self) -> TimelineSample:
        """Take one tick now: collect, delta, derive, append.

        One fused pass per series: the raw delta vs the previous tick
        and the rolling-window aggregates are computed together.  The
        windowed delta is O(1) per series — the sum of per-tick deltas
        over the window telescopes to ``value_now - (first.value -
        first.delta)``, where ``first`` is the window's oldest retained
        sample (``first.value - first.delta`` is the value just before
        the window's first tick).
        """
        metrics = self.telemetry.metrics
        metrics.collect()
        t = self._now()
        prev_map = self._prev
        points: Dict[str, SeriesPoint] = {}
        recent = self.samples()[-(self.window - 1):] if self.window > 1 else []
        if recent:
            elapsed = t - recent[0].t
        else:
            # First tick: the window spans from the clock's origin, so
            # counters accumulated before sampling began don't read as
            # a one-cadence burst.
            elapsed = t
        if elapsed <= 0:
            # Degenerate window (t=0 first sample, or a clock that has
            # not advanced): fall back to the cadence to stay finite.
            elapsed = self.interval
        first = recent[0].points if recent else None
        first_get = first.get if first is not None else None
        prev_get = prev_map.get
        for (key, name, labels), instrument in self._series_entries(metrics):
            kind = instrument.kind
            if kind == "histogram":
                counts = list(instrument.counts)
                prev = prev_get(key)
                if prev is None:
                    prev_counts = [0] * len(counts)
                    prev_sum = 0.0
                else:
                    prev_counts, prev_sum = prev
                delta_counts = [
                    c - p for c, p in zip(counts, prev_counts)
                ]
                delta_n = sum(delta_counts)
                point = SeriesPoint(
                    name, labels, kind,
                    value=int(instrument.count),
                    delta=delta_n,
                    rate=0.0,
                    sum_delta=float(instrument.sum) - float(prev_sum),
                    window_counts=delta_counts,  # this tick; widened below
                    buckets=tuple(instrument.buckets),
                )
                prev_map[key] = (counts, float(instrument.sum))
                old_point = first_get(key) if first_get is not None else None
                if old_point is not None:
                    point.rate = (point.value - (old_point.value
                                                 - old_point.delta)) / elapsed
                else:
                    point.rate = delta_n / elapsed
                window_counts = delta_counts
                for old in recent:
                    old_point = old.points.get(key)
                    if (old_point is not None
                            and old_point.window_counts is not None
                            and old_point.buckets == point.buckets):
                        window_counts = [
                            a + b for a, b in
                            zip(window_counts, old_point.window_counts)
                        ]
                point.p50 = quantile_from_counts(
                    point.buckets, window_counts, 0.50
                )
                point.p99 = quantile_from_counts(
                    point.buckets, window_counts, 0.99
                )
                points[key] = point
            else:
                value = float(instrument.value)
                prev_value = prev_get(key)
                if prev_value is None:
                    delta = 0.0 if kind == "gauge" else value
                else:
                    delta = value - prev_value
                prev_map[key] = value
                old_point = first_get(key) if first_get is not None else None
                if old_point is not None:
                    rate = (value - (old_point.value
                                     - old_point.delta)) / elapsed
                else:
                    rate = delta / elapsed
                points[key] = SeriesPoint(
                    name, labels, kind, value, delta, rate,
                )
        sample = TimelineSample(self._n_samples, t, points)
        self._append(sample)
        for observer in self._observers:
            observer.observe(sample, self)
        return sample

    def _append(self, sample: TimelineSample) -> None:
        if self._count == self.capacity and self._ring[self._head] is not None:
            self.dropped += 1
        self._ring[self._head] = sample
        self._head = (self._head + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        self._n_samples += 1

    # -- read side -----------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def n_samples(self) -> int:
        """Lifetime sample count (retained + overwritten)."""
        return self._n_samples

    def samples(self) -> List[TimelineSample]:
        """Retained samples, oldest first."""
        if self._count < self.capacity:
            return [s for s in self._ring[: self._count]]
        return (
            self._ring[self._head:] + self._ring[: self._head]
        )

    def latest(self) -> Optional[TimelineSample]:
        return self.samples()[-1] if self._count else None

    def clear(self) -> None:
        """Drop retained samples and delta state (bindings stay)."""
        self._ring = [None] * self.capacity
        self._head = 0
        self._count = 0
        self._n_samples = 0
        self.dropped = 0
        self._next_due = None
        self._prev = {}

    # -- export --------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical JSON-lines serialization of the retained samples
        (oldest first) — byte-identical for a seeded run."""
        return "\n".join(s.to_json() for s in self.samples())

    def digest(self) -> str:
        """SHA-256 of :meth:`to_jsonl` — the determinism pin."""
        return hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()


class NullFlightRecorder:
    """The disabled recorder: records nothing, costs one attribute
    check per hook (the zero-overhead contract the bench pins)."""

    enabled = False
    interval = 0.0
    capacity = 0
    window = 0
    dropped = 0
    n_samples = 0

    def bind_clock(self, clock) -> None:
        pass

    def attach(self, observer) -> None:
        pass

    def sample_if_due(self) -> None:
        return None

    def sample(self) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def samples(self) -> List:
        return []

    def latest(self) -> None:
        return None

    def clear(self) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def digest(self) -> str:
        return hashlib.sha256(b"").hexdigest()


#: Shared inert recorder (what :func:`flight_recorder` returns for a
#: disabled backend).
NULL_RECORDER = NullFlightRecorder()


def flight_recorder(
    telemetry=None,
    clock: Optional[Callable[[], float]] = None,
    interval: float = 1.0,
    capacity: int = DEFAULT_CAPACITY,
    window: int = DEFAULT_WINDOW,
):
    """A :class:`FlightRecorder` over ``telemetry`` (the installed
    backend when omitted), or the shared :data:`NULL_RECORDER` when
    telemetry is disabled — the same lazy pattern as the tracer."""
    if telemetry is None:
        from repro.obs.runtime import current

        telemetry = current()
    if not telemetry.enabled:
        return NULL_RECORDER
    return FlightRecorder(
        telemetry, clock=clock, interval=interval,
        capacity=capacity, window=window,
    )


def schedule_sampling(
    schedule: Callable,
    recorder,
    interval: float,
    until: float,
    start: float = 0.0,
) -> int:
    """Pre-schedule push-style sampling ticks on an absolute-time
    scheduler (e.g. ``sim.schedule_at``): one ``recorder.sample`` call
    every ``interval`` from ``start`` through ``until`` inclusive.
    Returns how many ticks were scheduled.  No-op for a disabled
    recorder."""
    if interval <= 0:
        raise ValueError(f"interval must be positive, got {interval}")
    if not recorder.enabled:
        return 0
    n = 0
    t = float(start)
    while t <= until + 1e-12:
        schedule(t, recorder.sample)
        t += interval
        n += 1
    return n
