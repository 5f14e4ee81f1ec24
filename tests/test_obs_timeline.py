"""Flight-recorder semantics: ring buffer, deltas, rolling windows,
determinism pins, the null backend, and push/pull scheduling."""

import json
import math

import pytest

from repro.obs import (
    DEFAULT_CAPACITY,
    DEFAULT_WINDOW,
    FlightRecorder,
    MetricsRegistry,
    NULL_RECORDER,
    NullFlightRecorder,
    NullTelemetry,
    Telemetry,
    flight_recorder,
    quantile_from_counts,
    schedule_sampling,
    series_key,
)


def _recorder(tel=None, **kwargs):
    return FlightRecorder(tel if tel is not None else Telemetry(), **kwargs)


class TestSeriesKey:
    def test_unlabeled_is_bare_name(self):
        assert series_key("net.delivered", {}) == "net.delivered"

    def test_labels_sorted(self):
        key = series_key("x", {"b": 2, "a": "one"})
        assert key == "x{a=one,b=2}"


class TestSampling:
    def test_counter_delta_and_value(self):
        tel = Telemetry()
        rec = _recorder(tel)
        c = tel.metrics.counter("hits")
        c.inc(3)
        s0 = rec.sample()
        c.inc(2)
        s1 = rec.sample()
        assert s0.get("hits").value == 3.0
        assert s0.get("hits").delta == 3.0
        assert s1.get("hits").value == 5.0
        assert s1.get("hits").delta == 2.0

    def test_gauge_first_delta_is_zero(self):
        tel = Telemetry()
        rec = _recorder(tel)
        g = tel.metrics.gauge("depth")
        g.set(7.0)
        s0 = rec.sample()
        g.set(4.0)
        s1 = rec.sample()
        assert s0.get("depth").delta == 0.0
        assert s1.get("depth").delta == -3.0

    def test_histogram_delta_and_windowed_quantiles(self):
        tel = Telemetry()
        rec = _recorder(tel, window=4)
        h = tel.metrics.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 0.7, 5.0):
            h.observe(v)
        s0 = rec.sample()
        p = s0.get("lat")
        assert p.kind == "histogram"
        assert p.value == 4
        assert p.delta == 4
        assert p.sum_delta == pytest.approx(6.8)
        assert p.p50 == 1.0
        assert p.p99 == 10.0
        # no new observations: the next tick's delta is zero but the
        # window still holds the first tick's mass.
        s1 = rec.sample()
        assert s1.get("lat").delta == 0
        assert s1.get("lat").p50 == 1.0

    def test_default_clock_is_sample_index(self):
        rec = _recorder()
        assert rec.sample().t == 0.0
        assert rec.sample().t == 1.0

    def test_bound_clock_drives_time(self):
        state = {"t": 0.0}
        rec = _recorder(clock=lambda: state["t"])
        state["t"] = 2.5
        assert rec.sample().t == 2.5

    def test_rate_uses_windowed_elapsed(self):
        state = {"t": 0.0}
        tel = Telemetry()
        rec = _recorder(tel, clock=lambda: state["t"], window=8)
        c = tel.metrics.counter("pkts")
        for _ in range(4):
            state["t"] += 1.0
            c.inc(10)
            rec.sample()
        # The window holds all four ticks' deltas (40 packets) over
        # the span between the first and last retained sample (3 s).
        assert rec.latest().get("pkts").rate == pytest.approx(40.0 / 3.0)

    def test_first_tick_rate_spans_from_clock_origin(self):
        # Counters accumulated before sampling began must not read as
        # a one-cadence burst on the first tick.
        state = {"t": 10.0}
        tel = Telemetry()
        rec = _recorder(tel, clock=lambda: state["t"], interval=0.1)
        tel.metrics.counter("retries").inc(30)
        s = rec.sample()
        assert s.get("retries").rate == pytest.approx(3.0)

    def test_observer_runs_after_each_tick(self):
        seen = []

        class Obs:
            def observe(self, sample, recorder):
                seen.append((sample.index, recorder))

        rec = _recorder()
        rec.attach(Obs())
        rec.sample()
        rec.sample()
        assert [i for i, _ in seen] == [0, 1]
        assert all(r is rec for _, r in seen)

    def test_registry_cleared_between_ticks_reads_new_series(self):
        """A cleared registry refilled with the same series set (the
        per-run clear pattern) must be read through its new
        instruments; a refill with a different set of the same size
        must show the new set."""
        tel = Telemetry()
        rec = _recorder(tel)
        tel.metrics.counter("a", node=1).inc(1)
        tel.metrics.counter("a", node=2).inc(2)
        rec.sample()
        tel.metrics.clear()
        tel.metrics.counter("a", node=2).inc(20)
        tel.metrics.counter("a", node=1).inc(10)
        s1 = rec.sample()
        assert list(s1.points) == ["a{node=1}", "a{node=2}"]
        assert [p.value for p in s1.points.values()] == [10.0, 20.0]
        tel.metrics.clear()
        tel.metrics.counter("a", node=1).inc(11)
        tel.metrics.counter("b").inc(5)
        s2 = rec.sample()
        assert list(s2.points) == ["a{node=1}", "b"]
        assert [p.value for p in s2.points.values()] == [11.0, 5.0]


class TestCounterFamilies:
    """The recorder's numpy path for counter families must read exactly
    as its per-series path over the same counts held as plain series."""

    STEPS = (
        [((1, 2), 3), ((0, 1), 5)],
        [((1, 2), 1), ((0, 1), 0)],
        [((1, 2), 2), ((0, 1), 1), ((2, 0), 4)],   # a member appears
        "clear",
        [((2, 0), 9)],                             # refilled with a subset
        [((2, 0), 1), ((1, 2), 6)],                # a member returns
        [],
        "clear",
        [((1, 2), 2), ((0, 1), 1), ((2, 0), 4)],
        [((1, 2), 2), ((0, 1), 1), ((2, 0), 4)],
    )

    def _run(self, as_family):
        state = {"t": 0.0}
        tel = Telemetry()
        rec = _recorder(tel, clock=lambda: state["t"], window=3, capacity=5)
        seen = []
        for step in self.STEPS:
            state["t"] += 0.5
            if step == "clear":
                tel.metrics.clear()
                continue
            tel.metrics.counter("net.hops").inc(1)
            if as_family and step:
                keys, amounts = zip(*step)
                tel.metrics.counter_family(
                    "net.link", ("src", "dst")
                ).inc(list(keys), list(amounts))
            else:
                for (src, dst), amount in step:
                    tel.metrics.counter("net.link", src=src, dst=dst).inc(
                        amount
                    )
            sample = rec.sample()
            seen.append([
                (key, p.name, p.labels, p.kind, p.value, p.delta, p.rate)
                for key, p in sample.points.items()
            ])
            assert sample.get("net.link{dst=2,src=1}") == (
                sample.points.get("net.link{dst=2,src=1}")
            )
        return rec.to_jsonl(), seen

    def test_family_path_matches_plain_series(self):
        assert self._run(as_family=True) == self._run(as_family=False)

    def test_points_are_built_once_on_read(self):
        tel = Telemetry()
        rec = _recorder(tel)
        tel.metrics.counter("a").inc()
        tel.metrics.counter_family("m", ("node",)).inc([(2,), (10,)], [1, 1])
        tel.metrics.counter("z").inc()
        sample = rec.sample()
        assert list(sample.points) == ["a", "m{node=2}", "m{node=10}", "z"]
        assert sample.points is sample.points


class TestRingBuffer:
    def test_drop_oldest_and_dropped_counter(self):
        rec = _recorder(capacity=3)
        for _ in range(5):
            rec.sample()
        assert len(rec) == 3
        assert rec.n_samples == 5
        assert rec.dropped == 2
        assert [s.index for s in rec.samples()] == [2, 3, 4]
        assert rec.latest().index == 4

    def test_clear_resets_everything(self):
        tel = Telemetry()
        rec = _recorder(tel, capacity=2)
        tel.metrics.counter("c").inc()
        for _ in range(3):
            rec.sample()
        rec.clear()
        assert len(rec) == 0
        assert rec.n_samples == 0
        assert rec.dropped == 0
        assert rec.latest() is None
        # delta state cleared too: next sample sees the full value.
        assert rec.sample().get("c").delta == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            _recorder(interval=0.0)
        with pytest.raises(ValueError, match="capacity"):
            _recorder(capacity=0)
        with pytest.raises(ValueError, match="window"):
            _recorder(window=0)


class TestSampleIfDue:
    def test_honours_cadence(self):
        state = {"t": 0.0}
        rec = _recorder(clock=lambda: state["t"], interval=1.0)
        assert rec.sample_if_due() is not None  # first is always due
        assert rec.sample_if_due() is None
        state["t"] = 0.5
        assert rec.sample_if_due() is None
        state["t"] = 1.0
        assert rec.sample_if_due() is not None
        assert rec.n_samples == 2


class TestDeterminism:
    @staticmethod
    def _seeded_run():
        import random

        rng = random.Random(1234)
        tel = Telemetry()
        rec = FlightRecorder(tel, interval=1.0, window=4)
        c = tel.metrics.counter("net.delivered")
        h = tel.metrics.histogram("lat", buckets=(0.01, 0.1, 1.0))
        g = tel.metrics.gauge("depth", node="n1")
        for i in range(20):
            c.inc(rng.randrange(1, 9))
            h.observe(rng.random())
            g.set(rng.randrange(0, 5))
            rec.sample()
        return rec

    def test_two_seeded_runs_are_byte_identical(self):
        a, b = self._seeded_run(), self._seeded_run()
        assert a.to_jsonl() == b.to_jsonl()
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64

    def test_jsonl_is_canonical(self):
        rec = self._seeded_run()
        lines = rec.to_jsonl().split("\n")
        assert len(lines) == 20
        for line in lines:
            doc = json.loads(line)
            assert set(doc) == {"i", "t", "series"}
            assert list(doc["series"]) == sorted(doc["series"])
            # canonical encoding round-trips byte-identically
            assert json.dumps(
                doc, sort_keys=True, separators=(",", ":")
            ) == line

    def test_histogram_payload_shape(self):
        rec = self._seeded_run()
        doc = json.loads(rec.to_jsonl().split("\n")[0])
        hist = doc["series"]["lat"]
        assert set(hist) == {"k", "v", "d", "r", "s", "p50", "p99"}
        plain = doc["series"]["net.delivered"]
        assert set(plain) == {"k", "v", "d", "r"}

    def test_snapshot_merge_round_trip_preserves_aggregates(self):
        # Exporting a registry snapshot and merging it into a fresh
        # registry must leave timeline-derived aggregates unchanged:
        # the recorder over the merged registry sees the same values,
        # deltas, and quantile bounds.
        def drive(metrics):
            c = metrics.counter("net.delivered")
            c.inc(12)
            h = metrics.histogram("lat", buckets=(0.01, 0.1, 1.0))
            for v in (0.005, 0.05, 0.5, 2.0):
                h.observe(v)

        src = MetricsRegistry()
        drive(src)
        dst = MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        rec_a = FlightRecorder(Telemetry(metrics=src))
        rec_b = FlightRecorder(Telemetry(metrics=dst))
        assert rec_a.sample().to_json() == rec_b.sample().to_json()


class TestQuantileFromCounts:
    def test_empty_window_is_nan(self):
        assert math.isnan(quantile_from_counts((1.0, 2.0), [0, 0, 0], 0.5))

    def test_picks_covering_bound(self):
        assert quantile_from_counts((1.0, 10.0), [3, 1, 0], 0.5) == 1.0
        assert quantile_from_counts((1.0, 10.0), [3, 1, 0], 0.99) == 10.0

    def test_overflow_mass_is_inf(self):
        assert quantile_from_counts((1.0,), [0, 5], 0.9) == float("inf")


class TestNullRecorder:
    def test_null_is_inert(self):
        rec = NullFlightRecorder()
        rec.bind_clock(lambda: 0.0)
        rec.attach(object())
        assert rec.sample() is None
        assert rec.sample_if_due() is None
        assert len(rec) == 0
        assert rec.samples() == []
        assert rec.latest() is None
        assert rec.to_jsonl() == ""
        assert not rec.enabled
        rec.clear()

    def test_null_digest_is_empty_digest(self):
        import hashlib

        assert NULL_RECORDER.digest() == hashlib.sha256(b"").hexdigest()

    def test_factory_returns_null_for_disabled(self):
        assert flight_recorder(NullTelemetry()) is NULL_RECORDER

    def test_factory_builds_live_recorder(self):
        tel = Telemetry()
        rec = flight_recorder(tel, interval=0.5, capacity=9, window=3)
        assert isinstance(rec, FlightRecorder)
        assert (rec.interval, rec.capacity, rec.window) == (0.5, 9, 3)

    def test_factory_defaults(self):
        rec = flight_recorder(Telemetry())
        assert rec.capacity == DEFAULT_CAPACITY
        assert rec.window == DEFAULT_WINDOW


class TestScheduleSampling:
    def test_schedules_inclusive_ticks(self):
        calls = []
        rec = _recorder()
        n = schedule_sampling(
            lambda t, fn: calls.append((t, fn)), rec,
            interval=0.5, until=2.0,
        )
        assert n == 5
        assert [t for t, _ in calls] == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert all(fn == rec.sample for _, fn in calls)

    def test_noop_for_null_recorder(self):
        calls = []
        n = schedule_sampling(
            lambda t, fn: calls.append(t), NULL_RECORDER,
            interval=0.5, until=2.0,
        )
        assert n == 0
        assert calls == []

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            schedule_sampling(lambda t, fn: None, _recorder(),
                              interval=0.0, until=1.0)
