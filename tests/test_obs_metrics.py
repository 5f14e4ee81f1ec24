"""Metrics registry semantics: instruments, labeled series, pull
collectors, and the null backend."""

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)


class TestInstruments:
    def test_counter_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_gauge_set_and_add(self):
        g = Gauge()
        g.set(4)
        g.add(-1.5)
        assert g.value == 2.5

    def test_histogram_bucket_placement(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # <=1, <=10, overflow
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)

    def test_histogram_quantiles(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 0.7, 5.0):
            h.observe(v)
        assert h.quantile_bound(0.5) == 1.0
        assert h.quantile_bound(1.0) == 10.0
        import math

        assert math.isnan(Histogram().quantile_bound(0.5))

    def test_histogram_overflow_quantile_is_inf(self):
        h = Histogram(buckets=(1.0,))
        h.observe(99.0)
        assert h.quantile_bound(0.9) == float("inf")

    def test_histogram_validates_buckets(self):
        with pytest.raises(ValueError, match="increase"):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            Histogram(buckets=())


class TestRegistry:
    def test_get_or_create_by_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("net.rx", node=1)
        b = reg.counter("net.rx", node=2)
        assert a is not b
        assert reg.counter("net.rx", node=1) is a
        assert len(reg) == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="counter"):
            reg.gauge("x")
        with pytest.raises(TypeError, match="counter"):
            reg.histogram("x")

    def test_value_and_total(self):
        reg = MetricsRegistry()
        reg.counter("net.rx", node=1).inc(10)
        reg.counter("net.rx", node=2).inc(5)
        assert reg.value("net.rx", node=1) == 10
        assert reg.value("net.rx", node=9) == 0.0
        assert reg.total("net.rx") == 15

    def test_series_canonical_order(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", node=2)
        reg.counter("a", node=1)
        names = [(name, labels) for name, labels, __ in reg.series()]
        assert names == [
            ("a", {"node": 1}), ("a", {"node": 2}), ("b", {})
        ]

    def test_collector_runs_at_collect_time(self):
        reg = MetricsRegistry()
        calls = []

        def sync(registry):
            calls.append(registry)
            registry.counter("pulled").inc()

        reg.register_collector(sync)
        assert calls == []  # nothing until collect()
        reg.collect()
        assert calls == [reg]
        assert reg.value("pulled") == 1

    def test_clear_keeps_collectors(self):
        reg = MetricsRegistry()
        reg.register_collector(lambda r: r.counter("c").inc())
        reg.collect()
        reg.clear()
        assert len(reg) == 0
        reg.collect()
        assert reg.value("c") == 1

    def test_inc_counters_matches_per_series_counter(self):
        bulk, single = MetricsRegistry(), MetricsRegistry()
        increments = [
            ((), 2.0),
            ((("src", 5), ("dst", 3)), 7),  # unsorted pairs
            ((("dst", 3), ("src", 5)), 1),  # same series, sorted
            ((("node", True),), 1.5),
        ]
        for registry in (bulk, single):
            registry.counter("net.link", src=9, dst=9).inc(4)
        bulk.inc_counters("net.link", increments)
        for label_items, amount in increments:
            single.counter("net.link", **dict(label_items)).inc(amount)
        assert bulk.snapshot() == single.snapshot()
        assert bulk.value("net.link", src=5, dst=3) == 8
        assert bulk.value("net.link", src=9, dst=9) == 4

    def test_inc_counters_keeps_counter_rules(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.inc_counters("c", [((("node", 1),), -1)])
        reg.gauge("g", node=1)
        with pytest.raises(TypeError, match="gauge"):
            reg.inc_counters("g", [((("node", 1),), 1)])


class TestNullMetrics:
    def test_shared_inert_instruments(self):
        null = NullMetrics()
        c = null.counter("a", node=1)
        assert c is null.counter("b")
        c.inc(100)
        assert c.value == 0.0
        g = null.gauge("g")
        g.set(5)
        g.add(1)
        assert g.value == 0.0
        h = null.histogram("h")
        h.observe(3)
        assert h.count == 0
        assert h.counts == [0] * (len(DEFAULT_BUCKETS) + 1)

    def test_read_side_is_empty(self):
        null = NullMetrics()
        null.register_collector(lambda r: r)
        null.collect()
        assert len(null) == 0
        assert null.series() == []
        assert null.value("x") == 0.0
        assert null.total("x") == 0.0


class TestHistogramEdgeCases:
    def test_q0_returns_first_nonempty_bucket(self):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        h.observe(5.0)  # lands in the <=10 bucket
        assert h.quantile_bound(0.0) == 10.0

    def test_q1_covers_the_maximum(self):
        h = Histogram(buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(7.0)
        assert h.quantile_bound(1.0) == 10.0

    def test_quantile_rejects_out_of_range(self):
        h = Histogram(buckets=(1.0,))
        with pytest.raises(ValueError, match="quantile"):
            h.quantile_bound(1.5)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile_bound(-0.1)

    def test_terminal_inf_bound_accepted(self):
        h = Histogram(buckets=(1.0, float("inf")))
        h.observe(99.0)
        assert h.quantile_bound(0.9) == float("inf")
        assert h.counts == [0, 1, 0]

    def test_non_terminal_inf_bound_rejected(self):
        with pytest.raises(ValueError, match="terminal"):
            Histogram(buckets=(float("inf"), 1.0))

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram(buckets=(1.0, float("nan")))


class TestMergeSnapshotValidation:
    def test_bucket_boundary_mismatch_raises(self):
        src = MetricsRegistry()
        src.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        dst = MetricsRegistry()
        dst.histogram("lat", buckets=(1.0, 5.0))
        with pytest.raises(
            ValueError, match="bucket boundaries mismatch on merge"
        ):
            dst.merge_snapshot(src.snapshot())

    def test_mismatch_message_names_both_boundaries(self):
        src = MetricsRegistry()
        src.histogram("lat", buckets=(1.0,)).observe(0.5)
        dst = MetricsRegistry()
        dst.histogram("lat", buckets=(2.0,))
        with pytest.raises(ValueError) as err:
            dst.merge_snapshot(src.snapshot())
        assert "'lat'" in str(err.value)
        assert "(2.0,)" in str(err.value) and "(1.0,)" in str(err.value)

    def test_malformed_counts_raise(self):
        snap = [[
            "lat", [], "histogram",
            {"buckets": [1.0, 2.0], "counts": [1, 2], "sum": 1.0,
             "count": 3},
        ]]
        with pytest.raises(ValueError, match="malformed.*expected 3"):
            MetricsRegistry().merge_snapshot(snap)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown instrument kind"):
            MetricsRegistry().merge_snapshot([["x", [], "summary", 0]])

    def test_valid_merge_accumulates(self):
        src = MetricsRegistry()
        h = src.histogram("lat", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(5.0)
        dst = MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        dst.merge_snapshot(src.snapshot())
        merged = dst.histogram("lat", buckets=(1.0, 2.0))
        assert merged.counts == [2, 0, 2]
        assert merged.count == 4
        assert merged.sum == pytest.approx(11.0)
