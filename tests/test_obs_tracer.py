"""Tracer semantics: nesting, sim-clock stamping, drain-strategy
parity, determinism, and the null-backend no-op pins."""

import enum
import json

import numpy as np
import pytest

from repro.obs import (
    NULL,
    NullTracer,
    Telemetry,
    Tracer,
    current,
    install,
    session,
    uninstall,
)
from repro.sim.engine import Simulator


class TestSpanNesting:
    def test_parent_ids_follow_the_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        by_name = {rec.name: rec for rec in tracer.events}
        outer = by_name["outer"]
        assert outer.parent_id == 0
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["sibling"].parent_id == outer.span_id

    def test_completion_order_children_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [rec.name for rec in tracer.events] == ["inner", "outer"]

    def test_instant_parents_under_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.instant("mark", node=3)
        rec = tracer.events[0]
        assert rec.phase == "i"
        assert rec.parent_id == outer.span_id
        assert rec.attrs == {"node": 3}

    def test_annotate_lands_in_attrs(self):
        tracer = Tracer()
        with tracer.span("s", a=1) as span:
            span.annotate(b="two")
        assert tracer.events[0].attrs == {"a": 1, "b": "two"}

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_depth_tracks_open_spans(self):
        tracer = Tracer()
        assert tracer.depth == 0
        with tracer.span("a"):
            assert tracer.depth == 1
        assert tracer.depth == 0


class TestSimClock:
    def test_spans_stamped_with_simulated_time(self):
        tracer = Tracer()
        tel = Telemetry(tracer=tracer)
        sim = Simulator(telemetry=tel)
        sim.schedule(2.5, lambda: None, name="tick")
        sim.run()
        (rec,) = tracer.events
        assert rec.name == "sim.event"
        assert rec.t_start == 2.5
        assert rec.attrs["name"] == "tick"

    def test_step_matches_run(self):
        tel = Telemetry()
        sim = Simulator(telemetry=tel)
        sim.schedule(0.5, lambda: None, name="e0")
        while sim.step():
            pass
        assert tel.tracer.to_jsonl() == self._drain_single()

    def _drain_single(self):
        tel = Telemetry()
        sim = Simulator(telemetry=tel)
        sim.schedule(0.5, lambda: None, name="e0")
        sim.run()
        return tel.tracer.to_jsonl()


class TestDeterminism:
    def _traced_run(self):
        tel = Telemetry()
        sim = Simulator(telemetry=tel)

        def handler():
            tel.tracer.instant("inner", now=sim.now)

        for t in (0.25, 0.5, 1.75):
            sim.schedule(t, handler, name="h")
        sim.run()
        return tel.tracer

    def test_same_program_byte_identical_trace(self):
        assert self._traced_run().to_jsonl() == self._traced_run().to_jsonl()
        assert self._traced_run().digest() == self._traced_run().digest()

    def test_wall_times_recorded_but_excluded_by_default(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        rec = tracer.events[0]
        assert rec.wall_end_s >= rec.wall_start_s
        assert "wall_dur_us" not in json.loads(rec.to_json())["args"]
        assert "wall_dur_us" in json.loads(
            rec.to_json(include_wall=True)
        )["args"]

    def test_clear_drops_events(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert len(tracer) == 0


class TestJsonlSchema:
    def test_every_line_is_a_chrome_event(self):
        tracer = Tracer()
        with tracer.span("outer", layer=1):
            tracer.instant("mark")
        for line in tracer.to_jsonl().splitlines():
            event = json.loads(line)
            assert event["ph"] in ("X", "i")
            assert isinstance(event["ts"], float)
            assert event["cat"] == "repro"
            if event["ph"] == "X":
                assert "dur" in event
            else:
                assert event["s"] == "t"

    def test_attr_values_coerced_to_plain_python(self):
        class Level(enum.IntEnum):
            HIGH = 2

        tracer = Tracer()
        tracer.instant("mark", i=np.int64(3), f=np.float64(0.5),
                       e=Level.HIGH, b=True, s="x", n=None, t=(1, 2))
        attrs = tracer.events[0].attrs
        assert attrs == {
            "i": 3, "f": 0.5, "e": 2, "b": True, "s": "x", "n": None,
            "t": [1, 2],
        }
        assert [type(attrs[k]) for k in ("i", "f", "e", "b")] == [
            int, float, int, bool,
        ]


class TestNullBackend:
    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("s", a=1) as span:
            span.annotate(b=2)
            tracer.instant("i")
        assert tracer.events == []
        assert len(tracer) == 0
        assert tracer.depth == 0
        assert tracer.to_jsonl() == ""

    def test_null_span_is_shared(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")

    def test_current_defaults_to_null(self):
        assert current() is NULL
        assert current().enabled is False

    def test_install_uninstall(self):
        tel = install()
        try:
            assert current() is tel
            assert tel.enabled is True
        finally:
            uninstall()
        assert current() is NULL

    def test_sessions_nest_and_restore(self):
        with session() as outer:
            with session() as inner:
                assert current() is inner
            assert current() is outer
        assert current() is NULL
