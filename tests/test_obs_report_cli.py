"""Trace export/aggregation and the trace/stats CLI surfaces.

The acceptance pins live here: on a lossless run the ``repro stats``
per-node table rebuilt from a written trace equals the Network's own
traffic counters exactly, and tracing never changes the model math
(logits byte-identical with and without a session installed).
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.assignment import grid_correspondence_assignment
from repro.core.executor import DistributedExecutor
from repro.core.unitgraph import UnitGraph
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn.network import Message, Network
from repro.wsn.topology import GridTopology


def build_stack(telemetry=None):
    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(4), Dense(2),
    ])
    model.build((1, 10, 10), np.random.default_rng(0))
    graph = UnitGraph(model)
    topology = GridTopology(4, 4)
    placement = grid_correspondence_assignment(graph, topology)
    network = Network(topology, telemetry=telemetry)
    executor = DistributedExecutor(
        model, graph, placement, network, telemetry=telemetry
    )
    return model, network, executor


@pytest.fixture()
def traced_run():
    """One lossless traced inference; returns (tel, network, events)."""
    with obs.session() as tel:
        __, network, executor = build_stack()
        x = np.random.default_rng(1).normal(size=(4, 1, 10, 10))
        executor.forward(x, count_traffic=True)
        events = obs.export_events(tel)
    return tel, network, events


class TestExport:
    def test_events_validate(self, traced_run):
        __, __, events = traced_run
        for event in events:
            assert obs.validate_event(event) == [], event

    def test_jsonl_round_trip(self, traced_run):
        tel, __, events = traced_run
        text = obs.export_jsonl(tel)
        assert obs.load_trace_jsonl(text) == events

    def test_chrome_envelope(self, traced_run):
        __, __, events = traced_run
        doc = json.loads(obs.to_chrome_json(events))
        assert doc["traceEvents"] == events

    def test_write_and_load_file(self, traced_run, tmp_path):
        tel, __, __ = traced_run
        path = obs.write_trace(tel, tmp_path / "t.jsonl")
        assert obs.load_trace_file(path) == obs.export_events(tel)

    def test_malformed_line_names_lineno(self):
        with pytest.raises(ValueError, match="line 2"):
            obs.load_trace_jsonl('{"name":"a","ph":"i","ts":0}\nnot json')

    def test_invalid_event_rejected(self):
        errors = obs.validate_event({"name": "", "ph": "Z", "ts": "x"})
        assert len(errors) == 3
        assert obs.validate_event("nope")


class TestCostTables:
    def test_per_node_costs_equal_network_counters(self, traced_run):
        """Acceptance: trace-derived per-node totals == TrafficStats."""
        __, network, events = traced_run
        costs = obs.per_node_costs(events)
        stats = network.stats
        for node, want in stats.per_node_rx_values.items():
            assert costs[node]["rx_values"] == want
        for node, want in stats.per_node_tx_values.items():
            assert costs[node]["tx_values"] == want
        totals = obs.cost_totals(costs)
        assert totals["rx_values"] == sum(stats.per_node_rx_values.values())
        assert totals["tx_values"] == sum(stats.per_node_tx_values.values())

    def test_reconciliation_clean(self, traced_run):
        __, network, __ = traced_run
        assert network.telemetry_drift() == []

    def test_reconciliation_survives_a_registry_clear(self):
        """The first collect after a clear republishes each network's
        full totals, and later collects stay in step."""
        tel = obs.Telemetry()
        network = Network(GridTopology(3, 3), telemetry=tel)
        network.unicast(Message(0, 8, 4))
        tel.metrics.collect()
        tel.clear()
        assert network.telemetry_drift() == []
        assert tel.metrics.value("net.sent") == 1
        network.unicast(Message(0, 8, 4))
        assert network.telemetry_drift() == []
        assert tel.metrics.value("net.sent") == 2
        tel.clear()  # a reset before any collect retracts nothing
        network.reset_stats()
        network.unicast(Message(8, 0, 2))
        assert network.telemetry_drift() == []
        assert tel.metrics.value("net.sent") == 1

    def test_markdown_tables(self, traced_run):
        __, __, events = traced_run
        costs = obs.per_node_costs(events)
        table = obs.cost_table_markdown(costs)
        assert "Peak receiver" in table
        comparison = obs.cost_comparison_markdown(costs, costs)
        assert "| **peak** |" in comparison
        summary = obs.trace_summary_markdown(events)
        # The steady-state default serves forward() from a compiled
        # plan, so the trace carries exec.plan spans.
        assert "exec.plan" in summary

    def test_counter_samples_last_write_wins(self):
        events = [
            {"name": "c", "ph": "C", "ts": 0.0,
             "args": {"node": 1, "value": 5, "kind": "counter"}},
            {"name": "c", "ph": "C", "ts": 1.0,
             "args": {"node": 1, "value": 9, "kind": "counter"}},
        ]
        (sample,) = obs.counter_samples(events, "c")
        assert sample["value"] == 9


class TestTracingIsInert:
    def test_logits_identical_with_and_without_session(self):
        x = np.random.default_rng(2).normal(size=(4, 1, 10, 10))
        __, __, executor = build_stack()
        baseline = executor.forward(x, count_traffic=False)
        with obs.session():
            __, __, traced_exec = build_stack()
            traced = traced_exec.forward(x, count_traffic=True)
        np.testing.assert_array_equal(baseline, traced)

    def test_traffic_stats_identical_with_and_without_session(self):
        x_shape = 4
        __, plain_net, plain_exec = build_stack()
        plain_exec.replay_traffic(x_shape)
        with obs.session():
            __, traced_net, traced_exec = build_stack()
            traced_exec.replay_traffic(x_shape)
        assert plain_net.stats == traced_net.stats

    def test_trace_determinism_across_runs(self):
        def one_run():
            with obs.session() as tel:
                __, __, executor = build_stack()
                x = np.random.default_rng(3).normal(size=(2, 1, 10, 10))
                executor.forward(x, count_traffic=True)
                return obs.export_jsonl(tel)

        assert one_run() == one_run()


class TestCli:
    def test_trace_writes_valid_jsonl(self, tmp_path, capsys):
        """Acceptance: `repro trace quickstart` writes Chrome-loadable
        JSONL."""
        out = tmp_path / "quickstart.jsonl"
        summary = tmp_path / "quickstart.md"
        code = main([
            "trace", "quickstart",
            "--out", str(out), "--summary", str(summary),
        ])
        assert code == 0
        events = obs.load_trace_file(out)
        assert events  # parsed and schema-validated
        for event in events:
            assert obs.validate_event(event) == [], event
        assert "Trace: quickstart" in summary.read_text()

    def test_trace_unknown_example(self, capsys):
        assert main(["trace", "teleportation"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_stats_and_comparison(self, tmp_path, capsys):
        out = tmp_path / "a.jsonl"
        assert main(["trace", "quickstart", "--out", str(out),
                     "--summary", str(tmp_path / "a.md")]) == 0
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        assert "Per-node communication cost" in capsys.readouterr().out
        assert main(["stats", str(out), "--against", str(out)]) == 0
        comparison = capsys.readouterr().out
        assert "| **peak** |" in comparison

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_stats_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["stats", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err
