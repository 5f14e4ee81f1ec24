"""Telemetry walkthrough: trace a distributed inference, report costs.

This demonstrates the observability layer (``repro.obs``) end to end:

1. install a telemetry session — every Simulator, Network, executor,
   MAC, or power manager built while it is live reports in;
2. run distributed inferences under two placements (the paper's
   grid-correspondence heuristic vs. the centralized sink);
3. export each run as Chrome-trace-event JSONL;
4. regenerate the paper's Fig.-10-style per-node communication-cost
   table from the traces alone, and cross-check it against the
   network's own traffic counters.

Run:  python examples/telemetry_walkthrough.py
"""

import numpy as np

from repro import obs
from repro.core import (
    DistributedExecutor,
    UnitGraph,
    centralized_assignment,
    grid_correspondence_assignment,
)
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import GridTopology, Network


def build_model(rng):
    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(8), ReLU(), Dense(2),
    ])
    model.build((1, 10, 10), rng)
    return model


def traced_run(model, graph, placement_fn, batch, rng):
    """One placement executed under its own telemetry session;
    returns (trace events, the network's own stats)."""
    topology = GridTopology(4, 4)
    with obs.session() as tel:
        # Built inside the session, so the network and executor pick
        # the tracer + metrics registry up automatically.
        network = Network(topology)
        placement = placement_fn(graph, topology)
        executor = DistributedExecutor(model, graph, placement, network)
        x = rng.normal(size=(batch, 1, 10, 10))
        executor.forward(x, count_traffic=True)
        drift = network.telemetry_drift()
        assert drift == [], drift  # the three tallies must agree
        events = obs.export_events(tel)
    return events, network.stats


def main():
    rng = np.random.default_rng(0)
    model = build_model(rng)
    graph = UnitGraph(model)
    batch = 8

    optimal_events, optimal_stats = traced_run(
        model, graph, grid_correspondence_assignment, batch, rng
    )
    central_events, central_stats = traced_run(
        model, graph, centralized_assignment, batch, rng
    )

    spans = obs.span_summary(optimal_events)
    # Each forward is one exec.forward span around the layer loop; in
    # steady state its traffic is one compiled exec.plan update (an
    # exec.replay span appears only when the executor falls back to
    # the event-driven oracle).
    print(f"optimal-placement trace: {len(optimal_events)} events "
          f"({spans.get('exec.forward', 0)} forward spans, "
          f"{spans.get('exec.plan', 0)} compiled-plan spans)")

    # The Fig.-10 artifact, rebuilt from the trace alone.
    optimal = obs.per_node_costs(optimal_events)
    central = obs.per_node_costs(central_events)
    print()
    print(obs.cost_comparison_markdown(
        optimal, central, base_label="grid (paper)", other_label="centralized"
    ))

    # The trace is a faithful copy of the network's own counters.
    trace_total = obs.cost_totals(optimal)["rx_values"]
    stats_total = sum(optimal_stats.per_node_rx_values.values())
    print(f"\ntrace rx total {trace_total:.0f} == "
          f"network counters {stats_total} "
          f"({'OK' if trace_total == stats_total else 'MISMATCH'})")
    peak = optimal_stats.max_rx_values()
    central_peak = central_stats.max_rx_values()
    print(f"peak receiver: {peak} values (grid) vs {central_peak} "
          f"(centralized) — the balance Fig. 10 shows")


if __name__ == "__main__":
    main()
