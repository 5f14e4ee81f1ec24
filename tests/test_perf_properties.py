"""Property tests (``-m perf``) for the vectorized hot paths.

Randomized placements and topologies check the *invariants* the
vectorization must conserve, rather than specific values: aggregated
traffic replay keeps the transfer multiset and its layer ordering.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    DistributedExecutor,
    UnitGraph,
    centralized_assignment,
    grid_correspondence_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import GridTopology, Network

pytestmark = pytest.mark.perf


class SpyNetwork(Network):
    """Network that records every (src, dst, n_values, kind, copies)."""

    def __init__(self, topology):
        super().__init__(topology)
        self.log = []

    def unicast(self, message):
        self.log.append(
            (message.src, message.dst, message.n_values, message.kind, 1)
        )
        return super().unicast(message)

    def unicast_bulk(self, message, copies):
        self.log.append(
            (message.src, message.dst, message.n_values, message.kind, copies)
        )
        return super().unicast_bulk(message, copies)


def build_case(rng, input_hw=(8, 8)):
    """A random placed model over a random topology."""
    model = Sequential([
        Conv2D(int(rng.integers(1, 3)), 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(int(rng.integers(4, 10))), ReLU(), Dense(2),
    ])
    model.build((1,) + input_hw, np.random.default_rng(int(rng.integers(1e6))))
    graph = UnitGraph(model)
    # Placement strategies map input cells through the grid geometry,
    # so topologies vary by random grid shape (and sink choice).
    topo = GridTopology(int(rng.integers(3, 7)), int(rng.integers(3, 7)))
    strategies = [
        lambda g, t: grid_correspondence_assignment(g, t),
        lambda g, t: centralized_assignment(g, t),
        lambda g, t: centralized_assignment(g, t, sink=min(t.nodes)),
        lambda g, t: round_robin_assignment(g, t),
        lambda g, t: random_assignment(
            g, t, np.random.default_rng(int(rng.integers(1e6)))
        ),
    ]
    strategy = strategies[int(rng.integers(len(strategies)))]
    placement = strategy(graph, topo)
    return model, graph, topo, placement


class TestReplayConservation:
    @pytest.mark.parametrize("trial", range(8))
    def test_aggregation_conserves_transfer_multiset(self, trial):
        """Sum over bulk sends == the per-element multiset, for any
        random placement/topology/batch."""
        rng = np.random.default_rng(1000 + trial)
        model, graph, topo, placement = build_case(rng)
        batch = int(rng.integers(1, 9))

        spy_fast = SpyNetwork(topo)
        ex = DistributedExecutor(model, graph, placement, spy_fast)
        ex.replay_traffic(batch)

        spy_ref = SpyNetwork(topo)
        ex_ref = DistributedExecutor(model, graph, placement, spy_ref)
        ex_ref.replay_traffic_reference(batch)

        def multiset(log):
            counts = Counter()
            for src, dst, n_values, kind, copies in log:
                counts[(src, dst, n_values, kind)] += copies
            return counts

        assert multiset(spy_fast.log) == multiset(spy_ref.log)
        # Total values moved is conserved too.
        fast_total = sum(n * c for __, __, n, __, c in spy_fast.log)
        ref_total = sum(n * c for __, __, n, __, c in spy_ref.log)
        assert fast_total == ref_total

    @pytest.mark.parametrize("trial", range(8))
    def test_aggregation_conserves_per_node_stats(self, trial):
        rng = np.random.default_rng(2000 + trial)
        model, graph, topo, placement = build_case(rng)
        batch = int(rng.integers(1, 9))

        net_fast = Network(topo)
        DistributedExecutor(model, graph, placement, net_fast).replay_traffic(
            batch
        )
        net_ref = Network(topo)
        DistributedExecutor(
            model, graph, placement, net_ref
        ).replay_traffic_reference(batch)
        assert dict(net_fast.stats.per_node_rx_values) == (
            dict(net_ref.stats.per_node_rx_values)
        )
        assert dict(net_fast.stats.per_node_tx_values) == (
            dict(net_ref.stats.per_node_tx_values)
        )
        assert net_fast.stats.sent == net_ref.stats.sent
        assert net_fast.stats.delivered == net_ref.stats.delivered
        assert net_fast.stats.total_hops == net_ref.stats.total_hops

    @pytest.mark.parametrize("trial", range(4))
    def test_replay_layer_order_non_decreasing(self, trial):
        """Aggregation must not reorder layers: the replayed kind
        sequence stays non-decreasing like the flat transfer list."""
        rng = np.random.default_rng(3000 + trial)
        model, graph, topo, placement = build_case(rng)
        spy = SpyNetwork(topo)
        DistributedExecutor(model, graph, placement, spy).replay_traffic(2)
        layers = [int(kind[len("layer"):]) for __, __, __, kind, __ in spy.log]
        assert layers == sorted(layers)
