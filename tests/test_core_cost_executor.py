"""Tests for the cost model and distributed executor."""

import numpy as np
import pytest

from repro.core import (
    CommunicationCostModel,
    DistributedExecutor,
    UnitGraph,
    centralized_assignment,
    grid_correspondence_assignment,
    random_assignment,
)
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import GridTopology, Network

RNG = np.random.default_rng(17)


def make(input_hw=(10, 10), channels=1, node_grid=(4, 4)):
    """A CNN in MicroDeep's operating regime: the conv/pool stage
    compresses the spatial data well below the input size before the
    dense stage (10x10 input -> 4x4x2 = 32 values)."""
    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(8), ReLU(), Dense(2),
    ])
    model.build((channels,) + input_hw, np.random.default_rng(0))
    graph = UnitGraph(model)
    topo = GridTopology(*node_grid)
    return model, graph, topo


class TestCostModel:
    def test_centralized_sink_receives_everything(self):
        model, graph, topo = make()
        placement = centralized_assignment(graph, topo, sink=0)
        report = CommunicationCostModel(graph, topo).inference_cost(placement)
        # The sink receives every input cell it does not own: 64 cells,
        # 4 owned by node 0 (cells mapping to node (0,0)).
        sink_direct = sum(
            1 for pos, node in placement.input_node.items() if node != 0
        )
        assert report.rx_values[0] >= sink_direct
        assert report.max_rx() >= sink_direct

    def test_grid_correspondence_beats_centralized_peak(self):
        """The paper's headline: distributing units slashes the peak
        per-node traffic."""
        model, graph, topo = make()
        cm = CommunicationCostModel(graph, topo)
        central = cm.inference_cost(centralized_assignment(graph, topo))
        spread = cm.inference_cost(grid_correspondence_assignment(graph, topo))
        assert spread.max_rx() < central.max_rx()

    def test_routes_follow_a_node_move(self):
        """The route cache is keyed on the topology epoch: after a node
        moves, the same model prices the new routes, exactly like a
        freshly built one."""
        model = Sequential([Conv2D(2, 3), ReLU(), Flatten(), Dense(2)])
        model.build((1, 8, 8), np.random.default_rng(0))
        graph = UnitGraph(model)
        topo = GridTopology(3, 3)
        placement = grid_correspondence_assignment(graph, topo)
        cm = CommunicationCostModel(graph, topo)
        before = cm.inference_cost(placement)
        x, y = topo.node(4).position
        topo.node(4).position = (x + 0.675, y + 0.675)
        moved = cm.inference_cost(placement)
        fresh = CommunicationCostModel(graph, topo).inference_cost(placement)
        assert (before.total_rx(), before.max_rx()) == (272, 88)
        assert (moved.total_rx(), moved.max_rx()) == (336, 108)
        assert moved.rx_values == fresh.rx_values

    def test_grid_correspondence_beats_random_total(self):
        model, graph, topo = make()
        cm = CommunicationCostModel(graph, topo)
        good = cm.inference_cost(grid_correspondence_assignment(graph, topo))
        bad = cm.inference_cost(random_assignment(graph, topo, RNG))
        assert good.total_rx() < bad.total_rx()

    def test_single_node_zero_cost(self):
        model, graph, topo = make(node_grid=(1, 1))
        placement = grid_correspondence_assignment(graph, topo)
        report = CommunicationCostModel(graph, topo).inference_cost(placement)
        assert report.total_rx() == 0

    def test_elementwise_layers_free(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        report = CommunicationCostModel(graph, topo).inference_cost(placement)
        # ReLU layers are 1 and 5
        assert report.per_layer_total.get(1, 0) == 0
        assert report.per_layer_total.get(5, 0) == 0

    def test_collect_output_adds_cost(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        cm = CommunicationCostModel(graph, topo)
        without = cm.inference_cost(placement)
        with_sink = cm.inference_cost(placement, collect_output_at=0)
        assert with_sink.total_rx() >= without.total_rx()

    def test_node_costs_order(self):
        model, graph, topo = make()
        placement = centralized_assignment(graph, topo, sink=3)
        report = CommunicationCostModel(graph, topo).inference_cost(placement)
        costs = report.node_costs(sorted(topo.nodes))
        assert len(costs) == 16
        assert costs[3] == report.max_rx()

    def test_local_training_costs_same_as_inference(self):
        """MicroDeep's headline: local updates add zero gradient
        traffic on top of the forward pass."""
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        cm = CommunicationCostModel(graph, topo)
        inference = cm.inference_cost(placement)
        local = cm.training_step_cost(placement, "local")
        assert local.total_rx() == inference.total_rx()

    def test_exact_training_doubles_traffic(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        cm = CommunicationCostModel(graph, topo)
        inference = cm.inference_cost(placement)
        exact = cm.training_step_cost(placement, "exact")
        assert exact.total_rx() == 2 * inference.total_rx()

    def test_training_cost_mode_validation(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        cm = CommunicationCostModel(graph, topo)
        with pytest.raises(ValueError):
            cm.training_step_cost(placement, "turbo")


class TestExecutor:
    def test_forward_matches_centralized_math(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        executor = DistributedExecutor(model, graph, placement, net)
        x = RNG.normal(size=(3, 1, 10, 10))
        np.testing.assert_allclose(
            executor.forward(x, count_traffic=False),
            model.forward(x),
        )

    def test_measured_traffic_equals_static_model(self):
        """The distributed executor's measured per-node rx equals the
        static cost model on ideal links — the key accounting
        invariant."""
        model, graph, topo = make()
        for strategy in [
            grid_correspondence_assignment,
            lambda g, t: centralized_assignment(g, t),
            lambda g, t: random_assignment(g, t, np.random.default_rng(1)),
        ]:
            placement = strategy(graph, topo)
            net = Network(topo)
            executor = DistributedExecutor(model, graph, placement, net)
            x = RNG.normal(size=(1, 1, 10, 10))
            executor.forward(x, count_traffic=True)
            static = executor.measured_cost_report()
            for node_id in topo.nodes:
                assert net.stats.per_node_rx_values.get(node_id, 0) == (
                    static.rx_values.get(node_id, 0)
                ), f"node {node_id}"

    def test_traffic_scales_with_batch(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        executor = DistributedExecutor(model, graph, placement, net)
        executor.forward(RNG.normal(size=(1, 1, 10, 10)))
        one = net.stats.max_rx_values()
        net.reset_stats()
        executor.forward(RNG.normal(size=(4, 1, 10, 10)))
        assert net.stats.max_rx_values() == 4 * one

    def test_mismatched_graph_rejected(self):
        model, graph, topo = make()
        other_model, __, __ = make()
        placement = grid_correspondence_assignment(graph, topo)
        with pytest.raises(ValueError):
            DistributedExecutor(other_model, graph, placement, Network(topo))


class TestFaultMasking:
    def test_no_faults_identical(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        executor = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(2, 1, 10, 10))
        np.testing.assert_allclose(
            executor.forward_masked(x, []), model.forward(x)
        )

    def test_dead_input_cells_zeroed(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        executor = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(2, 1, 10, 10))
        out_alive = executor.forward_masked(x, [])
        out_dead = executor.forward_masked(x, [0])
        assert not np.allclose(out_alive, out_dead)

    def test_all_dead_gives_constant_output(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        executor = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(3, 1, 10, 10))
        out = executor.forward_masked(x, list(topo.nodes))
        # Everything zeroed along the way: logits identical across inputs.
        assert np.allclose(out[0], out[1]) and np.allclose(out[1], out[2])

    def test_accuracy_under_faults_degrades_monotone_on_average(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        executor = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(40, 1, 10, 10))
        y = executor.predict(x)  # model's own outputs as ground truth
        acc0 = executor.accuracy_under_faults(x, y, [])
        acc_all = executor.accuracy_under_faults(x, y, list(topo.nodes))
        assert acc0 == 1.0
        assert acc_all <= 1.0
