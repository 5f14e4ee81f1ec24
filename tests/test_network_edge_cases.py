"""Edge-case tests for the network layer, executor, and cost model."""

import numpy as np
import pytest

from repro.core import (
    CommunicationCostModel,
    DistributedExecutor,
    UnitGraph,
    grid_correspondence_assignment,
)
from repro.core.compiled import HopProgram
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import (
    GridTopology,
    Message,
    Network,
    SensorNode,
    Topology,
    TrafficStats,
)

RNG = np.random.default_rng(111)


class TestBroadcast:
    def test_reaches_all_alive(self):
        topo = GridTopology(3, 3)
        net = Network(topo)
        reached = net.broadcast_from(4, n_values=2)
        assert reached == 8

    def test_skips_dead_nodes(self):
        topo = GridTopology(3, 3)
        topo.node(8).fail()
        net = Network(topo)
        reached = net.broadcast_from(0, n_values=1)
        assert reached == 7

    def test_partitioned_broadcast_partial(self):
        nodes = [
            SensorNode(0, (0.0, 0.0)),
            SensorNode(1, (1.0, 0.0)),
            SensorNode(2, (100.0, 0.0)),
        ]
        net = Network(Topology(nodes, comm_range=1.5))
        reached = net.broadcast_from(0, n_values=1)
        assert reached == 1
        assert net.stats.dropped == 1


class TestCostModelUnroutable:
    def test_partition_counts_unroutable(self):
        model = Sequential([
            Conv2D(1, 2), ReLU(), Flatten(), Dense(2),
        ])
        model.build((1, 4, 4), RNG)
        graph = UnitGraph(model)
        topo = GridTopology(2, 2, spacing=1.0, comm_range=1.2)
        placement = grid_correspondence_assignment(graph, topo)
        # Disconnect one node after placement.
        topo.node(3).fail()
        report = CommunicationCostModel(graph, topo).inference_cost(placement)
        assert report.unroutable > 0


class TestExecutorWithLossyNetwork:
    def test_losses_recorded_but_math_intact(self):
        """Message drops show up in the stats; the logits (computed by
        the ideal-math model) are unchanged — the executor's traffic
        accounting and value computation are deliberately decoupled."""
        model = Sequential([
            Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(4), Dense(2),
        ])
        model.build((1, 8, 8), RNG)
        graph = UnitGraph(model)
        topo = GridTopology(3, 3)
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo, loss_probability=0.3, max_retries=0,
                      rng=np.random.default_rng(0))
        executor = DistributedExecutor(model, graph, placement, net)
        x = RNG.normal(size=(1, 1, 8, 8))
        out = executor.forward(x, count_traffic=True)
        np.testing.assert_allclose(out, model.forward(x))
        assert net.stats.dropped > 0
        assert net.stats.delivered + net.stats.dropped == net.stats.sent


class TestCountValidation:
    """Retry, copy and value counts are non-negative integers, rejected
    with a ValueError naming the argument where they enter the network."""

    #: One inference sending 4 values over link 0 -> 1.
    PROGRAM = HopProgram(
        links={(0, 1): (1, 4)}, sent=1, hops=1, n_transfer_groups=1,
    )

    @pytest.mark.parametrize("bad", [-1, 2.5, 2.0, "3", None])
    def test_max_retries_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="max_retries"):
            Network(GridTopology(2, 2), loss_probability=0.01,
                    max_retries=bad, rng=np.random.default_rng(0))

    def test_numpy_int_max_retries_passes(self):
        net = Network(GridTopology(1, 5, comm_range=1.0),
                      loss_probability=0.01, max_retries=np.int64(2),
                      rng=np.random.default_rng(0))
        assert net.max_retries == 2 and type(net.max_retries) is int
        assert sum(net.unicast(Message(0, 4, 1)) for __ in range(5)) == 5

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), -1])
    def test_bulk_copies_rejected(self, bad):
        net = Network(GridTopology(2, 2))
        with pytest.raises(ValueError, match="copies"):
            net.unicast_bulk(Message(0, 3, 4), copies=bad)
        assert net.stats == TrafficStats()

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), -1])
    def test_compiled_copies_rejected(self, bad):
        net = Network(GridTopology(2, 2))
        with pytest.raises(ValueError, match="copies"):
            net.account_compiled(self.PROGRAM, copies=bad)
        assert net.stats == TrafficStats()

    @pytest.mark.parametrize("bad", [-2, 2.5, 2.0, np.float64(3), "4", None])
    def test_message_values_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="n_values"):
            Message(0, 3, bad)
        net = Network(GridTopology(2, 2))
        with pytest.raises(ValueError, match="n_values"):
            net.broadcast_from(0, n_values=bad)
        assert net.stats == TrafficStats()

    def test_numpy_int_copies_pass(self):
        net = Network(GridTopology(1, 3, comm_range=1.0))
        message = Message(0, 2, np.int64(4))
        assert net.unicast_bulk(message, copies=np.int64(3)) == 3
        assert net.account_compiled(self.PROGRAM, copies=np.int32(2)) == 2
        stats = net.stats
        assert (stats.sent, stats.total_hops) == (5, 8)
        assert stats.links == {(0, 1): [5, 20], (1, 2): [3, 12]}
        assert all(
            type(n) is int
            for cell in stats.links.values() for n in cell
        )
        assert type(stats.sent) is int and type(stats.total_hops) is int


class TestMessageKinds:
    def test_layer_tags_in_messages(self):
        model = Sequential([
            Conv2D(1, 3), ReLU(), Flatten(), Dense(2),
        ])
        model.build((1, 5, 5), RNG)
        graph = UnitGraph(model)
        topo = GridTopology(2, 2)
        placement = grid_correspondence_assignment(graph, topo)
        cm = CommunicationCostModel(graph, topo)
        transfers = cm.transfers(placement)
        layer_indices = {t[0] for t in transfers}
        # At least the conv (0) and the dense (3) move data.
        assert 0 in layer_indices or 3 in layer_indices

    def test_message_defaults(self):
        msg = Message(src=0, dst=1, n_values=4)
        assert msg.kind == "data"
