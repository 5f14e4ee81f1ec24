"""Tests for the WSN simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.wsn import (
    ChocoCollector,
    CsmaMac,
    FadingModel,
    GridTopology,
    LogDistancePathLoss,
    Message,
    Network,
    RadioModel,
    RandomTopology,
    SensorNode,
    TdmaMac,
    Topology,
    shortest_path_route,
    sink_tree,
    snr_to_per,
)

RNG = np.random.default_rng(11)


class TestTopology:
    def test_grid_node_positions(self):
        g = GridTopology(3, 4, spacing=2.0)
        assert len(g) == 12
        assert g.node_at(0, 0).position == (0.0, 0.0)
        assert g.node_at(2, 3).position == (6.0, 4.0)

    def test_grid_position_roundtrip(self):
        g = GridTopology(5, 7)
        for nid in [0, 6, 17, 34]:
            r, c = g.grid_position(nid)
            assert g.node_at(r, c).node_id == nid

    def test_grid_neighbors_8way(self):
        g = GridTopology(3, 3, spacing=1.0)  # default range 1.5
        center = g.node_at(1, 1)
        assert len(g.neighbors(center.node_id)) == 8
        corner = g.node_at(0, 0)
        assert len(g.neighbors(corner.node_id)) == 3

    def test_dead_nodes_excluded(self):
        g = GridTopology(3, 3)
        g.node_at(1, 1).fail()
        assert len(g.alive_nodes()) == 8
        assert g.node_at(1, 1) not in g.neighbors(g.node_at(0, 1).node_id)

    def test_grid_connected(self):
        assert GridTopology(4, 4).is_connected()

    def test_duplicate_ids_rejected(self):
        nodes = [SensorNode(0, (0, 0)), SensorNode(0, (1, 1))]
        with pytest.raises(ValueError):
            Topology(nodes, comm_range=2.0)

    def test_random_topology_in_bounds(self):
        t = RandomTopology(50, width=10.0, height=5.0, comm_range=3.0, rng=RNG)
        for n in t:
            assert 0 <= n.position[0] <= 10.0
            assert 0 <= n.position[1] <= 5.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            GridTopology(0, 3)
        with pytest.raises(ValueError):
            Topology([], comm_range=-1.0)


class TestRadio:
    def test_path_loss_monotone(self):
        pl = LogDistancePathLoss(exponent=3.0)
        losses = [pl.loss_db(d) for d in [1.0, 2.0, 5.0, 10.0]]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_rssi_decreases_with_distance(self):
        r = RadioModel(tx_power_dbm=0.0, fading=FadingModel(0.0))
        assert r.mean_rssi_dbm(1.0) > r.mean_rssi_dbm(10.0)

    def test_per_monotone_in_snr(self):
        pers = [snr_to_per(snr, 256) for snr in [-5, 0, 5, 10, 15]]
        assert all(a >= b for a, b in zip(pers, pers[1:]))
        assert pers[-1] < 1e-3
        assert pers[0] > 0.9

    def test_per_bounds(self):
        assert 0.0 <= snr_to_per(-100, 8) <= 1.0
        assert 0.0 <= snr_to_per(100, 8) <= 1.0

    def test_per_invalid_bits(self):
        with pytest.raises(ValueError):
            snr_to_per(10.0, 0)

    def test_close_link_delivers(self):
        r = RadioModel(tx_power_dbm=0.0, fading=FadingModel(0.0))
        rng = np.random.default_rng(0)
        ok = sum(r.delivery_succeeds(1.0, 256, rng) for _ in range(100))
        assert ok == 100

    def test_shadowing_variance(self):
        f = FadingModel(shadowing_sigma_db=4.0)
        rng = np.random.default_rng(0)
        samples = [f.sample_db(rng) for _ in range(2000)]
        assert np.std(samples) == pytest.approx(4.0, rel=0.1)


class TestRouting:
    def test_shortest_path_endpoints(self):
        g = GridTopology(4, 4)
        route = shortest_path_route(g, 0, 15)
        assert route[0] == 0 and route[-1] == 15
        assert len(route) == 4  # diagonal hops allowed (range 1.5)

    def test_self_route(self):
        g = GridTopology(2, 2)
        assert shortest_path_route(g, 0, 0) == [0]

    def test_disconnected_returns_none(self):
        nodes = [SensorNode(0, (0, 0)), SensorNode(1, (100, 100))]
        t = Topology(nodes, comm_range=1.0)
        assert shortest_path_route(t, 0, 1) is None

    def test_sink_tree_parents(self):
        g = GridTopology(3, 3)
        parents = sink_tree(g, sink=4)
        assert parents[4] is None
        assert len(parents) == 9
        # every non-sink node's parent chain reaches the sink
        for nid in parents:
            hops, cur = 0, nid
            while parents[cur] is not None:
                cur = parents[cur]
                hops += 1
                assert hops <= 9
            assert cur == 4

    def test_sink_tree_bad_sink(self):
        with pytest.raises(KeyError):
            sink_tree(GridTopology(2, 2), sink=99)


class TestNetwork:
    def test_unicast_counts_values(self):
        g = GridTopology(1, 3, comm_range=1.0)  # line: 0-1-2
        net = Network(g)
        ok = net.unicast(Message(src=0, dst=2, n_values=5))
        assert ok
        # relay node 1 both received and re-sent the 5 values
        assert net.stats.per_node_rx_values == {1: 5, 2: 5}
        assert net.stats.per_node_tx_values == {0: 5, 1: 5}
        assert net.stats.links == {(0, 1): [1, 5], (1, 2): [1, 5]}
        assert net.stats.total_hops == 2
        assert net.stats.max_rx_values() == 5

    def test_lossy_network_drops(self):
        g = GridTopology(1, 10, comm_range=1.0)
        net = Network(
            g, loss_probability=0.8, max_retries=0, rng=np.random.default_rng(0)
        )
        for __ in range(50):
            net.unicast(Message(0, 9, 1))
        assert net.stats.dropped > 0
        assert net.stats.delivered + net.stats.dropped == net.stats.sent

    def test_retries_improve_delivery(self):
        g = GridTopology(1, 5, comm_range=1.0)
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        no_retry = Network(g, loss_probability=0.4, max_retries=0, rng=rng1)
        for __ in range(100):
            no_retry.unicast(Message(0, 4, 1))
        ratio_none = no_retry.stats.delivered / 100
        g2 = GridTopology(1, 5, comm_range=1.0)
        with_retry = Network(g2, loss_probability=0.4, max_retries=5, rng=rng2)
        for __ in range(100):
            with_retry.unicast(Message(0, 4, 1))
        assert with_retry.stats.delivered / 100 > ratio_none

    def test_unroutable_message_dropped(self):
        nodes = [SensorNode(0, (0, 0)), SensorNode(1, (100, 0))]
        net = Network(Topology(nodes, comm_range=1.0))
        assert not net.unicast(Message(0, 1, 1))
        assert net.stats.dropped == 1

    def test_reset_stats(self):
        g = GridTopology(2, 2)
        net = Network(g)
        net.unicast(Message(0, 3, 7))
        net.reset_stats()
        assert net.stats.sent == 0
        assert net.stats.links == {}
        assert net.stats.rx_values_of(3) == 0

    def test_lossy_requires_rng(self):
        with pytest.raises(ValueError):
            Network(GridTopology(2, 2), loss_probability=0.5)

    @given(st.integers(1, 20))
    @settings(max_examples=20)
    def test_value_conservation_ideal_links(self, n_values):
        """On loss-free links, total tx values == total rx values."""
        g = GridTopology(3, 3)
        net = Network(g)
        net.unicast(Message(0, 8, n_values))
        total_tx = sum(net.stats.per_node_tx_values.values())
        total_rx = sum(net.stats.per_node_rx_values.values())
        assert total_tx == total_rx == n_values * net.stats.total_hops


class TestTdma:
    def test_round_robin_delivery(self):
        sim = Simulator()
        delivered = []
        mac = TdmaMac(
            sim, [0, 1, 2], slot_duration=1.0,
            on_delivery=lambda n, p: delivered.append((n, p)),
        )
        mac.offer(0, "a")
        mac.offer(2, "c")
        mac.start()
        sim.run(until=3.5)
        assert delivered == [(0, "a"), (2, "c")]
        assert mac.stats.delivery_ratio == 1.0

    def test_queue_drains_one_per_frame(self):
        sim = Simulator()
        delivered = []
        mac = TdmaMac(sim, [0, 1], 1.0, on_delivery=lambda n, p: delivered.append(p))
        mac.offer(0, "p1")
        mac.offer(0, "p2")
        mac.start()
        sim.run(until=2.5)
        assert delivered == ["p1"]  # second waits for next frame
        sim.run(until=4.5)
        assert delivered == ["p1", "p2"]

    def test_unknown_node(self):
        mac = TdmaMac(Simulator(), [0], 1.0)
        with pytest.raises(KeyError):
            mac.offer(5, "x")


class TestCsma:
    def test_single_sender_delivers(self):
        sim = Simulator()
        delivered = []
        mac = CsmaMac(sim, 1.0, np.random.default_rng(0),
                      on_delivery=lambda n, p: delivered.append(p))
        mac.offer(0, "solo")
        sim.run(until=10.0)
        assert delivered == ["solo"]
        assert mac.stats.collided == 0

    def test_simultaneous_senders_collide_then_recover(self):
        sim = Simulator()
        delivered = []
        mac = CsmaMac(sim, 1.0, np.random.default_rng(3),
                      on_delivery=lambda n, p: delivered.append(p))
        for node in range(4):
            mac.offer(node, f"pkt{node}")
        sim.run(until=200.0)
        assert mac.stats.collided > 0
        assert sorted(delivered) == ["pkt0", "pkt1", "pkt2", "pkt3"]

    def test_overload_drops_packets(self):
        sim = Simulator()
        delivered = []
        mac = CsmaMac(sim, 1.0, np.random.default_rng(1), max_attempts=1,
                      on_delivery=lambda n, p: delivered.append(p))
        for node in range(10):
            mac.offer(node, node)
        sim.run(until=100.0)
        assert len(delivered) < 10


class TestChoco:
    def _collector(self, **kw):
        topo = GridTopology(2, 2, spacing=2.0, comm_range=5.0)
        radio = RadioModel(tx_power_dbm=0.0, fading=FadingModel(0.5))
        return topo, ChocoCollector(topo, radio, **kw)

    def test_round_has_all_pairs(self):
        topo, collector = self._collector()
        round_ = collector.run_round(0.0, RNG)
        assert len(round_.inter_node_rssi) == 4 * 3
        assert set(round_.surrounding_rssi) == {0, 1, 2, 3}

    def test_attenuation_lowers_inter_node(self):
        __, quiet = self._collector()
        __, crowded = self._collector(extra_attenuation_db=lambda i, j, t: 15.0)
        rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
        r_quiet = quiet.run_round(0.0, rng1)
        r_crowd = crowded.run_round(0.0, rng2)
        assert r_crowd.mean_inter_node() < r_quiet.mean_inter_node() - 10

    def test_ambient_offset_raises_surrounding(self):
        __, base = self._collector()
        __, busy = self._collector(ambient_offset_dbm=lambda n, t: 20.0)
        r_base = base.run_round(0.0, np.random.default_rng(6))
        r_busy = busy.run_round(0.0, np.random.default_rng(6))
        assert r_busy.mean_surrounding() > r_base.mean_surrounding() + 10

    def test_dead_node_excluded(self):
        topo, collector = self._collector()
        topo.node(0).fail()
        round_ = collector.run_round(1.0, RNG)
        assert all(0 not in pair for pair in round_.inter_node_rssi)
        assert 0 not in round_.surrounding_rssi
