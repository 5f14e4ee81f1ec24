"""Parity: every vectorized hot path is behavior-identical to the
kept pre-optimization reference path — same bytes out, same traffic
counted.  This is the contract that lets the perf layer optimize
without invalidating the paper's measured results."""

import copy

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
from repro.nn.layers import conv as conv_module
from repro.nn.layers.im2col import (
    clear_index_cache,
    im2col,
    im2col_cached,
)
from repro.wsn import GridTopology, Network

RNG = np.random.default_rng(91)


def make(input_hw=(10, 10), node_grid=(4, 4), filters=2, seed=0):
    model = Sequential([
        Conv2D(filters, 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(8), ReLU(), Dense(2),
    ])
    model.build((1,) + input_hw, np.random.default_rng(seed))
    graph = UnitGraph(model)
    topo = GridTopology(*node_grid)
    return model, graph, topo


def stats_snapshot(net):
    """A detached copy of the network's whole ``TrafficStats``: every
    scalar, drop cause, and per-link packet and value tally (the
    per-node values are folds of the latter)."""
    return copy.deepcopy(net.stats)


STRATEGIES = [
    grid_correspondence_assignment,
    lambda g, t: centralized_assignment(g, t),
    round_robin_assignment,
    lambda g, t: random_assignment(g, t, np.random.default_rng(5)),
]


class TestReplayParity:
    @pytest.mark.parametrize("batch", [1, 3, 32])
    def test_aggregated_replay_matches_per_element_stats(self, batch):
        """The headline parity: bulk replay leaves every traffic
        counter byte-identical to the per-element loop."""
        model, graph, topo = make()
        for strategy in STRATEGIES:
            placement = strategy(graph, topo)
            net_fast = Network(topo)
            ex_fast = DistributedExecutor(model, graph, placement, net_fast)
            x = RNG.normal(size=(batch, 1, 10, 10))
            out_fast = ex_fast.forward(x)
            fast = stats_snapshot(net_fast)
            net_fast.reset_stats()

            net_ref = Network(topo)
            ex_ref = DistributedExecutor(model, graph, placement, net_ref)
            ex_ref.replay_traffic_reference(batch)
            out_ref = model.forward(x)
            ref = stats_snapshot(net_ref)
            net_ref.reset_stats()

            assert fast == ref
            assert out_fast.tobytes() == out_ref.tobytes()

    def test_aggregated_replay_matches_static_cost_model(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        ex.forward(RNG.normal(size=(1, 1, 10, 10)))
        static = ex.measured_cost_report()
        for node_id in topo.nodes:
            assert net.stats.per_node_rx_values.get(node_id, 0) == (
                static.rx_values.get(node_id, 0)
            )

    def test_bulk_rejects_negative_copies(self):
        __, __, topo = make()
        net = Network(topo)
        from repro.wsn.network import Message
        with pytest.raises(ValueError):
            net.unicast_bulk(Message(0, 1, 4), copies=-1)
        assert net.unicast_bulk(Message(0, 1, 4), copies=0) == 0
        assert net.stats.sent == 0

    def test_bulk_falls_back_per_message_on_lossy_links(self):
        """Lossy links draw per-message randomness; bulk must follow
        the exact same RNG stream as the unicast loop."""
        from repro.wsn.network import Message
        __, __, topo = make()
        net_a = Network(topo, loss_probability=0.4, max_retries=0,
                        rng=np.random.default_rng(7))
        net_b = Network(topo, loss_probability=0.4, max_retries=0,
                        rng=np.random.default_rng(7))
        delivered_bulk = net_a.unicast_bulk(Message(0, 15, 3), copies=20)
        delivered_loop = sum(
            net_b.unicast(Message(0, 15, 3)) for __ in range(20)
        )
        assert delivered_bulk == delivered_loop
        assert stats_snapshot(net_a) == stats_snapshot(net_b)


class TestMaskedParity:
    @pytest.mark.parametrize("dead_fraction", [0.0, 0.2, 0.5, 1.0])
    def test_masked_forward_byte_identical(self, dead_fraction):
        model, graph, topo = make(input_hw=(12, 12), node_grid=(4, 4))
        placement = grid_correspondence_assignment(graph, topo)
        ex = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(3, 1, 12, 12))
        node_ids = sorted(topo.nodes)
        n_dead = round(dead_fraction * len(node_ids))
        dead = list(RNG.choice(node_ids, size=n_dead, replace=False))
        fast = ex.forward_masked(x, dead)
        ref = ex.forward_masked_reference(x, dead)
        assert fast.tobytes() == ref.tobytes()

    def test_masked_forward_all_strategies(self):
        model, graph, topo = make()
        x = RNG.normal(size=(2, 1, 10, 10))
        for strategy in STRATEGIES:
            placement = strategy(graph, topo)
            ex = DistributedExecutor(model, graph, placement, Network(topo))
            dead = [0, 5, 11]
            assert ex.forward_masked(x, dead).tobytes() == (
                ex.forward_masked_reference(x, dead).tobytes()
            )

    def test_masked_forward_does_not_mutate_input(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        ex = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(2, 1, 10, 10))
        before = x.copy()
        ex.forward_masked(x, [0, 1])
        ex.forward_masked_reference(x, [2, 3])
        np.testing.assert_array_equal(x, before)

    def test_dead_index_memo_reused_and_correct(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        ex = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(1, 1, 10, 10))
        first = ex.forward_masked(x, [3, 7])
        gathers = [
            ex.index.gather(key, frozenset({3, 7})) for key in ex.index.layers
        ]
        second = ex.forward_masked(x, [7, 3])  # same set, memo hit
        assert first.tobytes() == second.tobytes()
        assert all(
            ex.index.gather(key, frozenset({7, 3})) is sel
            for key, sel in zip(ex.index.layers, gathers)
        )


class TestIm2colParity:
    def setup_method(self):
        clear_index_cache()

    @pytest.mark.parametrize("case", [
        # (c, h, w, kh, kw, stride, pad) covering both cache branches.
        (1, 10, 10, 3, 3, 1, 0),   # overlapping -> slice-loop branch
        (2, 7, 7, 3, 3, 1, 1),
        (3, 8, 9, 2, 3, 2, 1),     # mixed overlap
        (4, 12, 6, 2, 2, 2, 0),    # pooling regime -> gather branch
        (2, 10, 10, 2, 2, 2, 0),
        (1, 9, 9, 3, 3, 3, 0),
    ])
    def test_cached_unfold_byte_identical(self, case):
        c, h, w, kh, kw, stride, pad = case
        x = RNG.normal(size=(4, c, h, w))
        ref = im2col(x, kh, kw, stride, pad)
        fast = im2col_cached(x, kh, kw, stride, pad)
        assert ref.shape == fast.shape
        assert ref.tobytes() == fast.tobytes()
        # Second call hits the memo; still identical.
        assert im2col_cached(x, kh, kw, stride, pad).tobytes() == ref.tobytes()

    def test_conv_forward_matches_reference_unfold(self, monkeypatch):
        """A built conv model produces byte-identical logits whether
        its unfold goes through the cache or the reference loop."""
        model, __, __ = make(filters=3)
        x = RNG.normal(size=(4, 1, 10, 10))
        fast = model.forward(x)
        monkeypatch.setattr(conv_module, "im2col_cached", im2col)
        ref = model.forward(x)
        assert fast.tobytes() == ref.tobytes()

    def test_conv_training_gradients_unaffected(self):
        """The cached unfold feeds backward through the same col
        cache; gradients stay finite and shaped."""
        layer = Conv2D(2, 2, stride=2)
        layer.build((2, 8, 8), np.random.default_rng(0))
        x = RNG.normal(size=(3, 2, 8, 8))
        out = layer.forward(x, training=True)
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        assert np.isfinite(grad_in).all()


class TestHookedLazyCopy:
    def test_hook_free_and_hooked_paths_agree(self):
        """The E8 interaction fix: no-hook calls skip the input copy
        yet still produce exactly the hooked (identity) result."""
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        ex = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(2, 1, 10, 10))
        plain = ex.forward_hooked(x)
        identity = ex.forward_hooked(
            x, input_hook=lambda arr: arr,
            layer_hook=lambda entry, out: out,
        )
        assert plain.tobytes() == identity.tobytes()
        assert plain.tobytes() == model.forward(x).tobytes()

    def test_hook_free_path_does_not_copy_or_mutate(self):
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        ex = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(2, 1, 10, 10))
        before = x.copy()
        ex.forward_hooked(x)
        np.testing.assert_array_equal(x, before)

    def test_input_hook_gets_private_copy(self):
        """A mutating input hook must never write through to the
        caller's array."""
        model, graph, topo = make()
        placement = grid_correspondence_assignment(graph, topo)
        ex = DistributedExecutor(model, graph, placement, Network(topo))
        x = RNG.normal(size=(2, 1, 10, 10))
        before = x.copy()

        def zero_everything(arr):
            arr[:] = 0.0
            return arr

        out = ex.forward_hooked(x, input_hook=zero_everything)
        np.testing.assert_array_equal(x, before)
        zeros = ex.forward_hooked(np.zeros_like(x))
        assert out.tobytes() == zeros.tobytes()
