"""Tests for distributed (exact vs. local) backpropagation."""

import numpy as np
import pytest

from repro.core import (
    MicroDeepTrainer,
    UnitGraph,
    centralized_assignment,
    grid_correspondence_assignment,
)
from repro.nn import (
    Conv2D,
    CrossEntropyLoss,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    SGD,
    Sequential,
)
from repro.wsn import GridTopology

RNG = np.random.default_rng(23)


def build_model(seed=0):
    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(8), ReLU(), Dense(2),
    ])
    model.build((1, 10, 10), np.random.default_rng(seed))
    return model


def toy_task(n=120, rng=None):
    """Binary task: is the bright blob in the top or bottom half?"""
    rng = rng or np.random.default_rng(0)
    x = rng.normal(0.0, 0.3, size=(n, 1, 10, 10))
    y = rng.integers(0, 2, size=n)
    for i in range(n):
        cy = rng.integers(0, 4) if y[i] == 0 else rng.integers(6, 10)
        cx = rng.integers(2, 8)
        x[i, 0, max(0, cy - 1) : cy + 2, max(0, cx - 1) : cx + 2] += 2.0
    return x, y


class TestExactModeEquivalence:
    def test_exact_gradients_match_standard_backward(self):
        """Exact distributed mode must be bit-identical to
        centralized backprop."""
        model_a = build_model()
        model_b = build_model()
        graph_b = UnitGraph(model_b)
        topo = GridTopology(4, 4)
        placement = grid_correspondence_assignment(graph_b, topo)
        trainer = MicroDeepTrainer(
            graph_b, placement, SGD(lr=0.1), update_mode="exact"
        )
        x = RNG.normal(size=(4, 1, 10, 10))
        y = np.array([0, 1, 0, 1])
        loss = CrossEntropyLoss()

        model_a.zero_grads()
        out_a = model_a.forward(x, training=True)
        loss.forward(out_a, y)
        model_a.backward(loss.backward())

        model_b.zero_grads()
        out_b = model_b.forward(x, training=True)
        loss_b = CrossEntropyLoss()
        loss_b.forward(out_b, y)
        trainer._backward(loss_b.backward())

        for (sa, pa, ga), (sb, pb, gb) in zip(
            model_a.param_slots(), model_b.param_slots()
        ):
            for name in pa:
                np.testing.assert_allclose(ga[name], gb[name], err_msg=name)


class TestLocalMode:
    def _trainer(self, mode, node_grid=(4, 4), seed=0):
        model = build_model(seed)
        graph = UnitGraph(model)
        topo = GridTopology(*node_grid)
        placement = grid_correspondence_assignment(graph, topo)
        return MicroDeepTrainer(graph, placement, SGD(lr=0.05), update_mode=mode)

    def test_local_top_dense_grads_exact(self):
        """The final dense layer's gradients are exact even in local
        mode (no truncation above it)."""
        t_local = self._trainer("local", seed=1)
        t_exact = self._trainer("exact", seed=1)
        x = RNG.normal(size=(4, 1, 10, 10))
        y = np.array([1, 0, 1, 0])
        for t in (t_local, t_exact):
            t.model.zero_grads()
            logits = t.model.forward(x, training=True)
            t.loss.forward(logits, y)
            t._backward(t.loss.backward())
        # last layer is index 6 -> final param slot
        ga = t_local.model.param_slots()[-1][2]
        gb = t_exact.model.param_slots()[-1][2]
        for name in ga:
            np.testing.assert_allclose(ga[name], gb[name], err_msg=name)

    def test_local_lower_grads_truncated(self):
        """Conv gradients differ under local mode — the sacrifice the
        paper describes."""
        t_local = self._trainer("local", seed=2)
        t_exact = self._trainer("exact", seed=2)
        x = RNG.normal(size=(4, 1, 10, 10))
        y = np.array([1, 0, 1, 0])
        for t in (t_local, t_exact):
            t.model.zero_grads()
            logits = t.model.forward(x, training=True)
            t.loss.forward(logits, y)
            t._backward(t.loss.backward())
        conv_local = t_local.model.param_slots()[0][2]["W"]
        conv_exact = t_exact.model.param_slots()[0][2]["W"]
        assert not np.allclose(conv_local, conv_exact)

    def test_single_node_local_equals_exact(self):
        """With one node nothing is truncated: local == exact."""
        t_local = self._trainer("local", node_grid=(1, 1), seed=3)
        t_exact = self._trainer("exact", node_grid=(1, 1), seed=3)
        x = RNG.normal(size=(3, 1, 10, 10))
        y = np.array([0, 1, 1])
        for t in (t_local, t_exact):
            t.model.zero_grads()
            logits = t.model.forward(x, training=True)
            t.loss.forward(logits, y)
            t._backward(t.loss.backward())
        for (sa, pa, ga), (sb, pb, gb) in zip(
            t_local.model.param_slots(), t_exact.model.param_slots()
        ):
            for name in pa:
                np.testing.assert_allclose(
                    ga[name], gb[name], atol=1e-12, err_msg=name
                )

    def test_invalid_mode(self):
        model = build_model()
        graph = UnitGraph(model)
        topo = GridTopology(2, 2)
        placement = grid_correspondence_assignment(graph, topo)
        with pytest.raises(ValueError):
            MicroDeepTrainer(graph, placement, SGD(lr=0.1), update_mode="turbo")

    def test_invalid_backward_impl(self):
        model = build_model()
        graph = UnitGraph(model)
        placement = grid_correspondence_assignment(graph, GridTopology(2, 2))
        with pytest.raises(ValueError, match="backward_impl"):
            MicroDeepTrainer(
                graph, placement, SGD(lr=0.1), backward_impl="looped"
            )

    def test_masks_built_exactly_once_across_fits(self):
        """The mask stacks are construction-time artifacts: repeated
        ``fit``/``evaluate`` calls must never rebuild them."""
        trainer = self._trainer("local", seed=4)
        built = dict(trainer._stacked)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(12, 1, 10, 10))
        y = rng.integers(0, 2, size=12)
        trainer.fit(x, y, epochs=2, batch_size=4,
                    rng=np.random.default_rng(0))
        trainer.fit(x, y, epochs=1, batch_size=6,
                    rng=np.random.default_rng(1))
        trainer.evaluate(x, y)
        assert trainer._stacked.keys() == built.keys()
        assert all(trainer._stacked[i] is built[i] for i in built)


class TestEmptyDataset:
    def _trainer(self):
        model = build_model(seed=12)
        graph = UnitGraph(model)
        placement = grid_correspondence_assignment(graph, GridTopology(2, 2))
        return MicroDeepTrainer(graph, placement, SGD(lr=0.05))

    def test_fit_empty_dataset_raises_value_error(self):
        """An empty dataset must fail loudly up front, not as a
        ZeroDivisionError in the epoch averaging (mirrors the
        repro.nn.Trainer fix)."""
        trainer = self._trainer()
        x = np.empty((0, 1, 10, 10))
        y = np.empty((0,), dtype=int)
        with pytest.raises(ValueError, match="empty dataset"):
            trainer.fit(x, y, epochs=1, batch_size=8,
                        rng=np.random.default_rng(0))

    def test_evaluate_empty_dataset_raises_value_error(self):
        trainer = self._trainer()
        with pytest.raises(ValueError, match="empty dataset"):
            trainer.evaluate(np.empty((0, 1, 10, 10)), np.empty((0,)))


class TestTrainingConvergence:
    @pytest.mark.parametrize("mode", ["exact", "local"])
    def test_learns_toy_task(self, mode):
        rng = np.random.default_rng(4)
        x, y = toy_task(160, rng)
        model = build_model(seed=5)
        graph = UnitGraph(model)
        topo = GridTopology(3, 3)
        placement = grid_correspondence_assignment(graph, topo)
        trainer = MicroDeepTrainer(
            graph, placement, SGD(lr=0.1, momentum=0.9), update_mode=mode
        )
        history = trainer.fit(x, y, epochs=15, batch_size=16, rng=rng)
        assert history.train_accuracy[-1] > 0.85

    def test_exact_at_least_as_good_on_average(self):
        """The paper: local update sacrifices *some* accuracy.  On a
        small task the gap should be modest and exact shouldn't lose
        badly."""
        rng = np.random.default_rng(6)
        x, y = toy_task(200, rng)
        x_tr, y_tr = x[:150], y[:150]
        x_te, y_te = x[150:], y[150:]
        accs = {}
        for mode in ("exact", "local"):
            model = build_model(seed=7)
            graph = UnitGraph(model)
            topo = GridTopology(3, 3)
            placement = grid_correspondence_assignment(graph, topo)
            trainer = MicroDeepTrainer(
                graph, placement, SGD(lr=0.1, momentum=0.9), update_mode=mode
            )
            trainer.fit(x_tr, y_tr, epochs=20, batch_size=16,
                        rng=np.random.default_rng(8))
            __, accs[mode] = trainer.evaluate(x_te, y_te)
        assert accs["exact"] >= accs["local"] - 0.1

    def test_early_stopping_restores_best(self):
        rng = np.random.default_rng(9)
        x, y = toy_task(120, rng)
        model = build_model(seed=10)
        graph = UnitGraph(model)
        topo = GridTopology(2, 2)
        placement = centralized_assignment(graph, topo)
        trainer = MicroDeepTrainer(graph, placement, SGD(lr=0.1),
                                   update_mode="local")
        history = trainer.fit(
            x[:80], y[:80], epochs=30, batch_size=16, rng=rng,
            x_val=x[80:], y_val=y[80:], patience=3,
        )
        __, final_acc = trainer.evaluate(x[80:], y[80:])
        assert final_acc == pytest.approx(history.best_val_accuracy, abs=1e-9)
