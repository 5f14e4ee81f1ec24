"""Parity: the vectorized distributed ``"local"`` backward is
behavior-identical to the retained per-node reference loop — same
gradients, same weights over epochs, same fault-skip callbacks in the
same order — plus the AST lint that keeps the per-node Python loop
from quietly reappearing in the vectorized path.

The one sanctioned numeric slack: conv parameter gradients may differ
at the ulp level because the GEMM grouping differs (the reference sums
per-node ``col.T @ G_i`` products; the vectorized path runs one GEMM
on the node-collapsed gradient).  Input gradients and dense parameter
gradients are asserted byte-identical; conv parameters get a pinned
1e-12 tolerance, and a digest test pins the reference path itself
against drift.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    MicroDeepTrainer,
    UnitGraph,
    grid_correspondence_assignment,
)
from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    SGD,
    Sequential,
)
from repro.nn.layers import AvgPool2D
from repro.nn.layers.im2col import col2im, col2im_cached
from repro.wsn import GridTopology

RNG = np.random.default_rng(17)

MODELS = {
    "conv_maxpool": (
        lambda: [Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
                 Dense(8), ReLU(), Dense(2)],
        (1, 10, 10), (4, 4),
    ),
    "dense_only": (
        lambda: [Flatten(), Dense(16), ReLU(), Dense(8), ReLU(), Dense(2)],
        (1, 6, 6), (3, 3),
    ),
    "conv_avgpool": (
        lambda: [Conv2D(3, 3), ReLU(), AvgPool2D(2), Flatten(), Dense(4)],
        (1, 9, 9), (2, 3),
    ),
}


def make_trainer(kind, impl, seed=0, fault_adapter=None, optimizer=None):
    layers_fn, input_shape, grid = MODELS[kind]
    model = Sequential(layers_fn())
    model.build(input_shape, np.random.default_rng(seed))
    graph = UnitGraph(model)
    placement = grid_correspondence_assignment(graph, GridTopology(*grid))
    return MicroDeepTrainer(
        graph, placement, optimizer or SGD(lr=0.05), update_mode="local",
        fault_adapter=fault_adapter, backward_impl=impl,
    )


def make_batch(kind, n=8, seed=7):
    __, input_shape, __ = MODELS[kind]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + input_shape)
    classes = MODELS[kind][0]()[-1].units
    y = rng.integers(0, classes, size=n)
    return x, y


def run_backward(trainer, x, y):
    trainer.model.zero_grads()
    logits = trainer.model.forward(x, training=True)
    trainer.loss.forward(logits, y)
    trainer._backward(trainer.loss.backward())


def grads_of(trainer):
    return {
        (i, name): layer.grads()[name].copy()
        for i, layer in enumerate(trainer.model.layers)
        for name in layer.grads()
    }


class ScriptedAdapter:
    """Fault adapter with a fixed down-set; records every skip."""

    def __init__(self, down):
        self.down = set(down)
        self.skips = []

    def down_nodes(self):
        return self.down

    def on_update_skipped(self, layer_index, node):
        self.skips.append((layer_index, node))


class TestGradientParity:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_single_step_gradients_match_reference(self, kind):
        vec = make_trainer(kind, "vectorized")
        ref = make_trainer(kind, "reference")
        x, y = make_batch(kind)
        run_backward(vec, x, y)
        run_backward(ref, x, y)
        gv, gr = grads_of(vec), grads_of(ref)
        assert gv.keys() == gr.keys()
        for key in gv:
            layer = vec.model.layers[key[0]]
            if isinstance(layer, Conv2D):
                np.testing.assert_allclose(
                    gv[key], gr[key], atol=1e-12, rtol=0,
                    err_msg=f"{kind} {key}",
                )
            else:
                # Dense parameter grads and everything downstream of
                # the input-gradient path are byte-identical.
                np.testing.assert_array_equal(
                    gv[key], gr[key], err_msg=f"{kind} {key}"
                )

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_weights_match_reference_after_epochs(self, kind):
        vec = make_trainer(kind, "vectorized")
        ref = make_trainer(kind, "reference")
        x, y = make_batch(kind, n=16)
        for trainer in (vec, ref):
            trainer.fit(x, y, epochs=4, batch_size=4,
                        rng=np.random.default_rng(3))
        for a, b in zip(vec.model.get_weights(), ref.model.get_weights()):
            np.testing.assert_allclose(a, b, atol=1e-9, rtol=0)

    def test_vectorized_is_the_fit_default(self):
        trainer = make_trainer("conv_maxpool", "vectorized")
        assert trainer.backward_impl == "vectorized"
        default = MODELS["conv_maxpool"]
        model = Sequential(default[0]())
        model.build(default[1], np.random.default_rng(0))
        graph = UnitGraph(model)
        placement = grid_correspondence_assignment(
            graph, GridTopology(*default[2])
        )
        assert MicroDeepTrainer(
            graph, placement, SGD(lr=0.05)
        ).backward_impl == "vectorized"

    def test_reference_path_digest_is_stable(self):
        """Pins the reference loop itself: the parity oracle must not
        drift between runs (same seed -> byte-identical weights)."""
        digests = []
        for __ in range(2):
            ref = make_trainer("conv_maxpool", "reference")
            x, y = make_batch("conv_maxpool", n=16)
            ref.fit(x, y, epochs=2, batch_size=4,
                    rng=np.random.default_rng(5))
            blob = b"".join(
                np.ascontiguousarray(w).tobytes()
                for w in ref.model.get_weights()
            )
            digests.append(hashlib.sha256(blob).hexdigest())
        assert digests[0] == digests[1]


class TestFaultParity:
    def test_skip_sequence_identical(self):
        """on_update_skipped must fire for the same (layer, node)
        pairs in the same order under both implementations."""
        records = {}
        for impl in ("vectorized", "reference"):
            adapter = ScriptedAdapter({3, 7, 12})
            trainer = make_trainer("conv_maxpool", impl,
                                   fault_adapter=adapter)
            x, y = make_batch("conv_maxpool")
            run_backward(trainer, x, y)
            records[impl] = (adapter.skips, grads_of(trainer))
        skips_vec, grads_vec = records["vectorized"]
        skips_ref, grads_ref = records["reference"]
        assert skips_vec == skips_ref
        assert len(skips_vec) > 0
        for key in grads_vec:
            np.testing.assert_allclose(
                grads_vec[key], grads_ref[key], atol=1e-12, rtol=0,
                err_msg=str(key),
            )

    def test_all_hosts_down_matches_reference(self):
        """Every node dead: the reference hits its ``total is None``
        branch (zero gradient flows back, zero parameter grads); the
        vectorized path must degenerate identically."""
        layers_fn, input_shape, grid = MODELS["conv_maxpool"]
        all_nodes = set(range(grid[0] * grid[1]))
        records = {}
        for impl in ("vectorized", "reference"):
            adapter = ScriptedAdapter(all_nodes)
            trainer = make_trainer("conv_maxpool", impl,
                                   fault_adapter=adapter)
            x, y = make_batch("conv_maxpool")
            run_backward(trainer, x, y)
            records[impl] = (adapter.skips, grads_of(trainer))
        skips_vec, grads_vec = records["vectorized"]
        skips_ref, grads_ref = records["reference"]
        assert skips_vec == skips_ref
        for key in grads_vec:
            np.testing.assert_array_equal(grads_vec[key], grads_ref[key])
            # Masked layers lost every contributor -> zero grads.
            assert not grads_vec[key].any()

    @pytest.mark.chaos
    def test_real_fault_adapter_parity(self):
        """End to end with the real fault stack: a NodeStateTracker
        with crashed nodes drives TrainingFaultAdapter; both backward
        implementations must log identical skip traces."""
        from repro.faults import FaultTrace, NodeStateTracker
        from repro.faults.runtime import TrainingFaultAdapter

        traces = {}
        for impl in ("vectorized", "reference"):
            layers_fn, input_shape, grid = MODELS["conv_maxpool"]
            topo = GridTopology(*grid)
            trace = FaultTrace()
            tracker = NodeStateTracker(topo, trace, clock=lambda: 0.0)
            for node in (1, 6, 11):
                tracker.crash(node)
            adapter = TrainingFaultAdapter(tracker, trace, clock=lambda: 0.0)
            trainer = make_trainer("conv_maxpool", impl,
                                   fault_adapter=adapter)
            x, y = make_batch("conv_maxpool")
            trainer.fit(x, y, epochs=1, batch_size=4,
                        rng=np.random.default_rng(2))
            traces[impl] = [
                (r.kind, r.detail.get("layer"), r.detail.get("node"))
                for r in trace.records
                if r.kind == "degrade.update-skipped"
            ]
        assert traces["vectorized"] == traces["reference"]
        assert len(traces["vectorized"]) > 0


class TestLayerKernels:
    """backward_nodes row blocks == one backward() call per node."""

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_backward_nodes_blocks_match_per_node_backward(self, kind):
        trainer = make_trainer(kind, "vectorized")
        x, y = make_batch(kind)
        trainer.model.zero_grads()
        logits = trainer.model.forward(x, training=True)
        trainer.loss.forward(logits, y)
        grad = trainer.loss.backward()
        # Walk backwards manually, checking each masked layer.
        for entry in reversed(trainer.graph.layers):
            layer = entry.layer
            if entry.kind == "flatten" or layer.is_elementwise:
                grad = layer.backward(grad)
                continue
            stack = trainer._stacked[entry.index]
            batch = grad.shape[0]
            stacked = (grad[np.newaxis] * stack.out_masks).reshape(
                (-1,) + grad.shape[1:]
            )
            got = layer.backward_nodes(stacked, grad)
            got = got.reshape(
                (len(stack.nodes), batch) + got.shape[1:]
            )
            for i, node in enumerate(stack.nodes):
                expected = layer.backward(grad * stack.out_masks[i])
                np.testing.assert_array_equal(
                    got[i], expected,
                    err_msg=f"{kind} layer {entry.index} node {node}",
                )
            grad = (got * stack.in_masks).sum(axis=0)

    def test_backward_nodes_unimplemented_layer_raises(self):
        with pytest.raises(NotImplementedError, match="ReLU"):
            ReLU().backward_nodes(np.zeros((2, 3)), np.zeros((1, 3)))


class TestCol2imCached:
    def test_non_overlapping_matches_reference_bytes(self):
        rng = np.random.default_rng(31)
        x_shape = (6, 3, 8, 8)
        col = rng.normal(size=(6 * 4 * 4, 3 * 2 * 2))
        fast = col2im_cached(col, x_shape, 2, 2, 2, 0)
        slow = col2im(col, x_shape, 2, 2, 2, 0)
        np.testing.assert_array_equal(fast, slow)

    def test_overlapping_falls_back_to_reference(self):
        """stride < kernel: windows overlap, the gather plan is
        unavailable, and the cached form must still be correct (it
        delegates to the accumulating loop)."""
        rng = np.random.default_rng(32)
        x_shape = (2, 2, 7, 7)
        col = rng.normal(size=(2 * 5 * 5, 2 * 3 * 3))
        fast = col2im_cached(col, x_shape, 3, 3, 1, 0)
        slow = col2im(col, x_shape, 3, 3, 1, 0)
        np.testing.assert_array_equal(fast, slow)

    def test_padded_non_overlapping_crops_correctly(self):
        rng = np.random.default_rng(33)
        x_shape = (3, 2, 6, 6)
        # 2x2/stride-2 over an 8x8 padded field -> 4x4 windows.
        col = rng.normal(size=(3 * 4 * 4, 2 * 2 * 2))
        fast = col2im_cached(col, x_shape, 2, 2, 2, 1)
        slow = col2im(col, x_shape, 2, 2, 2, 1)
        np.testing.assert_array_equal(fast, slow)


class TestTelemetry:
    def test_training_emits_spans_and_metrics(self):
        from repro import obs

        with obs.session() as tel:
            trainer = make_trainer("conv_maxpool", "vectorized")
            x, y = make_batch("conv_maxpool", n=8)
            trainer.fit(x, y, epochs=2, batch_size=4,
                        rng=np.random.default_rng(1))
        names = {e.name for e in tel.tracer.events}
        assert "train.step" in names
        assert "exec.backward" in names
        backward = next(
            e for e in tel.tracer.events if e.name == "exec.backward"
        )
        assert backward.attrs["impl"] == "vectorized"
        assert tel.metrics.total("train.steps") == 4.0  # 2 epochs x 2 steps
        assert tel.metrics.total("train.examples") == 16.0
        assert tel.metrics.total("train.epochs") == 2.0
        assert tel.metrics.value("train.epoch_loss") is not None

    def test_update_skips_counted_by_adapter(self):
        from repro import obs
        from repro.faults import FaultTrace, NodeStateTracker
        from repro.faults.runtime import TrainingFaultAdapter

        with obs.session() as tel:
            layers_fn, input_shape, grid = MODELS["conv_maxpool"]
            topo = GridTopology(*grid)
            trace = FaultTrace()
            tracker = NodeStateTracker(topo, trace, clock=lambda: 0.0)
            tracker.crash(5)
            adapter = TrainingFaultAdapter(tracker, trace, clock=lambda: 0.0)
            trainer = make_trainer("conv_maxpool", "vectorized",
                                   fault_adapter=adapter)
            x, y = make_batch("conv_maxpool")
            run_backward(trainer, x, y)
        n_skips = len([
            r for r in trace.records if r.kind == "degrade.update-skipped"
        ])
        assert n_skips > 0
        assert tel.metrics.total("train.update_skips") == n_skips
        instants = [
            e for e in tel.tracer.events if e.name == "train.update-skipped"
        ]
        assert len(instants) == n_skips

    def test_null_backend_emits_nothing(self):
        """Without a session the default telemetry is the disabled
        NULL backend: training must not record anything anywhere."""
        from repro.obs.runtime import current

        trainer = make_trainer("conv_maxpool", "vectorized")
        assert trainer._telemetry.enabled is False
        x, y = make_batch("conv_maxpool", n=8)
        trainer.fit(x, y, epochs=1, batch_size=4,
                    rng=np.random.default_rng(1))
        assert current().tracer.events == []


TRAINING_PY = (
    Path(__file__).resolve().parent.parent
    / "src" / "repro" / "core" / "training.py"
)

#: The one method allowed to loop over nodes calling layer.backward.
LOOP_ALLOWLIST = {"_backward_reference"}


def backward_calls_in_loops(tree):
    """(function, lineno) pairs where a ``*.backward(...)`` call sits
    inside a ``for`` loop — the pattern the vectorization removed."""
    offenders = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.AsyncFor)):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "backward"
                ):
                    offenders.append((func.name, node.lineno))
    return offenders


class TestNoLoopedBackwardLint:
    def test_vectorized_path_has_no_per_node_backward_loop(self):
        """The tentpole's guard rail: outside the allowlisted
        reference oracle, no ``for`` loop in the trainer may call a
        layer ``backward`` — that is exactly the per-node hot loop the
        batched kernels replaced."""
        tree = ast.parse(TRAINING_PY.read_text())
        offenders = [
            (func, line)
            for func, line in backward_calls_in_loops(tree)
            if func not in LOOP_ALLOWLIST
        ]
        assert offenders == [], (
            "per-node backward loop reappeared in training.py: "
            + ", ".join(f"{f}:{l}" for f, l in offenders)
        )

    def test_detector_catches_the_banned_pattern(self):
        tree = ast.parse(
            "def bad(layers, grad):\n"
            "    for layer in layers:\n"
            "        grad = layer.backward(grad)\n"
        )
        assert backward_calls_in_loops(tree) == [("bad", 3)]

    def test_detector_ignores_loop_free_backward(self):
        tree = ast.parse(
            "def good(layer, grad):\n"
            "    return layer.backward(grad)\n"
        )
        assert backward_calls_in_loops(tree) == []

    def test_reference_oracle_is_still_present(self):
        tree = ast.parse(TRAINING_PY.read_text())
        allowed = {
            func for func, __ in backward_calls_in_loops(tree)
        } & LOOP_ALLOWLIST
        assert allowed == LOOP_ALLOWLIST
