"""Parity: the vectorized distributed ``"local"`` backward is
behavior-identical to the retained per-node reference loop — same
gradients, same weights over epochs, same fault-skip callbacks in the
same order — plus the AST lint that keeps the per-node Python loop
from quietly reappearing in the vectorized path.

The one sanctioned numeric slack: conv parameter gradients may differ
at the ulp level because the GEMM grouping differs (the reference sums
per-node ``col.T @ G_i`` products; the vectorized path runs one GEMM
on the live gradient).  Input gradients and dense parameter gradients
are asserted byte-identical, reading -0.0 as +0.0 (see
:func:`assert_bytes_equal`); conv parameters get a pinned 1e-12
tolerance, and a digest test pins the reference path itself against
drift.
"""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    MicroDeepTrainer,
    PlacementIndex,
    UnitGraph,
    grid_correspondence_assignment,
    random_assignment,
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


def assert_bytes_equal(got, want, msg=""):
    """Same shape and float64 bit patterns, reading -0.0 as +0.0.

    A slot whose owner hosts none of the layer's outputs gets no
    same-owner edge: the kernel leaves it +0.0, while the reference
    sums other nodes' masked-out (x 0) terms there, which can give
    -0.0.  Every other bit is compared.
    """
    assert got.shape == want.shape, msg
    np.testing.assert_array_equal(
        (got + 0.0).view(np.int64), (want + 0.0).view(np.int64), err_msg=msg
    )


def window_keep(in_owner, out_owner, kh, kw, stride, pad):
    """The same-owner edge mask of a sliding window, by walking every
    window tap (independent of im2col): ``(out positions, kh*kw)``."""
    h, w = in_owner.shape
    out_h, out_w = out_owner.shape
    keep = np.zeros((out_h * out_w, kh * kw))
    for oy in range(out_h):
        for ox in range(out_w):
            for ky in range(kh):
                for kx in range(kw):
                    iy, ix = oy * stride + ky - pad, ox * stride + kx - pad
                    if 0 <= iy < h and 0 <= ix < w:
                        keep[oy * out_w + ox, ky * kw + kx] = (
                            in_owner[iy, ix] == out_owner[oy, ox]
                        )
    return keep


#: ``(layer factory, input shape)`` of every layer with a local
#: backward: conv valid / same / stride 2, max pool non-overlapping and
#: overlapping, average pool, dense.
KERNEL_CASES = {
    "conv_valid": (lambda: Conv2D(3, 3), (2, 7, 7)),
    "conv_same": (lambda: Conv2D(2, 3, padding="same"), (2, 6, 6)),
    "conv_stride2": (lambda: Conv2D(2, 3, stride=2), (1, 9, 9)),
    "maxpool_2": (lambda: MaxPool2D(2), (2, 8, 8)),
    "maxpool_3s2": (lambda: MaxPool2D(3, stride=2), (2, 9, 9)),
    "avgpool_2": (lambda: AvgPool2D(2), (3, 6, 6)),
    "dense": (lambda: Dense(7), (12,)),
}


class TestLayerKernels:
    """``backward_nodes(grad, keep)`` == the per-node sum
    ``sum_node in_mask * backward(grad * out_mask)``, byte for byte."""

    @staticmethod
    def _setup(case, seed):
        factory, in_shape = KERNEL_CASES[case]
        rng = np.random.default_rng(seed)
        layer = factory()
        layer.build(in_shape, rng)
        x = rng.normal(size=(5,) + in_shape)
        grad = rng.normal(size=(5,) + layer.output_shape(in_shape))
        layer.forward(x, training=True)
        n_nodes = 4
        if len(in_shape) == 1:
            in_owner = rng.integers(0, n_nodes, size=in_shape)
            out_owner = rng.integers(0, n_nodes, size=grad.shape[1:])
            keep = (in_owner[:, None] == out_owner[None, :]).astype(float)
        else:
            in_owner = rng.integers(0, n_nodes, size=in_shape[1:])
            out_owner = rng.integers(0, n_nodes, size=grad.shape[2:])
            keep = window_keep(in_owner, out_owner, *layer.window)
        return layer, grad, in_owner, out_owner, keep, n_nodes

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_equals_per_node_sum(self, case, seed):
        layer, grad, in_owner, out_owner, keep, n_nodes = self._setup(
            case, seed
        )
        want = None
        for node in range(n_nodes):
            term = layer.backward(grad * (out_owner == node)) * (
                in_owner == node
            )
            want = term if want is None else want + term
        layer.zero_grads()
        got = layer.backward_nodes(grad, keep)
        assert_bytes_equal(got, want, f"{case} seed {seed}")

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_parameter_gradients_and_keep_none(self, case):
        """Parameter gradients are those of ``backward(grad)``;
        ``keep=None`` accumulates them and computes no input
        gradient."""
        layer, grad, __, __, keep, __ = self._setup(case, 7)
        layer.backward(grad)
        want = {k: g.copy() for k, g in layer.grads().items()}
        for arg in (keep, None):
            layer.zero_grads()
            out = layer.backward_nodes(grad, arg)
            assert (out is None) == (arg is None)
            for name, g in layer.grads().items():
                assert_bytes_equal(g, want[name], f"{case} {name}")

    def test_backward_nodes_unimplemented_layer_raises(self):
        with pytest.raises(NotImplementedError, match="ReLU"):
            ReLU().backward_nodes(np.zeros((2, 3)), np.zeros((3, 3)))


#: Models for the vectorized-vs-reference matrix: ``(layers, input
#: shape)``.  Each stresses one way a layer sits relative to the first
#: layer with parameters.
MATRIX_MODELS = {
    "relu_first": (
        lambda: [ReLU(), Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
                 Dense(3)],
        (1, 10, 10),
    ),
    "pool_before_conv": (
        lambda: [MaxPool2D(2), Conv2D(2, 3), ReLU(), Flatten(), Dense(3)],
        (1, 12, 12),
    ),
    "two_convs": (
        lambda: [Conv2D(2, 3), ReLU(), Conv2D(3, 3), ReLU(), AvgPool2D(2),
                 Flatten(), Dense(2)],
        (1, 12, 12),
    ),
    "same_padding": (
        lambda: [Conv2D(2, 3, padding="same"), ReLU(),
                 Conv2D(2, 3, stride=2, padding="same"), ReLU(),
                 MaxPool2D(3, stride=2), Flatten(), Dense(3)],
        (1, 10, 10),
    ),
    "dense_only": (
        lambda: [Flatten(), Dense(12), ReLU(), Dense(6), ReLU(), Dense(2)],
        (1, 6, 6),
    ),
}
MATRIX_GRIDS = ((2, 2), (3, 3), (4, 4))
MATRIX_PLACEMENTS = ("grid", "random")
MATRIX_DOWN = ("none", "quarter", "all")


def matrix_trainer(model, grid, placement, impl, adapter):
    layers_fn, input_shape = MATRIX_MODELS[model]
    net = Sequential(layers_fn())
    net.build(input_shape, np.random.default_rng(0))
    graph = UnitGraph(net)
    topology = GridTopology(*grid)
    if placement == "grid":
        placed = grid_correspondence_assignment(graph, topology)
    else:
        placed = random_assignment(graph, topology, np.random.default_rng(1))
    return MicroDeepTrainer(
        graph, placed, SGD(lr=0.05), fault_adapter=adapter,
        backward_impl=impl,
    )


def spy_received(model):
    """Per layer index, the gradient each layer received: the sum of
    the gradients passed to its ``backward``/``backward_nodes`` calls,
    in call order (the reference calls a masked layer once per node)."""
    received = {}
    for i, layer in enumerate(model.layers):
        for name in ("backward", "backward_nodes"):
            def spy(grad, *rest, _i=i, _method=getattr(layer, name)):
                received[_i] = (
                    grad if _i not in received else received[_i] + grad
                )
                return _method(grad, *rest)

            setattr(layer, name, spy)
    return received


class TestLocalBackwardMatrix:
    """Vectorized == reference over models x grids x placements x
    down-sets: every gradient the vectorized path computes is
    byte-identical, dense parameters too, conv parameters within
    1e-12, and the skip sequences are equal."""

    @pytest.mark.parametrize("down", MATRIX_DOWN)
    @pytest.mark.parametrize("placement", MATRIX_PLACEMENTS)
    @pytest.mark.parametrize("grid", MATRIX_GRIDS)
    @pytest.mark.parametrize("model", sorted(MATRIX_MODELS))
    def test_vectorized_equals_reference(self, model, grid, placement, down):
        nodes = list(range(grid[0] * grid[1]))
        seed = sorted(MATRIX_MODELS).index(model) * 100 + sum(grid)
        rng = np.random.default_rng(seed)
        dead = {"none": [], "all": nodes}.get(down)
        if dead is None:
            dead = rng.choice(nodes, size=len(nodes) // 4, replace=False)
        __, input_shape = MATRIX_MODELS[model]
        x = rng.normal(size=(6,) + input_shape)
        y = rng.integers(0, 2, size=6)
        runs = {}
        for impl in ("vectorized", "reference"):
            adapter = ScriptedAdapter(int(n) for n in dead)
            trainer = matrix_trainer(model, grid, placement, impl, adapter)
            received = spy_received(trainer.model)
            run_backward(trainer, x, y)
            runs[impl] = (trainer, received, adapter.skips)
        vec, got, skips_vec = runs["vectorized"]
        ref, want, skips_ref = runs["reference"]
        case = f"{model} {grid} {placement} {down}"
        assert skips_vec == skips_ref, case
        if down != "none":
            assert skips_vec, case
        floor = vec._first_param
        assert sorted(got) == sorted(i for i in want if i >= floor), case
        for i in got:
            assert_bytes_equal(got[i], want[i], f"{case} layer {i}")
        ref_grads = grads_of(ref)
        for (i, name), grad in grads_of(vec).items():
            ref_grad = ref_grads[(i, name)]
            if isinstance(vec.model.layers[i], Conv2D):
                np.testing.assert_allclose(
                    grad, ref_grad, atol=1e-12, rtol=0, err_msg=case
                )
            else:
                assert_bytes_equal(grad, ref_grad, f"{case} {i} {name}")

    def test_edge_masks_match_window_walk(self):
        """The trainer's im2col-built edge masks equal the masks walked
        window by window from the placement."""
        trainer = matrix_trainer(
            "same_padding", (3, 3), "random", "vectorized", None
        )
        index = PlacementIndex(trainer.graph, trainer.placement)
        checked = 0
        for entry in trainer.graph.layers:
            if entry.kind != "spatial" or entry.index not in trainer._stacked:
                continue
            in_owner = index.input_owner(entry.index).reshape(entry.in_hw)
            out_owner = index.layers[entry.index].owner.reshape(entry.out_hw)
            np.testing.assert_array_equal(
                trainer._stacked[entry.index].keep,
                window_keep(in_owner, out_owner, *entry.layer.window),
            )
            checked += 1
        assert checked == 3


class TestFirstParamLayer:
    """Nothing below the first layer with parameters is computed."""

    @pytest.mark.parametrize(
        "model, folds", [("relu_first", 0), ("two_convs", 1)]
    )
    def test_first_conv_folds_no_input_gradient(
        self, model, folds, monkeypatch
    ):
        from repro.nn.layers import conv

        calls = []
        for name in ("col2im_cached", "col2im_kept"):
            fold = getattr(conv, name)

            def counting(*args, _fold=fold, **kwargs):
                calls.append(args[0].shape)
                return _fold(*args, **kwargs)

            monkeypatch.setattr(conv, name, counting)
        trainer = matrix_trainer(model, (2, 2), "grid", "vectorized", None)
        __, input_shape = MATRIX_MODELS[model]
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4,) + input_shape)
        run_backward(trainer, x, rng.integers(0, 2, size=4))
        assert len(calls) == folds

    def test_masked_layer_below_reports_skips_without_arithmetic(self):
        """A parameter-free pool before the first conv computes
        nothing but still reports its down nodes, in the reference
        loop's order."""
        records = {}
        for impl in ("vectorized", "reference"):
            adapter = ScriptedAdapter({0, 3})
            trainer = matrix_trainer(
                "pool_before_conv", (2, 2), "grid", impl, adapter
            )
            received = spy_received(trainer.model)
            x = np.random.default_rng(5).normal(size=(4, 1, 12, 12))
            run_backward(trainer, x, np.array([0, 1, 0, 1]))
            records[impl] = (adapter.skips, received)
        assert records["vectorized"][0] == records["reference"][0]
        assert (0, 0) in records["vectorized"][0]
        assert 0 not in records["vectorized"][1]
        assert 0 in records["reference"][1]


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


class TestSharedSkipRecords:
    """``TrainingFaultAdapter`` logs one trace entry per skip, but the
    skips of one ``(layer, node)`` at one clock value share a record."""

    EPOCHS = 3

    @staticmethod
    def _trainer(adapter_cls, clock):
        """Nodes 5 and 10 down on a 4x4 grid; :meth:`_fit` runs 256
        examples of 12x12 in batches of 16, so 4 skips per step and 64
        per epoch."""
        from repro.faults import FaultTrace, NodeStateTracker

        model = Sequential([Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
                            Dense(8), ReLU(), Dense(2)])
        model.build((1, 12, 12), np.random.default_rng(0))
        graph = UnitGraph(model)
        topology = GridTopology(4, 4)
        trace = FaultTrace()
        tracker = NodeStateTracker(topology, trace, clock=clock)
        for node in (5, 10):
            tracker.crash(node)
        trainer = MicroDeepTrainer(
            graph, grid_correspondence_assignment(graph, topology),
            SGD(lr=0.05), fault_adapter=adapter_cls(tracker, trace, clock),
        )
        return trainer, trace

    @staticmethod
    def _fit(trainer, epochs):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(256, 1, 12, 12))
        y = rng.integers(0, 2, size=256)
        trainer.fit(x, y, epochs=epochs, batch_size=16,
                    rng=np.random.default_rng(3))

    @staticmethod
    def _adapters():
        """The shared adapter, and one without sharing (one
        ``record()`` per skip, as before records were shared)."""
        from repro.faults.runtime import TrainingFaultAdapter

        class RecordEverySkip(TrainingFaultAdapter):
            def on_update_skipped(self, layer_index, node):
                self.trace.record(
                    self.clock(), "degrade.update-skipped",
                    layer=layer_index, node=node,
                )

        return {"shared": TrainingFaultAdapter, "plain": RecordEverySkip}

    def test_constant_clock_shares_records(self):
        traces = {}
        for name, cls in self._adapters().items():
            trainer, traces[name] = self._trainer(cls, lambda: 0.0)
            self._fit(trainer, self.EPOCHS)
        trace = traces["shared"]
        skips = trace.of_kind("degrade.update-skipped")
        assert len(skips) == 64 * self.EPOCHS
        assert len(trace) == 2 + 64 * self.EPOCHS  # two crash records
        assert len({id(r) for r in skips}) <= len(trainer._stacked) * 2
        assert trace.to_jsonl() == traces["plain"].to_jsonl()
        assert trace.digest() == traces["plain"].digest()

    def test_advancing_clock_gets_fresh_records_per_instant(self):
        traces = {}
        for name, cls in self._adapters().items():
            now = [0.0]
            trainer, traces[name] = self._trainer(cls, lambda: now[0])
            step = trainer._train_step

            def ticking(xb, yb, now=now, step=step):
                now[0] += 1.0
                return step(xb, yb)

            trainer._train_step = ticking
            self._fit(trainer, 1)
        skips = traces["shared"].of_kind("degrade.update-skipped")
        ids_at = {}
        for rec in skips:
            ids_at.setdefault(rec.time, set()).add(id(rec))
        assert sorted(ids_at) == [float(t) for t in range(1, 17)]
        assert all(len(ids) == 4 for ids in ids_at.values())
        assert len({id(r) for r in skips}) == len(skips) == 64
        assert traces["shared"].to_jsonl() == traces["plain"].to_jsonl()


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
