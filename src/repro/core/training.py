"""Distributed training: exact vs. local backpropagation.

The paper: *"The backpropagation process is carried out in a
distributed fashion ... Weights of units are updated independently by
each sensor node to avoid communication overhead, sacrificing some
accuracy."*

Two update modes:

- ``"exact"`` — full backpropagation: mathematically identical to the
  centralized CNN, but every gradient that crosses a node boundary
  would have to be transmitted (expensive on a WSN).
- ``"local"`` — the MicroDeep approximation: each node backpropagates
  only through the units it hosts.  Parameter gradients stay exact
  (the forward pass already delivered the cross-node *activations*),
  but gradient flow **to units on other nodes is dropped**, so deeper
  layers see truncated error signals.  No gradient messages are
  exchanged at all.

Two implementations of the ``"local"`` backward coexist, both reading
one stack of per-node masks per layer — built at construction time by
comparing the :class:`~repro.core.placement_index.PlacementIndex`
owner arrays against the layer's hosting nodes (ascending):

- the **vectorized** path (default): the node axis of the stack is
  folded into the batch axis, and each masked layer runs **one**
  batched kernel (:meth:`repro.nn.layers.base.Layer.backward_nodes`)
  over the ``(n_nodes · batch, …)`` masked gradients, followed by a
  masked scatter-reduce over the node axis.  Parameter gradients are
  accumulated once from the node-collapsed gradient — exactly the sum
  of the per-node masked gradients, because every output slot is owned
  by one node.
- the **reference** path (``backward_impl="reference"`` /
  :meth:`MicroDeepTrainer._backward_reference`): the original loop
  calling one full ``layer.backward`` per row of the stack — the
  parity oracle the tests pin the vectorized path against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.assignment import Placement
from repro.core.placement_index import PlacementIndex
from repro.core.unitgraph import LayerUnits, UnitGraph
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optimizers import Optimizer
from repro.nn.training import TrainingHistory


class _StackedMasks:
    """One layer's per-node masks as stacked tensors.

    ``nodes`` lists the layer's hosting nodes, ascending; ``out_masks``
    / ``in_masks`` stack their masks in that order along a leading node
    axis shaped to broadcast against ``grad[np.newaxis]`` (spatial:
    ``(n_nodes, 1, 1, H, W)``; dense: ``(n_nodes, 1, U)``).
    """

    __slots__ = ("nodes", "out_masks", "in_masks")

    def __init__(self, index: PlacementIndex, entry: LayerUnits) -> None:
        owners = index.layers[entry.index]
        column = owners.nodes[:, np.newaxis]
        out_masks = (owners.owner == column).astype(float)
        in_masks = (index.input_owner(entry.index) == column).astype(float)
        n = column.shape[0]
        if entry.kind == "spatial":
            self.out_masks = out_masks.reshape((n, 1, 1) + entry.out_hw)
            self.in_masks = in_masks.reshape((n, 1, 1) + entry.in_hw)
        else:
            self.out_masks = out_masks.reshape(n, 1, -1)
            self.in_masks = in_masks.reshape(n, 1, -1)
        self.nodes: List[int] = owners.nodes.tolist()


class MicroDeepTrainer:
    """Trains a placed CNN with distributed backpropagation.

    Args:
        graph: unit graph of the (built) model.
        placement: unit-to-node mapping.
        optimizer: update rule.
        update_mode: ``"exact"`` or ``"local"`` (see module docstring).
        loss: defaults to softmax cross-entropy.
        fault_adapter: optional fault-layer bridge (see
            :class:`repro.faults.TrainingFaultAdapter`): nodes it
            reports down skip their local backward contribution — a
            crashed node can neither compute nor apply its updates —
            and each skip is reported back.  Requires ``"local"``
            updates (exact backprop has no per-node structure to
            degrade).
        backward_impl: ``"vectorized"`` (default) or ``"reference"``
            — which ``"local"`` backward implementation :meth:`fit`
            uses (see module docstring; the reference loop is retained
            as the parity oracle and for benchmarking).
    """

    def __init__(
        self,
        graph: UnitGraph,
        placement: Placement,
        optimizer: Optimizer,
        update_mode: str = "local",
        loss: Optional[CrossEntropyLoss] = None,
        fault_adapter=None,
        backward_impl: str = "vectorized",
        telemetry=None,
    ) -> None:
        if update_mode not in ("exact", "local"):
            raise ValueError(
                f"update_mode must be 'exact' or 'local', got {update_mode!r}"
            )
        if backward_impl not in ("vectorized", "reference"):
            raise ValueError(
                "backward_impl must be 'vectorized' or 'reference', "
                f"got {backward_impl!r}"
            )
        if fault_adapter is not None and update_mode != "local":
            raise ValueError(
                "fault-aware training requires update_mode='local'"
            )
        self.graph = graph
        self.model = graph.model
        self.placement = placement
        self.optimizer = optimizer
        self.update_mode = update_mode
        self.loss = loss if loss is not None else CrossEntropyLoss()
        self.fault_adapter = fault_adapter
        self.backward_impl = backward_impl
        # Placement is frozen for the trainer's lifetime, so the mask
        # stacks are built exactly once and never invalidated.
        self._stacked: Optional[Dict[int, _StackedMasks]] = None
        if update_mode == "local":
            index = PlacementIndex(graph, placement)
            self._stacked = {
                entry.index: _StackedMasks(index, entry)
                for entry in graph.layers
                if entry.kind != "flatten" and not entry.layer.is_elementwise
            }
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry

    # -- backward ------------------------------------------------------------
    def _backward(self, grad: np.ndarray) -> None:
        """Backpropagate through the model in the selected mode."""
        tel = self._telemetry
        if not tel.enabled:
            self._backward_dispatch(grad)
            return
        impl = (
            "exact" if self.update_mode == "exact" else self.backward_impl
        )
        with tel.tracer.span(
            "exec.backward", batch=int(grad.shape[0]), impl=impl
        ):
            self._backward_dispatch(grad)

    def _backward_dispatch(self, grad: np.ndarray) -> None:
        if self.update_mode == "exact":
            self.model.backward(grad)
        elif self.backward_impl == "reference":
            self._backward_reference(grad)
        else:
            self._backward_vectorized(grad)

    def _backward_vectorized(self, grad: np.ndarray) -> None:
        """The batched ``"local"`` backward (see module docstring)."""
        down = (
            self.fault_adapter.down_nodes()
            if self.fault_adapter is not None
            else None
        )
        for entry in reversed(self.graph.layers):
            grad = self._layer_backward_batched(entry, grad, down)

    def _layer_backward_batched(
        self, entry: LayerUnits, grad: np.ndarray, down
    ) -> np.ndarray:
        """One layer of the vectorized local backward.

        Layers that do not cut gradient flow backpropagate the
        collapsed gradient directly; masked layers run one batched
        kernel over the node-stacked masked gradients and scatter-
        reduce the result over the node axis.  All sums over the node
        axis are exact — the masks are disjoint, so each slot adds one
        value and zeros.
        """
        layer = entry.layer
        if entry.kind == "flatten" or layer.is_elementwise:
            return layer.backward(grad)
        stack = self._stacked[entry.index]
        out_masks = stack.out_masks
        grad_param = grad
        if down:
            skipped = [node for node in stack.nodes if node in down]
            for node in skipped:
                self.fault_adapter.on_update_skipped(entry.index, node)
            if skipped:
                # Dead nodes become zeroed rows in the stacked mask;
                # the collapsed parameter gradient shrinks to the
                # union of the surviving (disjoint) out-masks.
                live = np.array(
                    [node not in down for node in stack.nodes],
                    dtype=grad.dtype,
                ).reshape((-1,) + (1,) * (out_masks.ndim - 1))
                out_masks = out_masks * live
                grad_param = grad * out_masks.sum(axis=0)
        n_nodes = len(stack.nodes)
        batch = grad.shape[0]
        stacked = (grad[np.newaxis] * out_masks).reshape(
            (n_nodes * batch,) + grad.shape[1:]
        )
        grad_in = layer.backward_nodes(stacked, grad_param)
        grad_in = grad_in.reshape((n_nodes, batch) + grad_in.shape[1:])
        return (grad_in * stack.in_masks).sum(axis=0)

    def _backward_reference(self, grad: np.ndarray) -> None:
        """The retained per-node ``"local"`` loop — parity oracle for
        the vectorized path (one full ``layer.backward`` per row of the
        layer's mask stack)."""
        down = (
            self.fault_adapter.down_nodes()
            if self.fault_adapter is not None
            else None
        )
        for entry in reversed(self.graph.layers):
            layer = entry.layer
            if entry.kind == "flatten" or layer.is_elementwise:
                grad = layer.backward(grad)
                continue
            stack = self._stacked[entry.index]
            total = None
            for node, out_mask, in_mask in zip(
                stack.nodes, stack.out_masks, stack.in_masks
            ):
                if down and node in down:
                    self.fault_adapter.on_update_skipped(entry.index, node)
                    continue
                grad_in = layer.backward(grad * out_mask)
                contribution = grad_in * in_mask
                total = contribution if total is None else total + contribution
            if total is None:
                # Every host of this layer is down: no gradient flows
                # further back, but the pass still completes.
                total = layer.backward(grad * 0.0)
            grad = total

    # -- training loop ---------------------------------------------------------
    def _train_step(self, xb: np.ndarray, yb: np.ndarray) -> Tuple[float, int]:
        """One mini-batch update; returns ``(batch_loss, n_correct)``."""
        self.model.zero_grads()
        logits = self.model.forward(xb, training=True)
        batch_loss = self.loss.forward(logits, yb)
        self._backward(self.loss.backward())
        self.optimizer.step(self.model.param_slots())
        return batch_loss, int((logits.argmax(axis=-1) == yb).sum())

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        patience: Optional[int] = None,
        recorder=None,
    ) -> TrainingHistory:
        """Mini-batch training; mirrors :class:`repro.nn.Trainer.fit`
        but with the distributed backward pass.

        ``recorder`` (an enabled :class:`repro.obs.FlightRecorder`) is
        sampled once per epoch, after the epoch metrics land — with
        the recorder's default index clock each timeline tick is one
        epoch, which is what the watchdog's ``train.loss`` drift
        rules evaluate against.

        Raises:
            ValueError: if ``x`` is empty — an empty dataset would
                otherwise surface as a ``ZeroDivisionError`` deep in
                the epoch averaging.
        """
        if x.shape[0] == 0:
            raise ValueError(
                "cannot fit on an empty dataset (x has 0 samples)"
            )
        history = TrainingHistory()
        n = x.shape[0]
        tel = self._telemetry
        best_acc = -np.inf
        best_weights = None
        stale = 0
        for epoch in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            for step, start in enumerate(range(0, n, batch_size)):
                idx = order[start : start + batch_size]
                xb, yb = x[idx], y[idx]
                if tel.enabled:
                    with tel.tracer.span(
                        "train.step", epoch=epoch, step=step,
                        batch=int(len(idx)),
                    ):
                        batch_loss, batch_correct = self._train_step(xb, yb)
                    tel.metrics.counter("train.steps").inc()
                    tel.metrics.counter("train.examples").inc(float(len(idx)))
                    tel.metrics.gauge("train.loss").set(float(batch_loss))
                else:
                    batch_loss, batch_correct = self._train_step(xb, yb)
                epoch_loss += batch_loss * len(idx)
                correct += batch_correct
            history.train_loss.append(epoch_loss / n)
            history.train_accuracy.append(correct / n)
            if tel.enabled:
                tel.metrics.counter("train.epochs").inc()
                tel.metrics.gauge("train.epoch_loss").set(epoch_loss / n)
                tel.metrics.gauge("train.epoch_accuracy").set(correct / n)
            if x_val is not None and y_val is not None:
                val_loss, val_acc = self.evaluate(x_val, y_val)
                history.val_loss.append(val_loss)
                history.val_accuracy.append(val_acc)
                if val_acc > best_acc:
                    best_acc = val_acc
                    best_weights = self.model.get_weights()
                    stale = 0
                else:
                    stale += 1
                if recorder is not None:
                    recorder.sample()
                if patience is not None and stale >= patience:
                    break
            elif recorder is not None:
                recorder.sample()
        if best_weights is not None:
            self.model.set_weights(best_weights)
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256):
        """``(mean_loss, accuracy)`` on the given data.

        Raises:
            ValueError: if ``x`` is empty — there is no mean loss or
                accuracy of zero samples.
        """
        n = x.shape[0]
        if n == 0:
            raise ValueError(
                "cannot evaluate on an empty dataset (x has 0 samples)"
            )
        total_loss = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.model.forward(xb, training=False)
            total_loss += self.loss.forward(logits, yb) * len(xb)
            correct += int((logits.argmax(axis=-1) == yb).sum())
        return total_loss / n, correct / n
