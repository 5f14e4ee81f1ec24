"""Distributed training: exact vs. local backpropagation.

The paper: *"The backpropagation process is carried out in a
distributed fashion ... Weights of units are updated independently by
each sensor node to avoid communication overhead, sacrificing some
accuracy."*

:class:`MicroDeepTrainer` is :class:`repro.nn.Trainer` with a
distributed backward: it overrides :meth:`~repro.nn.Trainer._backward`
and inherits the one mini-batch loop (``fit``/``evaluate``, the
``train.*`` telemetry and the per-epoch recorder tick).

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

Two implementations of the ``"local"`` backward coexist, both built
at construction from the
:class:`~repro.core.placement_index.PlacementIndex` owner arrays:

- the **vectorized** path (default): each masked layer runs **one**
  kernel over the batch
  (:meth:`repro.nn.layers.base.Layer.backward_nodes`).  Its input
  gradient keeps only the edges between an input slot and an output
  slot hosted by the same node — the layer's *edge mask*, built once
  per layer (for windows, the im2col of the input-owner grid compared
  with the output owners).  That adds exactly the nonzero terms of the
  per-node loop, in its order, so input gradients equal the loop's bit
  for bit, up to the sign of a zero.  Parameter gradients accumulate
  once from the live gradient (the slots of down nodes zeroed), which
  is the sum of the per-node masked gradients because every output
  slot is owned by one node.  Nothing below the first layer with
  parameters is computed: that layer returns no input gradient, and
  the layers under it only report their down nodes.
- the **reference** path (``backward_impl="reference"`` /
  :meth:`MicroDeepTrainer._backward_reference`): the original loop
  calling one full ``layer.backward`` per hosting node on a stack of
  per-node masks — the parity oracle the tests pin the vectorized path
  against.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.assignment import Placement
from repro.core.placement_index import PlacementIndex
from repro.core.unitgraph import LayerUnits, UnitGraph
from repro.nn.layers.im2col import im2col
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optimizers import Optimizer
from repro.nn.training import Trainer


class _StackedMasks:
    """One masked layer's placement masks.

    ``nodes`` lists the layer's hosting nodes, ascending; ``out_masks``
    / ``in_masks`` stack their per-node masks in that order along a
    leading node axis shaped to broadcast against ``grad[np.newaxis]``
    (spatial: ``(n_nodes, 1, 1, H, W)``; dense: ``(n_nodes, 1, U)``) —
    the reference loop iterates them.  ``keep`` is the same-owner edge
    mask the vectorized path passes to
    :meth:`~repro.nn.layers.base.Layer.backward_nodes`.
    """

    __slots__ = ("nodes", "out_masks", "in_masks", "keep")

    def __init__(self, index: PlacementIndex, entry: LayerUnits) -> None:
        owners = index.layers[entry.index]
        in_owner = index.input_owner(entry.index)
        column = owners.nodes[:, np.newaxis]
        out_masks = (owners.owner == column).astype(float)
        in_masks = (in_owner == column).astype(float)
        n = column.shape[0]
        if entry.kind == "spatial":
            self.out_masks = out_masks.reshape((n, 1, 1) + entry.out_hw)
            self.in_masks = in_masks.reshape((n, 1, 1) + entry.in_hw)
            # Shift owners by one so the zero padding owns nothing.
            grid = (in_owner + 1).reshape((1, 1) + entry.in_hw)
            reads = im2col(grid, *entry.layer.window)
            self.keep = (reads == owners.owner[:, np.newaxis] + 1).astype(float)
        else:
            self.out_masks = out_masks.reshape(n, 1, -1)
            self.in_masks = in_masks.reshape(n, 1, -1)
            self.keep = (in_owner[:, np.newaxis] == owners.owner).astype(float)
        self.nodes: List[int] = owners.nodes.tolist()


class MicroDeepTrainer(Trainer):
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
            — which ``"local"`` backward implementation training uses
            (see module docstring; the reference loop is retained as
            the parity oracle and for benchmarking).
        telemetry: as for :class:`repro.nn.Trainer`; the backward adds
            an ``exec.backward`` span inside each ``train.step``.
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
        super().__init__(graph.model, optimizer, loss, telemetry)
        self.graph = graph
        self.placement = placement
        self.update_mode = update_mode
        self.fault_adapter = fault_adapter
        self.backward_impl = backward_impl
        # Placement is frozen for the trainer's lifetime, so the masks
        # are built exactly once and never invalidated.
        self._stacked: Optional[Dict[int, _StackedMasks]] = None
        if update_mode == "local":
            index = PlacementIndex(graph, placement)
            self._stacked = {
                entry.index: _StackedMasks(index, entry)
                for entry in graph.layers
                if entry.kind != "flatten" and not entry.layer.is_elementwise
            }
            # No gradient is read below the first layer with parameters.
            self._first_param = next(
                (e.index for e in graph.layers if e.layer.params()),
                len(graph.layers),
            )

    # -- backward ------------------------------------------------------------
    def _backward(self, grad: np.ndarray) -> None:
        """Backpropagate through the model in the selected mode (the
        one step of :meth:`repro.nn.Trainer.fit` this class changes)."""
        if self.update_mode == "exact":
            impl, run = "exact", super()._backward
        elif self.backward_impl == "reference":
            impl, run = "reference", self._backward_reference
        else:
            impl, run = "vectorized", self._backward_vectorized
        tel = self._telemetry
        if not tel.enabled:
            return run(grad)
        with tel.tracer.span(
            "exec.backward", batch=int(grad.shape[0]), impl=impl
        ):
            run(grad)

    def _backward_vectorized(self, grad: np.ndarray) -> None:
        """The one-kernel-per-layer ``"local"`` backward (see module
        docstring)."""
        down = self.fault_adapter.down_nodes() if self.fault_adapter else None
        for entry in reversed(self.graph.layers):
            grad = self._layer_backward_batched(entry, grad, down)

    def _layer_backward_batched(
        self, entry: LayerUnits, grad: Optional[np.ndarray], down
    ) -> Optional[np.ndarray]:
        """One layer of the vectorized local backward; returns the
        gradient for the layer below (None below the first layer with
        parameters, where nothing is computed).

        A masked layer reports its down nodes, zeroes the output slots
        they host and runs one ``backward_nodes`` kernel; other layers
        backpropagate directly.
        """
        layer = entry.layer
        masks = self._stacked.get(entry.index)
        dead = []
        if masks is not None and down:
            dead = [i for i, node in enumerate(masks.nodes) if node in down]
            for i in dead:
                self.fault_adapter.on_update_skipped(
                    entry.index, masks.nodes[i]
                )
        if entry.index < self._first_param:
            return None
        if masks is None:
            return layer.backward(grad)
        if dead:
            # The out-masks are disjoint: 1 - the dead ones' sum is 1
            # exactly on the live slots.
            grad = grad * (1.0 - masks.out_masks[dead].sum(axis=0))
        keep = masks.keep if entry.index > self._first_param else None
        return layer.backward_nodes(grad, keep)

    def _backward_reference(self, grad: np.ndarray) -> None:
        """The retained per-node ``"local"`` loop — parity oracle for
        the vectorized path (one full ``layer.backward`` per row of the
        layer's mask stack)."""
        down = self.fault_adapter.down_nodes() if self.fault_adapter else None
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
