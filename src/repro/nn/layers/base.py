"""Layer base classes.

Every layer implements ``forward``/``backward``.  Spatial layers
additionally implement :meth:`Layer.spatial_dependencies`, returning,
for each output grid position, the set of input grid positions whose
values it reads.  MicroDeep consumes this to map CNN units onto sensor
nodes and to count cross-node messages (its communication-cost unit).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

GridPos = Tuple[int, int]
SpatialDeps = Dict[GridPos, List[GridPos]]


class Layer:
    """Abstract layer.

    Subclasses must implement :meth:`forward`, :meth:`backward` and
    :meth:`output_shape`.  Shapes exclude the batch dimension: spatial
    layers use ``(C, H, W)``, dense layers ``(F,)``.
    """

    #: Set by :meth:`build`; shape of a single input sample.
    input_shape: Optional[tuple] = None

    def build(self, input_shape: tuple, rng: np.random.Generator) -> None:
        """Late initialization once the input shape is known."""
        self.input_shape = tuple(input_shape)

    @property
    def built(self) -> bool:
        return self.input_shape is not None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Given dLoss/dOutput, accumulate parameter gradients and
        return dLoss/dInput."""
        raise NotImplementedError

    def backward_nodes(
        self, grad_out: np.ndarray, keep: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Local backward for distributed training: each node
        backpropagates only through the units it hosts.

        Parameter gradients accumulate from ``grad_out`` exactly as in
        :meth:`backward`.  The input gradient keeps only the edges
        ``keep`` marks — those between an input slot and an output slot
        hosted by the same node: ``(out_h*out_w, kh*kw)`` per window
        position and kernel offset for sliding-window layers,
        ``(in_units, units)`` for dense ones.  That adds the nonzero
        terms of the per-node sum ``in_mask * backward(grad_out *
        out_mask)`` in the same order, so the result equals it bit for
        bit, up to the sign of a zero.  With ``keep=None`` no input
        gradient is computed and None is returned (nothing below reads
        it).  Requires a prior ``forward(training=True)``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no local backward"
        )

    def output_shape(self, input_shape: tuple) -> tuple:
        """Shape of a single output sample for the given input shape."""
        raise NotImplementedError

    def spatial_dependencies(self, input_hw: Tuple[int, int]) -> SpatialDeps:
        """Map each output grid position to the input positions it reads.

        Only meaningful for layers that preserve the notion of a 2-D
        grid (conv, pool, elementwise).  Raises for layers that destroy
        spatial structure; MicroDeep treats those as fully connected.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no spatial dependency structure"
        )

    @property
    def is_spatial(self) -> bool:
        """Whether the layer maps a 2-D grid to a 2-D grid."""
        return False

    @property
    def is_elementwise(self) -> bool:
        """Whether each output unit depends only on the same-index
        input unit (activations, dropout).  MicroDeep co-locates such
        units with their producers, making them communication-free."""
        return False

    def params(self) -> Dict[str, np.ndarray]:
        """Trainable parameters by name (empty for stateless layers)."""
        return {}

    def grads(self) -> Dict[str, np.ndarray]:
        """Gradients matching :meth:`params` keys."""
        return {}

    def zero_grads(self) -> None:
        """Reset accumulated gradients to zero."""
        for g in self.grads().values():
            g[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ParamLayer(Layer):
    """Base for layers with trainable parameters.

    Maintains parallel ``_params`` / ``_grads`` dicts; subclasses
    register arrays via :meth:`add_param`.
    """

    def __init__(self) -> None:
        self._params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}

    def add_param(self, name: str, value: np.ndarray) -> np.ndarray:
        """Register a trainable array and its zero gradient buffer."""
        self._params[name] = value
        self._grads[name] = np.zeros_like(value)
        return value

    def params(self) -> Dict[str, np.ndarray]:
        return self._params

    def grads(self) -> Dict[str, np.ndarray]:
        return self._grads


def elementwise_dependencies(hw: Tuple[int, int]) -> SpatialDeps:
    """Identity dependency map: each position reads only itself."""
    height, width = hw
    return {(y, x): [(y, x)] for y in range(height) for x in range(width)}
