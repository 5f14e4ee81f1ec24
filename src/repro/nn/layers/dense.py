"""Fully connected layer."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import initializers
from repro.nn.layers.base import ParamLayer


class Dense(ParamLayer):
    """Affine layer ``y = x W + b`` over ``(N, F)`` batches."""

    def __init__(self, units: int, weight_init: str = "glorot_uniform") -> None:
        super().__init__()
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = units
        self.weight_init = weight_init
        self._cache = None

    def build(self, input_shape: tuple, rng: np.random.Generator) -> None:
        super().build(input_shape, rng)
        if len(input_shape) != 1:
            raise ValueError(
                f"Dense expects flat input, got shape {input_shape}; "
                "insert a Flatten layer first"
            )
        in_features = input_shape[0]
        init = initializers.get(self.weight_init)
        self.add_param("W", init((in_features, self.units), rng))
        self.add_param("b", np.zeros(self.units))

    def output_shape(self, input_shape: tuple) -> tuple:
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        # One product per row, so a row's bits never depend on its batch.
        out = np.matmul(x[:, None, :], self._params["W"])[:, 0] + self._params["b"]
        if training:
            self._cache = x
        return out

    def _accumulate(self, grad_out: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        self._grads["W"] += self._cache.T @ grad_out
        self._grads["b"] += grad_out.sum(axis=0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self._accumulate(grad_out)
        return grad_out @ self._params["W"].T

    def backward_nodes(
        self, grad_out: np.ndarray, keep: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        self._accumulate(grad_out)
        if keep is None:
            return None
        return grad_out @ (self._params["W"] * keep).T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense(units={self.units})"
