"""2-D convolution layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import initializers
from repro.nn.layers.base import ParamLayer, SpatialDeps
from repro.nn.layers.im2col import (
    col2im_cached,
    col2im_kept,
    conv_output_hw,
    im2col_cached,
)


class Conv2D(ParamLayer):
    """Standard 2-D convolution over ``(N, C, H, W)`` batches.

    Args:
        filters: number of output channels.
        kernel_size: square kernel side or ``(kh, kw)``.
        stride: window step.
        padding: ``"valid"`` (no padding) or ``"same"``
            (zero-pad so that with stride 1 the spatial size is kept).
        weight_init: initializer name from :mod:`repro.nn.initializers`.
    """

    def __init__(
        self,
        filters: int,
        kernel_size,
        stride: int = 1,
        padding: str = "valid",
        weight_init: str = "he_normal",
    ) -> None:
        super().__init__()
        if filters <= 0:
            raise ValueError(f"filters must be positive, got {filters}")
        if padding not in ("valid", "same"):
            raise ValueError(f"padding must be 'valid' or 'same', got {padding!r}")
        self.filters = filters
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kh, self.kw = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight_init = weight_init
        self._cache = None

    @property
    def pad(self) -> int:
        if self.padding == "valid":
            return 0
        return (self.kh - 1) // 2

    @property
    def window(self) -> Tuple[int, int, int, int]:
        """``(kh, kw, stride, pad)`` of the sliding window."""
        return self.kh, self.kw, self.stride, self.pad

    def build(self, input_shape: tuple, rng: np.random.Generator) -> None:
        super().build(input_shape, rng)
        in_c = input_shape[0]
        init = initializers.get(self.weight_init)
        self.add_param("W", init((self.filters, in_c, self.kh, self.kw), rng))
        self.add_param("b", np.zeros(self.filters))

    def output_shape(self, input_shape: tuple) -> tuple:
        __, h, w = input_shape
        out_h, out_w = conv_output_hw(h, w, *self.window)
        return (self.filters, out_h, out_w)

    @property
    def is_spatial(self) -> bool:
        return True

    def spatial_dependencies(self, input_hw: Tuple[int, int]) -> SpatialDeps:
        """Each output position reads its (possibly clipped) receptive
        field of input positions."""
        h, w = input_hw
        pad = self.pad
        out_h, out_w = conv_output_hw(h, w, *self.window)
        deps: SpatialDeps = {}
        for oy in range(out_h):
            for ox in range(out_w):
                reads = []
                for ky in range(self.kh):
                    for kx in range(self.kw):
                        iy = oy * self.stride + ky - pad
                        ix = ox * self.stride + kx - pad
                        if 0 <= iy < h and 0 <= ix < w:
                            reads.append((iy, ix))
                deps[(oy, ox)] = reads
        return deps

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        out_h, out_w = conv_output_hw(h, w, *self.window)
        col = im2col_cached(x, *self.window)
        w_flat = self._params["W"].reshape(self.filters, -1).T
        # One C-ordered product per row: BLAS picks its kernel by GEMM
        # shape and layout, so a flat product (or im2col's one-row view)
        # would let a row's last-ulp bits depend on its batch.
        rows = np.ascontiguousarray(col).reshape(n, out_h * out_w, col.shape[1])
        out = np.matmul(rows, w_flat) + self._params["b"]
        out = out.reshape(n, out_h, out_w, self.filters).transpose(0, 3, 1, 2)
        if training:
            self._cache = (x.shape, col)
        return out

    def _accumulate(self, grad_out: np.ndarray) -> np.ndarray:
        """Add ``grad_out``'s parameter gradients; return it as
        ``(positions, filters)`` rows."""
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        __, col = self._cache
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, self.filters)
        self._grads["b"] += grad_flat.sum(axis=0)
        grad_w = col.T @ grad_flat
        self._grads["W"] += grad_w.T.reshape(self._params["W"].shape)
        return grad_flat

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_col = self._accumulate(grad_out) @ self._params["W"].reshape(
            self.filters, -1
        )
        return col2im_cached(grad_col, self._cache[0], *self.window)

    def backward_nodes(
        self, grad_out: np.ndarray, keep: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        grad_flat = self._accumulate(grad_out)
        if keep is None:
            return None
        grad_col = grad_flat @ self._params["W"].reshape(self.filters, -1)
        return col2im_kept(grad_col, self._cache[0], keep, *self.window)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D(filters={self.filters}, kernel=({self.kh},{self.kw}), "
            f"stride={self.stride}, padding={self.padding!r})"
        )
