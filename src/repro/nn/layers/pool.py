"""Max and average pooling layers."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.layers.base import Layer, SpatialDeps
from repro.nn.layers.im2col import (
    col2im_cached,
    col2im_kept,
    conv_output_hw,
    im2col_cached,
)


class _Pool2D(Layer):
    """Shared window machinery for 2-D pooling layers."""

    def __init__(self, pool_size=2, stride: int = None) -> None:
        if isinstance(pool_size, int):
            pool_size = (pool_size, pool_size)
        self.ph, self.pw = pool_size
        self.stride = stride if stride is not None else self.ph
        self._cache = None

    @property
    def window(self) -> Tuple[int, int, int, int]:
        """``(kh, kw, stride, pad)`` of the pooling window (no padding)."""
        return self.ph, self.pw, self.stride, 0

    def output_shape(self, input_shape: tuple) -> tuple:
        c, h, w = input_shape
        out_h, out_w = conv_output_hw(h, w, *self.window)
        return (c, out_h, out_w)

    @property
    def is_spatial(self) -> bool:
        return True

    def spatial_dependencies(self, input_hw: Tuple[int, int]) -> SpatialDeps:
        h, w = input_hw
        out_h, out_w = conv_output_hw(h, w, *self.window)
        deps: SpatialDeps = {}
        for oy in range(out_h):
            for ox in range(out_w):
                deps[(oy, ox)] = [
                    (oy * self.stride + ky, ox * self.stride + kx)
                    for ky in range(self.ph)
                    for kx in range(self.pw)
                ]
        return deps

    def _unfold(self, x: np.ndarray) -> tuple:
        n, c, h, w = x.shape
        out_h, out_w = conv_output_hw(h, w, *self.window)
        col = im2col_cached(x, *self.window)
        # rows: (n*out_h*out_w, c*ph*pw) -> (n*out_h*out_w*c, ph*pw)
        col = col.reshape(-1, c, self.ph * self.pw).reshape(-1, self.ph * self.pw)
        return col, (n, c, out_h, out_w)

    def _grad_col(self, grad_out: np.ndarray) -> np.ndarray:
        """``grad_out`` spread over the pooling windows, in
        :func:`im2col` layout."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_col = self._grad_col(grad_out)
        return col2im_cached(grad_col, self._cache[0], *self.window)

    def backward_nodes(
        self, grad_out: np.ndarray, keep: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        if keep is None:
            return None
        grad_col = self._grad_col(grad_out)
        return col2im_kept(grad_col, self._cache[0], keep, *self.window)


class MaxPool2D(_Pool2D):
    """Max pooling; backward routes gradient to the argmax position."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        col, (n, c, out_h, out_w) = self._unfold(x)
        argmax = col.argmax(axis=1)
        out = col[np.arange(col.shape[0]), argmax]
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        if training:
            self._cache = (x.shape, argmax)
        return out

    def _grad_col(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        __, argmax = self._cache
        n, c, out_h, out_w = grad_out.shape
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1)
        grad_col = np.zeros((grad_flat.size, self.ph * self.pw), dtype=grad_out.dtype)
        grad_col[np.arange(grad_flat.size), argmax] = grad_flat
        return grad_col.reshape(n * out_h * out_w, -1)


class AvgPool2D(_Pool2D):
    """Average pooling; backward spreads gradient uniformly."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        col, (n, c, out_h, out_w) = self._unfold(x)
        out = col.mean(axis=1).reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        if training:
            self._cache = (x.shape,)
        return out

    def _grad_col(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward(training=True)")
        n, c, out_h, out_w = grad_out.shape
        window = self.ph * self.pw
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, 1) / window
        grad_col = np.repeat(grad_flat, window, axis=1)
        return grad_col.reshape(n * out_h * out_w, -1)
