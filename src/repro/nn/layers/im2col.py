"""im2col / col2im utilities used by the convolution layer.

Two unfold implementations coexist:

- :func:`im2col` — the reference kernel-loop version;
- :func:`im2col_cached` — consults index maps memoized per
  ``(C, H, W, kernel, stride, pad)``: when the windows do not overlap
  (``stride >= kernel``, the pooling regime) it gathers every patch
  straight into the final layout with one cached fancy index, skipping
  the kernel loop *and* the transpose copy.  Against the loop without
  a pad copy that measured 2x on train_local's pool input
  ``(16, 2, 10, 10)`` but 0.8-0.9x on ``(32, 4, 24, 24)``;
  for overlapping windows the contiguous slice copies of the reference
  loop are the fastest layout-conversion available, so the cache only
  memoizes the window geometry.

The fold direction mirrors the same split: :func:`col2im` is the
reference accumulate-loop, and :func:`col2im_cached` reuses the
memoized gather plan as a *scatter* plan — with non-overlapping
windows every padded input position receives at most one patch value,
so one fancy-index assignment replaces the kernel loop (the pooling
backward's hot path).

All pairs produce byte-identical matrices (the parity tests assert
it); the layers call the cached ones.  :func:`col2im_kept` folds only
the patch entries an edge mask keeps — the local backward of
distributed training, which drops the gradient between units hosted
on different nodes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

#: (C, H, W, kh, kw, stride, pad) -> (k, i, j, out_h, out_w) gather maps.
_INDEX_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_INDEX_CACHE_MAX = 128


def conv_output_hw(
    height: int, width: int, kh: int, kw: int, stride: int, pad: int
) -> tuple:
    """Spatial output size of a convolution/pool window sweep."""
    out_h = (height + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, pad={pad}) larger than "
            f"input ({height}x{width})"
        )
    return out_h, out_w


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` zero-padded by ``pad`` on both spatial axes, or ``x``
    itself when ``pad == 0`` (the unfolds only read it)."""
    if pad == 0:
        return x
    return np.pad(x, [(0, 0), (0, 0), (pad, pad), (pad, pad)], mode="constant")


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into ``(N*out_h*out_w, C*kh*kw)`` patches."""
    n, c, h, w = x.shape
    out_h, out_w = conv_output_hw(h, w, kh, kw, stride, pad)
    img = _padded(x, pad)
    col = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    for y in range(kh):
        y_max = y + stride * out_h
        for xk in range(kw):
            x_max = xk + stride * out_w
            col[:, :, y, xk, :, :] = img[:, :, y:y_max:stride, xk:x_max:stride]
    return col.transpose(0, 4, 5, 1, 2, 3).reshape(n * out_h * out_w, -1)


def im2col_indices(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> Tuple[Optional[np.ndarray], int, int]:
    """Memoized unfold plan ``(gather, out_h, out_w)`` for one shape.

    ``gather`` is an ``(out_h*out_w, C*kh*kw)`` flat-index matrix into
    the padded per-sample image, laid out so
    ``img.reshape(N, -1)[:, gather]`` lands every patch directly in
    :func:`im2col`'s final row/column order -- or None when the windows
    overlap (``stride < kernel``), where the reference slice-loop
    conversion beats any gather.
    """
    key = (c, h, w, kh, kw, stride, pad)
    cached = _INDEX_CACHE.get(key)
    if cached is not None:
        _INDEX_CACHE.move_to_end(key)
        return cached
    out_h, out_w = conv_output_hw(h, w, kh, kw, stride, pad)
    if stride >= kh and stride >= kw:
        padded_h, padded_w = h + 2 * pad, w + 2 * pad
        oy, ox = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
        base = (oy * stride * padded_w + ox * stride).reshape(-1, 1)
        cc, ky, kx = np.meshgrid(
            np.arange(c), np.arange(kh), np.arange(kw), indexing="ij"
        )
        offsets = (cc * (padded_h * padded_w) + ky * padded_w + kx).reshape(1, -1)
        gather = base + offsets
    else:
        gather = None
    cached = (gather, out_h, out_w)
    _INDEX_CACHE[key] = cached
    if len(_INDEX_CACHE) > _INDEX_CACHE_MAX:
        _INDEX_CACHE.popitem(last=False)
    return cached


def im2col_cached(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """:func:`im2col` through the memoized index cache.

    Non-overlapping windows take the single-gather fast path; the rest
    fall back to the reference loop.  Either way the result matches
    :func:`im2col` byte for byte.
    """
    n, c, h, w = x.shape
    gather, out_h, out_w = im2col_indices(c, h, w, kh, kw, stride, pad)
    if gather is None:
        return im2col(x, kh, kw, stride, pad)
    cols = _padded(x, pad).reshape(n, -1)[:, gather]
    return cols.reshape(n * out_h * out_w, c * kh * kw)


def clear_index_cache() -> None:
    """Drop the memoized gather maps (test isolation hook)."""
    _INDEX_CACHE.clear()


def col2im(
    col: np.ndarray,
    input_shape: tuple,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch gradients back to an ``(N, C, H, W)`` image (sums
    overlapping contributions)."""
    n, c, h, w = input_shape
    out_h, out_w = conv_output_hw(h, w, kh, kw, stride, pad)
    col6 = col.reshape(n, out_h, out_w, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    img = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=col.dtype)
    for y in range(kh):
        y_max = y + stride * out_h
        for xk in range(kw):
            x_max = xk + stride * out_w
            img[:, :, y:y_max:stride, xk:x_max:stride] += col6[:, :, y, xk, :, :]
    if pad == 0:
        return img
    return img[:, :, pad : pad + h, pad : pad + w]


def col2im_cached(
    col: np.ndarray,
    input_shape: tuple,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """:func:`col2im` through the memoized index cache.

    Non-overlapping windows (``stride >= kernel``) scatter every patch
    gradient with the cached gather plan in one fancy-index assignment
    — no position receives two contributions, so assignment equals the
    reference loop's accumulation byte for byte.  Overlapping windows
    fall back to :func:`col2im`.
    """
    n, c, h, w = input_shape
    gather, out_h, out_w = im2col_indices(c, h, w, kh, kw, stride, pad)
    if gather is None:
        return col2im(col, input_shape, kh, kw, stride, pad)
    padded_h, padded_w = h + 2 * pad, w + 2 * pad
    img = np.zeros((n, c * padded_h * padded_w), dtype=col.dtype)
    img[:, gather.reshape(-1)] = col.reshape(n, -1)
    img = img.reshape(n, c, padded_h, padded_w)
    if pad == 0:
        return img
    return img[:, :, pad : pad + h, pad : pad + w]


def col2im_kept(
    col: np.ndarray,
    input_shape: tuple,
    keep: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """:func:`col2im_cached` of only the patch entries ``keep`` marks.

    ``keep`` holds one row per window position and one column per
    kernel offset, ``(out_h*out_w, kh*kw)``, shared by every sample and
    channel; a 0 drops that window's contribution to that input
    position before the fold.
    """
    n, c = input_shape[:2]
    positions, taps = keep.shape
    kept = col.reshape(n, positions, c, taps) * keep[:, np.newaxis]
    return col2im_cached(
        kept.reshape(col.shape), input_shape, kh, kw, stride, pad
    )
