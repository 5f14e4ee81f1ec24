"""Grid-hash spatial index over structure-of-arrays node state.

The paper's deployments top out at ~50 nodes, where a linear scan per
neighborhood query is free.  City-district simulations (10k-100k
zero-energy tags) are not: the seed-state ``Topology.neighbors()``
scanned every node per query and ``Topology.graph()`` ran an O(n^2)
pairwise double loop.  This module provides the sparse replacements
the topology layer is rebased on.  Both index every node: liveness is
the topology's concern, which applies its alive mask to the results.

- :class:`GridHashIndex` — a uniform-grid hash over the node
  positions with cell size equal to the communication range, so a
  range query inspects only the 3x3 cell neighborhood around the
  query point instead of all n nodes;
- :class:`SparseAdjacency` — CSR-style directed adjacency (row
  pointers + column indices + distances) produced by **one vectorized
  cell-pair pass** over the grid (nine lattice offsets, each matched
  with two ``searchsorted`` calls and expanded with pure ndarray
  index arithmetic — no per-node Python loop).

Distance semantics are pinned to the scalar reference path
(:meth:`repro.wsn.node.SensorNode.distance_to`): squared terms are
accumulated in the same order and the square root is the correctly
rounded IEEE-754 one, so every distance — and therefore every boundary
``d <= comm_range`` decision — is bitwise identical to the brute-force
oracles.  The parity suite asserts byte-equality, not closeness.

This module is a hot query path: it must never import ``networkx``
(the AST lint enforces it) — graph objects are built by the topology
layer *from* these arrays, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

#: The nine lattice offsets of a 3x3 cell neighborhood.
_OFFSETS = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
)


def _exact_distances(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)`` with the reference path's exact
    floating-point semantics (same accumulation order, correctly
    rounded sqrt), vectorized."""
    return np.sqrt(dx * dx + dy * dy)


@dataclass(frozen=True)
class SparseAdjacency:
    """CSR-style directed adjacency over the global node-index space.

    Rows are node indices in topology insertion order;
    ``indices[indptr[i]:indptr[i+1]]`` are the neighbor
    indices of node ``i`` in ascending order, ``weights`` the matching
    link distances.  Every undirected link appears twice (once per
    direction), so ``n_edges`` is ``len(indices) // 2``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.indices.shape[0]) // 2

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbor indices and distances of node ``i`` (ascending)."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.weights[lo:hi]

    def undirected_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Each undirected link once, as ``(i, j, distance)`` with
        ``i < j``, sorted lexicographically — the exact order the
        brute-force double loop discovers them in."""
        src = np.repeat(
            np.arange(self.indptr.shape[0] - 1),
            np.diff(self.indptr),
        )
        keep = src < self.indices
        return zip(
            src[keep].tolist(),
            self.indices[keep].tolist(),
            self.weights[keep].tolist(),
        )


class GridHashIndex:
    """Uniform-grid hash over the node positions.

    Args:
        positions: ``(n, 2)`` float64 positions of all nodes, in
            topology insertion order.
        cell_size: grid cell edge length.  Queries are exact for any
            radius up to ``cell_size`` (the 3x3 neighborhood covers
            the whole ball); the topology layer uses ``comm_range``.

    Cells are keyed by ``floor(position / cell_size)`` packed into one
    int64 per node; members are bucketed with a single stable argsort,
    so within each cell candidates stay in insertion order.  A position
    2**30 or more cells from the origin raises ``ValueError``: its key
    would overflow.
    """

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0 or not np.isfinite(cell_size):
            raise ValueError(
                f"cell_size must be positive and finite, got {cell_size}"
            )
        self.cell_size = float(cell_size)
        points = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
        self.n_indexed = int(points.shape[0])
        if self.n_indexed == 0:
            self._order = np.empty(0, dtype=np.intp)
            self._points = np.empty((0, 2), dtype=np.float64)
            self._ukeys = np.empty(0, dtype=np.int64)
            self._starts = np.empty(0, dtype=np.int64)
            self._counts = np.empty(0, dtype=np.int64)
            self._origin = (0, 0)
            self._stride = 1
            return
        cells = np.floor(points / self.cell_size)
        # Cells are packed into one int64 key per node below; under
        # 2**30 cells from the origin the packed key cannot overflow.
        if np.abs(cells).max() >= 2.0 ** 30:
            raise ValueError(
                f"cell_size {cell_size} is too small for positions up to "
                f"{np.abs(points).max():g} (2**30 cells or more)"
            )
        cells = cells.astype(np.int64)
        # Shift into a non-negative frame with a one-cell apron so the
        # 3x3 neighborhood of any occupied cell has a valid key.
        ox = int(cells[:, 0].min()) - 1
        oy = int(cells[:, 1].min()) - 1
        cx = cells[:, 0] - ox
        cy = cells[:, 1] - oy
        self._origin = (ox, oy)
        self._stride = int(cy.max()) + 2
        keys = cx * self._stride + cy
        order = np.argsort(keys, kind="stable")
        self._order = order                   # global indices, bucketed
        self._points = points[order]          # positions aligned to _order
        self._ukeys, starts, counts = np.unique(
            keys[order], return_index=True, return_counts=True
        )
        self._starts = starts.astype(np.int64)
        self._counts = counts.astype(np.int64)

    # -- queries ------------------------------------------------------------
    def query(
        self,
        xy: Tuple[float, float],
        radius: Optional[float] = None,
        exclude: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Nodes within ``radius`` of ``xy`` (boundary inclusive).

        Returns ``(global_indices, distances)`` with indices ascending
        (topology insertion order), distances aligned and bitwise
        identical to the scalar reference computation.  ``exclude``
        removes one global index from the result (the query node
        itself).
        """
        radius = self.cell_size if radius is None else float(radius)
        if radius > self.cell_size:
            raise ValueError(
                f"radius {radius} exceeds cell size {self.cell_size}; "
                "the 3x3 neighborhood would be incomplete"
            )
        if self.n_indexed == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        x, y = float(xy[0]), float(xy[1])
        ccx = int(np.floor(x / self.cell_size)) - self._origin[0]
        ccy = int(np.floor(y / self.cell_size)) - self._origin[1]
        slots = []
        for dx, dy in _OFFSETS:
            kx, ky = ccx + dx, ccy + dy
            if kx < 0 or ky < 0 or ky >= self._stride:
                continue
            slot = np.searchsorted(
                self._ukeys, np.int64(kx) * self._stride + ky
            )
            if (
                slot < self._ukeys.shape[0]
                and self._ukeys[slot] == kx * self._stride + ky
            ):
                slots.append(int(slot))
        if not slots:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
        cand = np.concatenate([
            np.arange(self._starts[s], self._starts[s] + self._counts[s])
            for s in slots
        ])
        pts = self._points[cand]
        dist = _exact_distances(pts[:, 0] - x, pts[:, 1] - y)
        keep = dist <= radius
        idx = self._order[cand[keep]]
        dist = dist[keep]
        if exclude is not None:
            mask = idx != exclude
            idx, dist = idx[mask], dist[mask]
        order = np.argsort(idx, kind="stable")
        return idx[order], dist[order]

    # -- the vectorized cell-pair pass --------------------------------------
    def directed_pairs(
        self, radius: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All in-range directed pairs of indexed nodes in one pass.

        For each of the nine lattice offsets, occupied source cells are
        matched to occupied target cells with one ``searchsorted``;
        each matched cell pair's cross product of members is expanded
        with pure index arithmetic (no Python loop over nodes).  Every
        ordered pair ``(i, j)``, ``i != j``, within ``radius`` appears
        exactly once because the offset between their cells is unique.

        Returns ``(src, dst, distance)`` as flat arrays of global
        indices (unsorted; callers order as needed).
        """
        radius = self.cell_size if radius is None else float(radius)
        if radius > self.cell_size:
            raise ValueError(
                f"radius {radius} exceeds cell size {self.cell_size}; "
                "the 3x3 neighborhood would be incomplete"
            )
        if self.n_indexed == 0:
            empty_i = np.empty(0, dtype=np.intp)
            return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
        src_parts, dst_parts = [], []
        n_cells = self._ukeys.shape[0]
        for dx, dy in _OFFSETS:
            delta = np.int64(dx) * self._stride + dy
            targets = self._ukeys + delta
            pos = np.searchsorted(self._ukeys, targets)
            pos_c = np.minimum(pos, n_cells - 1)
            matched = self._ukeys[pos_c] == targets
            a = np.flatnonzero(matched)          # source cell slots
            b = pos_c[matched]                   # target cell slots
            if a.shape[0] == 0:
                continue
            ca, cb = self._counts[a], self._counts[b]
            pair_counts = ca * cb
            total = int(pair_counts.sum())
            if total == 0:
                continue
            seg = np.repeat(np.arange(a.shape[0]), pair_counts)
            seg_start = np.cumsum(pair_counts) - pair_counts
            local = np.arange(total, dtype=np.int64) - seg_start[seg]
            cb_seg = cb[seg]
            src_parts.append(self._starts[a][seg] + local // cb_seg)
            dst_parts.append(self._starts[b][seg] + local % cb_seg)
        if not src_parts:
            empty_i = np.empty(0, dtype=np.intp)
            return empty_i, empty_i.copy(), np.empty(0, dtype=np.float64)
        s = np.concatenate(src_parts)
        d = np.concatenate(dst_parts)
        ps, pd = self._points[s], self._points[d]
        dist = _exact_distances(ps[:, 0] - pd[:, 0], ps[:, 1] - pd[:, 1])
        keep = (dist <= radius) & (s != d)
        return self._order[s[keep]], self._order[d[keep]], dist[keep]


def build_adjacency(
    positions: np.ndarray,
    comm_range: float,
    index: Optional[GridHashIndex] = None,
) -> SparseAdjacency:
    """Sparse connectivity over all nodes in one vectorized pass.

    ``index`` may pass in an already-built :class:`GridHashIndex` for
    the same ``(positions, comm_range)`` state; otherwise one is built
    here.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    n = positions.shape[0]
    if index is None:
        index = GridHashIndex(positions, comm_range)
    src, dst, dist = index.directed_pairs(comm_range)
    order = np.lexsort((dst, src))
    src, dst, dist = src[order], dst[order], dist[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if src.shape[0]:
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return SparseAdjacency(
        indptr=indptr,
        indices=dst.astype(np.intp, copy=False),
        weights=dist,
    )
