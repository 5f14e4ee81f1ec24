"""One index over a placement, shared by every consumer.

A :class:`~repro.core.assignment.Placement` is a slot -> node dict.
The executor, the plan compiler, the trainer, and the fault runtime
all need the same facts derived from it: the owner of every output
position, the positions each node hosts, the positions a set of failed
nodes hosts, and the cross-node transfer list (and its messages).
:class:`PlacementIndex` derives each of them once per ``(graph,
placement)`` pair.

Grids are keyed by layer index, with the input grid under
:data:`INPUT` (-1, the same "model input" key as
:attr:`repro.core.unitgraph.UnitGraph.feeding`).  Flatten layers move
no data and have no grid.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.assignment import Placement
from repro.core.costmodel import placement_transfers
from repro.core.unitgraph import UnitGraph
from repro.wsn.network import Message

#: Key of the input grid.
INPUT = -1

Transfer = Tuple[int, int, int, int]  # (layer, src, dst, n_values)


class LayerOwners:
    """Owner map of one producer grid.

    Positions are numbered in ``output_positions()`` order: row-major
    ``y * W + x`` for spatial grids, the unit index for flat layers.

    Attributes:
        spatial: activations are addressed ``out[:, :, y, x]`` (else
            ``out[:, unit]``).
        width: grid width ``W`` (spatial grids only).
        owner: owner node of each position.
        nodes: the hosting nodes, ascending.
        positions: ``node -> position numbers`` it hosts (ascending),
            in ascending node order.
    """

    __slots__ = ("spatial", "width", "owner", "nodes", "positions")

    def __init__(self, owner: np.ndarray, spatial: bool, width: int) -> None:
        self.spatial = spatial
        self.width = width
        self.owner = owner
        order = np.argsort(owner, kind="stable")
        ranked = owner[order]
        # Where each node's run of positions starts in the sorted order.
        starts = [0] + (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
        self.nodes = ranked[starts]
        bounds = starts + [owner.size]
        self.positions: Dict[int, np.ndarray] = {
            node: order[a:b]
            for node, a, b in zip(self.nodes.tolist(), bounds, bounds[1:])
        }

    def select(self, ids: np.ndarray) -> tuple:
        """Indexing tuple addressing positions ``ids`` of a batch."""
        if self.spatial:
            return (slice(None), slice(None),
                    ids // self.width, ids % self.width)
        return (slice(None), ids)


class PlacementIndex:
    """Every per-placement fact the consumers need, derived once.

    Args:
        graph: the model's unit graph.
        placement: its unit-to-node mapping (treated as frozen).
    """

    def __init__(self, graph: UnitGraph, placement: Placement) -> None:
        self.graph = graph
        self.placement = placement
        h, w = graph.input_hw
        input_owner = placement.input_node
        self.layers: Dict[int, LayerOwners] = {
            INPUT: LayerOwners(
                np.fromiter(
                    (input_owner[(y, x)] for y in range(h) for x in range(w)),
                    dtype=np.intp, count=h * w,
                ),
                spatial=True, width=w,
            )
        }
        unit_node = placement.unit_node
        for entry in graph.layers:
            if entry.kind == "flatten":
                continue
            slots = entry.output_positions()
            i = entry.index
            self.layers[i] = LayerOwners(
                np.fromiter(
                    (unit_node[(i, slot)] for slot in slots),
                    dtype=np.intp, count=len(slots),
                ),
                spatial=entry.kind == "spatial",
                width=entry.out_hw[1] if entry.kind == "spatial" else 0,
            )
        self._gathers: Dict[Tuple[int, FrozenSet[int]], Optional[tuple]] = {}
        self._transfers: Optional[List[Transfer]] = None
        self._messages: Optional[List[Tuple[int, Message]]] = None
        self._groups: Optional[List[Tuple[Transfer, int]]] = None

    def input_owner(self, layer_index: int) -> np.ndarray:
        """Owner of each input slot of layer ``layer_index``.

        Spatial layers read their feeding grid row-major; a flat layer
        fed across a flatten reads slot ``c*H*W + y*W + x`` from grid
        position ``(y, x)`` of channel ``c``.
        """
        entry = self.graph.layers[layer_index]
        fed_by = self.layers[self.graph.feeding[layer_index]]
        if entry.kind == "flat" and fed_by.spatial:
            return np.tile(fed_by.owner, entry.in_units // fed_by.owner.size)
        return fed_by.owner

    def gather(self, key: int, nodes: FrozenSet[int]) -> Optional[tuple]:
        """Indexing tuple of grid ``key``'s positions hosted by
        ``nodes`` — None when they host none.  Memoized per
        ``(key, nodes)``: a failure set is typically applied to many
        batches."""
        memo = (key, nodes)
        if memo in self._gathers:
            return self._gathers[memo]
        owners = self.layers[key]
        ids = np.flatnonzero(
            np.isin(owners.owner, np.fromiter(nodes, dtype=np.intp))
        )
        sel = owners.select(ids) if ids.size else None
        if len(self._gathers) >= 256:
            self._gathers.clear()
        self._gathers[memo] = sel
        return sel

    @property
    def transfers(self) -> List[Transfer]:
        """The placement's cross-node transfers of one forward pass
        (see :func:`repro.core.costmodel.placement_transfers`)."""
        if self._transfers is None:
            self._transfers = placement_transfers(self.graph, self.placement)
        return self._transfers

    @property
    def messages(self) -> List[Tuple[int, Message]]:
        """``(layer, message)`` per entry of :attr:`transfers`, in
        order: the fault runtime's per-transfer sends.  Built once and
        shared by every executor on this index (networks only read a
        message)."""
        if self._messages is None:
            self._messages = [
                (layer, Message(src=src, dst=dst, n_values=n_values,
                                kind=f"layer{layer}"))
                for layer, src, dst, n_values in self.transfers
            ]
        return self._messages

    @property
    def groups(self) -> List[Tuple[Transfer, int]]:
        """:attr:`transfers` grouped by ``(layer, src, dst, n_values)``
        as ``[(key, multiplicity), ...]`` in first-occurrence order,
        which keeps the layer sequence non-decreasing like the flat
        list."""
        if self._groups is None:
            counts: Dict[Transfer, int] = {}
            for key in self.transfers:
                counts[key] = counts.get(key, 0) + 1
            self._groups = list(counts.items())
        return self._groups
