"""Unit-to-node assignment strategies.

A :class:`Placement` maps every producer slot in the network — the
input grid cells plus every layer's output positions/units — to a
sensor node.  The strategies reproduce the paper's comparison:

- :func:`grid_correspondence_assignment` — the paper's heuristic:
  scale each layer's output grid onto the sensor grid so CNN links
  coincide with WSN links, and spread flat-layer units to equalize the
  number of units per node (Fig. 8 / Fig. 10(b)).
- :func:`centralized_assignment` — the "standard CNN" comparator:
  sensing stays at the sensors, every computation unit lives on one
  sink, so the sink's received traffic is the whole input (the peak
  the paper reports MicroDeep cutting to 13 % / by 40 %).
- :func:`round_robin_assignment`, :func:`random_assignment` —
  locality-free baselines for ablations.

Elementwise layers (activations, dropout) are always co-located with
their producing units — they are communication-free by construction —
regardless of strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.unitgraph import GridPos, LayerUnits, UnitGraph
from repro.wsn.topology import GridTopology

LayerSlot = Tuple[int, object]  # (layer index, grid position or unit index)


@dataclass
class Placement:
    """A complete unit-to-node mapping.

    Attributes:
        input_node: input grid cell -> node id (data origin).
        unit_node: (layer index, slot) -> node id.
    """

    input_node: Dict[GridPos, int]
    unit_node: Dict[LayerSlot, int] = field(default_factory=dict)

    def node_of_input(self, pos: GridPos) -> int:
        return self.input_node[pos]

    def node_of(self, layer_index: int, slot) -> int:
        return self.unit_node[(layer_index, slot)]

    def units_per_node(self) -> Dict[int, int]:
        """How many computation units each node hosts."""
        counts: Dict[int, int] = {}
        for node in self.unit_node.values():
            counts[node] = counts.get(node, 0) + 1
        return counts

    def max_units_per_node(self) -> int:
        counts = self.units_per_node()
        return max(counts.values(), default=0)


def _scale_to_grid(pos: GridPos, src_hw: GridPos, topology: GridTopology) -> int:
    """Nearest sensor node for a position of an ``src_hw`` grid."""
    y, x = pos
    h, w = src_hw
    row = 0 if h <= 1 else round(y * (topology.rows - 1) / (h - 1))
    col = 0 if w <= 1 else round(x * (topology.cols - 1) / (w - 1))
    return topology.node_at(int(row), int(col)).node_id


def _input_mapping(graph: UnitGraph, topology: GridTopology) -> Dict[GridPos, int]:
    """Each input cell is owned by the sensor that measures it (the
    nearest node on the scaled grid)."""
    h, w = graph.input_hw
    return {
        (y, x): _scale_to_grid((y, x), (h, w), topology)
        for y in range(h)
        for x in range(w)
    }


def _build(
    graph: UnitGraph,
    topology: GridTopology,
    place_spatial: Callable[[LayerUnits, GridPos], int],
    place_flat: Callable[[LayerUnits, int], int],
) -> Placement:
    """Shared walker: applies the strategy rules, co-locating
    elementwise layers with their producers."""
    placement = Placement(input_node=_input_mapping(graph, topology))
    for entry in graph.layers:
        if entry.kind == "flatten":
            continue
        elementwise = entry.layer.is_elementwise
        feeding = graph.feeding[entry.index]
        for slot in entry.output_positions():
            if elementwise:
                node = (
                    placement.input_node[slot] if feeding < 0
                    else placement.unit_node[(feeding, slot)]
                )
            elif entry.kind == "spatial":
                node = place_spatial(entry, slot)
            else:
                node = place_flat(entry, slot)
            placement.unit_node[(entry.index, slot)] = node
    return placement


def grid_correspondence_assignment(
    graph: UnitGraph, topology: GridTopology
) -> Placement:
    """The paper's heuristic assignment (Fig. 8).

    Spatial units go to the node whose grid coordinates correspond to
    the unit's (scaled) position, so convolution inputs are owned by
    the same or neighbouring nodes.  Flat-layer units are dealt to the
    nodes with the fewest units so the per-node unit count stays
    equalized ("equalizing the number of units assigned to each
    sensor node").
    """
    counts = {node.node_id: 0 for node in topology}

    def place_spatial(entry: LayerUnits, pos: GridPos) -> int:
        node = _scale_to_grid(pos, entry.out_hw, topology)
        counts[node] += 1
        return node

    def place_flat(entry: LayerUnits, unit: int) -> int:
        node = min(sorted(counts), key=lambda n: counts[n])
        counts[node] += 1
        return node

    return _build(graph, topology, place_spatial, place_flat)


def centralized_assignment(
    graph: UnitGraph, topology: GridTopology, sink: Optional[int] = None
) -> Placement:
    """All computation on one sink node — the standard-CNN comparator.

    The default sink is the grid's central node.
    """
    if sink is None:
        sink = topology.node_at(topology.rows // 2, topology.cols // 2).node_id
    elif sink not in topology.nodes:
        raise KeyError(f"sink {sink} is not a node in the topology")
    return _build(
        graph,
        topology,
        place_spatial=lambda entry, pos: sink,
        place_flat=lambda entry, unit: sink,
    )


def round_robin_assignment(graph: UnitGraph, topology: GridTopology) -> Placement:
    """Deal every unit over nodes in id order, ignoring locality."""
    node_ids = sorted(topology.nodes)
    state = {"i": 0}

    def deal(entry, slot) -> int:
        node = node_ids[state["i"] % len(node_ids)]
        state["i"] += 1
        return node

    return _build(graph, topology, deal, deal)


def random_assignment(
    graph: UnitGraph, topology: GridTopology, rng: np.random.Generator
) -> Placement:
    """Uniformly random placement (the worst-locality baseline)."""
    node_ids = sorted(topology.nodes)

    def deal(entry, slot) -> int:
        return int(rng.choice(node_ids))

    return _build(graph, topology, deal, deal)
