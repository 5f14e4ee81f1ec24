"""Static communication-cost model.

Computes, for a model + placement + topology, the number of unit
output values every node must **receive** per inference — the paper's
communication-cost unit (Fig. 10 plots its per-node distribution).

Conventions, matching an efficient implementation:

- all channels at one grid position travel together (they share
  producers and consumers);
- a value transferred to a node is cached there for the duration of
  the layer, so a producer position is shipped to a given consumer
  node at most once per layer (receptive fields of co-located units
  overlap heavily — this is exactly the saving spatial assignment
  exploits);
- relays on multi-hop routes also receive (and re-send) the values,
  so bad placements pay for transit traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.assignment import Placement
from repro.core.unitgraph import LayerUnits, UnitGraph
from repro.wsn.routing import shortest_path_route
from repro.wsn.topology import Topology


@dataclass
class ProducerGroup:
    """Co-located values available at a layer boundary."""

    key: object       # grid position or unit index
    node: int
    n_values: int


@dataclass
class CostReport:
    """Per-node received-value counts for one inference."""

    rx_values: Dict[int, int] = field(default_factory=dict)
    per_layer_total: Dict[int, int] = field(default_factory=dict)
    unroutable: int = 0

    def add(self, node: int, values: int, layer_index: int) -> None:
        self.rx_values[node] = self.rx_values.get(node, 0) + values
        self.per_layer_total[layer_index] = (
            self.per_layer_total.get(layer_index, 0) + values
        )

    def max_rx(self) -> int:
        """The paper's 'maximal communication cost of the sensor
        nodes'."""
        return max(self.rx_values.values(), default=0)

    def total_rx(self) -> int:
        return sum(self.rx_values.values())

    def node_costs(self, node_ids: List[int]) -> List[int]:
        """Costs in node-id order (Fig. 10's bar series)."""
        return [self.rx_values.get(n, 0) for n in node_ids]


def _input_groups(graph: UnitGraph, placement: Placement) -> List[ProducerGroup]:
    h, w = graph.input_hw
    return [
        ProducerGroup(
            key=(y, x),
            node=placement.node_of_input((y, x)),
            n_values=graph.input_values,
        )
        for y in range(h)
        for x in range(w)
    ]


def _layer_transfers(
    entry: LayerUnits,
    groups: List[ProducerGroup],
    placement: Placement,
    out: List[Tuple[int, int, int, int]],
) -> List[ProducerGroup]:
    """Append one layer's transfers to ``out``; return its output
    groups.  Transfers are ``(layer_index, src, dst, n_values)``."""
    if entry.kind == "flatten":
        return groups
    by_key = {g.key: g for g in groups}
    shipped = set()  # (producer key, consumer node)
    out_groups: List[ProducerGroup] = []
    if entry.kind == "spatial":
        for pos in entry.output_positions():
            node = placement.node_of(entry.index, pos)
            for dep in entry.deps[pos]:
                producer = by_key[dep]
                if producer.node != node and (dep, node) not in shipped:
                    shipped.add((dep, node))
                    out.append(
                        (entry.index, producer.node, node, producer.n_values)
                    )
            out_groups.append(
                ProducerGroup(key=pos, node=node, n_values=entry.out_values)
            )
    elif entry.layer.is_elementwise:  # flat elementwise
        for unit in entry.output_positions():
            node = placement.node_of(entry.index, unit)
            producer = by_key[unit]
            if producer.node != node:
                out.append(
                    (entry.index, producer.node, node, producer.n_values)
                )
            out_groups.append(ProducerGroup(key=unit, node=node, n_values=1))
    else:  # dense: every unit reads every producer group
        consumer_nodes = {
            placement.node_of(entry.index, unit)
            for unit in entry.output_positions()
        }
        for node in sorted(consumer_nodes):
            for producer in groups:
                if producer.node != node:
                    out.append(
                        (entry.index, producer.node, node, producer.n_values)
                    )
        out_groups = [
            ProducerGroup(
                key=unit,
                node=placement.node_of(entry.index, unit),
                n_values=1,
            )
            for unit in entry.output_positions()
        ]
    return out_groups


def placement_transfers(
    graph: UnitGraph,
    placement: Placement,
    collect_output_at: Optional[int] = None,
) -> List[Tuple[int, int, int, int]]:
    """All cross-node transfers of one forward pass, as
    ``(layer_index, src_node, dst_node, n_values)`` tuples.

    The one derivation of the transfer list: the cost model prices it,
    and :class:`repro.core.placement_index.PlacementIndex` hands it to
    the executor, the plan compiler, and the fault runtime, which
    replay it over the network layer — so measured traffic can be
    checked against modelled traffic.
    """
    out: List[Tuple[int, int, int, int]] = []
    groups = _input_groups(graph, placement)
    for entry in graph.layers:
        groups = _layer_transfers(entry, groups, placement, out)
    if collect_output_at is not None:
        for producer in groups:
            if producer.node != collect_output_at:
                out.append(
                    (
                        graph.n_layers,
                        producer.node,
                        collect_output_at,
                        producer.n_values,
                    )
                )
    return out


class CommunicationCostModel:
    """Computes :class:`CostReport` objects for placements.

    Args:
        graph: the model's unit graph.
        topology: sensor deployment (routing uses its connectivity).
    """

    def __init__(self, graph: UnitGraph, topology: Topology) -> None:
        self.graph = graph
        self.topology = topology

    def _ship(
        self,
        report: CostReport,
        src: int,
        dst: int,
        n_values: int,
        layer_index: int,
    ) -> None:
        """Account one transfer src -> dst including relay traffic
        (routes come from the topology's route memo)."""
        route = shortest_path_route(self.topology, src, dst)
        if route is None:
            report.unroutable += 1
            return
        for hop_dst in route[1:]:
            report.add(hop_dst, n_values, layer_index)

    def transfers(
        self, placement: Placement, collect_output_at: Optional[int] = None
    ) -> List[Tuple[int, int, int, int]]:
        """:func:`placement_transfers` for this model's graph."""
        return placement_transfers(self.graph, placement, collect_output_at)

    def inference_cost(
        self, placement: Placement, collect_output_at: Optional[int] = None
    ) -> CostReport:
        """Cost of one forward pass under ``placement``.

        Args:
            collect_output_at: optionally ship the final outputs to a
                sink node (the application's decision point).
        """
        report = CostReport()
        for layer_index, src, dst, n_values in self.transfers(
            placement, collect_output_at
        ):
            self._ship(report, src, dst, n_values, layer_index)
        return report

    def training_step_cost(
        self, placement: Placement, update_mode: str = "local"
    ) -> CostReport:
        """Communication cost of one training step (per sample).

        ``"local"`` — MicroDeep's choice: the forward activations move
        (consumers need them to compute), but every gradient is
        consumed where it is produced, so backward adds **nothing**.

        ``"exact"`` — full distributed backprop: each activation
        transfer has a mirror-image gradient transfer (the consumer
        sends dLoss/dActivation back to the producer), doubling the
        traffic.  This is the overhead the paper's local update
        "sacrificing some accuracy" buys away.
        """
        if update_mode not in ("exact", "local"):
            raise ValueError(
                f"update_mode must be 'exact' or 'local', got {update_mode!r}"
            )
        report = CostReport()
        for layer_index, src, dst, n_values in self.transfers(placement):
            self._ship(report, src, dst, n_values, layer_index)
            if update_mode == "exact":
                self._ship(report, dst, src, n_values, layer_index)
        return report
