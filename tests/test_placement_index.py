"""PlacementIndex: the one owner map every placement consumer reads.

Checked against the raw placement dicts and the transfer derivation,
over the parity suites' placement strategies and model shapes.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    MicroDeepTrainer,
    PlacementIndex,
    UnitGraph,
    centralized_assignment,
    grid_correspondence_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.core.costmodel import placement_transfers
from repro.core.placement_index import INPUT
from repro.nn import SGD, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import GridTopology

#: (layers, input shape, node grid), as in the compiled parity suite.
MODELS = {
    "dense_only": (
        lambda: [Flatten(), Dense(10), ReLU(), Dense(3)],
        (1, 6, 6),
        (3, 3),
    ),
    "conv_pool": (
        lambda: [Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
                 Dense(8), ReLU(), Dense(2)],
        (1, 10, 10),
        (4, 4),
    ),
    # The pooled model whose last Dense is hosted by {8, 0}: a Python
    # set of those nodes iterates as [8, 0].
    "conv_pool_3x3": (
        lambda: [Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
                 Dense(8), ReLU(), Dense(2)],
        (1, 8, 8),
        (3, 3),
    ),
}

STRATEGIES = {
    "grid": grid_correspondence_assignment,
    "central": lambda g, t: centralized_assignment(g, t),
    "round_robin": round_robin_assignment,
    "random": lambda g, t: random_assignment(g, t, np.random.default_rng(5)),
}


def build(kind, strategy):
    layers, input_shape, node_grid = MODELS[kind]
    model = Sequential(layers())
    model.build(input_shape, np.random.default_rng(0))
    graph = UnitGraph(model)
    placement = STRATEGIES[strategy](graph, GridTopology(*node_grid))
    return graph, placement


def owner_of(placement, key, slot):
    if key == INPUT:
        return placement.input_node[slot]
    return placement.node_of(key, slot)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("kind", sorted(MODELS))
def test_index_matches_placement(kind, strategy):
    graph, placement = build(kind, strategy)
    index = PlacementIndex(graph, placement)
    h, w = graph.input_hw
    slots = {INPUT: [(y, x) for y in range(h) for x in range(w)]}
    slots.update({
        entry.index: entry.output_positions()
        for entry in graph.layers if entry.kind != "flatten"
    })
    assert sorted(index.layers) == sorted(slots)

    for key, layer_slots in slots.items():
        owners = index.layers[key]
        # Owners equal the placement, slot for slot.
        assert owners.owner.tolist() == [
            owner_of(placement, key, slot) for slot in layer_slots
        ]
        # Hosting nodes ascend, and the groups follow them in order.
        nodes = owners.nodes.tolist()
        assert nodes == sorted(set(nodes))
        assert list(owners.positions) == nodes
        # The per-node groups partition the layer's positions.
        groups = list(owners.positions.values())
        assert sorted(np.concatenate(groups).tolist()) == list(
            range(len(layer_slots))
        )
        for node, ids in owners.positions.items():
            assert (owners.owner[ids] == node).all()

    # The groups re-expand to the transfer multiset, in order.
    transfers = placement_transfers(graph, placement)
    assert index.transfers == transfers
    expanded = [key for key, mult in index.groups for __ in range(mult)]
    assert Counter(expanded) == Counter(transfers)
    assert [key for key, __ in index.groups] == list(dict.fromkeys(transfers))

    # Crossing a flatten, input slot c*H*W + y*W + x is owned by the
    # feeding grid's (y, x).
    for entry in graph.layers:
        fed_by = graph.feeding[entry.index]
        if entry.kind != "flat" or not index.layers[fed_by].spatial:
            continue
        fh, fw = graph.input_hw if fed_by == INPUT else (
            graph.layers[fed_by].out_hw
        )
        channels = entry.in_units // (fh * fw)
        got = index.input_owner(entry.index)
        for c in range(channels):
            for y in range(fh):
                for x in range(fw):
                    assert got[c * fh * fw + y * fw + x] == owner_of(
                        placement, fed_by, (y, x)
                    )

    # The trainer stacks its masks in the same ascending order.
    trainer = MicroDeepTrainer(graph, placement, SGD(lr=0.1))
    for layer_index, stack in trainer._stacked.items():
        assert stack.nodes == index.layers[layer_index].nodes.tolist()


def test_hosting_order_is_ascending_not_set_order():
    graph, placement = build("conv_pool_3x3", "grid")
    last = graph.layers[-1]
    hosts = {placement.node_of(last.index, u) for u in range(last.n_units)}
    assert list(hosts) == [8, 0]
    index = PlacementIndex(graph, placement)
    assert index.layers[last.index].nodes.tolist() == [0, 8]
    trainer = MicroDeepTrainer(graph, placement, SGD(lr=0.1))
    assert trainer._stacked[last.index].nodes == [0, 8]


def test_gather_selects_exactly_the_hosted_positions():
    graph, placement = build("conv_pool", "random")
    index = PlacementIndex(graph, placement)
    dead = frozenset({0, 5, 11})
    for key, owners in index.layers.items():
        sel = index.gather(key, dead)
        want = np.flatnonzero(np.isin(owners.owner, sorted(dead)))
        if want.size == 0:
            assert sel is None
            continue
        if owners.spatial:
            height = owners.owner.size // owners.width
            marks = np.zeros((1, 1, height, owners.width))
        else:
            marks = np.zeros((1, owners.owner.size))
        marks[sel] = 1.0
        assert np.flatnonzero(marks.reshape(-1)).tolist() == want.tolist()
        assert index.gather(key, frozenset(sorted(dead))) is sel
