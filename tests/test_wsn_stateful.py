"""Stateful differential suite for the topology caches.

A topology keys its caches on two counters: geometry (moves) keys the
spatial index and the CSR adjacency, liveness (``alive`` flips) and
geometry together key the route memo and ``cached_graph()``, and the
executor keys its compiled plan on ``epoch``.  A cache that misses one
kind of mutation shows only after a *sequence* — route, flip, route
again — so these machines interleave crashes, recoveries and bounded
moves, and after every step check each cached path against the oracle
that rebuilds everything from the nodes:

- routes equal :func:`shortest_path_route_reference` on sampled pairs;
- ``neighbors`` equals ``neighbors_reference`` for every node;
- ``graph()`` equals ``graph_reference()`` (nodes, edges and weights,
  in order);
- an executor's traffic (``forward``: the compiled plan in steady
  state, the replay otherwise) equals ``replay_traffic_reference`` on
  a twin deployment given the same mutations — the full
  ``TrafficStats``, per-link ledger included.  While seeded link
  faults are attached to both networks, the twin runs the event-driven
  ``forward(x, plan=None)`` instead: the same grouped replay, drawing
  the same fault verdicts in the same order.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import (
    DistributedExecutor,
    UnitGraph,
    grid_correspondence_assignment,
)
from repro.faults import LinkFaultModel
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import (
    GridTopology,
    Network,
    RandomTopology,
    shortest_path_route,
    shortest_path_route_reference,
)

SETTINGS = settings(
    derandomize=True, max_examples=8, stateful_step_count=12, deadline=None,
)

#: A bounded move: up to this many comm ranges per axis, far enough to
#: make and break links.
STEP = st.floats(-0.8, 0.8, allow_nan=False)


class TopologyMachine(RuleBasedStateMachine):
    """A ~40-node random district under crashes, recoveries and moves."""

    N_NODES = 40
    RANGE = 2.0

    @initialize(seed=st.integers(0, 2**16))
    def build(self, seed):
        rng = np.random.default_rng(seed)
        self.topology = RandomTopology(
            self.N_NODES, 10.0, 10.0, self.RANGE, rng
        )
        ids = list(self.topology.nodes)
        self.pairs = [
            tuple(int(i) for i in rng.choice(ids, 2, replace=False))
            for __ in range(6)
        ]
        self.pairs.append((self.pairs[0][0], self.pairs[0][0]))

    def _on_routes(self):
        """Relays on the sampled routes: flipping one changes a route
        the memo already holds."""
        relays = set()
        for src, dst in self.pairs:
            route = shortest_path_route(self.topology, src, dst)
            relays.update(route[1:-1] if route else ())
        return sorted(relays)

    @rule(data=st.data())
    def crash_a_relay(self, data):
        relays = self._on_routes()
        if relays:
            node = data.draw(st.sampled_from(relays))
            self.topology.node(node).alive = False

    @rule(node=st.integers(0, N_NODES - 1))
    def flip(self, node):
        target = self.topology.node(node)
        target.alive = not target.alive

    @rule(node=st.integers(0, N_NODES - 1), dx=STEP, dy=STEP)
    def move(self, node, dx, dy):
        target = self.topology.node(node)
        x, y = target.position
        target.position = (x + dx * self.RANGE, y + dy * self.RANGE)

    @invariant()
    def routes_match_reference(self):
        for src, dst in self.pairs:
            assert shortest_path_route(self.topology, src, dst) == (
                shortest_path_route_reference(self.topology, src, dst)
            ), (src, dst)

    @invariant()
    def neighbors_match_reference(self):
        for node in self.topology.nodes:
            assert [n.node_id for n in self.topology.neighbors(node)] == [
                n.node_id for n in self.topology.neighbors_reference(node)
            ], node

    @invariant()
    def graph_matches_reference(self):
        got, want = self.topology.graph(), self.topology.graph_reference()
        assert list(got.nodes) == list(want.nodes)
        assert list(got.edges(data="weight")) == list(
            want.edges(data="weight")
        )


def _deployment():
    """A pooled CNN placed on a 3x3 grid."""
    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(), Dense(4), ReLU(),
        Dense(2),
    ])
    model.build((1, 8, 8), np.random.default_rng(3))
    graph = UnitGraph(model)
    topology = GridTopology(3, 3)
    placement = grid_correspondence_assignment(graph, topology)
    network = Network(topology)
    return topology, network, DistributedExecutor(
        model, graph, placement, network
    )


class ExecutorMachine(RuleBasedStateMachine):
    """A 3x3 grid executor and its twin under the same mutations."""

    @initialize()
    def build(self):
        self.topology, self.network, self.executor = _deployment()
        self.twins = _deployment()
        self.x = np.random.default_rng(4).normal(size=(2, 1, 8, 8))

    def _each_node(self, node):
        return self.topology.node(node), self.twins[0].node(node)

    @rule(node=st.integers(0, 8))
    def flip(self, node):
        for target in self._each_node(node):
            target.alive = not target.alive

    @rule()
    def recover_all(self):
        for topology in (self.topology, self.twins[0]):
            for target in topology:
                target.alive = True

    @rule(node=st.integers(0, 8), dx=STEP, dy=STEP)
    def move(self, node, dx, dy):
        for target in self._each_node(node):
            x, y = target.position
            target.position = (x + dx, y + dy)

    @rule(seed=st.integers(0, 2**16))
    def attach_link_faults(self, seed):
        for network in (self.network, self.twins[1]):
            network.link_faults = LinkFaultModel(
                loss_rate=0.2, corrupt_rate=0.1, duplicate_rate=0.1,
                seed=seed,
            )

    @rule()
    def detach_link_faults(self):
        for network in (self.network, self.twins[1]):
            network.link_faults = None

    @invariant()
    def traffic_matches_reference(self):
        __, twin_network, twin = self.twins
        self.network.reset_stats()
        twin_network.reset_stats()
        self.executor.forward(self.x)
        if twin_network.link_faults is None:
            twin.replay_traffic_reference(self.x.shape[0])
        else:
            twin.forward(self.x, plan=None)
        assert self.network.stats == twin_network.stats


TestTopologyMachine = SETTINGS(TopologyMachine).TestCase
TestExecutorMachine = SETTINGS(ExecutorMachine).TestCase
