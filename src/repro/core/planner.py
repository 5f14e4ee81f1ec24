"""Design-support: automatic information-collection planning (§III.B).

The paper: *"if (i) the 3D map and obstacle information of a target
IoT device network, (ii) the required information collection cycle,
and (iii) the recovery method at the time of errors are designated, it
is desirable that we can devise a mechanism to estimate the
appropriate information collection mechanism [and] automatically
generate the necessary information collection algorithm"* — including
transmission timing, multi-channel assignment, and recovery, which are
"cumbersome for a system designer to individually specify".

:class:`CollectionPlanner` does exactly this for a deployed topology:

1. builds the connectivity graph (obstacles prune links);
2. routes every node to the sink over a BFS collection tree;
3. assigns channels by graph colouring so that interfering nodes
   (2-hop neighbours) never share a channel;
4. lays out a TDMA superframe meeting the requested collection cycle
   (k reports per second per node), with ``retry_slots`` spare slots
   per frame as the error-recovery budget;
5. verifies feasibility (airtime fits in the cycle) and reports the
   schedule as a plain data object a runtime can execute.

This plans the *collection* side (when and on which channel each node
reports).  The complementary planner pass for the *inference* side —
compiling a placement + network schedule into a per-link program —
lives in :mod:`repro.core.compiled`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.wsn.routing import sink_tree
from repro.wsn.topology import Topology


@dataclass(frozen=True)
class Obstacle:
    """An axis-aligned rectangular obstacle that blocks radio links."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError("obstacle must have positive area")

    def blocks(self, p1: Tuple[float, float], p2: Tuple[float, float]) -> bool:
        """Whether the segment p1-p2 crosses this rectangle
        (Cohen-Sutherland style interval test on both axes)."""

        def code(p):
            cx = (p[0] < self.x_min) | ((p[0] > self.x_max) << 1)
            cy = (p[1] < self.y_min) << 2 | (p[1] > self.y_max) << 3
            return cx | cy

        c1, c2 = code(p1), code(p2)
        if c1 & c2:
            return False  # both outside on the same side
        if c1 == 0 or c2 == 0:
            return True  # an endpoint is inside
        # Segment clipping: sample the parametric line against x-slabs.
        (x1, y1), (x2, y2) = p1, p2
        for bound, axis in ((self.x_min, 0), (self.x_max, 0),
                            (self.y_min, 1), (self.y_max, 1)):
            if axis == 0:
                if x1 == x2:
                    continue
                t = (bound - x1) / (x2 - x1)
            else:
                if y1 == y2:
                    continue
                t = (bound - y1) / (y2 - y1)
            if not 0.0 <= t <= 1.0:
                continue
            px = x1 + t * (x2 - x1)
            py = y1 + t * (y2 - y1)
            if (self.x_min - 1e-9 <= px <= self.x_max + 1e-9
                    and self.y_min - 1e-9 <= py <= self.y_max + 1e-9):
                return True
        return False


@dataclass
class SlotAssignment:
    """One TDMA slot: who transmits, to whom, on which channel."""

    slot: int
    node: int
    parent: int
    channel: int


@dataclass
class CollectionPlan:
    """The generated information-collection algorithm.

    Attributes:
        sink: collection point.
        parents: routing tree (node -> parent, sink -> None).
        channels: node -> channel index.
        schedule: TDMA slots in transmission order (one superframe).
        frame_duration_s: length of one superframe.
        cycle_s: the requested collection cycle it satisfies.
        retry_slots: spare slots per frame reserved for recovery.
        unreachable: nodes the plan could not connect.
    """

    sink: int
    parents: Dict[int, Optional[int]]
    channels: Dict[int, int]
    schedule: List[SlotAssignment]
    frame_duration_s: float
    cycle_s: float
    retry_slots: int
    unreachable: List[int] = field(default_factory=list)

    @property
    def n_channels(self) -> int:
        return len(set(self.channels.values())) if self.channels else 0

    @property
    def feasible(self) -> bool:
        """Whether one superframe fits inside the collection cycle."""
        return self.frame_duration_s <= self.cycle_s

    def slots_of(self, node: int) -> List[SlotAssignment]:
        return [s for s in self.schedule if s.node == node]

    def depth_of(self, node: int) -> int:
        """Hops from ``node`` to the sink along the tree."""
        hops = 0
        cur = node
        while self.parents.get(cur) is not None:
            cur = self.parents[cur]
            hops += 1
            if hops > len(self.parents):
                raise RuntimeError("routing tree contains a cycle")
        return hops


class PlanningError(RuntimeError):
    """Raised when no feasible plan exists for the inputs."""


class CollectionPlanner:
    """Generates :class:`CollectionPlan` objects for a deployment.

    Args:
        topology: node placement and communication range.
        obstacles: map features that block links ((i) in the paper).
        slot_duration_s: airtime of one report transmission.
        max_channels: radio channels available for parallel slots.
    """

    def __init__(
        self,
        topology: Topology,
        obstacles: Sequence[Obstacle] = (),
        slot_duration_s: float = 0.01,
        max_channels: int = 4,
    ) -> None:
        if slot_duration_s <= 0:
            raise ValueError("slot_duration_s must be positive")
        if max_channels < 1:
            raise ValueError("need at least one channel")
        self.topology = topology
        self.obstacles = list(obstacles)
        self.slot_duration_s = slot_duration_s
        self.max_channels = max_channels

    # -- map handling -----------------------------------------------------------
    def connectivity(self) -> nx.Graph:
        """Topology graph with obstacle-blocked links removed."""
        g = self.topology.graph()
        if not self.obstacles:
            return g
        blocked = []
        for a, b in g.edges:
            pa = self.topology.node(a).position
            pb = self.topology.node(b).position
            if any(o.blocks(pa, pb) for o in self.obstacles):
                blocked.append((a, b))
        g.remove_edges_from(blocked)
        return g

    # -- channel assignment ---------------------------------------------------
    def _assign_channels(self, g: nx.Graph) -> Dict[int, int]:
        """Colour the 2-hop interference graph greedily.

        Two nodes within two hops can interfere at a common receiver,
        so they get different channels when the budget allows; if the
        chromatic need exceeds ``max_channels`` the colours wrap (the
        TDMA schedule then keeps wrapped pairs in different slots).
        """
        interference = nx.power(g, 2) if len(g) > 1 else g.copy()
        colors = nx.greedy_color(interference, strategy="largest_first")
        return {n: c % self.max_channels for n, c in colors.items()}

    # -- schedule generation -------------------------------------------------------
    def plan(
        self,
        sink: int,
        cycle_s: float,
        retry_slots: int = 2,
    ) -> CollectionPlan:
        """Generate the collection algorithm for the given cycle.

        Args:
            sink: collection node ((i) of the designer inputs).
            cycle_s: required collection cycle ((ii)); every node
                reports once per cycle.
            retry_slots: spare slots appended per frame ((iii), the
                recovery budget for retransmissions).

        Raises:
            PlanningError: if the sink is unknown or the cycle is not
                positive.
        """
        if cycle_s <= 0:
            raise PlanningError(f"cycle must be positive, got {cycle_s}")
        if sink not in self.topology.nodes:
            raise PlanningError(f"sink {sink} is not a deployed node")
        g = self.connectivity()
        if sink not in g:
            raise PlanningError(f"sink {sink} is not alive")
        reachable = nx.node_connected_component(g, sink)
        unreachable = sorted(set(g.nodes) - reachable)
        sub = g.subgraph(reachable).copy()
        parents: Dict[int, Optional[int]] = {sink: None}
        for child, parent in nx.bfs_predecessors(sub, sink):
            parents[child] = parent
        channels = self._assign_channels(sub)

        # Deepest nodes transmit first so a report reaches the sink
        # within a single superframe (convergecast ordering).  Nodes
        # on different channels whose receivers don't clash share a
        # slot.
        plan_nodes = [n for n in parents if n != sink]
        depth = {n: 0 for n in parents}
        for n in plan_nodes:
            d, cur = 0, n
            while parents[cur] is not None:
                cur = parents[cur]
                d += 1
            depth[n] = d
        order = sorted(plan_nodes, key=lambda n: (-depth[n], n))

        schedule: List[SlotAssignment] = []
        slot = 0
        used_in_slot: Dict[int, set] = {}
        for node in order:
            parent = parents[node]
            channel = channels[node]
            placed = False
            for s in range(slot + 1):
                busy = used_in_slot.setdefault(s, set())
                # A slot is reusable if neither this channel nor the
                # two endpoints are already involved in it.
                if channel not in {c for (c, __a, __b) in busy} and all(
                    node not in (a, b) and parent not in (a, b)
                    for (__c, a, b) in busy
                ):
                    # Respect convergecast order: a node must transmit
                    # no earlier than any of its children.
                    children_slots = [
                        x.slot for x in schedule if parents.get(x.node) == node
                    ]
                    if children_slots and s <= max(children_slots):
                        continue
                    busy.add((channel, node, parent))
                    schedule.append(SlotAssignment(s, node, parent, channel))
                    placed = True
                    break
            if not placed:
                slot += 1
                used_in_slot[slot] = {(channel, node, parent)}
                schedule.append(SlotAssignment(slot, node, parent, channel))
        n_slots = (max((s.slot for s in schedule), default=-1) + 1) + retry_slots
        frame = n_slots * self.slot_duration_s
        schedule.sort(key=lambda s: (s.slot, s.node))
        return CollectionPlan(
            sink=sink,
            parents=parents,
            channels={n: channels[n] for n in parents},
            schedule=schedule,
            frame_duration_s=frame,
            cycle_s=cycle_s,
            retry_slots=retry_slots,
            unreachable=unreachable,
        )

    def fastest_feasible_cycle(self, sink: int, retry_slots: int = 2) -> float:
        """Shortest collection cycle this deployment can sustain."""
        plan = self.plan(sink, cycle_s=1e9, retry_slots=retry_slots)
        return plan.frame_duration_s
