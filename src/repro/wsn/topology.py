"""Topologies: node placement, connectivity, and routing state.

City-scale rework: a :class:`Topology` keeps its node state as
structure-of-arrays (``positions: (n, 2) float64``, ``alive: (n,)
bool``) behind **two mutation counters**.  Deployed zero-energy
devices drop out and come back far more often than they move, so the
two kinds of mutation key different caches:

- a position change (:class:`~repro.wsn.node.SensorNode` ``position``
  setter) writes one row of the positions array and bumps
  :attr:`Topology.geometry_epoch`.  The grid-hash spatial index
  (:mod:`repro.wsn.spatial`, cell size ``comm_range``) and the CSR
  sparse adjacency cover **all** nodes and key on geometry only;
- an ``alive`` flip writes one entry of the alive mask and bumps
  :attr:`Topology.liveness_epoch`.  Nothing is rebuilt: neighbor
  queries, graph assembly and routing apply the mask to the
  geometry-keyed structures.

Routing (:meth:`Topology.route`) is a bidirectional BFS over the CSR
rows that skips dead nodes, behind one route memo per (geometry,
liveness) state.  :attr:`Topology.epoch` bumps on both kinds of
mutation, for consumers whose state depends on either (compiled
plans).

The pre-optimization brute-force implementations are kept verbatim as
``*_reference`` parity oracles (the repo's established idiom); the
property suite asserts the index-backed paths are **byte-equal** to
them — same element order, bitwise-identical distances, same routes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.wsn.node import SensorNode
from repro.wsn.spatial import GridHashIndex, SparseAdjacency, build_adjacency

#: Side bytes of the route BFS: which frontier reached a node, if any.
_UNSEEN, _FORWARD, _REVERSE, _DEAD = 0, 1, 2, 3
#: ``translate`` table from an alive flag to the node's starting side.
_SIDE_OF_ALIVE = bytes([_DEAD, _UNSEEN]) + bytes(254)


def _grow_level(
    rows: List[List[int]],
    side: bytearray,
    parent: List[int],
    level: List[int],
    fringe: List[int],
    mine: int,
) -> Optional[Tuple[int, int]]:
    """Grow one BFS level of side ``mine`` into ``fringe``.

    Scans each node of ``level`` in order, and its CSR row in order.
    An unseen neighbor joins ``mine`` with the scanning node as its
    parent.  The first neighbor on the other side ends the scan: the
    return value is that meeting edge as ``(forward end, reverse
    end)``.  None when the level grew without meeting.
    """
    append = fringe.append
    theirs = _FORWARD + _REVERSE - mine
    for v in level:
        for w in rows[v]:
            b = side[w]
            if not b:  # _UNSEEN
                side[w] = mine
                parent[w] = v
                append(w)
            elif b == theirs:
                return (v, w) if mine == _FORWARD else (w, v)
    return None


class Topology:
    """A set of sensor nodes plus a communication radius.

    Connectivity is geometric: two alive nodes are linked when their
    distance is at most ``comm_range``.

    Cache contract: owned nodes notify the topology of every mutation.
    A move bumps :attr:`geometry_epoch`, which keys the spatial index,
    the sparse adjacency and its BFS rows.  An ``alive`` flip bumps
    :attr:`liveness_epoch` only.  The routing graph
    :meth:`cached_graph` and the route memo key on both; :attr:`epoch`
    bumps on either.  Caches rebuild lazily, so un-mutated steady state
    pays zero rebuild cost.  The node *set* is fixed at construction;
    do not add or remove entries from :attr:`nodes` directly.
    """

    def __init__(self, nodes: List[SensorNode], comm_range: float) -> None:
        if comm_range <= 0:
            raise ValueError(f"comm_range must be positive, got {comm_range}")
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        bad = [
            n.node_id
            for n in nodes
            if not np.all(np.isfinite(np.asarray(n.position, dtype=np.float64)))
        ]
        if bad:
            raise ValueError(
                "node positions must be finite (no NaN/inf); offending "
                f"node ids: {bad}"
            )
        self.nodes: Dict[int, SensorNode] = {n.node_id: n for n in nodes}
        self.comm_range = comm_range
        self._nodes_list: List[SensorNode] = list(self.nodes.values())
        self._index_of: Dict[int, int] = {
            n.node_id: i for i, n in enumerate(self._nodes_list)
        }
        self._id_list: List[int] = [n.node_id for n in self._nodes_list]
        self._ids = np.array(self._id_list, dtype=np.int64)
        # Node state, written in place by the node setters.  The alive
        # flags are bytes (fast to index in the BFS inner loop), seen as
        # a bool ndarray through _alive_mask() for vectorized masking.
        self._positions = np.empty((len(self._id_list), 2), dtype=np.float64)
        self._alive_flags = bytearray(len(self._id_list))
        self._geometry = 0
        self._liveness = 0
        self._epoch = 0
        self._load_state()
        # Geometry-keyed caches.
        self._index: Optional[GridHashIndex] = None
        self._index_key = -1
        self._adjacency: Optional[SparseAdjacency] = None
        self._rows: Optional[List[List[int]]] = None
        self._adjacency_key = -1
        # (geometry, liveness)-keyed caches.
        self._graph: Optional[nx.Graph] = None
        self._graph_key: Optional[Tuple[int, int]] = None
        self._routes: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = {}
        self._routes_key: Optional[Tuple[int, int]] = None
        for n in self._nodes_list:
            n._topology = self

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[SensorNode]:
        return iter(self.nodes.values())

    def node(self, node_id: int) -> SensorNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    # -- mutation counters and node state -----------------------------------
    @property
    def epoch(self) -> int:
        """Mutation counter: bumps on any alive/position change."""
        return self._epoch

    @property
    def geometry_epoch(self) -> int:
        """Bumps on position changes; keys the index and adjacency."""
        return self._geometry

    @property
    def liveness_epoch(self) -> int:
        """Bumps on ``alive`` flips; with :attr:`geometry_epoch` it keys
        :meth:`cached_graph` and the route memo."""
        return self._liveness

    def _load_state(self) -> None:
        for i, node in enumerate(self._nodes_list):
            self._positions[i] = node.position
            self._alive_flags[i] = node.alive

    def _alive_mask(self) -> np.ndarray:
        """The alive flags as a bool array over the same bytes (live:
        later flips show through; :meth:`alive_view` is the snapshot)."""
        return np.frombuffer(self._alive_flags, dtype=bool)

    def _moved(self, node: SensorNode) -> None:
        """Called by an owned node after its position changed."""
        self._positions[self._index_of[node.node_id]] = node.position
        self._geometry += 1
        self._epoch += 1

    def _flipped(self, node: SensorNode) -> None:
        """Called by an owned node after its ``alive`` flag was set."""
        self._alive_flags[self._index_of[node.node_id]] = node.alive
        self._liveness += 1
        self._epoch += 1

    def invalidate_caches(self) -> None:
        """Re-read every node's state and bump both counters, so every
        cache rebuilds on next use (the benchmarks use this to time
        cold-path construction)."""
        self._load_state()
        self._geometry += 1
        self._liveness += 1
        self._epoch += 1

    def positions_view(self) -> np.ndarray:
        """Read-only ``(n, 2)`` float64 positions, insertion order (a
        snapshot: later moves do not write into it)."""
        view = self._positions.copy()
        view.setflags(write=False)
        return view

    def alive_view(self) -> np.ndarray:
        """Read-only ``(n,)`` bool alive mask, insertion order (a
        snapshot: later flips do not write into it)."""
        view = self._alive_mask().copy()
        view.setflags(write=False)
        return view

    def ids_view(self) -> np.ndarray:
        """``(n,)`` int64 node ids, insertion order (immutable set)."""
        return self._ids

    def spatial_index(self) -> GridHashIndex:
        """Geometry-memoized grid-hash index over all nodes (readers
        apply the alive mask to its results)."""
        if self._index_key != self._geometry:
            self._index = GridHashIndex(self._positions, self.comm_range)
            self._index_key = self._geometry
        return self._index

    def sparse_adjacency(self) -> SparseAdjacency:
        """Geometry-memoized CSR connectivity over all nodes (one
        cell-pair pass); dead nodes keep their rows — readers apply the
        alive mask."""
        if self._adjacency_key != self._geometry:
            self._adjacency = build_adjacency(
                self._positions, self.comm_range, index=self.spatial_index()
            )
            self._rows = None
            self._adjacency_key = self._geometry
        return self._adjacency

    def _csr_rows(self) -> List[List[int]]:
        """The sparse adjacency as one Python list of neighbor indices
        per node (ascending), built once per geometry for the BFS."""
        adjacency = self.sparse_adjacency()
        if self._rows is None:
            indptr = adjacency.indptr.tolist()
            indices = adjacency.indices.tolist()
            self._rows = [
                indices[indptr[i]:indptr[i + 1]]
                for i in range(len(indptr) - 1)
            ]
        return self._rows

    # -- queries ------------------------------------------------------------
    def alive_nodes(self) -> List[SensorNode]:
        nodes = self._nodes_list
        return [nodes[i] for i in np.flatnonzero(self._alive_mask())]

    def alive_nodes_reference(self) -> List[SensorNode]:
        """Brute-force oracle for :meth:`alive_nodes`."""
        return [n for n in self.nodes.values() if n.alive]

    def _alive_in_range(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """Indices (ascending) and distances of the alive nodes within
        range of ``node_id``: an index query with the mask applied."""
        idx, dist = self.spatial_index().query(
            self.node(node_id).position,
            radius=self.comm_range,
            exclude=self._index_of[node_id],
        )
        keep = self._alive_mask()[idx]
        return idx[keep], dist[keep]

    def neighbors(self, node_id: int) -> List[SensorNode]:
        """Alive nodes within communication range of ``node_id``.

        Index-backed: checks the 3x3 cell neighborhood of the node's
        grid cell.  The result is byte-equal to
        :meth:`neighbors_reference` (same nodes, same order).
        """
        idx, __ = self._alive_in_range(node_id)
        nodes = self._nodes_list
        return [nodes[i] for i in idx]

    def neighbors_with_distances(
        self, node_id: int
    ) -> List[Tuple[SensorNode, float]]:
        """Like :meth:`neighbors`, with the link distance attached —
        bitwise identical to ``center.distance_to(neighbor)``."""
        idx, dist = self._alive_in_range(node_id)
        nodes = self._nodes_list
        return [
            (nodes[i], d) for i, d in zip(idx.tolist(), dist.tolist())
        ]

    def neighbors_reference(self, node_id: int) -> List[SensorNode]:
        """Brute-force oracle for :meth:`neighbors` (linear scan)."""
        center = self.node(node_id)
        return [
            n
            for n in self.nodes.values()
            if n.node_id != node_id
            and n.alive
            and center.distance_to(n) <= self.comm_range
        ]

    # -- routing --------------------------------------------------------------
    def route(self, src: int, dst: int) -> Optional[List[int]]:
        """Memoized hop-minimizing route over the alive nodes (the
        contract of :func:`repro.wsn.routing.shortest_path_route`).

        One memo per (geometry, liveness) state: any move or flip
        starts a fresh one.  Each call returns a new list, so a caller
        that edits its route cannot corrupt the memo.
        """
        state = (self._geometry, self._liveness)
        if self._routes_key != state:
            self._routes = {}
            self._routes_key = state
        routes = self._routes
        key = (src, dst)
        if key in routes:
            route = routes[key]
        else:
            route = routes[key] = self._bfs_route(src, dst)
        return None if route is None else list(route)

    def _bfs_route(self, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        """Bidirectional BFS over the CSR rows, dead nodes skipped.

        networkx's ``_bidirectional_pred_succ`` expansion: the smaller
        fringe grows first (the forward one on ties), each node scanning
        its neighbors in CSR row order, and the search ends at the first
        edge, in scan order, from one side into the other.
        ``_build_graph`` inserts edges in lexicographic index order, so
        that is also the adjacency order of :meth:`cached_graph`, and
        the route equals ``nx.shortest_path`` on it.

        One side byte per node (:data:`_UNSEEN`, :data:`_FORWARD`,
        :data:`_REVERSE`, :data:`_DEAD`) and one parent list replace
        networkx's ``pred`` and ``succ`` dicts.  That holds the same
        information because no node is on both sides before the
        meeting: reaching a node of the other side ends the search.
        So a node is in ``pred`` exactly when its byte reads forward,
        in ``succ`` exactly when it reads reverse, and its parent is
        the one dict entry it has.
        """
        s = self._index_of.get(src)
        t = self._index_of.get(dst)
        alive = self._alive_flags
        if s is None or t is None or not alive[s] or not alive[t]:
            return None
        if s == t:
            return (src,)
        rows = self._csr_rows()
        side = alive.translate(_SIDE_OF_ALIVE)
        side[s], side[t] = _FORWARD, _REVERSE
        parent = [-1] * len(side)
        forward, reverse = [s], [t]
        meeting = None
        while meeting is None and forward and reverse:
            if len(forward) <= len(reverse):
                level, forward = forward, []
                meeting = _grow_level(rows, side, parent, level, forward,
                                      _FORWARD)
            else:
                level, reverse = reverse, []
                meeting = _grow_level(rows, side, parent, level, reverse,
                                      _REVERSE)
        if meeting is None:
            return None
        head, tail = meeting
        path: List[int] = []
        while head >= 0:
            path.append(head)
            head = parent[head]
        path.reverse()
        while tail >= 0:
            path.append(tail)
            tail = parent[tail]
        ids = self._id_list
        return tuple(ids[i] for i in path)

    # -- connectivity graphs ------------------------------------------------
    def _build_graph(self) -> nx.Graph:
        """Assemble the networkx graph from the sparse adjacency.

        Nodes are inserted in alive order and edges in the exact
        lexicographic ``(i, j)`` order the brute-force double loop
        uses, so traversal (BFS tie-breaking included) is identical to
        :meth:`graph_reference`.
        """
        g = nx.Graph()
        for node in self.alive_nodes():
            g.add_node(node.node_id, pos=node.position)
        ids, alive = self._id_list, self._alive_flags
        for i, j, d in self.sparse_adjacency().undirected_edges():
            if alive[i] and alive[j]:
                g.add_edge(ids[i], ids[j], weight=d)
        return g

    def graph(self) -> nx.Graph:
        """Connectivity graph over alive nodes (edge weight = distance).

        Returns a **fresh** graph each call (callers may mutate it —
        the planner prunes obstacle-blocked links); use
        :meth:`cached_graph` for shared read-only access.
        """
        return self._build_graph()

    def cached_graph(self) -> nx.Graph:
        """Connectivity graph memoized per (geometry, liveness) state,
        shared and **read-only**.

        For graph algorithms (:func:`~repro.wsn.routing.sink_tree`,
        :meth:`is_connected`); routes come from :meth:`route`, which
        never builds it.  Callers must never mutate the returned graph.
        """
        state = (self._geometry, self._liveness)
        if self._graph_key != state:
            self._graph = self._build_graph()
            self._graph_key = state
        return self._graph

    def graph_reference(self) -> nx.Graph:
        """Brute-force O(n^2) oracle for :meth:`graph`."""
        g = nx.Graph()
        alive = self.alive_nodes_reference()
        for n in alive:
            g.add_node(n.node_id, pos=n.position)
        for i, a in enumerate(alive):
            for b in alive[i + 1 :]:
                d = a.distance_to(b)
                if d <= self.comm_range:
                    g.add_edge(a.node_id, b.node_id, weight=d)
        return g

    def is_connected(self) -> bool:
        g = self.cached_graph()
        return len(g) > 0 and nx.is_connected(g)


class GridTopology(Topology):
    """Nodes on a regular rows x cols grid with given spacing.

    This is the paper's canonical deployment (Fig. 8: CNN assigned to
    XY-coordinates of a mesh-like network).  ``node_at(row, col)``
    converts grid indices to nodes; node ids are row-major.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        spacing: float = 1.0,
        comm_range: Optional[float] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        if comm_range is None:
            # Reaches the 8-neighbourhood by default.
            comm_range = spacing * 1.5
        nodes = [
            SensorNode(node_id=r * cols + c, position=(c * spacing, r * spacing))
            for r in range(rows)
            for c in range(cols)
        ]
        super().__init__(nodes, comm_range)
        self.rows = rows
        self.cols = cols
        self.spacing = spacing

    def node_at(self, row: int, col: int) -> SensorNode:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"grid position ({row}, {col}) out of bounds")
        return self.node(row * self.cols + col)

    def grid_position(self, node_id: int) -> Tuple[int, int]:
        """Inverse of :meth:`node_at`: ``(row, col)`` of a node id."""
        if node_id not in self.nodes:
            raise KeyError(f"no node with id {node_id}")
        return divmod(node_id, self.cols)


class RandomTopology(Topology):
    """Uniformly random placement in a rectangle."""

    def __init__(
        self,
        n_nodes: int,
        width: float,
        height: float,
        comm_range: float,
        rng: np.random.Generator,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        nodes = [
            SensorNode(
                node_id=i,
                position=(float(rng.uniform(0, width)), float(rng.uniform(0, height))),
            )
            for i in range(n_nodes)
        ]
        super().__init__(nodes, comm_range)
        self.width = width
        self.height = height
