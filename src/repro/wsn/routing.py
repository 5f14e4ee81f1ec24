"""Routing over the topology.

:func:`shortest_path_route` is the network's default router.  It
resolves through :meth:`Topology.route`: a bidirectional BFS over the
geometry-keyed CSR adjacency that skips dead nodes, behind one route
memo per (geometry, liveness) state.  An alive flip therefore rebuilds
nothing — it only starts a fresh memo — and replay/compile loops that
issue thousands of routes per topology state pay one BFS per distinct
pair.  The BFS copies networkx's bidirectional expansion order, so
every route equals ``nx.shortest_path`` on the alive connectivity
graph.  Where networkx keeps a ``pred`` dict for the forward frontier
and a ``succ`` dict for the reverse one, the BFS keeps one side byte
per node (unseen, forward, reverse or dead) and one parent list for
both.  That is the same information: the search ends at the first
node both frontiers reach, so before then no node is in both dicts,
and a node's byte says which dict holds it and its parent is the
entry.

The pre-optimization implementation (a fresh brute-force graph and
``nx.shortest_path`` per call) is kept as
:func:`shortest_path_route_reference`; the parity suites assert both
return identical routes.  :func:`sink_tree` still walks the shared
:meth:`Topology.cached_graph`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import networkx as nx

from repro.wsn.topology import Topology


def shortest_path_route(
    topology: Topology, src: int, dst: int
) -> Optional[List[int]]:
    """Hop-minimizing route from src to dst over alive nodes.

    Contract (pinned by ``tests/test_wsn_spatial.py``):

    - both endpoints alive and connected -> the node-id path including
      both endpoints;
    - ``src == dst`` with the node alive -> ``[src]`` (zero-hop
      self-delivery);
    - either endpoint dead or unknown -> ``None`` — including the
      ``src == dst`` case on a dead node.  :class:`~repro.wsn.network.Network`
      attributes ``None`` routes to the ``"unroutable"`` drop cause;
    - endpoints alive but in different components -> ``None``.

    Each call returns a new list (callers may edit it).
    """
    return topology.route(src, dst)


def shortest_path_route_reference(
    topology: Topology, src: int, dst: int
) -> Optional[List[int]]:
    """Brute-force oracle for :func:`shortest_path_route`: rebuilds the
    connectivity graph from scratch on every call (the pre-memoization
    behaviour), with the same endpoint contract."""
    g = topology.graph_reference()
    if src not in g or dst not in g:
        return None
    if src == dst:
        return [src]
    try:
        return nx.shortest_path(g, src, dst)
    except nx.NetworkXNoPath:
        return None


def sink_tree(topology: Topology, sink: int) -> Dict[int, Optional[int]]:
    """Parent pointers of a BFS collection tree rooted at ``sink``.

    Unreachable nodes are absent; the sink maps to None.
    """
    g = topology.cached_graph()
    if sink not in g:
        raise KeyError(f"sink {sink} is not an alive node")
    parents: Dict[int, Optional[int]] = {sink: None}
    for child, parent in nx.bfs_predecessors(g, sink):
        parents[child] = parent
    return parents
