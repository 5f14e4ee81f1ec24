"""Spatial index, generators, routing contract, and epoch caching.

The city-scale rework's core promise is **byte-equality**: the
grid-hash index and CSR adjacency must reproduce the brute-force
``*_reference`` oracles exactly — same nodes, same order, bitwise
identical distances — across arbitrary placements, comm ranges, and
dead-node sets.  The fuzz classes here (under ``-m perf``, like the
other hot-path property suites) assert exactly that; the plain classes
pin the unit semantics: epoch/cache invalidation, the
``shortest_path_route`` endpoint contract and its ``unroutable``
attribution in the network layer, route equality with
``nx.shortest_path`` from a 4,000-tag district down to the generator
families, NaN/inf position validation, the deterministic generator
suite, and the JSON map importer.
"""

import json
from collections import Counter

import networkx as nx
import numpy as np
import pytest

from repro.cli import main
from repro.wsn import (
    ChainTopology,
    CliqueTopology,
    GridHashIndex,
    GridTopology,
    Message,
    Network,
    RandomTopology,
    RingTopology,
    SensorNode,
    StarTopology,
    Topology,
    build_adjacency,
    load_map_topology,
    make_topology,
    sample_map_path,
    shortest_path_route,
    shortest_path_route_reference,
    sink_tree,
)
from repro.wsn.choco import ChocoCollector
from repro.wsn.radio import RadioModel


def random_topology(rng, n=None, comm_range=None, dead=None):
    """A fuzzed placement: uniform box + a few dense clusters, random
    comm range, random dead subset."""
    n = int(rng.integers(1, 60)) if n is None else n
    comm_range = (
        float(rng.uniform(0.05, 3.0)) if comm_range is None else comm_range
    )
    pts = rng.uniform(-5.0, 5.0, size=(n, 2))
    # Pile a cluster on top so several nodes share one grid cell.
    k = min(n, int(rng.integers(0, 8)))
    if k:
        center = rng.uniform(-5.0, 5.0, size=2)
        pts[:k] = center + rng.normal(0.0, 0.05, size=(k, 2))
    nodes = [
        SensorNode(node_id=i, position=(float(x), float(y)))
        for i, (x, y) in enumerate(pts)
    ]
    topo = Topology(nodes, comm_range=comm_range)
    if dead is None:
        dead = [
            i for i in range(n) if rng.random() < float(rng.uniform(0, 0.5))
        ]
    for i in dead:
        topo.node(i).alive = False
    return topo


def assert_byte_parity(topo):
    """Index-backed queries == brute-force oracles, byte for byte."""
    assert [n.node_id for n in topo.alive_nodes()] == [
        n.node_id for n in topo.alive_nodes_reference()
    ]
    for nid in topo.nodes:
        center = topo.node(nid)
        got = topo.neighbors_with_distances(nid)
        want = [
            (n, center.distance_to(n))
            for n in topo.neighbors_reference(nid)
        ]
        assert [(n.node_id, d) for n, d in got] == [
            (n.node_id, d) for n, d in want
        ], f"neighbors({nid}) diverged"
    g, gr = topo.graph(), topo.graph_reference()
    assert list(g.nodes) == list(gr.nodes)
    assert [
        (u, dict(a)) for u, a in g.nodes(data=True)
    ] == [(u, dict(a)) for u, a in gr.nodes(data=True)]
    assert list(g.edges(data="weight")) == list(gr.edges(data="weight"))


pytest_perf = pytest.mark.perf


@pytest_perf
class TestSpatialParityFuzz:
    """Satellite: spatial index byte-equal to the oracles under fuzz."""

    @pytest.mark.parametrize("trial", range(16))
    def test_fuzzed_placements(self, trial):
        rng = np.random.default_rng(7000 + trial)
        topo = random_topology(rng)
        assert_byte_parity(topo)

    @pytest.mark.parametrize("trial", range(6))
    def test_fuzzed_routes(self, trial):
        rng = np.random.default_rng(7100 + trial)
        topo = random_topology(rng, n=int(rng.integers(2, 40)))
        ids = list(topo.nodes)
        for __ in range(12):
            s = int(rng.choice(ids))
            d = int(rng.choice(ids))
            assert shortest_path_route(topo, s, d) == (
                shortest_path_route_reference(topo, s, d)
            )

    def test_single_node(self):
        topo = Topology([SensorNode(7, (1.0, 2.0))], comm_range=1.0)
        assert_byte_parity(topo)
        assert topo.neighbors(7) == []

    def test_all_dead(self):
        rng = np.random.default_rng(7200)
        topo = random_topology(rng, n=12, dead=list(range(12)))
        assert_byte_parity(topo)
        assert topo.alive_nodes() == []
        assert topo.graph().number_of_nodes() == 0

    def test_dead_center_query(self):
        """Querying around a dead node is legal and oracle-identical."""
        rng = np.random.default_rng(7300)
        topo = random_topology(rng, n=20, comm_range=4.0, dead=[3])
        assert [n.node_id for n in topo.neighbors(3)] == [
            n.node_id for n in topo.neighbors_reference(3)
        ]

    def test_coincident_positions(self):
        nodes = [SensorNode(i, (1.0, 1.0)) for i in range(5)]
        topo = Topology(nodes, comm_range=0.5)
        assert_byte_parity(topo)
        assert [n.node_id for n in topo.neighbors(2)] == [0, 1, 3, 4]

    def test_mutation_then_parity(self):
        """Parity must hold across kill/revive/move sequences."""
        rng = np.random.default_rng(7400)
        topo = random_topology(rng, n=30, dead=[])
        for __ in range(6):
            nid = int(rng.integers(30))
            action = rng.random()
            node = topo.node(nid)
            if action < 0.4:
                node.alive = not node.alive
            else:
                node.position = tuple(rng.uniform(-5, 5, size=2))
            assert_byte_parity(topo)

    @pytest.mark.parametrize("trial", range(4))
    def test_choco_round_rng_parity(self, trial):
        """Index-backed Choco rounds draw the identical RNG stream."""
        rng = np.random.default_rng(7500 + trial)
        topo = random_topology(rng, n=25, comm_range=2.5)
        collector = ChocoCollector(topo, RadioModel())
        a = collector.run_round(1.0, np.random.default_rng(42))
        b = collector.run_round_reference(1.0, np.random.default_rng(42))
        assert a.inter_node_rssi == b.inter_node_rssi
        assert a.surrounding_rssi == b.surrounding_rssi


class TestGridHashIndex:
    def test_radius_beyond_cell_size_rejected(self):
        idx = GridHashIndex(np.zeros((3, 2)), 1.0)
        with pytest.raises(ValueError, match="exceeds cell size"):
            idx.query((0.0, 0.0), radius=1.5)
        with pytest.raises(ValueError, match="exceeds cell size"):
            idx.directed_pairs(2.0)

    def test_bad_cell_size_rejected(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cell_size"):
                GridHashIndex(np.zeros((1, 2)), bad)

    def test_empty_index(self):
        idx = GridHashIndex(np.zeros((0, 2)), 1.0)
        ids, dist = idx.query((0.0, 0.0))
        assert ids.size == 0 and dist.size == 0
        s, d, w = idx.directed_pairs()
        assert s.size == d.size == w.size == 0

    def test_overflowing_cell_keys_rejected(self):
        """Cell keys are packed int64s: 3e9 cells out they would wrap,
        and ``neighbors(1)`` missed the link to node 2 the oracle
        finds.  The index refuses such a grid instead."""
        topo = Topology([
            SensorNode(0, (0.0, 0.0)), SensorNode(1, (3e9, 3e9)),
            SensorNode(2, (3e9 + 0.5, 3e9)),
        ], comm_range=1.0)
        assert [n.node_id for n in topo.neighbors_reference(1)] == [2]
        with pytest.raises(ValueError, match="too small"):
            topo.neighbors(1)

    def test_negative_coordinates(self):
        pos = np.array([[-10.0, -10.0], [-10.5, -10.2], [5.0, 5.0]])
        idx = GridHashIndex(pos, 1.0)
        ids, dist = idx.query((-10.0, -10.0), exclude=0)
        assert ids.tolist() == [1]
        assert dist[0] == SensorNode(0, (-10.0, -10.0)).distance_to(
            SensorNode(1, (-10.5, -10.2))
        )

    def test_directed_pairs_symmetric(self):
        rng = np.random.default_rng(11)
        pos = rng.uniform(0, 4, size=(40, 2))
        idx = GridHashIndex(pos, 1.2)
        s, d, __ = idx.directed_pairs()
        pairs = set(zip(s.tolist(), d.tolist()))
        assert pairs == {(b, a) for a, b in pairs}
        assert all(a != b for a, b in pairs)

    def test_adjacency_rows_sorted_and_consistent(self):
        rng = np.random.default_rng(12)
        pos = rng.uniform(0, 6, size=(60, 2))
        adjacency = build_adjacency(pos, 1.5)
        assert adjacency.indptr[0] == 0
        assert adjacency.indptr[-1] == adjacency.indices.shape[0]
        total = 0
        for i in range(60):
            row, w = adjacency.row(i)
            assert list(row) == sorted(row.tolist())
            total += row.size
        assert adjacency.n_edges == total // 2
        edges = list(adjacency.undirected_edges())
        assert edges == sorted(edges, key=lambda e: (e[0], e[1]))
        assert all(i < j for i, j, __ in edges)


class TestEpochInvalidation:
    """The documented cache contract: any alive/position mutation bumps
    the epoch; untouched state pays zero rebuild cost."""

    def test_alive_and_position_bump_epoch(self):
        topo = GridTopology(3, 3)
        e0 = topo.epoch
        topo.node(4).alive = False
        assert topo.epoch == e0 + 1
        topo.node(0).position = (0.25, 0.25)
        assert topo.epoch == e0 + 2

    def test_traffic_never_bumps_epoch(self):
        """Traffic lives in the network's ledger: sending, bulk
        sending and a planned forward leave every topology counter
        as it was."""
        from repro.core import (
            DistributedExecutor,
            UnitGraph,
            grid_correspondence_assignment,
        )
        from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential

        topo = GridTopology(3, 3)
        model = Sequential([Conv2D(2, 3), ReLU(), Flatten(), Dense(2)])
        model.build((1, 6, 6), np.random.default_rng(0))
        graph = UnitGraph(model)
        net = Network(topo)
        executor = DistributedExecutor(
            model, graph, grid_correspondence_assignment(graph, topo), net
        )
        x = np.random.default_rng(1).normal(size=(2, 1, 6, 6))
        epochs = (topo.epoch, topo.geometry_epoch, topo.liveness_epoch)
        executor.forward(x)  # compiles the plan
        net.unicast(Message(0, 8, 5))
        net.unicast_bulk(Message(8, 0, 3), copies=4)
        executor.forward(x)
        assert executor._compiled_plan is not None
        assert net.stats.links and net.stats.total_hops > 0
        assert (topo.epoch, topo.geometry_epoch, topo.liveness_epoch) == (
            epochs
        )

    def test_cached_graph_memoized_until_mutation(self):
        topo = GridTopology(3, 3)
        g1 = topo.cached_graph()
        assert topo.cached_graph() is g1
        topo.node(4).alive = False
        g2 = topo.cached_graph()
        assert g2 is not g1
        assert 4 not in g2

    def test_queries_observe_mutations(self):
        topo = GridTopology(3, 3)
        assert any(n.node_id == 4 for n in topo.neighbors(0))
        topo.node(4).alive = False
        assert all(n.node_id != 4 for n in topo.neighbors(0))
        topo.node(4).alive = True
        topo.node(4).position = (10.0, 10.0)
        assert all(n.node_id != 4 for n in topo.neighbors(0))

    def test_graph_returns_fresh_mutable_copies(self):
        """Callers may mutate graph() (the planner prunes edges) without
        corrupting the shared routing graph."""
        topo = GridTopology(2, 3)
        g = topo.graph()
        assert g is not topo.graph()
        cached = topo.cached_graph()
        g.remove_edges_from(list(g.edges))
        assert cached.number_of_edges() > 0
        assert topo.cached_graph() is cached

    def test_invalidate_caches_forces_rebuild(self):
        topo = GridTopology(2, 2)
        g1 = topo.cached_graph()
        topo.invalidate_caches()
        assert topo.cached_graph() is not g1

    def test_soa_views_read_only(self):
        topo = GridTopology(2, 2)
        with pytest.raises(ValueError):
            topo.positions_view()[0, 0] = 99.0
        with pytest.raises(ValueError):
            topo.alive_view()[0] = False


class TestPositionValidation:
    """Satellite: NaN/inf positions fail fast with a clear error."""

    @pytest.mark.parametrize("bad", [
        (float("nan"), 0.0), (0.0, float("nan")),
        (float("inf"), 0.0), (0.0, float("-inf")),
    ])
    def test_constructor_rejects_non_finite(self, bad):
        nodes = [SensorNode(0, (0.0, 0.0))]
        with pytest.raises(ValueError, match="finite"):
            nodes.append(SensorNode(1, bad))
        # And the topology-level sweep catches nodes whose attribute
        # was bypassed (e.g. unpickled or __dict__-poked state).
        poked = SensorNode(1, (0.0, 0.0))
        poked._position = bad
        with pytest.raises(ValueError, match=r"node ids: \[1\]"):
            Topology(nodes + [poked], comm_range=1.0)

    def test_mutation_rejects_non_finite_and_keeps_old_position(self):
        topo = GridTopology(2, 2)
        node = topo.node(3)
        before = node.position
        epoch = topo.epoch
        with pytest.raises(ValueError, match="node 3 position"):
            node.position = (float("nan"), 1.0)
        assert node.position == before
        assert topo.epoch == epoch


class TestRoutingContract:
    """Satellite: the pinned endpoint contract, and the network layer's
    ``unroutable`` attribution of every None route."""

    @pytest.fixture()
    def topo(self):
        return GridTopology(1, 4, comm_range=1.0)  # chain 0-1-2-3

    def test_alive_self_route_is_zero_hop(self, topo):
        assert shortest_path_route(topo, 2, 2) == [2]
        assert shortest_path_route_reference(topo, 2, 2) == [2]

    def test_dead_self_route_is_none(self, topo):
        topo.node(2).alive = False
        assert shortest_path_route(topo, 2, 2) is None
        assert shortest_path_route_reference(topo, 2, 2) is None

    def test_dead_or_unknown_endpoints_are_none(self, topo):
        topo.node(3).alive = False
        for s, d in ((0, 3), (3, 0), (99, 0), (0, 99)):
            assert shortest_path_route(topo, s, d) is None
            assert shortest_path_route_reference(topo, s, d) is None

    def test_disconnected_is_none(self, topo):
        topo.node(1).alive = False
        assert shortest_path_route(topo, 0, 3) is None

    def test_connected_route(self, topo):
        assert shortest_path_route(topo, 0, 3) == [0, 1, 2, 3]

    def test_network_attributes_unroutable(self, topo):
        net = Network(topo)
        topo.node(3).alive = False
        assert not net.unicast(Message(0, 3, 5))
        assert not net.unicast(Message(3, 3, 5))  # dead self-send
        assert net.unicast(Message(1, 1, 5))      # alive self-send: 0 hops
        assert net.stats.dropped_causes == {"unroutable": 2}
        assert net.stats.delivered == 1
        assert net.stats.total_hops == 0

    def test_bulk_attributes_unroutable_per_copy(self, topo):
        net = Network(topo)
        topo.node(0).alive = False
        assert net.unicast_bulk(Message(1, 0, 3), copies=4) == 0
        assert net.stats.dropped == 4
        assert net.stats.dropped_causes == {"unroutable": 4}

    def test_sink_tree_uses_cached_graph(self, topo):
        parents = sink_tree(topo, 0)
        assert parents == {0: None, 1: 0, 2: 1, 3: 2}
        topo.node(3).alive = False
        assert 3 not in sink_tree(topo, 0)


def nx_route(topo, src, dst):
    """``nx.shortest_path`` on :meth:`Topology.cached_graph`, under the
    ``shortest_path_route`` endpoint contract."""
    g = topo.cached_graph()
    if src not in g or dst not in g:
        return None
    try:
        return nx.shortest_path(g, src, dst)
    except nx.NetworkXNoPath:
        return None


def assert_routes_match_nx(topo, pairs):
    """Every route equals networkx's; returns how many pairs fell in
    each case of the endpoint contract."""
    cases = Counter()
    for src, dst in pairs:
        got = shortest_path_route(topo, src, dst)
        assert got == nx_route(topo, src, dst), f"route {src} -> {dst}"
        if src not in topo.nodes or dst not in topo.nodes:
            cases["unknown"] += 1
        elif not (topo.node(src).alive and topo.node(dst).alive):
            cases["dead"] += 1
        elif src == dst:
            cases["self"] += 1
        else:
            cases["routed" if got else "unroutable"] += 1
    return cases


class TestRouteParityAtScale:
    """Routes equal ``nx.shortest_path`` on the alive graph, tie-breaks
    included, at city scale, on a tie-heavy grid and on every generator
    family, across liveness changes."""

    CASES = {"unknown", "dead", "self", "routed", "unroutable"}

    def test_city_district_over_liveness_rounds(self):
        # city_churn's density: one tag per 100 m^2, 15 m radio range.
        tags = 4000
        rng = np.random.default_rng(2019)
        side = float(np.sqrt(tags * 100.0))
        topo = Topology(
            [SensorNode(i, (float(x), float(y)))
             for i, (x, y) in enumerate(rng.uniform(0, side, (tags, 2)))],
            comm_range=15.0,
        )
        alive = np.ones(tags, dtype=bool)
        alive[rng.choice(tags, tags // 10, replace=False)] = False
        cases = Counter()
        for __ in range(3):
            flips = np.concatenate([
                rng.choice(np.flatnonzero(alive), 60, replace=False),
                rng.choice(np.flatnonzero(~alive), 60, replace=False),
            ])
            alive[flips] = ~alive[flips]
            for i in np.flatnonzero(alive != topo.alive_view()).tolist():
                topo.node(i).alive = bool(alive[i])
            up = np.flatnonzero(alive).tolist()
            down = np.flatnonzero(~alive).tolist()
            lone = [n for n, degree in topo.cached_graph().degree()
                    if degree == 0]
            pairs = [tuple(p) for p in rng.integers(0, tags, (90, 2)).tolist()]
            pairs += [(down[0], up[0]), (up[1], down[1]), (down[2], down[2]),
                      (up[2], up[2]), (tags + 7, up[3]), (up[4], -1),
                      (lone[0], up[5]), (up[6], lone[-1])]
            cases += assert_routes_match_nx(topo, pairs)
        assert set(cases) == self.CASES
        assert cases["routed"] >= 200

    @pytest.mark.parametrize("seed", range(3))
    def test_tie_heavy_grid_quarter_dead(self, seed):
        rng = np.random.default_rng(2100 + seed)
        topo = GridTopology(20, 20)
        for i in rng.choice(400, 100, replace=False).tolist():
            topo.node(i).alive = False
        pairs = [tuple(p) for p in rng.integers(0, 400, (300, 2)).tolist()]
        cases = assert_routes_match_nx(topo, pairs)
        assert cases["routed"] >= 100

    @pytest.mark.parametrize("ctor", [
        lambda: ChainTopology(12),
        lambda: RingTopology(12),
        lambda: StarTopology(5),
        lambda: StarTopology(8),
        lambda: CliqueTopology(9),
    ], ids=["chain", "ring", "star", "wheel", "clique"])
    def test_generator_families(self, ctor):
        topo = ctor()
        ids = sorted(topo.nodes)
        pairs = [(s, d) for s in ids for d in ids]
        assert_routes_match_nx(topo, pairs)
        rng = np.random.default_rng(len(ids))
        for i in rng.choice(ids, len(ids) // 4, replace=False).tolist():
            topo.node(i).alive = False
        assert_routes_match_nx(topo, pairs)


class TestGenerators:
    """The deterministic generator suite and the JSON map importer."""

    def test_clique_is_complete(self):
        topo = CliqueTopology(9)
        assert topo.graph().number_of_edges() == 36
        assert topo.is_connected()

    def test_chain_is_a_path(self):
        topo = ChainTopology(12)
        g = topo.graph()
        assert g.number_of_edges() == 11
        assert shortest_path_route(topo, 0, 11) == list(range(12))

    def test_ring_is_a_cycle(self):
        topo = RingTopology(10)
        degrees = {d for __, d in topo.graph().degree()}
        assert degrees == {2}
        assert topo.graph().number_of_edges() == 10

    def test_star_pure_up_to_five_leaves(self):
        topo = StarTopology(5)
        g = topo.graph()
        assert g.number_of_edges() == 5
        assert g.degree(topo.hub_id) == 5

    def test_star_becomes_wheel_at_six_leaves(self):
        # Documented disk-graph caveat: adjacent leaves fall in range.
        topo = StarTopology(8)
        assert topo.graph().number_of_edges() == 16

    def test_generators_are_deterministic(self):
        for ctor in (
            lambda: CliqueTopology(7),
            lambda: ChainTopology(7),
            lambda: RingTopology(7),
            lambda: StarTopology(7),
        ):
            a, b = ctor(), ctor()
            assert [n.position for n in a] == [n.position for n in b]
            assert [n.node_id for n in a] == [n.node_id for n in b]

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            CliqueTopology(0)
        with pytest.raises(ValueError):
            ChainTopology(3, spacing=-1.0)
        with pytest.raises(ValueError):
            RingTopology(2)
        with pytest.raises(ValueError):
            StarTopology(4, radius=0.0)

    def test_make_topology_registry(self):
        assert isinstance(make_topology("ring", n_nodes=5), RingTopology)
        assert len(make_topology("map", path=sample_map_path())) == 24
        with pytest.raises(ValueError, match="unknown topology kind"):
            make_topology("torus", n_nodes=5)

    def test_sample_map_loads_connected(self):
        topo = load_map_topology(sample_map_path())
        assert topo.is_connected()
        assert topo.comm_range == 45.0
        assert topo.map_name == "district-sample"
        # Node order follows the file's nodes array.
        doc = json.loads(sample_map_path().read_text())
        assert [n.node_id for n in topo] == [e["id"] for e in doc["nodes"]]

    def test_map_comm_range_override(self):
        topo = load_map_topology(sample_map_path(), comm_range=10.0)
        assert topo.comm_range == 10.0

    def test_map_importer_errors(self, tmp_path):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_map_topology(bad_json)
        no_range = tmp_path / "norange.json"
        no_range.write_text(json.dumps({"nodes": [{"id": 0, "pos": [0, 0]}]}))
        with pytest.raises(ValueError, match="comm_range"):
            load_map_topology(no_range)
        assert len(load_map_topology(no_range, comm_range=1.0)) == 1
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps(
            {"comm_range": 1.0, "nodes": [{"id": 0}]}
        ))
        with pytest.raises(ValueError, match="node #0"):
            load_map_topology(malformed)
        not_obj = tmp_path / "list.json"
        not_obj.write_text("[]")
        with pytest.raises(ValueError, match="'nodes' list"):
            load_map_topology(not_obj)


class TestTopoCli:
    def test_topo_summary(self, capsys):
        assert main(["topo", "ring", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "nodes:       12" in out
        assert "connected:   True" in out

    def test_topo_export_import_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "district.json"
        assert main([
            "topo", "random", "--n", "50", "--side", "30",
            "--seed", "3", "--out", str(out_file),
        ]) == 0
        first = capsys.readouterr().out
        assert main(["topo", "map", "--path", str(out_file)]) == 0
        second = capsys.readouterr().out
        # Same edge/degree summary after the round trip.
        assert first.splitlines()[3] == second.splitlines()[3]
        reloaded = load_map_topology(out_file)
        assert len(reloaded) == 50

    def test_topo_bad_map_exits_2(self, tmp_path, capsys):
        assert main([
            "topo", "map", "--path", str(tmp_path / "missing.json"),
        ]) == 2
        assert "failed" in capsys.readouterr().err
