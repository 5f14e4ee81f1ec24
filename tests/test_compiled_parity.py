"""Differential parity harness: compiled plans vs. the event-driven
oracle.

The compiled fast path (:mod:`repro.core.compiled`) must be
*indistinguishable* from the event-driven executor wherever it is
allowed to run: byte-identical logits and exactly equal traffic
counters — every global counter and per-link tally the network keeps —
across placements, model shapes, and batch sizes.  Where it is not allowed to
run (lossy links, installed link-fault model, node down, unroutable
transfer), it must either refuse with the typed
:class:`~repro.core.PlanNotCompilable` or fall back to the oracle —
never be silently wrong.

Digest pins follow the oracle pattern of the vectorized-training suite:
the reference path is run twice to prove it stable, then the compiled
digest is required to equal the oracle's.
"""

import copy
import hashlib
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import (
    DistributedExecutor,
    PlanNotCompilable,
    UnitGraph,
    centralized_assignment,
    compile_plan,
    grid_correspondence_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.faults.links import LinkFaultModel
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import GridTopology, Network

RNG = np.random.default_rng(608)

#: Model shapes the differential suite sweeps: dense-only (no spatial
#: layers past the input grid) and the paper's conv+pool stack.
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
}

STRATEGIES = [
    grid_correspondence_assignment,
    lambda g, t: centralized_assignment(g, t),
    round_robin_assignment,
    lambda g, t: random_assignment(g, t, np.random.default_rng(5)),
]


def make(kind, seed=0):
    layers, input_shape, node_grid = MODELS[kind]
    model = Sequential(layers())
    model.build(input_shape, np.random.default_rng(seed))
    graph = UnitGraph(model)
    topo = GridTopology(*node_grid)
    return model, graph, topo


def make_batch(kind, batch, seed=1):
    input_shape = MODELS[kind][1]
    return np.random.default_rng(seed).normal(
        size=(batch,) + tuple(input_shape)
    )


def stats_snapshot(net):
    """A detached copy of the network's whole ``TrafficStats``: every
    scalar, drop cause, and per-link packet and value tally (the
    per-node values are folds of the latter)."""
    return copy.deepcopy(net.stats)


def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestCompiledParity:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_logits_and_all_counters_identical(self, kind, batch):
        """The headline differential: same bytes out, same traffic in
        every counter, for every placement strategy."""
        model, graph, topo = make(kind)
        x = make_batch(kind, batch)
        for strategy in STRATEGIES:
            placement = strategy(graph, topo)
            net_plan = Network(topo)
            ex_plan = DistributedExecutor(model, graph, placement, net_plan)
            out_plan = ex_plan.forward(x)
            assert ex_plan._compiled_plan is not None  # plan actually ran
            plan_stats = stats_snapshot(net_plan)

            net_ref = Network(topo)
            ex_ref = DistributedExecutor(model, graph, placement, net_ref)
            out_ref = ex_ref.forward(x, plan=None)

            assert out_plan.tobytes() == out_ref.tobytes()
            assert plan_stats == stats_snapshot(net_ref)
            net_ref.reset_stats()

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_repeated_runs_accumulate_identically(self, kind):
        """Counters after N compiled forwards == after N oracle
        forwards (accumulation, not just one-shot equality)."""
        model, graph, topo = make(kind)
        placement = grid_correspondence_assignment(graph, topo)
        net_plan = Network(topo)
        ex_plan = DistributedExecutor(model, graph, placement, net_plan)
        for batch in (1, 8, 3):
            ex_plan.forward(make_batch(kind, batch, seed=batch))
        plan_stats = stats_snapshot(net_plan)
        net_ref = Network(topo)
        ex_ref = DistributedExecutor(model, graph, placement, net_ref)
        for batch in (1, 8, 3):
            ex_ref.forward(make_batch(kind, batch, seed=batch), plan=None)
        assert plan_stats == stats_snapshot(net_ref)

    def test_count_traffic_false_moves_no_traffic(self):
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        x = make_batch("conv_pool", 4)
        out = ex.forward(x, count_traffic=False)
        assert net.stats.sent == 0
        assert stats_snapshot(net) == stats_snapshot(Network(topo))
        ref = ex.forward(x, count_traffic=False, plan=None)
        assert out.tobytes() == ref.tobytes()

    def test_foreign_plan_rejected(self):
        """``forward`` takes ``"auto"`` or None; a plan object — this
        executor's or a foreign one — is refused, not silently run."""
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        ex_a = DistributedExecutor(model, graph, placement, Network(topo))
        ex_b = DistributedExecutor(model, graph, placement, Network(topo))
        plan_a = compile_plan(ex_a)
        for ex in (ex_a, ex_b):
            with pytest.raises(ValueError, match="'auto' or None"):
                ex.forward(make_batch("conv_pool", 1), plan=plan_a)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_masked_dead_nodes_identical(self, kind):
        """forward_masked == forward_masked_reference byte for byte,
        across dead sets including hosts of input cells, conv units,
        and dense units."""
        model, graph, topo = make(kind)
        placement = grid_correspondence_assignment(graph, topo)
        ex = DistributedExecutor(model, graph, placement, Network(topo))
        x = make_batch(kind, 4)
        node_ids = sorted(topo.nodes)
        dead_sets = [
            [],
            [node_ids[0]],
            [node_ids[-1]],
            node_ids[: max(1, len(node_ids) // 5)],
            list(RNG.choice(node_ids, size=3, replace=False).astype(int)),
        ]
        for dead in dead_sets:
            got = ex.forward_masked(x, dead)
            want = ex.forward_masked_reference(x, dead)
            assert got.tobytes() == want.tobytes(), f"dead={dead}"

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_oracle_digest_stable_and_compiled_matches(self, kind):
        """The PR-oracle digest pin: run the event-driven reference
        twice (must not drift), then require the compiled digest to
        equal it — logits and the canonical counter repr both."""
        x = make_batch(kind, 8)
        oracle_digests = []
        for __ in range(2):
            model, graph, topo = make(kind)
            placement = grid_correspondence_assignment(graph, topo)
            net = Network(topo)
            ex = DistributedExecutor(model, graph, placement, net)
            out = ex.forward(x, plan=None)
            blob = digest(out) + repr(stats_snapshot(net))
            oracle_digests.append(
                hashlib.sha256(blob.encode()).hexdigest()
            )
        assert oracle_digests[0] == oracle_digests[1]

        model, graph, topo = make(kind)
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        out = ex.forward(x)
        assert ex._compiled_plan is not None
        blob = digest(out) + repr(stats_snapshot(net))
        compiled_digest = hashlib.sha256(blob.encode()).hexdigest()
        assert compiled_digest == oracle_digests[0]


#: Network states and the traffic decision each one forces.
TRAFFIC_STATES = {
    "steady": "plan",
    "node-down": "fallback:node-down",
    "lossy-links": "fallback:lossy-links",
    "link-faults": "fallback:link-faults",
    "unroutable": "fallback:unroutable",
}


class TestFallbackTriggers:
    """A lossy link model, installed LinkFaultModel, down node, or
    unroutable transfer must route the traffic of :meth:`forward` back
    to the event-driven replay — observable in the trace as an
    ``exec.forward`` span without ``exec.plan`` — and produce results
    identical to a never-compiled run."""

    def _setup(self, tel=None, **net_kwargs):
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo, telemetry=tel, **net_kwargs)
        ex = DistributedExecutor(model, graph, placement, net,
                                 telemetry=tel)
        return model, graph, topo, placement, net, ex

    def _span_names(self, tel):
        return [e.name for e in tel.tracer.events]

    def test_lossy_network_never_compiles(self):
        __, __, __, __, net, ex = self._setup(
            loss_probability=0.3, rng=np.random.default_rng(0)
        )
        with pytest.raises(PlanNotCompilable) as err:
            compile_plan(ex)
        assert err.value.reason == "lossy-links"
        x = make_batch("conv_pool", 2)
        out = ex.forward(x)  # auto must fall back, not raise
        assert ex._compiled_plan is None
        ref_model, ref_graph, ref_topo = make("conv_pool")
        ref_net = Network(ref_topo, loss_probability=0.3,
                          rng=np.random.default_rng(0))
        ref_ex = DistributedExecutor(
            ref_model, ref_graph,
            grid_correspondence_assignment(ref_graph, ref_topo), ref_net
        )
        ref = ref_ex.forward(x, plan=None)
        assert out.tobytes() == ref.tobytes()
        assert stats_snapshot(net) == stats_snapshot(ref_net)

    def test_link_faults_attached_mid_session(self):
        from repro.obs.runtime import session

        x = make_batch("conv_pool", 2)
        with session() as tel:
            __, __, __, __, net, ex = self._setup(tel=tel)
            ex.forward(x)
            assert "exec.plan" in self._span_names(tel)
            net.link_faults = LinkFaultModel(loss_rate=0.5, seed=3)
            before = len(tel.tracer.events)
            ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.forward" in tail
            assert "exec.plan" not in tail
            assert "exec.plan-fallback" in tail  # a working plan existed
            # Detach: the existing plan serves again.
            net.link_faults = None
            before = len(tel.tracer.events)
            ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.plan" in tail

    def test_brownout_falls_back_and_recovers(self):
        from repro.obs.runtime import session

        x = make_batch("conv_pool", 2)
        with session() as tel:
            __, __, topo, placement, net, ex = self._setup(tel=tel)
            out_plan = ex.forward(x)
            victim = sorted(topo.nodes)[5]
            topo.node(victim).alive = False  # brownout
            before = len(tel.tracer.events)
            out_down = ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.forward" in tail and "exec.plan" not in tail
            topo.node(victim).alive = True
            before = len(tel.tracer.events)
            out_up = ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.plan" in tail
        # The arithmetic is the same on all three paths (traffic is
        # what degrades, not the logits of forward()).
        assert out_plan.tobytes() == out_down.tobytes() == out_up.tobytes()

    def test_down_node_stats_match_never_compiled_run(self):
        """Counters accumulated across a compiled -> down -> recovered
        session equal those of an oracle-only run of the same
        sequence."""
        x = make_batch("conv_pool", 2)

        def run(plan):
            model, graph, topo = make("conv_pool")
            placement = grid_correspondence_assignment(graph, topo)
            net = Network(topo)
            ex = DistributedExecutor(model, graph, placement, net)
            victim = sorted(topo.nodes)[5]
            ex.forward(x, plan=plan)
            topo.node(victim).alive = False
            ex.forward(x, plan=plan)
            topo.node(victim).alive = True
            ex.forward(x, plan=plan)
            return stats_snapshot(net)

        assert run("auto") == run(None)

    def test_plan_none_forces_event_path(self):
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        ex.forward(make_batch("conv_pool", 2), plan=None)
        assert ex._compiled_plan is None

    def test_fallback_counter_carries_reason(self):
        from repro.obs.runtime import session

        x = make_batch("conv_pool", 1)
        with session() as tel:
            __, __, topo, __, net, ex = self._setup(tel=tel)
            ex.forward(x)
            topo.node(0).alive = False
            ex.forward(x)
            rows = {
                (name, tuple(map(tuple, labels))): value
                for name, labels, kind, value in tel.metrics.snapshot()
                if name.startswith("exec.plan")
            }
            assert rows[("exec.plan_runs", ())] == 1.0
            assert rows[
                ("exec.plan_fallbacks", (("reason", "node-down"),))
            ] == 1.0

    def _in_state(self, state, tel):
        kwargs = {}
        if state == "lossy-links":
            kwargs = dict(loss_probability=0.3, rng=np.random.default_rng(0))
        __, __, topo, __, net, ex = self._setup(tel=tel, **kwargs)
        victim = sorted(topo.nodes)[5]
        if state == "node-down":
            topo.node(victim).alive = False
        elif state == "link-faults":
            net.link_faults = LinkFaultModel(loss_rate=0.5, seed=3)
        elif state == "unroutable":
            move(topo, victim, 10.0, 10.0)  # out of every node's range
        return net, ex

    @pytest.mark.parametrize("state", sorted(TRAFFIC_STATES))
    def test_account_traffic_then_math_is_forward(self, state):
        """``account_traffic`` names the path it took and counts it;
        followed by a traffic-free forward it is exactly ``forward`` —
        same logits bytes, same TrafficStats, same node counters — and
        both equal the event-driven oracle (``plan=None``)."""
        from repro.obs.runtime import Telemetry

        x = make_batch("conv_pool", 3)
        net_ref, ex_ref = self._in_state(state, Telemetry())
        out_ref = ex_ref.forward(x, plan=None)
        net_fwd, ex_fwd = self._in_state(state, Telemetry())
        out_fwd = ex_fwd.forward(x)
        tel = Telemetry()
        net, ex = self._in_state(state, tel)
        assert ex.account_traffic(len(x)) == TRAFFIC_STATES[state]
        out = ex.forward(x, count_traffic=False)
        for other_out, other_net in ((out_fwd, net_fwd), (out_ref, net_ref)):
            assert out.tobytes() == other_out.tobytes()
            assert asdict(net.stats) == asdict(other_net.stats)
            assert stats_snapshot(net) == stats_snapshot(other_net)
        rows = {
            (name, tuple(map(tuple, labels))): value
            for name, labels, kind, value in tel.metrics.snapshot()
            if name.startswith("exec.plan")
        }
        if state == "steady":
            assert rows == {("exec.plan_runs", ()): 1.0}
        else:
            assert rows == {
                ("exec.plan_fallbacks", (("reason", state),)): 1.0
            }


def demo_model():
    """The fault demo's CNN on an 8x8 field over a 3x3 grid."""
    model = Sequential([Conv2D(2, 3), ReLU(), Flatten(), Dense(2)])
    model.build((1, 8, 8), np.random.default_rng(0))
    graph = UnitGraph(model)
    topo = GridTopology(3, 3)
    return model, graph, topo, grid_correspondence_assignment(graph, topo)


def move(topo, node_id, dx, dy):
    x, y = topo.node(node_id).position
    topo.node(node_id).position = (x + dx, y + dy)


class TestTopologyEpoch:
    """A compiled plan holds only for the topology state it was
    compiled against: moving a node changes routes, so the next
    forward must recompile (or re-judge compilability)."""

    def test_compiled_matches_oracle_after_move(self):
        model, graph, topo, placement = demo_model()
        x = np.random.default_rng(1).normal(size=(4, 1, 8, 8))
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        ex.forward(x)
        move(topo, 4, 0.675, 0.675)
        net.reset_stats()
        ex.forward(x)
        assert ex._compiled_plan is not None
        compiled = stats_snapshot(net)
        net.reset_stats()
        ex.forward(x, plan=None)
        oracle = stats_snapshot(net)
        assert compiled == oracle
        assert oracle.total_hops == 896
        assert oracle.rx_values_of(5) == 224

    def test_unroutable_verdict_heals_after_move(self):
        model, graph, topo, placement = demo_model()
        x = np.random.default_rng(1).normal(size=(2, 1, 8, 8))
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        move(topo, 4, 10.0, 10.0)  # out of every neighbour's range
        ex.forward(x)
        assert ex._compiled_plan is None
        assert ex._plan_uncompilable == "unroutable"
        move(topo, 4, -10.0, -10.0)  # back on the grid
        net.reset_stats()
        ex.forward(x)
        assert ex._compiled_plan is not None
        compiled = stats_snapshot(net)
        net.reset_stats()
        ex.forward(x, plan=None)
        assert compiled == stats_snapshot(net)


@pytest.mark.perf
class TestCompiledProperties:
    """Seeded fuzz over random topologies and placements: compilation
    either round-trips the oracle exactly or refuses with the typed
    error — never silently wrong — and the hop program conserves the
    transfer multiset the network accounts."""

    def _random_case(self, rng):
        model = Sequential([
            Conv2D(int(rng.integers(1, 3)), 3), ReLU(), MaxPool2D(2),
            Flatten(), Dense(int(rng.integers(4, 10))), ReLU(), Dense(2),
        ])
        model.build(
            (1, 8, 8), np.random.default_rng(int(rng.integers(1e6)))
        )
        graph = UnitGraph(model)
        # Random radio range: 1.5 reaches the 8-neighbourhood, 1.0
        # only the 4-neighbourhood, 0.8 disconnects the mesh entirely
        # (every cross-node transfer unroutable).
        comm_range = float(rng.choice([0.8, 1.0, 1.5]))
        topo = GridTopology(int(rng.integers(3, 6)),
                            int(rng.integers(3, 6)),
                            comm_range=comm_range)
        if rng.random() < 0.25:  # occasional pre-existing brownout
            victims = rng.choice(sorted(topo.nodes),
                                 size=int(rng.integers(1, 3)),
                                 replace=False)
            for victim in victims:
                topo.node(int(victim)).alive = False
        strategies = [
            grid_correspondence_assignment,
            lambda g, t: centralized_assignment(g, t),
            round_robin_assignment,
            lambda g, t: random_assignment(
                g, t, np.random.default_rng(int(rng.integers(1e6)))
            ),
        ]
        strategy = strategies[int(rng.integers(len(strategies)))]
        return model, graph, topo, strategy(graph, topo)

    @pytest.mark.parametrize("trial", range(12))
    def test_compile_round_trips_or_raises_typed(self, trial):
        rng = np.random.default_rng(7000 + trial)
        model, graph, topo, placement = self._random_case(rng)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        batch = int(rng.integers(1, 9))
        x = rng.normal(size=(batch, 1, 8, 8))
        try:
            plan = compile_plan(ex)
        except PlanNotCompilable as err:
            assert err.reason in {
                "lossy-links", "link-faults", "node-down", "unroutable",
            }
            # auto still serves the forward via the oracle.
            out = ex.forward(x)
            assert ex._compiled_plan is None
            auto_stats = stats_snapshot(net)
            net_ref = Network(topo)
            ref = DistributedExecutor(
                model, graph, placement, net_ref
            ).forward(x, plan=None)
            assert out.tobytes() == ref.tobytes()
            assert auto_stats == stats_snapshot(net_ref)
            return
        plan.run(batch)
        out = ex.forward(x, count_traffic=False)
        plan_stats = stats_snapshot(net)
        net_ref = Network(topo)
        ref = DistributedExecutor(
            model, graph, placement, net_ref
        ).forward(x, plan=None)
        assert out.tobytes() == ref.tobytes()
        assert plan_stats == stats_snapshot(net_ref)

    @pytest.mark.parametrize("trial", range(8))
    def test_hop_program_conserves_transfer_multiset(self, trial):
        """The compiled tallies are exactly the per-hop multiset of the
        aggregated transfer list: per-link, per-node, and in total —
        and they reconcile with the Network counters they produce."""
        rng = np.random.default_rng(8000 + trial)
        model, graph, topo, placement = self._random_case(rng)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        try:
            plan = compile_plan(ex)
        except PlanNotCompilable:
            return
        hops = plan.hops

        # Independent reconstruction from the transfer list + routes.
        from repro.wsn.routing import shortest_path_route
        link_packets = Counter()
        link_values = Counter()
        sent = 0
        for (layer, src, dst, n_values), mult in ex.index.groups:
            route = shortest_path_route(topo, src, dst)
            assert route is not None
            sent += mult
            for a, b in zip(route, route[1:]):
                link_packets[(a, b)] += mult
                link_values[(a, b)] += mult * n_values
        got_packets = {link: p for link, (p, __) in hops.links.items()}
        got_values = {link: v for link, (__, v) in hops.links.items()}
        assert got_packets == dict(link_packets)
        assert got_values == dict(link_values)
        assert hops.sent == sent
        assert hops.hops == sum(link_packets.values())
        # Node tallies are the per-link tallies folded by endpoint.
        tx = Counter()
        rx = Counter()
        for (a, b), v in link_values.items():
            tx[a] += v
            rx[b] += v
        assert hops.total_values() == sum(link_values.values())

        # And the accounting the program drives reproduces itself in
        # the network counters, scaled by the batch.
        batch = int(rng.integers(1, 6))
        net.reset_stats()
        net.account_compiled(hops, copies=batch)
        assert net.stats.sent == sent * batch
        assert net.stats.total_hops == sum(link_packets.values()) * batch
        assert dict(net.stats.per_node_rx_values) == {
            n: v * batch for n, v in rx.items()
        }
        assert dict(net.stats.per_node_tx_values) == {
            n: v * batch for n, v in tx.items()
        }
