"""Network layer with per-node traffic accounting.

MicroDeep's communication cost is "the number of unit-output values a
sensor node receives per inference" (Fig. 10's y-axis).  This layer
counts both packets and values at every hop so the distributed
executor's measured costs can be checked against the static cost model
(a property the test suite enforces).

All per-hop tallies — node counters, aggregate stats, per-link values
— advance through two choke points: :meth:`Network._account_hop` for
the message paths, and :meth:`Network.account_compiled`, which applies
a compiled plan's pre-aggregated tallies to the same counters in bulk.
Drops are attributed to a cause (``fault`` / ``loss`` /
``unroutable``).  When a telemetry session is installed
(:mod:`repro.obs`), the network registers a pull collector that mirrors
its counters into the metrics registry with zero hot-path overhead,
and :meth:`telemetry_drift` re-derives every tally three ways as a
reconciliation assertion (the chaos suite runs it under lossy
``unicast_bulk`` fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.wsn.routing import shortest_path_route
from repro.wsn.topology import Topology


#: Label names of the per-node and per-link traffic families, in the
#: order of their member keys.
_FAMILY_LABELS = {
    "net.rx_values": ("node",),
    "net.tx_values": ("node",),
    "net.link_values": ("src", "dst"),
}


def _nonzero(keys: list, amounts: np.ndarray) -> Tuple[list, np.ndarray]:
    """The entries of a family update whose amount is nonzero."""
    if np.count_nonzero(amounts) == len(keys):
        return keys, amounts
    keep = amounts != 0
    return [k for k, kept in zip(keys, keep.tolist()) if kept], amounts[keep]


@dataclass
class Message:
    """A unicast application message."""

    src: int
    dst: int
    n_values: int  # number of scalar values carried (MicroDeep's unit)
    kind: str = "data"


@dataclass
class TrafficStats:
    """Aggregated traffic counters for one run."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    corrupted: int = 0
    duplicated: int = 0
    total_hops: int = 0
    per_node_rx_values: Dict[int, int] = field(default_factory=dict)
    per_node_tx_values: Dict[int, int] = field(default_factory=dict)
    #: Drops attributed to why they happened: ``"fault"`` (injected
    #: link fault), ``"loss"`` (random loss after retries), or
    #: ``"unroutable"`` (no route).  Sums to :attr:`dropped`.
    dropped_causes: Dict[str, int] = field(default_factory=dict)

    def max_rx_values(self) -> int:
        """Peak per-node received values — the paper's 'maximal
        communication cost of the sensor nodes'."""
        return max(self.per_node_rx_values.values(), default=0)

    def rx_values_of(self, node_id: int) -> int:
        return self.per_node_rx_values.get(node_id, 0)


class Network:
    """Multi-hop unicast over a topology with optional loss.

    Args:
        topology: node placement / connectivity.
        loss_probability: per-hop drop probability (0 = ideal links);
            retransmissions are modelled by ``max_retries``.
        rng: randomness source for losses; required when lossy.
        link_faults: optional fault model (see
            :class:`repro.faults.LinkFaultModel`) consulted once per
            hop; it may drop the hop, corrupt the message (airtime is
            paid but delivery fails), or duplicate it (the receiving
            side of the hop pays twice).
        telemetry: explicit :class:`repro.obs.Telemetry` override; by
            default the currently installed session (the null backend
            when none) is resolved lazily.
        router: route resolver ``(topology, src, dst) -> path | None``;
            defaults to the memoized
            :func:`~repro.wsn.routing.shortest_path_route`.  The perf
            suite passes ``shortest_path_route_reference`` here to
            drive an identically-accounted network over the brute-force
            path for parity/speedup comparison.
    """

    def __init__(
        self,
        topology: Topology,
        loss_probability: float = 0.0,
        max_retries: int = 3,
        rng: Optional[np.random.Generator] = None,
        link_faults=None,
        telemetry=None,
        router=None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        if loss_probability > 0.0 and rng is None:
            raise ValueError("rng is required when links are lossy")
        self.topology = topology
        self.router = shortest_path_route if router is None else router
        self.loss_probability = loss_probability
        self.max_retries = max_retries
        self._rng = rng
        self.link_faults = link_faults
        self.stats = TrafficStats()
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry
        #: (src, dst) -> values carried over that link; tracked only
        #: while telemetry is enabled (per-link series in the trace).
        self._link_values: Optional[Dict[Tuple[int, int], int]] = (
            {} if telemetry.enabled else None
        )
        #: Metric values this network has pushed into the registry so
        #: far; the collector pushes deltas, making repeated collects
        #: idempotent and :meth:`reset_stats` retractable.  Scalars and
        #: drop causes by series key; the per-node and per-link
        #: families as ``name -> (keys, values)`` arrays.
        self._pushed: Dict[tuple, float] = {}
        self._pushed_families: Dict[str, Tuple[list, np.ndarray]] = {}
        #: the registry generation the pushed values live in.
        self._pushed_generation = 0
        if telemetry.enabled:
            telemetry.metrics.register_collector(self._sync_metrics)

    def reset_stats(self) -> None:
        tel = self._telemetry
        if tel.enabled:
            # Retract this network's contribution so the registry keeps
            # mirroring the (now reset) stats exactly.
            self._forget_cleared_pushes(tel.metrics)
            for key, value in self._pushed.items():
                name = key[0]
                labels = dict(key[1:])
                tel.metrics.counter(name, **labels).value -= value
            for name, (keys, values) in self._pushed_families.items():
                tel.metrics.counter_family(
                    name, _FAMILY_LABELS[name]
                ).retract(*_nonzero(keys, values))
        self._pushed = {}
        self._pushed_families = {}
        if self._link_values is not None:
            self._link_values = {}
        self.stats = TrafficStats()
        for node in self.topology:
            node.reset_counters()

    def _hop_succeeds(self) -> bool:
        if self.loss_probability == 0.0:
            return True
        for __ in range(self.max_retries + 1):
            if self._rng.random() >= self.loss_probability:
                return True
        return False

    # -- accounting choke points --------------------------------------------
    def _account_hop(
        self, hop_src: int, hop_dst: int, n_packets: int, n_values: int
    ) -> None:
        """The single place per-hop traffic is tallied: node counters,
        aggregate stats, and per-link telemetry advance together here,
        so the three views cannot drift."""
        src_node = self.topology.node(hop_src)
        dst_node = self.topology.node(hop_dst)
        src_node.tx_count += n_packets
        src_node.tx_values += n_values
        dst_node.rx_count += n_packets
        dst_node.rx_values += n_values
        stats = self.stats
        stats.per_node_tx_values[hop_src] = (
            stats.per_node_tx_values.get(hop_src, 0) + n_values
        )
        stats.per_node_rx_values[hop_dst] = (
            stats.per_node_rx_values.get(hop_dst, 0) + n_values
        )
        stats.total_hops += n_packets
        link_track = self._link_values
        if link_track is not None:
            key = (hop_src, hop_dst)
            link_track[key] = link_track.get(key, 0) + n_values

    def _drop(self, cause: str, count: int = 1) -> None:
        """Account ``count`` dropped messages attributed to ``cause``."""
        stats = self.stats
        stats.dropped += count
        stats.dropped_causes[cause] = (
            stats.dropped_causes.get(cause, 0) + count
        )

    def unicast(self, message: Message) -> bool:
        """Route a message hop by hop; returns delivery success.

        Counters: every transmitting node's ``tx_*`` and every
        receiving node's ``rx_*`` increase at each hop, so relays pay
        for forwarded traffic — the effect MicroDeep's assignment is
        designed to balance.
        """
        self.stats.sent += 1
        route = self.router(self.topology, message.src, message.dst)
        if route is None:
            # Covers no-path *and* dead/unknown endpoints (including a
            # self-send addressed to a dead node) — see the routing
            # contract in :func:`~repro.wsn.routing.shortest_path_route`.
            self._drop("unroutable")
            return False
        corrupted = False
        for hop_src, hop_dst in zip(route, route[1:]):
            verdict = "deliver"
            if self.link_faults is not None:
                verdict = self.link_faults.hop_verdict(
                    hop_src, hop_dst, message.kind
                )
            if verdict == "drop":
                self._drop("fault")
                return False
            if not self._hop_succeeds():
                self._drop("loss")
                return False
            repeats = 2 if verdict == "duplicate" else 1
            if verdict == "duplicate":
                self.stats.duplicated += 1
            if verdict == "corrupt":
                corrupted = True
            self._account_hop(
                hop_src, hop_dst, repeats, repeats * message.n_values
            )
        if corrupted:
            # Airtime was paid on every hop, but the payload fails its
            # integrity check at the destination.
            self.stats.corrupted += 1
            return False
        self.stats.delivered += 1
        return True

    def unicast_bulk(self, message: Message, copies: int) -> int:
        """Send ``copies`` identical messages; returns deliveries.

        On ideal links (no loss, no fault model) this is the vectorized
        equivalent of calling :meth:`unicast` ``copies`` times: the
        route is resolved **once** and every counter — packet counts,
        per-node tx/rx values, hop totals, per-link telemetry — is
        advanced by the same amounts the per-message loop would
        produce (counter-exact scaled accounting), so traffic stats
        stay byte-identical while the Python cost drops from
        ``O(copies x hops)`` to ``O(hops)``.

        Lossy or fault-injected links draw per-message randomness, so
        aggregation would change the RNG stream; in that case this
        falls back to the per-message loop, preserving exact behaviour.
        """
        if copies < 0:
            raise ValueError(f"copies must be non-negative, got {copies}")
        if copies == 0:
            return 0
        if self.loss_probability > 0.0 or self.link_faults is not None:
            return sum(self.unicast(message) for __ in range(copies))
        self.stats.sent += copies
        route = self.router(self.topology, message.src, message.dst)
        if route is None:
            self._drop("unroutable", copies)
            return 0
        values = message.n_values * copies
        for hop_src, hop_dst in zip(route, route[1:]):
            self._account_hop(hop_src, hop_dst, copies, values)
        self.stats.delivered += copies
        return copies

    def account_compiled(self, program, copies: int) -> int:
        """Bulk accounting hook for compiled inference plans.

        ``program`` is a :class:`repro.core.compiled.HopProgram`
        holding one inference's traffic pre-aggregated per directed
        link and per node; this applies ``copies`` inferences' worth
        in one batched update per tally — the ``unicast_bulk``
        counter-exact scaling generalized to the whole forward.  Every
        counter ends up exactly where replaying the transfer list
        through :meth:`unicast_bulk` would put it (the compiled parity
        suite pins this), while the Python cost drops from
        ``O(transfer groups x hops)`` route walks to ``O(nodes)``.

        Plans are only compiled for ideal links, so unlike
        :meth:`unicast_bulk` there is no lossy fallback here — calling
        this on a lossy or fault-injected network is a programming
        error and raises.
        """
        if copies < 0:
            raise ValueError(f"copies must be non-negative, got {copies}")
        if copies == 0:
            return 0
        if self.loss_probability > 0.0 or self.link_faults is not None:
            raise RuntimeError(
                "compiled accounting requires ideal links; lossy or "
                "fault-injected networks must replay per message"
            )
        stats = self.stats
        delivered = program.sent * copies
        stats.sent += delivered
        stats.delivered += delivered
        stats.total_hops += program.hops * copies
        for node_id, packets, values in zip(
            program.tx_nodes.tolist(),
            program.tx_packets.tolist(),
            program.tx_values.tolist(),
        ):
            node = self.topology.node(node_id)
            node.tx_count += packets * copies
            node.tx_values += values * copies
            stats.per_node_tx_values[node_id] = (
                stats.per_node_tx_values.get(node_id, 0) + values * copies
            )
        for node_id, packets, values in zip(
            program.rx_nodes.tolist(),
            program.rx_packets.tolist(),
            program.rx_values.tolist(),
        ):
            node = self.topology.node(node_id)
            node.rx_count += packets * copies
            node.rx_values += values * copies
            stats.per_node_rx_values[node_id] = (
                stats.per_node_rx_values.get(node_id, 0) + values * copies
            )
        link_track = self._link_values
        if link_track is not None:
            for src, dst, values in zip(
                program.link_src.tolist(),
                program.link_dst.tolist(),
                program.link_values.tolist(),
            ):
                key = (src, dst)
                link_track[key] = link_track.get(key, 0) + values * copies
        return delivered

    def broadcast_from(self, src: int, n_values: int) -> int:
        """Deliver to every alive node (via unicast routes); returns
        the number of nodes reached."""
        reached = 0
        for node in self.topology.alive_nodes():
            if node.node_id == src:
                continue
            if self.unicast(Message(src, node.node_id, n_values, kind="bcast")):
                reached += 1
        return reached

    # -- telemetry ----------------------------------------------------------
    def _sync_metrics(self, registry) -> None:
        """Pull collector: mirror the traffic stats into the metrics
        registry by pushing deltas since the previous collect.  The
        registry ends up holding exactly what the stats hold (summed
        across networks sharing the session), with zero per-packet
        overhead on the send paths."""
        self._forget_cleared_pushes(registry)
        stats = self.stats
        pushed = self._pushed

        def push(name: str, values) -> None:
            # ``values`` yields (sorted (label, value) pairs, stat);
            # reset_stats unpacks the (name, *pairs) ``_pushed`` keys.
            increments = []
            for labels, value in values:
                key = (name,) + labels
                delta = value - pushed.get(key, 0.0)
                if delta:
                    increments.append((labels, delta))
                    pushed[key] = float(value)
            if increments:
                registry.inc_counters(name, increments)

        push("net.sent", [((), stats.sent)])
        push("net.delivered", [((), stats.delivered)])
        push("net.dropped", [((), stats.dropped)])
        push("net.corrupted", [((), stats.corrupted)])
        push("net.duplicated", [((), stats.duplicated)])
        push("net.hops", [((), stats.total_hops)])
        push("net.dropped_causes", [
            ((("cause", k),), v) for k, v in stats.dropped_causes.items()
        ])
        self._push_family(
            registry, "net.rx_values",
            [(k,) for k in stats.per_node_rx_values],
            stats.per_node_rx_values.values(),
        )
        self._push_family(
            registry, "net.tx_values",
            [(k,) for k in stats.per_node_tx_values],
            stats.per_node_tx_values.values(),
        )
        if self._link_values:
            self._push_family(
                registry, "net.link_values", list(self._link_values),
                self._link_values.values(),
            )

    def _forget_cleared_pushes(self, registry) -> None:
        """A cleared registry holds none of this network's earlier
        pushes: forget them, so the next collect republishes the full
        totals and a reset retracts nothing."""
        if self._pushed_generation != registry.generation:
            self._pushed = {}
            self._pushed_families = {}
            self._pushed_generation = registry.generation

    def _push_family(self, registry, name: str, keys: list, values) -> None:
        """Push one per-node or per-link table as a single family update
        of its deltas since the last collect.  The tables only grow
        between resets, so the keys pushed before are a prefix of
        ``keys``.  A member is created on its first nonzero delta, as
        a per-series push would."""
        values = np.fromiter(values, dtype=np.float64, count=len(keys))
        pushed = self._pushed_families.get(name)
        if pushed is None:
            delta = values
        else:
            delta = values.copy()
            delta[:len(pushed[1])] -= pushed[1]
        if not np.count_nonzero(delta):
            return
        self._pushed_families[name] = (keys, values)
        registry.counter_family(name, _FAMILY_LABELS[name]).inc(
            *_nonzero(keys, delta)
        )

    def telemetry_drift(self) -> List[str]:
        """Reconciliation assertion: re-derive every tally from its
        three sources — per-node counters on the nodes, the aggregate
        :class:`TrafficStats`, and (when a session is installed and
        this network is its only traffic source) the metrics registry
        — and describe every mismatch.  Returns ``[]`` when all views
        agree, which the chaos suite asserts under lossy
        ``unicast_bulk`` fallback."""
        problems: List[str] = []
        stats = self.stats
        for node in self.topology:
            for attr, per_node in (
                ("rx_values", stats.per_node_rx_values),
                ("tx_values", stats.per_node_tx_values),
            ):
                have = getattr(node, attr)
                want = per_node.get(node.node_id, 0)
                if have != want:
                    problems.append(
                        f"node {node.node_id} {attr}: counter {have} != "
                        f"stats {want}"
                    )
        if stats.sent != stats.delivered + stats.dropped + stats.corrupted:
            problems.append(
                f"outcomes do not partition sends: sent {stats.sent} != "
                f"delivered {stats.delivered} + dropped {stats.dropped} + "
                f"corrupted {stats.corrupted}"
            )
        if stats.dropped != sum(stats.dropped_causes.values()):
            problems.append(
                f"drop causes do not sum: dropped {stats.dropped} != "
                f"{stats.dropped_causes}"
            )
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.collect()
            registry = tel.metrics
            scalar_checks = (
                ("net.sent", stats.sent),
                ("net.delivered", stats.delivered),
                ("net.dropped", stats.dropped),
                ("net.corrupted", stats.corrupted),
                ("net.duplicated", stats.duplicated),
                ("net.hops", stats.total_hops),
            )
            for name, want in scalar_checks:
                have = registry.value(name)
                if have != want:
                    problems.append(
                        f"registry {name}: {have} != stats {want}"
                    )
            for node, want in stats.per_node_rx_values.items():
                have = registry.value("net.rx_values", node=node)
                if have != want:
                    problems.append(
                        f"registry net.rx_values node {node}: {have} != "
                        f"stats {want}"
                    )
            for node, want in stats.per_node_tx_values.items():
                have = registry.value("net.tx_values", node=node)
                if have != want:
                    problems.append(
                        f"registry net.tx_values node {node}: {have} != "
                        f"stats {want}"
                    )
            if self._link_values is not None:
                link_total = sum(self._link_values.values())
                rx_total = sum(stats.per_node_rx_values.values())
                if link_total != rx_total:
                    problems.append(
                        f"per-link values {link_total} != per-node rx "
                        f"total {rx_total}"
                    )
        return problems
