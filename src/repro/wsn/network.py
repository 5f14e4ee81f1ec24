"""Network layer with a per-link traffic ledger.

MicroDeep's communication cost is "the number of unit-output values a
sensor node receives per inference" (Fig. 10's y-axis).  This layer
counts both packets and values at every hop so the distributed
executor's measured costs can be checked against the static cost model
(a property the test suite enforces).

Every hop is tallied in one place, the network's ledger
:attr:`TrafficStats.links` — ``(src, dst) -> [packets, values]`` per
directed link — through two choke points: :meth:`Network._account_hop`
for the message paths, and :meth:`Network.account_compiled`, which adds
a compiled plan's per-link tallies in bulk.  Per-node values are folds
of the ledger, so they cannot drift from it.  Drops are attributed to
a cause (``fault`` / ``loss`` / ``unroutable``).  When a telemetry
session is installed (:mod:`repro.obs`), the network registers a pull
collector that mirrors its stats into the metrics registry with zero
hot-path overhead, and :meth:`telemetry_drift` reconciles the registry
with the stats (the chaos suite runs it under lossy ``unicast_bulk``
fallback).
"""

from __future__ import annotations

import operator
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


def _count(name: str, value) -> int:
    """``value`` as a non-negative ``int`` (numpy ints pass); anything
    else raises a :class:`ValueError` naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    return count


def _nonzero(keys: list, amounts: np.ndarray) -> Tuple[list, np.ndarray]:
    """The entries of a family update whose amount is nonzero."""
    if np.count_nonzero(amounts) == len(keys):
        return keys, amounts
    keep = amounts != 0
    return [k for k, kept in zip(keys, keep.tolist()) if kept], amounts[keep]


@dataclass
class Message:
    """A unicast application message (``n_values`` checked on construction)."""

    src: int
    dst: int
    n_values: int  # number of scalar values carried (MicroDeep's unit)
    kind: str = "data"

    def __post_init__(self) -> None:
        self.n_values = _count("n_values", self.n_values)


@dataclass
class TrafficStats:
    """Aggregated traffic counters for one run."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    corrupted: int = 0
    duplicated: int = 0
    total_hops: int = 0
    #: The traffic ledger: ``(src, dst) -> [packets, values]`` carried
    #: over each directed link, in first-use order.
    links: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    #: Drops attributed to why they happened: ``"fault"`` (injected
    #: link fault), ``"loss"`` (random loss after retries), or
    #: ``"unroutable"`` (no route).  Sums to :attr:`dropped`.
    dropped_causes: Dict[str, int] = field(default_factory=dict)

    def _fold(self, end: int) -> Dict[int, int]:
        """Values per node, the ledger summed over link endpoint
        ``end`` (0 sender, 1 receiver); a node's first-use order is
        that of its first link."""
        per_node: Dict[int, int] = {}
        for link, (__, values) in self.links.items():
            node = link[end]
            per_node[node] = per_node.get(node, 0) + values
        return per_node

    @property
    def per_node_rx_values(self) -> Dict[int, int]:
        """Values each node received, in first-reception order."""
        return self._fold(1)

    @property
    def per_node_tx_values(self) -> Dict[int, int]:
        """Values each node transmitted, in first-transmission order."""
        return self._fold(0)

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
        self.max_retries = _count("max_retries", max_retries)
        self._rng = rng
        self.link_faults = link_faults
        self.stats = TrafficStats()
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry
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
        self.stats = TrafficStats()

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
        """The one place a message hop is tallied: its directed link's
        ledger cell and the hop total."""
        stats = self.stats
        key = (hop_src, hop_dst)
        cell = stats.links.get(key)
        if cell is None:
            stats.links[key] = [n_packets, n_values]
        else:
            cell[0] += n_packets
            cell[1] += n_values
        stats.total_hops += n_packets

    def _drop(self, cause: str, count: int = 1) -> None:
        """Account ``count`` dropped messages attributed to ``cause``."""
        stats = self.stats
        stats.dropped += count
        stats.dropped_causes[cause] = (
            stats.dropped_causes.get(cause, 0) + count
        )

    def unicast(self, message: Message) -> bool:
        """Route a message hop by hop; returns delivery success.

        Every hop adds to its link's ledger cell, so a relay's
        transmitted and received values both grow with forwarded
        traffic — the effect MicroDeep's assignment is designed to
        balance.
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
        route is resolved **once** and each of its links' ledger cells
        — and the sent/delivered/hop totals — advance by the same
        amounts the per-message loop would produce (counter-exact
        scaled accounting), so traffic stats stay byte-identical while
        the Python cost drops from ``O(copies x hops)`` to ``O(hops)``.

        Lossy or fault-injected links draw per-message randomness, so
        aggregation would change the RNG stream; in that case this
        falls back to the per-message loop, preserving exact behaviour.
        ``copies`` must be a non-negative integer.
        """
        copies = _count("copies", copies)
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
        link; this adds ``copies`` inferences' worth to the ledger in
        one pass over its links — the ``unicast_bulk`` counter-exact
        scaling generalized to the whole forward.  The stats end up
        exactly where replaying the transfer list through
        :meth:`unicast_bulk` would put them (the compiled parity suite
        pins this), while the Python cost drops from
        ``O(transfer groups x hops)`` route walks to ``O(links)``.

        Plans are only compiled for ideal links, so unlike
        :meth:`unicast_bulk` there is no lossy fallback here — calling
        this on a lossy or fault-injected network is a programming
        error and raises.  ``copies`` must be a non-negative integer.
        """
        copies = _count("copies", copies)
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
        links = stats.links
        for key, (packets, values) in program.links.items():
            cell = links.get(key)
            if cell is None:
                links[key] = [packets * copies, values * copies]
            else:
                cell[0] += packets * copies
                cell[1] += values * copies
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
        for name, per_node in (
            ("net.rx_values", stats.per_node_rx_values),
            ("net.tx_values", stats.per_node_tx_values),
        ):
            self._push_family(
                registry, name, [(k,) for k in per_node], per_node.values()
            )
        self._push_family(
            registry, "net.link_values", list(stats.links),
            (values for __, values in stats.links.values()),
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
        """Reconciliation assertion: check the stats' own identities
        and (when a session is installed and this network is its only
        traffic source) that the metrics registry mirrors the stats —
        every scalar, per-node value and ``net.link_values`` member —
        and describe every mismatch.  Returns ``[]`` when all agree,
        which the chaos suite asserts under lossy ``unicast_bulk``
        fallback."""
        problems: List[str] = []
        stats = self.stats
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
            for name, per_node in (
                ("net.rx_values", stats.per_node_rx_values),
                ("net.tx_values", stats.per_node_tx_values),
            ):
                for node, want in per_node.items():
                    have = registry.value(name, node=node)
                    if have != want:
                        problems.append(
                            f"registry {name} node {node}: {have} != "
                            f"stats {want}"
                        )
            members = {
                (labels["src"], labels["dst"]): counter.value
                for name, labels, counter in registry.series()
                if name == "net.link_values" and counter.value
            }
            ledger = {
                link: values
                for link, (__, values) in stats.links.items() if values
            }
            for link in sorted(members.keys() | ledger.keys()):
                have, want = members.get(link, 0.0), ledger.get(link, 0)
                if have != want:
                    problems.append(
                        f"registry net.link_values {link[0]}->{link[1]}: "
                        f"{have} != ledger {want}"
                    )
        return problems
