"""The flat ndarray program a compiled plan executes.

A :class:`CompiledPlan` holds a :class:`HopProgram` — every directed
link's per-inference packet and value tallies, already aggregated over
all transfer groups and route hops, which
:meth:`repro.wsn.Network.account_compiled` applies as one batched
accounting update.  The plan carries traffic only: the arithmetic is
the executor's one layer loop,
:meth:`repro.core.DistributedExecutor.forward_hooked`, on every path.

This module must never import :mod:`repro.sim` (lint-enforced): the
compiled hot path owes its speed to never entering the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HopProgram:
    """One inference's traffic, aggregated per directed link and node.

    All arrays are per *single* inference; the accounting hook scales
    them by the batch size (exact integer arithmetic, so the resulting
    counters equal the event-driven replay's to the last value).

    Attributes:
        link_src / link_dst / link_packets / link_values: one entry
            per directed link carrying traffic (first-use order).
        tx_nodes / tx_packets / tx_values: per transmitting node.
        rx_nodes / rx_packets / rx_values: per receiving node.
        sent: application messages per inference (each is delivered —
            plans only compile on ideal links).
        hops: packet-hops per inference.
        n_transfer_groups: aggregated ``(layer, src, dst, n_values)``
            groups the program was folded from.
    """

    link_src: np.ndarray
    link_dst: np.ndarray
    link_packets: np.ndarray
    link_values: np.ndarray
    tx_nodes: np.ndarray
    tx_packets: np.ndarray
    tx_values: np.ndarray
    rx_nodes: np.ndarray
    rx_packets: np.ndarray
    rx_values: np.ndarray
    sent: int
    hops: int
    n_transfer_groups: int

    @property
    def n_links(self) -> int:
        return int(self.link_src.shape[0])

    def total_values(self) -> int:
        """Values received network-wide per inference (conservation
        pin: equals the sum of the per-node rx tallies and the sum of
        the per-link tallies)."""
        return int(self.link_values.sum())


class CompiledPlan:
    """A placement + network schedule compiled to straight-line code.

    Built by :func:`repro.core.compiled.compile_plan`; executed by
    :meth:`run` without consulting routing, the simulator, or any
    per-transfer Python loop.  The plan is only sound under the
    conditions it was compiled for — ideal links, every node alive —
    which :meth:`repro.core.DistributedExecutor.account_traffic`
    re-checks before each use (falling back to the event-driven oracle
    otherwise).

    Args:
        network: the network whose counters the plan advances.
        hops: the aggregated traffic program.
    """

    def __init__(self, network, hops: HopProgram) -> None:
        self.network = network
        self.hops = hops

    def run(self, copies: int) -> None:
        """Account ``copies`` inferences' traffic in one bulk update —
        every counter ends up where the event-driven replay would put
        it."""
        self.network.account_compiled(self.hops, copies=copies)
