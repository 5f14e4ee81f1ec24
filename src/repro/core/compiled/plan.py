"""The per-link program a compiled plan executes.

A :class:`CompiledPlan` holds a :class:`HopProgram` — every directed
link's per-inference packet and value tallies, already aggregated over
all transfer groups and route hops, which
:meth:`repro.wsn.Network.account_compiled` adds to the network's
traffic ledger in one pass.  The plan carries traffic only: the
arithmetic is the executor's one layer loop,
:meth:`repro.core.DistributedExecutor.forward_hooked`, on every path.

This module must never import :mod:`repro.sim` (lint-enforced): the
compiled hot path owes its speed to never entering the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class HopProgram:
    """One inference's traffic, aggregated per directed link — the
    per-inference delta of the network's traffic ledger.

    All tallies are per *single* inference; the accounting hook scales
    them by the batch size (exact integer arithmetic, so the resulting
    ledger equals the event-driven replay's to the last value).

    Attributes:
        links: ``(src, dst) -> (packets, values)`` per directed link
            carrying traffic, in first-use order (read-only).
        sent: application messages per inference (each is delivered —
            plans only compile on ideal links).
        hops: packet-hops per inference.
        n_transfer_groups: aggregated ``(layer, src, dst, n_values)``
            groups the program was folded from.
    """

    links: Dict[Tuple[int, int], Tuple[int, int]]
    sent: int
    hops: int
    n_transfer_groups: int

    @property
    def n_links(self) -> int:
        return len(self.links)

    def total_values(self) -> int:
        """Values received network-wide per inference (the sum of the
        per-link tallies)."""
        return sum(values for __, values in self.links.values())


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
        network: the network whose ledger the plan advances.
        hops: the aggregated traffic program.
    """

    def __init__(self, network, hops: HopProgram) -> None:
        self.network = network
        self.hops = hops

    def run(self, copies: int) -> None:
        """Account ``copies`` inferences' traffic in one bulk update —
        the network's stats end up where the event-driven replay would
        put them."""
        self.network.account_compiled(self.hops, copies=copies)
