"""Planner pass: placement + network schedule -> per-link program.

:func:`compile_plan` folds the placement index's transfer groups
through the network's own router — the one the event-driven path
uses — into per-link integer tallies.  Compilation either round-trips
the event-driven semantics exactly or raises the typed
:class:`PlanNotCompilable` — never a silently-wrong plan.

This module must never import :mod:`repro.sim` (lint-enforced).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.compiled.plan import CompiledPlan, HopProgram


class PlanNotCompilable(RuntimeError):
    """The placement/network cannot be compiled to a static plan.

    Attributes:
        reason: machine-readable cause — one of ``"lossy-links"``,
            ``"link-faults"``, ``"node-down"``, ``"unroutable"``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        message = f"plan not compilable ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


def plan_blocked(executor) -> Optional[Tuple[str, str]]:
    """Why a compiled plan cannot (currently) serve this executor, as
    ``(reason, detail)`` — or None when the steady state holds.  The
    executor runs this cheap check before every planned traffic
    update, so a lossy link model, link-fault model, or active
    brownout routes the call back to the event-driven oracle the
    moment it appears."""
    network = executor.network
    if network.loss_probability > 0.0:
        return (
            "lossy-links",
            f"loss_probability={network.loss_probability} draws "
            "per-message randomness",
        )
    if network.link_faults is not None:
        return ("link-faults", "a LinkFaultModel is installed")
    down = [n.node_id for n in network.topology if not n.alive]
    if down:
        return ("node-down", f"nodes down: {down}")
    return None


def _build_hop_program(executor) -> HopProgram:
    """Fold the transfer groups through the routes into one integer
    tally per directed link — the whole forward's traffic as one
    ledger delta."""
    network = executor.network
    link_acc: Dict[Tuple[int, int], List[int]] = {}
    sent = 0
    hops = 0
    groups = executor.index.groups
    for (layer_index, src, dst, n_values), multiplicity in groups:
        route = network.router(network.topology, src, dst)
        if route is None:
            raise PlanNotCompilable(
                "unroutable",
                f"layer {layer_index} transfer {src}->{dst} has no route",
            )
        sent += multiplicity
        values = multiplicity * n_values
        for hop_src, hop_dst in zip(route, route[1:]):
            hops += multiplicity
            link = link_acc.setdefault((hop_src, hop_dst), [0, 0])
            link[0] += multiplicity
            link[1] += values
    return HopProgram(
        links={link: tuple(tally) for link, tally in link_acc.items()},
        sent=sent,
        hops=hops,
        n_transfer_groups=len(groups),
    )


def compile_plan(executor) -> CompiledPlan:
    """Compile a :class:`repro.core.DistributedExecutor`'s placement +
    network schedule into a :class:`CompiledPlan`.

    Raises:
        PlanNotCompilable: when the executor is not in the static
            steady state (lossy links, an installed link-fault model,
            a node down) or any transfer is unroutable.  The caller
            falls back to the event-driven path in that case —
            compilation is never silently wrong.
    """
    blocked = plan_blocked(executor)
    if blocked is not None:
        raise PlanNotCompilable(*blocked)
    return CompiledPlan(
        network=executor.network, hops=_build_hop_program(executor)
    )
