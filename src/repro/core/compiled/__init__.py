"""Compiled inference plans: the steady-state fast path.

In steady state (no faults, no lossy links, every node up) the
per-layer communication pattern of a placed CNN is fully static, so
nothing about a forward pass needs to be decided at run time: the
routes and the per-link traffic are functions of the placement and
the topology alone.  This package "compiles" that structure once into
a flat ndarray program — hop groups with one batched
traffic-accounting update each (the ``traffic_replay_batched`` trick
generalized to the whole forward) — which :meth:`CompiledPlan.run`
then executes without touching the event loop.  Routes come from the
network's own router, so the plan and the event-driven path can
never disagree on a path.

The event-driven :class:`repro.core.DistributedExecutor` path stays
as the parity oracle (the differential suite pins byte-identical
logits and exactly equal traffic counters), and the executor falls
back to it automatically the moment a fault adapter, lossy link
model, or active brownout makes the static schedule unsound.

Import discipline: nothing in this package may import
:mod:`repro.sim` — the whole point of a compiled plan is that the
hot path can never regress into the event loop — nor ``networkx``
(routing belongs to the network's router).  AST lints in the test
suite enforce both.
"""

from repro.core.compiled.plan import CompiledPlan, HopProgram
from repro.core.compiled.compiler import PlanNotCompilable, compile_plan

__all__ = [
    "CompiledPlan",
    "HopProgram",
    "PlanNotCompilable",
    "compile_plan",
]
