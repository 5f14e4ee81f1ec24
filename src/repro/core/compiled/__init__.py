"""Compiled inference plans: the steady-state fast path.

In steady state (no faults, no lossy links, every node up) the
per-layer communication pattern of a placed CNN is fully static, so
nothing about a forward pass's traffic needs to be decided at run
time: the routes and the per-link traffic are functions of the
placement and the topology alone.  This package "compiles" that
structure once into a per-link program — one inference's traffic
ledger delta (the ``traffic_replay_batched`` trick generalized to the
whole forward) — which :meth:`CompiledPlan.run` adds to the network's
ledger in one pass, without touching the event loop.  Routes come
from the network's own router, so the plan and the event-driven path
can never disagree on a path.  The arithmetic is
not part of a plan: every path runs the executor's one layer loop.

The event-driven replay of :class:`repro.core.DistributedExecutor`
stays as the parity oracle (the differential suite pins exactly equal
traffic counters), and
:meth:`~repro.core.DistributedExecutor.account_traffic` falls back to
it automatically the moment a lossy link model, link-fault model, or
active brownout makes the static schedule unsound.

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
