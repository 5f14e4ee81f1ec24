"""Distributed forward execution.

The executor runs the CNN's real arithmetic (distribution does not
change the math) while replaying the placement's cross-node transfers
over a :class:`repro.wsn.Network`, so per-node traffic is *measured*,
not just modelled.  It also supports node-failure masking: units
hosted on dead nodes produce zeros, the behaviour the resilience
experiment (E8) quantifies.

Hot paths are vectorized (see README "Performance"):

- the arithmetic is one layer loop, :meth:`forward_hooked`; the
  traffic half is decided once per call by :meth:`account_traffic`.
  In steady state (ideal links, every node up) that applies a
  **compiled plan** (:mod:`repro.core.compiled`): precomputed routes
  folded into one batched traffic-accounting update — no
  per-transfer Python, no route lookups, no event loop.  The
  event-driven replay below stays as the parity oracle and takes over
  the moment a lossy link model, link-fault model, or down node
  appears;
- the event-driven traffic replay sends each ``(layer, src, dst,
  n_values)`` transfer group through
  :meth:`repro.wsn.Network.unicast_bulk` once, instead of one Python
  ``unicast`` per transfer per batch element;
- failure masking zeroes each layer with one fancy-indexed assignment
  gathered from the :class:`~repro.core.placement_index.PlacementIndex`,
  instead of a Python loop over positions.

Every placement-derived fact (owners, per-node positions, the transfer
list and its groups) comes from the executor's one
:class:`~repro.core.placement_index.PlacementIndex`.  The
pre-optimization reference paths (:meth:`replay_traffic_reference`,
:meth:`forward_masked_reference`) stay callable so the parity tests
can prove the fast paths behavior-identical.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Set

import numpy as np

from repro.core.assignment import Placement
from repro.core.compiled import CompiledPlan, PlanNotCompilable, compile_plan
from repro.core.compiled.compiler import plan_blocked
from repro.core.costmodel import CommunicationCostModel
from repro.core.placement_index import INPUT, PlacementIndex
from repro.core.unitgraph import UnitGraph
from repro.nn.model import Sequential
from repro.wsn.network import Message, Network


class DistributedExecutor:
    """Executes a placed CNN over a sensor network.

    Args:
        model: built Sequential model.
        graph: its unit graph.
        placement: unit-to-node mapping.
        network: the WSN network layer carrying the messages.
        index: a prebuilt index of this ``(graph, placement)`` pair,
            shared with other executors over the same deployment (a
            fault scenario's cells); built here when omitted.
    """

    def __init__(
        self,
        model: Sequential,
        graph: UnitGraph,
        placement: Placement,
        network: Network,
        telemetry=None,
        index: Optional[PlacementIndex] = None,
    ) -> None:
        if graph.model is not model:
            raise ValueError("graph was not extracted from this model")
        if index is None:
            index = PlacementIndex(graph, placement)
        elif index.graph is not graph or index.placement is not placement:
            raise ValueError(
                "index was not built from this graph and placement"
            )
        self.model = model
        self.graph = graph
        self.placement = placement
        self.network = network
        #: The placement's owners, per-node positions, and transfers.
        self.index = index
        self._cost_model = CommunicationCostModel(graph, network.topology)
        #: Compilation outcome (a plan, or the reason there is none)
        #: for the topology state :attr:`_plan_epoch` names.
        self._compiled_plan: Optional[CompiledPlan] = None
        self._plan_uncompilable: Optional[str] = None
        self._plan_epoch: Optional[int] = None
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry

    def forward(
        self,
        x: np.ndarray,
        count_traffic: bool = True,
        plan: Optional[str] = "auto",
    ) -> np.ndarray:
        """Distributed forward pass: the traffic, then the arithmetic.

        When ``count_traffic`` is set, every cross-node transfer of one
        inference is accounted through the network layer **once per
        batch element** (each inference pays its own traffic).

        ``plan`` selects how that traffic is accounted:

        - ``"auto"`` (default): :meth:`account_traffic` — the compiled
          plan in steady state, the event-driven replay while a lossy
          link model, installed :class:`~repro.wsn.network.LinkFaultModel`,
          down node (brownout/crash) or unroutable transfer makes the
          static schedule unsound;
        - ``None``: always :meth:`replay_traffic` — the parity oracle
          the differential suite pins the compiled path against.

        The arithmetic is :meth:`forward_hooked` without hooks, inside
        one ``exec.forward`` span.

        Returns:
            The model logits (identical to the centralized forward).
        """
        if plan not in ("auto", None):
            raise ValueError(f"plan must be 'auto' or None, got {plan!r}")
        batch = int(x.shape[0])
        if count_traffic:
            if plan is None:
                self.replay_traffic(batch)
            else:
                self.account_traffic(batch)
        tel = self._telemetry
        if not tel.enabled:
            return self.forward_hooked(x)
        with tel.tracer.span("exec.forward", batch=batch):
            return self.forward_hooked(x)

    def account_traffic(self, batch: int) -> str:
        """Account ``batch`` inferences' traffic the cheapest sound way.

        In steady state the compiled plan applies it as one bulk update
        (``exec.plan`` span, ``exec.plan_runs`` counter); otherwise the
        event-driven :meth:`replay_traffic` runs, counted under
        ``exec.plan_fallbacks{reason}``.  Either way every counter ends
        up where the replay would put it.

        Returns:
            ``"plan"`` or ``"fallback:<reason>"``, the reason being one
            of :class:`~repro.core.compiled.PlanNotCompilable`'s.
        """
        reason = self.fallback_reason()
        tel = self._telemetry
        if reason is not None:
            if tel.enabled:
                tel.metrics.counter("exec.plan_fallbacks", reason=reason).inc()
                # The instant fires only when a working plan existed
                # (steady state lost), so traces tell "never compiled"
                # from "degraded".
                if self._compiled_plan is not None:
                    tel.tracer.instant("exec.plan-fallback", reason=reason)
            self.replay_traffic(batch)
            return f"fallback:{reason}"
        compiled = self._compiled_plan
        if not tel.enabled:
            compiled.run(batch)
            return "plan"
        hops = compiled.hops
        with tel.tracer.span(
            "exec.plan",
            batch=batch,
            links=hops.n_links,
            transfer_groups=hops.n_transfer_groups,
        ):
            tel.metrics.counter("exec.plan_runs").inc()
            compiled.run(batch)
        return "plan"

    def fallback_reason(self) -> Optional[str]:
        """The ``<reason>`` :meth:`account_traffic` would return as
        ``"fallback:<reason>"`` right now, or None when the compiled
        plan would serve.  Moves no traffic; it may compile the plan
        for the current topology state, which the next planned call
        would do anyway."""
        blocked = plan_blocked(self)
        if blocked is not None:
            return blocked[0]
        if self._ensure_plan() is None:
            return self._plan_uncompilable
        return None

    def _ensure_plan(self) -> Optional[CompiledPlan]:
        """Memoized compilation, keyed on the topology epoch.  A node
        move or alive flip changes routes, so a plan — or an
        ``"unroutable"`` verdict — holds only for the topology state it
        was compiled against."""
        epoch = self.network.topology.epoch
        if epoch != self._plan_epoch:
            self._plan_epoch = epoch
            try:
                self._compiled_plan = compile_plan(self)
                self._plan_uncompilable = None
            except PlanNotCompilable as exc:
                self._compiled_plan = None
                self._plan_uncompilable = exc.reason
        return self._compiled_plan

    def replay_traffic(self, batch: int) -> None:
        """Account ``batch`` inferences' cross-node transfers on the
        network layer (the traffic half of :meth:`forward`): one
        :meth:`~repro.wsn.Network.unicast_bulk` per transfer group."""
        tel = self._telemetry
        if tel.enabled:
            with tel.tracer.span("exec.replay", batch=batch):
                self._replay_groups(batch)
        else:
            self._replay_groups(batch)

    def _replay_groups(self, batch: int) -> None:
        for key, multiplicity in self.index.groups:
            layer_index, src, dst, n_values = key
            self.network.unicast_bulk(
                Message(src=src, dst=dst, n_values=n_values,
                        kind=f"layer{layer_index}"),
                copies=batch * multiplicity,
            )

    def replay_traffic_reference(self, batch: int) -> None:
        """Pre-aggregation :meth:`replay_traffic`: one ``unicast`` per
        transfer per batch element (same traffic stats, interpreter
        bound).  Kept callable so the parity tests can prove the
        grouped replay counter-exact."""
        for layer_index, src, dst, n_values in self.index.transfers:
            for __ in range(batch):
                self.network.unicast(
                    Message(src=src, dst=dst, n_values=n_values,
                            kind=f"layer{layer_index}")
                )

    def predict(self, x: np.ndarray, count_traffic: bool = False) -> np.ndarray:
        """Class predictions from the distributed forward pass."""
        return self.forward(x, count_traffic=count_traffic).argmax(axis=-1)

    def measured_cost_report(self):
        """Static cost for comparison with the measured network stats."""
        return self._cost_model.inference_cost(self.placement)

    # -- the layer loop -----------------------------------------------------
    def forward_hooked(
        self,
        x: np.ndarray,
        input_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        layer_hook: Optional[Callable] = None,
    ) -> np.ndarray:
        """Layer-by-layer forward pass with substitution hooks.

        The executor's one layer loop: :meth:`forward`, the serving
        path and failure masking all run their arithmetic here, and it
        is the choke point the fault layer plugs into.  Traffic is not
        touched.  ``input_hook(x)`` may rewrite the input field (the
        executor hands it a private copy), and ``layer_hook(entry,
        out)`` runs after every unit-graph layer and may rewrite (or
        replace) its activations — e.g. to zero dead units or
        substitute stale values.  Flatten layers, which move no data,
        are not hooked.  Without an ``input_hook`` the input is not
        copied: every layer allocates its own output, so the caller's
        array is never written to.
        """
        if input_hook is not None:
            x = input_hook(np.array(x, copy=True))
        out = x
        for entry in self.graph.layers:
            out = entry.layer.forward(out, training=False)
            if layer_hook is not None and entry.kind != "flatten":
                replacement = layer_hook(entry, out)
                if replacement is not None:
                    out = replacement
        return out

    def forward_masked(
        self, x: np.ndarray, dead_nodes: Iterable[int]
    ) -> np.ndarray:
        """Forward pass with the given nodes failed.

        Input cells measured by dead sensors read zero, and every unit
        hosted on a dead node outputs zero — its value never reaches
        the downstream consumers.  This is the paper's §V scenario:
        "a part of tiny IoT devices may be broken".

        Runs through :meth:`forward_hooked` with hooks that zero each
        layer's dead positions in one fancy-indexed assignment, gathered
        from the placement index (:meth:`forward_masked_reference` is
        the per-position original, kept for the parity tests).
        """
        dead = frozenset(dead_nodes)
        if not dead:
            return self.model.forward(x, training=False)
        tel = self._telemetry
        if tel.enabled:
            tel.tracer.instant(
                "exec.dead_set", nodes=sorted(dead), batch=int(x.shape[0])
            )
        index = self.index

        def zero(key: int, out: np.ndarray) -> np.ndarray:
            sel = index.gather(key, dead)
            if sel is not None:
                out[sel] = 0.0
            return out

        return self.forward_hooked(
            x,
            input_hook=lambda arr: zero(INPUT, arr),
            layer_hook=lambda entry, out: zero(entry.index, out),
        )

    def forward_masked_reference(
        self, x: np.ndarray, dead_nodes: Iterable[int]
    ) -> np.ndarray:
        """Pre-optimization :meth:`forward_masked`: hook-based, one
        Python iteration per unit position.  Kept callable so the test
        suite can prove the vectorized path byte-identical."""
        dead: Set[int] = set(dead_nodes)
        if not dead:
            return self.model.forward(x, training=False)

        def input_hook(arr: np.ndarray) -> np.ndarray:
            for (iy, ix), node in self.placement.input_node.items():
                if node in dead:
                    arr[:, :, iy, ix] = 0.0
            return arr

        def layer_hook(entry, out: np.ndarray):
            if entry.kind == "spatial":
                for pos in entry.output_positions():
                    if self.placement.node_of(entry.index, pos) in dead:
                        out[:, :, pos[0], pos[1]] = 0.0
            elif entry.kind == "flat":
                for unit in entry.output_positions():
                    if self.placement.node_of(entry.index, unit) in dead:
                        out[:, unit] = 0.0
            return out

        return self.forward_hooked(x, input_hook=input_hook,
                                   layer_hook=layer_hook)

    def accuracy_under_faults(
        self,
        x: np.ndarray,
        y: np.ndarray,
        dead_nodes: Iterable[int],
    ) -> float:
        """Classification accuracy with the given nodes failed."""
        preds = self.forward_masked(x, dead_nodes).argmax(axis=-1)
        return float((preds == np.asarray(y)).mean())
