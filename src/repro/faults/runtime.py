"""Fault runtime: node state, plan scheduling, resilient execution.

Three pieces plug the fault layer into the existing stack:

- :class:`NodeStateTracker` applies crash/recover/brownout/drift
  events to a :class:`repro.wsn.Topology` (routing then avoids down
  nodes automatically) and logs every transition.
- :func:`schedule_plan` turns a :class:`~repro.faults.plan.FaultPlan`
  into events on the discrete-event :class:`repro.sim.Simulator`, so
  faults fire as virtual time advances *through* an inference.
- :class:`ResilientExecutor` replays the placement's cross-node
  transfers with bounded retries and a per-transfer timeout, then
  completes the forward pass by substituting stale (or zero)
  activations for every unit whose value never arrived — degraded
  output instead of a hang, with every decision in the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.executor import DistributedExecutor
from repro.core.placement_index import INPUT
from repro.faults.plan import FaultPlan
from repro.faults.trace import FaultTrace, TraceRecord
from repro.sim.engine import Simulator
from repro.wsn.network import Message
from repro.wsn.topology import Topology


class NodeStateTracker:
    """Applies node-level faults to a topology and logs transitions.

    Crashing a node flips :attr:`SensorNode.alive`, so the routing and
    network layers treat it as gone; recovery flips it back.  Clock
    drift is bookkeeping the executor consults when pricing latency.
    """

    def __init__(
        self,
        topology: Topology,
        trace: FaultTrace,
        clock: Callable[[], float],
        telemetry=None,
    ) -> None:
        self.topology = topology
        self.trace = trace
        self.clock = clock
        self._clock_factor: Dict[int, float] = {}
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry

    def _mark(self, kind: str, **attrs) -> None:
        """Mirror a fault transition into the telemetry trace (instant
        event) and count it per kind."""
        tel = self._telemetry
        if tel.enabled:
            tel.tracer.instant(kind, **attrs)
            tel.metrics.counter("faults.transitions", kind=kind).inc()

    def crash(self, node_id: int) -> None:
        node = self.topology.node(node_id)
        if node.alive:
            node.alive = False
            self.trace.record(self.clock(), "fault.crash", node=node_id)
            self._mark("fault.crash", node=node_id)

    def recover(self, node_id: int) -> None:
        node = self.topology.node(node_id)
        if not node.alive:
            node.alive = True
            self.trace.record(self.clock(), "fault.recover", node=node_id)
            self._mark("fault.recover", node=node_id)

    def brownout_start(self, node_id: int, duration: float) -> None:
        """Energy brownout: down now, auto-recovery is scheduled by
        :func:`schedule_plan`."""
        node = self.topology.node(node_id)
        self.trace.record(
            self.clock(), "fault.brownout", node=node_id, duration=duration
        )
        self._mark("fault.brownout", node=node_id, duration=duration)
        node.alive = False

    def set_clock_factor(self, node_id: int, factor: float) -> None:
        self.topology.node(node_id)  # validate the id
        self._clock_factor[node_id] = float(factor)
        self.trace.record(
            self.clock(), "fault.drift", node=node_id, factor=factor
        )
        self._mark("fault.drift", node=node_id, factor=factor)

    def clock_factor(self, node_id: int) -> float:
        return self._clock_factor.get(node_id, 1.0)

    def is_up(self, node_id: int) -> bool:
        return self.topology.node(node_id).alive

    def down_nodes(self) -> Set[int]:
        return {n.node_id for n in self.topology if not n.alive}


def schedule_plan(
    plan: FaultPlan, sim: Simulator, tracker: NodeStateTracker
) -> None:
    """Schedule every plan event on the simulator."""
    for event in plan.events_sorted():
        if event.kind == "crash":
            sim.schedule_at(event.time, tracker.crash, event.node)
        elif event.kind == "recover":
            sim.schedule_at(event.time, tracker.recover, event.node)
        elif event.kind == "brownout":
            sim.schedule_at(
                event.time, tracker.brownout_start, event.node, event.duration
            )
            sim.schedule_at(
                event.time + event.duration, tracker.recover, event.node
            )
        elif event.kind == "clock_drift":
            sim.schedule_at(
                event.time, tracker.set_clock_factor, event.node, event.factor
            )


@dataclass
class RetryPolicy:
    """Bounded-retry and timeout budget for one cross-node transfer.

    Attributes:
        max_retries: extra attempts after the first failure.
        attempt_latency_s: virtual time one attempt costs (scaled by
            the source node's clock-drift factor).
        timeout_s: total virtual-time budget per transfer; exceeded
            attempts are abandoned even if retries remain.
        fallback: ``"stale"`` substitutes the last known activation
            for a missing unit (zero when none is cached);
            ``"zero"`` always substitutes zero.
    """

    max_retries: int = 2
    attempt_latency_s: float = 0.005
    timeout_s: float = 0.05
    fallback: str = "stale"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.attempt_latency_s <= 0 or self.timeout_s <= 0:
            raise ValueError("latency and timeout must be positive")
        if self.fallback not in ("stale", "zero"):
            raise ValueError(
                f"fallback must be 'stale' or 'zero', got {self.fallback!r}"
            )


class ResilientExecutor:
    """Fault-tolerant distributed inference over a faulty network.

    Wraps a :class:`repro.core.DistributedExecutor`; each call to
    :meth:`infer` replays the placement's transfer list over the
    (possibly faulty) network while virtual time advances — so
    scheduled crashes and brownouts land mid-pass — and then computes
    the forward pass with per-unit substitution for everything that
    never arrived.
    """

    def __init__(
        self,
        executor: DistributedExecutor,
        sim: Simulator,
        tracker: NodeStateTracker,
        trace: FaultTrace,
        policy: Optional[RetryPolicy] = None,
        recorder=None,
    ) -> None:
        self.executor = executor
        self.sim = sim
        self.tracker = tracker
        self.trace = trace
        self.policy = policy if policy is not None else RetryPolicy()
        #: optional flight recorder sampled (pull-style, on the sim
        #: clock) after each inference; ``None`` costs nothing.
        self.recorder = recorder
        #: layer index (-1 = model input) -> last computed activations.
        self._stale: Dict[int, np.ndarray] = {}
        #: ``(layer, message)`` per cross-node transfer of one pass,
        #: built on the first :meth:`infer`: the placement's transfer
        #: list is fixed, and the network only reads messages.
        self._transfers: Optional[List[Tuple[int, Message]]] = None
        self.inferences = 0
        from repro.obs.runtime import current

        self._telemetry = current()

    # -- transfer replay ----------------------------------------------------
    def _advance(self, dt: float) -> None:
        """Advance virtual time, firing any scheduled fault events."""
        self.sim.run(until=self.sim.now + dt)

    def _attempt_transfer(self, layer_index: int, message: Message) -> bool:
        """One transfer with bounded retries; True when delivered."""
        trace, sim = self.trace, self.sim
        src, dst = message.src, message.dst
        if not self.tracker.is_up(src):
            trace.record(
                sim.now, "degrade.source-down",
                layer=layer_index, src=src, dst=dst,
            )
            return False
        if not self.tracker.is_up(dst):
            trace.record(
                sim.now, "degrade.dest-down",
                layer=layer_index, src=src, dst=dst,
            )
            return False
        latency = self.policy.attempt_latency_s * self.tracker.clock_factor(src)
        deadline = sim.now + self.policy.timeout_s
        tel = self._telemetry
        for attempt in range(self.policy.max_retries + 1):
            if attempt > 0 and tel.enabled:
                tel.metrics.counter("resilient.retries", src=src, dst=dst).inc()
            self._advance(latency)
            if sim.now > deadline:
                trace.record(
                    sim.now, "retry.timeout",
                    layer=layer_index, src=src, dst=dst, attempt=attempt,
                )
                return False
            if not (self.tracker.is_up(src) and self.tracker.is_up(dst)):
                trace.record(
                    sim.now, "degrade.endpoint-crashed",
                    layer=layer_index, src=src, dst=dst, attempt=attempt,
                )
                return False
            if self.executor.network.unicast(message):
                if attempt > 0:
                    trace.record(
                        sim.now, "retry.recovered",
                        layer=layer_index, src=src, dst=dst,
                        attempts=attempt + 1,
                    )
                return True
        trace.record(
            sim.now, "degrade.transfer-failed",
            layer=layer_index, src=src, dst=dst,
            attempts=self.policy.max_retries + 1,
        )
        return False

    # -- degraded forward ---------------------------------------------------
    def _substitute(
        self, out: np.ndarray, key: int, bad_nodes: Set[int]
    ) -> int:
        """Replace every position of grid ``key`` (a layer index, or
        :data:`~repro.core.placement_index.INPUT`) owned by a bad node
        in one fancy-indexed assignment; returns the substitution count
        after logging one record per node."""
        index = self.executor.index
        positions = index.layers[key].positions
        hit = sorted(node for node in bad_nodes if node in positions)
        if hit:
            stale = self._stale.get(key)
            usable = (
                self.policy.fallback == "stale"
                and stale is not None
                and stale.shape == out.shape
            )
            sel = index.gather(key, frozenset(hit))
            out[sel] = stale[sel] if usable else 0.0
            mode = "stale" if usable else "zero"
            for node in hit:
                self.trace.record(
                    self.sim.now, f"degrade.{mode}",
                    layer=key, node=node, n_positions=len(positions[node]),
                )
        self._stale[key] = out.copy()
        return sum(len(positions[node]) for node in hit)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Degraded-but-complete forward pass under the active faults.

        Returns the logits; every fault hit and fallback taken during
        this call is appended to the trace.
        """
        self.inferences += 1
        tel = self._telemetry
        if not tel.enabled:
            logits = self._infer_inner(x)
        else:
            with tel.tracer.span(
                "resilient.infer", inference=self.inferences,
                batch=int(x.shape[0]),
            ) as span:
                logits = self._infer_inner(x, span)
        if self.recorder is not None:
            # Virtual time advanced through the pass; let the flight
            # recorder tick if its cadence came due.
            self.recorder.sample_if_due()
        return logits

    def _infer_inner(self, x: np.ndarray, span=None) -> np.ndarray:
        executor = self.executor
        feeding = executor.graph.feeding
        self.trace.record(
            self.sim.now, "exec.start",
            inference=self.inferences, batch=int(x.shape[0]),
        )
        if self._transfers is None:
            self._transfers = [
                (layer_index, Message(src=src, dst=dst, n_values=n_values,
                                      kind=f"layer{layer_index}"))
                for layer_index, src, dst, n_values in executor.index.transfers
            ]
        failed = 0
        poisoned: Dict[int, Set[int]] = {}
        for layer_index, message in self._transfers:
            if not self._attempt_transfer(layer_index, message):
                failed += 1
                poisoned.setdefault(feeding[layer_index], set()).add(
                    message.src
                )
        down = self.tracker.down_nodes()
        substitutions = 0

        def substitute(key: int, out: np.ndarray) -> np.ndarray:
            nonlocal substitutions
            substitutions += self._substitute(
                out, key, down | poisoned.get(key, set())
            )
            return out

        logits = executor.forward_hooked(
            x,
            input_hook=lambda arr: substitute(INPUT, arr),
            layer_hook=lambda entry, out: substitute(entry.index, out),
        )
        self.trace.record(
            self.sim.now, "exec.done",
            inference=self.inferences,
            failed_transfers=failed,
            substitutions=substitutions,
            down_nodes=sorted(down),
        )
        if span is not None:
            span.annotate(
                failed_transfers=failed,
                substitutions=substitutions,
                down_nodes=sorted(down),
            )
        return logits

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.infer(x).argmax(axis=-1)

    def accuracy(
        self, x: np.ndarray, y: np.ndarray, chunks: int = 4
    ) -> float:
        """Accuracy over ``chunks`` independent inference calls (each
        chunk sees its own fault draws)."""
        if chunks <= 0:
            raise ValueError(f"chunks must be positive, got {chunks}")
        y = np.asarray(y)
        correct = 0
        for xb, yb in zip(
            np.array_split(x, chunks), np.array_split(y, chunks)
        ):
            if len(xb) == 0:
                continue
            correct += int((self.predict(xb) == yb).sum())
        return correct / len(y)


class TrainingFaultAdapter:
    """Bridges the fault runtime into
    :class:`repro.core.MicroDeepTrainer`: nodes currently down skip
    their local weight updates, and each skip is logged.

    Every training step skips the same ``(layer, node)`` pairs while
    the down set holds, so the skips logged at one clock value share
    one frozen record per pair: the trace still gets one entry per
    skip, but not one new object.
    """

    def __init__(
        self,
        tracker: NodeStateTracker,
        trace: FaultTrace,
        clock: Callable[[], float],
        telemetry=None,
    ) -> None:
        self.tracker = tracker
        self.trace = trace
        self.clock = clock
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry
        #: ``(layer, node) -> record`` of the skips logged at clock
        #: value ``_skips_at``.
        self._skips_at: Optional[float] = None
        self._skips: Dict[Tuple[int, int], TraceRecord] = {}

    def down_nodes(self) -> Set[int]:
        return self.tracker.down_nodes()

    def on_update_skipped(self, layer_index: int, node: int) -> None:
        now = self.clock()
        if now != self._skips_at:
            self._skips_at, self._skips = now, {}
        rec = self._skips.get((layer_index, node))
        if rec is None:
            self._skips[(layer_index, node)] = self.trace.record(
                now, "degrade.update-skipped", layer=layer_index, node=node,
            )
        else:
            self.trace.append(rec)
        tel = self._telemetry
        if tel.enabled:
            tel.tracer.instant(
                "train.update-skipped", layer=layer_index, node=node
            )
            tel.metrics.counter(
                "train.update_skips", layer=layer_index
            ).inc()
