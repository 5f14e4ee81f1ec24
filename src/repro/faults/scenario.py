"""Scenario bundling and the ``inject(scenario, plan)`` entry point.

A :class:`FaultScenario` is everything the fault layer needs about the
system under test: the built model, its unit graph, the placement, and
the topology.  :func:`inject` wires a plan into a fresh simulator,
trace, tracker, faulty network, and resilient executor, and returns a
:class:`FaultInjection` handle the caller drives.

:func:`demo_scenario` builds the small trained field-classification
scenario the CLI subcommand, the example script, and the chaos tests
share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.assignment import Placement, grid_correspondence_assignment
from repro.core.executor import DistributedExecutor
from repro.core.training import MicroDeepTrainer
from repro.core.unitgraph import UnitGraph
from repro.faults.links import LinkFaultModel
from repro.faults.plan import FaultPlan
from repro.faults.runtime import (
    NodeStateTracker,
    ResilientExecutor,
    RetryPolicy,
    schedule_plan,
)
from repro.faults.trace import FaultTrace
from repro.sim.engine import Simulator
from repro.wsn.network import Network
from repro.wsn.topology import GridTopology


@dataclass
class FaultScenario:
    """The system under test: model + placement + deployment."""

    model: object          # built repro.nn.Sequential
    graph: UnitGraph
    placement: Placement
    topology: GridTopology


@dataclass
class FaultInjection:
    """A wired fault run: drive :attr:`executor`, read :attr:`trace`."""

    scenario: FaultScenario
    plan: FaultPlan
    sim: Simulator
    trace: FaultTrace
    tracker: NodeStateTracker
    network: Network
    executor: ResilientExecutor
    recorder: object = None  # optional repro.obs FlightRecorder

    def infer(self, x: np.ndarray) -> np.ndarray:
        return self.executor.infer(x)

    def accuracy(self, x: np.ndarray, y: np.ndarray, chunks: int = 4) -> float:
        return self.executor.accuracy(x, y, chunks=chunks)


def inject(
    scenario: FaultScenario,
    plan: FaultPlan,
    policy: Optional[RetryPolicy] = None,
    recorder=None,
) -> FaultInjection:
    """Arm a fault plan against a scenario.

    Builds a fresh simulator/trace/network stack (the scenario's
    topology is reset to all-alive first, so injections are
    independent), schedules the plan's events, fires any due at t=0,
    and returns the handle.

    ``recorder`` (an enabled :class:`repro.obs.FlightRecorder`) is
    bound to the fresh simulator's clock and sampled pull-style after
    every inference, so the timeline ticks as virtual time advances
    through the run.
    """
    for node in scenario.topology:
        node.alive = True
    sim = Simulator()
    trace = FaultTrace()
    clock = lambda: sim.now  # noqa: E731
    tracker = NodeStateTracker(scenario.topology, trace, clock)
    link_faults = LinkFaultModel(
        loss_rate=plan.loss_rate,
        corrupt_rate=plan.corrupt_rate,
        duplicate_rate=plan.duplicate_rate,
        seed=plan.seed,
        trace=trace,
        clock=clock,
    )
    network = Network(scenario.topology, link_faults=link_faults)
    base = DistributedExecutor(
        scenario.model, scenario.graph, scenario.placement, network
    )
    if recorder is not None and recorder.enabled:
        recorder.bind_clock(clock)
    executor = ResilientExecutor(
        base, sim, tracker, trace, policy, recorder=recorder
    )
    schedule_plan(plan, sim, tracker)
    sim.run(until=sim.now)  # fire events due at t=0
    return FaultInjection(
        scenario=scenario,
        plan=plan,
        sim=sim,
        trace=trace,
        tracker=tracker,
        network=network,
        executor=executor,
        recorder=recorder,
    )


# -- shared demo scenario ----------------------------------------------------
def toy_field_task(
    n: int, hw: Tuple[int, int], rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Binary task over an ``hw`` sensed field: is the hot blob in the
    top or the bottom half?  (Same family as the quickstart's task.)"""
    h, w = hw
    x = rng.normal(0.0, 0.3, size=(n, 1, h, w))
    y = rng.integers(0, 2, size=n)
    for i in range(n):
        cy = rng.integers(1, max(2, h // 2 - 1)) if y[i] == 0 else rng.integers(
            h // 2 + 1, h - 1
        )
        cx = rng.integers(1, w - 1)
        x[i, 0, max(cy - 1, 0) : cy + 2, max(cx - 1, 0) : cx + 2] += 2.0
    return x, y


def demo_scenario(
    seed: int = 0,
    field: Tuple[int, int] = (8, 8),
    grid: Tuple[int, int] = (3, 3),
    n_samples: int = 200,
    epochs: int = 10,
) -> Tuple[FaultScenario, Tuple[np.ndarray, np.ndarray]]:
    """A small trained MicroDeep deployment plus held-out test data.

    Trains a toy CNN with local (communication-free) updates on the
    blob task, places it with the paper's grid-correspondence
    heuristic, and returns ``(scenario, (x_test, y_test))``.
    Deterministic for a given seed.
    """
    from repro.nn import SGD, Conv2D, Dense, Flatten, ReLU, Sequential

    rng = np.random.default_rng(seed)
    model = Sequential([Conv2D(2, 3), ReLU(), Flatten(), Dense(2)])
    model.build((1, field[0], field[1]), rng)
    graph = UnitGraph(model)
    topology = GridTopology(grid[0], grid[1])
    placement = grid_correspondence_assignment(graph, topology)
    x, y = toy_field_task(n_samples, field, rng)
    n_train = int(n_samples * 0.7)
    trainer = MicroDeepTrainer(
        graph, placement, SGD(lr=0.1, momentum=0.9), update_mode="local"
    )
    trainer.fit(
        x[:n_train], y[:n_train], epochs=epochs, batch_size=16, rng=rng
    )
    scenario = FaultScenario(
        model=model, graph=graph, placement=placement, topology=topology
    )
    return scenario, (x[n_train:], y[n_train:])
