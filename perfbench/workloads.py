"""The three in-process workloads, driven through public entry points.

Each workload class is built once per process (its constructor is the
set-up the benchmark times, together with interpreter start and
imports) and then runs ops: ``op_input(k)`` prepares op ``k`` untimed,
``op(inp)`` is the timed call into the program, and ``record(k, out)``
turns the program's output into the JSON record the benchmark checks.
"""

from __future__ import annotations

import inputs

CAMPAIGN_TASK = "repro.faults.sweeps:chaos_cell_point"


class CityChurn:
    """One round: flip the alive flag of a few tags, then route
    unicasts between random tags across the district."""

    def __init__(self, seed: int) -> None:
        from repro.wsn.network import Message, Network
        from repro.wsn.node import SensorNode
        from repro.wsn.topology import Topology

        positions = inputs.city_positions(seed).tolist()
        self.topology = Topology(
            [SensorNode(i, (x, y)) for i, (x, y) in enumerate(positions)],
            inputs.CITY_RANGE_M,
        )
        down, self.rounds = inputs.city_rounds(seed)
        for i in down:
            self.topology.node(i).alive = False
        self.network = Network(self.topology)
        self._message = Message
        self._totals = (0, 0, 0)

    def op_input(self, k: int):
        flips, pairs = next(self.rounds)
        nodes = [self.topology.node(i) for i in flips]
        return nodes, [self._message(s, d, 1) for s, d in pairs]

    def op(self, inp):
        nodes, messages = inp
        for node in nodes:
            node.alive = not node.alive
        unicast = self.network.unicast
        for message in messages:
            unicast(message)

    def record(self, k: int, out):
        stats = self.network.stats
        totals = (stats.sent, stats.delivered, stats.total_hops)
        sent, delivered, hops = (a - b for a, b in zip(totals, self._totals))
        self._totals = totals
        return {"sent": sent, "delivered": delivered, "hops": hops}


class FaultCampaign:
    """One op: a resilience sweep over the loss-rate grid for one plan
    seed through ``repro.par.run_sweep`` with its default ``jobs``."""

    def __init__(self, seed: int) -> None:
        from repro.faults.sweeps import build_chaos_shared
        from repro.par import sweep

        scenario_seed, self.plans = inputs.campaign_seeds(seed)
        self.shared = build_chaos_shared(scenario_seed)
        self._sweep = sweep

    def op_input(self, k: int):
        return self._sweep.make_points(
            seeds=[self.plans[k % len(self.plans)]],
            grid={"loss_rate": list(inputs.CAMPAIGN_LOSSES)},
        )

    def op(self, points):
        return self._sweep.run_sweep(CAMPAIGN_TASK, points,
                                     shared=self.shared)

    def record(self, k: int, report):
        counts = {"retries": 0.0, "sent": 0.0, "delivered": 0.0,
                  "hops": 0.0}
        names = {"resilient.retries": "retries", "net.sent": "sent",
                 "net.delivered": "delivered", "net.hops": "hops"}
        cells = []
        for result in report.results:
            cells.append([result.seed, result.config["loss_rate"],
                          result.value["accuracy"],
                          result.value["fault_trace_digest"]])
            for name, __, kind, payload in result.metrics:
                if name in names:
                    counts[names[name]] += payload
        return {"cells": cells, **counts}


def build_trainer(seed: int, backward_impl: str):
    """The train_local trainer, data and fault trace for ``seed``."""
    from repro.core import (
        MicroDeepTrainer,
        UnitGraph,
        grid_correspondence_assignment,
    )
    from repro.faults import (
        FaultTrace,
        NodeStateTracker,
        TrainingFaultAdapter,
        toy_field_task,
    )
    from repro.nn import (
        SGD, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential,
    )
    from repro.wsn import GridTopology

    data_rng, init_rng, shuffle_rng = inputs.train_rngs(seed)
    x, y = toy_field_task(inputs.TRAIN_EXAMPLES, inputs.TRAIN_FIELD, data_rng)
    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(8), ReLU(), Dense(2),
    ])
    model.build((1,) + inputs.TRAIN_FIELD, init_rng)
    graph = UnitGraph(model)
    topology = GridTopology(*inputs.TRAIN_GRID)
    placement = grid_correspondence_assignment(graph, topology)
    trace = FaultTrace()
    clock = lambda: 0.0  # noqa: E731 - training runs off the sim clock
    tracker = NodeStateTracker(topology, trace, clock)
    for node in inputs.TRAIN_DEAD:
        tracker.crash(node)
    trainer = MicroDeepTrainer(
        graph, placement, SGD(lr=inputs.TRAIN_LR), update_mode="local",
        fault_adapter=TrainingFaultAdapter(tracker, trace, clock),
        backward_impl=backward_impl,
    )
    return trainer, x, y, shuffle_rng, trace


def first_epoch_weights(trainer, x, y, rng):
    """Weights after one ``fit`` epoch, as nested lists."""
    trainer.fit(x, y, epochs=1, batch_size=inputs.TRAIN_BATCH, rng=rng)
    return [w.tolist() for w in trainer.model.get_weights()]


class TrainLocal:
    """One op: one local-update training epoch with two nodes down."""

    def __init__(self, seed: int) -> None:
        self.trainer, self.x, self.y, self.rng, self.trace = build_trainer(
            seed, "vectorized"
        )
        self._records = len(self.trace)

    def op_input(self, k: int):
        return None

    def op(self, inp):
        return self.trainer.fit(self.x, self.y, epochs=1,
                                batch_size=inputs.TRAIN_BATCH, rng=self.rng)

    def record(self, k: int, history):
        rec = {"loss": history.train_loss[0],
               "skips": len(self.trace) - self._records}
        self._records = len(self.trace)
        if k == 0:
            rec["weights"] = [
                w.tolist() for w in self.trainer.model.get_weights()]
        return rec


WORKLOADS = {
    "city_churn": CityChurn,
    "fault_campaign": FaultCampaign,
    "train_local": TrainLocal,
}
