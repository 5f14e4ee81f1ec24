"""E8 — §V resilience challenge: broken devices and network lifetime.

The paper: *"A part of tiny IoT devices may be broken.  The
development of resilient distributed machine learning mechanisms in
the environments containing such broken IoT devices is also
important"*, and §IV.C: *"it is very important to equalize the number
of units assigned to each sensor node and to minimize the maximal
communication costs ... so that all the sensor nodes can be alive and
work well using a small amount of energy."*

Three sweeps: (1) accuracy vs. fraction of failed nodes for the
trained fall detector; (2) accuracy vs. packet-loss rate under the
fault-injection layer (bounded retries + stale-activation fallback,
every degradation decision traced); (3) network lifetime (time to
first node death on a harvested energy budget) for the heuristic vs.
centralized placement, where a node's drain is proportional to its
per-inference traffic.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import print_table
from repro.contexts import FallDetectionPipeline
from repro.contexts.fall import FEASIBLE_PARAMS
from repro.core import DistributedExecutor, UnitGraph
from repro.datasets import IrGaitConfig, generate_ir_gait_episodes, windows_from_episodes
from repro.energy import RADIO_PROFILES
from repro.faults import FaultPlan, FaultScenario, RetryPolicy, inject
from repro.wsn import GridTopology, Network

FAIL_FRACTIONS = [0.0, 0.1, 0.2, 0.3, 0.5]
LOSS_RATES = [0.0, 0.1, 0.2, 0.35, 0.5]


@pytest.fixture(scope="module")
def experiment():
    rng = np.random.default_rng(0)
    episodes = generate_ir_gait_episodes(IrGaitConfig(), rng)
    x, y, ei = windows_from_episodes(episodes, window=10, stride=3)
    falls = [i for i, ep in enumerate(episodes) if ep.label == 1]
    walks = [i for i, ep in enumerate(episodes) if ep.label == 0]
    test_mask = np.isin(ei, falls[:6] + walks[:6])
    pipe = FallDetectionPipeline(node_grid=(4, 4))
    result = pipe.run(
        x[~test_mask], y[~test_mask], x[test_mask], y[test_mask],
        np.random.default_rng(1), params=FEASIBLE_PARAMS,
        assignment="heuristic", update_mode="local", epochs=15, lr=3e-3,
    )
    graph = UnitGraph(result.model)
    topology = GridTopology(4, 4)
    executor = DistributedExecutor(
        result.model, graph, result.placement, Network(topology)
    )
    return result, executor, (x[test_mask], y[test_mask])


def lifetime_days(max_rx_values: int, inferences_per_day: float = 2880.0,
                  harvest_j_per_day: float = 0.5) -> float:
    """Days until the busiest node exhausts its daily-harvest margin.

    Each received value costs one 32-bit backscatter reception; a node
    survives while its daily radio energy stays under the harvest.
    Returns the sustainable-load headroom expressed as days of
    operation from a fixed 30-day energy reserve.
    """
    rx_energy = RADIO_PROFILES["backscatter"].rx_power_w * (32 / 1e6)
    daily = max(max_rx_values, 1) * inferences_per_day * rx_energy
    reserve = harvest_j_per_day * 30.0
    return reserve / daily if daily > 0 else float("inf")


def test_e8_resilience_and_lifetime(experiment, benchmark):
    result, executor, (x_te, y_te) = experiment
    rng = np.random.default_rng(42)
    node_ids = result.node_ids

    rows = []
    accuracies = []
    for frac in FAIL_FRACTIONS:
        n_dead = int(round(frac * len(node_ids)))
        trials = []
        for t in range(3):
            dead = rng.choice(node_ids, size=n_dead, replace=False)
            trials.append(executor.accuracy_under_faults(x_te, y_te, dead))
        acc = float(np.mean(trials))
        accuracies.append(acc)
        rows.append([f"{frac:.0%}", f"{acc:.4f}"])
    print_table("E8: fall-detection accuracy vs. failed nodes",
                ["failed nodes", "accuracy (mean of 3 draws)"], rows)

    # Graceful degradation: healthy accuracy high; moderate failures
    # lose some accuracy but stay above chance; the trend is downward.
    assert accuracies[0] > 0.82
    assert accuracies[1] > 0.55
    assert accuracies[0] >= accuracies[-1]

    # Lifetime: balanced placement's peak traffic is lower, so the
    # busiest node lives longer on the same harvest.
    from repro.core import CommunicationCostModel, centralized_assignment

    graph = UnitGraph(result.model)
    topology = GridTopology(4, 4)
    cm = CommunicationCostModel(graph, topology)
    central_peak = cm.inference_cost(
        centralized_assignment(graph, topology)
    ).max_rx()
    heuristic_peak = result.max_comm_cost
    life_h = lifetime_days(heuristic_peak)
    life_c = lifetime_days(central_peak)
    print_table(
        "E8: first-node-death horizon (fixed harvested budget)",
        ["placement", "peak rx values", "relative lifetime"],
        [
            ["centralized sink", str(central_peak), "1.00x"],
            ["heuristic (balanced)", str(heuristic_peak),
             f"{life_h / life_c:.2f}x"],
        ],
    )
    assert life_h > life_c

    dead_sample = node_ids[:3]
    benchmark(lambda: executor.accuracy_under_faults(x_te[:64], y_te[:64],
                                                     dead_sample))


def test_e8_accuracy_vs_loss_rate(experiment):
    """The real resilience curve: the trained fall detector under the
    fault-injection layer, sweeping the packet-loss rate.  Inference
    never hangs — drops are retried within a bounded budget, then
    stale activations (or zeros) substitute for the missing units —
    and every fallback shows up in the structured trace.

    The curve is computed through the sweep engine
    (:func:`repro.faults.sweeps.loss_rate_point` under
    :func:`repro.par.run_sweep`), the same path ``repro sweep`` and
    the chaos suite use."""
    from repro.faults import loss_rate_point, scenario_shared
    from repro.par import make_points, run_sweep

    result, _, (x_te, y_te) = experiment
    scenario = FaultScenario(
        model=result.model,
        graph=UnitGraph(result.model),
        placement=result.placement,
        topology=GridTopology(4, 4),
    )
    shared = scenario_shared(scenario, x_te, y_te)
    points = make_points(grid={"loss_rate": LOSS_RATES})
    report = run_sweep(
        "repro.faults.sweeps:loss_rate_point",
        points, root_seed=0, shared=shared,
    )

    rows = []
    accuracies = []
    for value in report.values():
        accuracies.append(value["accuracy"])
        rows.append([
            f"{value['loss_rate']:.0%}",
            f"{value['accuracy']:.4f}",
            str(value["drops"]),
            str(value["retries_recovered"]),
            str(value["transfers_exhausted"]),
        ])
        assert value["inferences"] == 4  # no hangs
        assert value["time_monotonic"]
    print_table(
        "E8: fall-detection accuracy vs. packet-loss rate (fault layer)",
        ["loss rate", "accuracy", "drops", "retries ok", "exhausted"],
        rows,
    )

    # Clean run is exact; heavy loss degrades but stays finite, and
    # the curve's endpoints are ordered.
    assert accuracies[0] > 0.82
    assert accuracies[-1] <= accuracies[0]
    assert all(np.isfinite(a) for a in accuracies)

    # The cross-check the old in-line loop provided: the sweep task
    # reproduces a direct inject() at one representative rate.
    run = inject(
        scenario,
        FaultPlan(seed=13, loss_rate=LOSS_RATES[2]),
        policy=RetryPolicy(max_retries=2),
    )
    assert run.accuracy(x_te, y_te, chunks=4) == pytest.approx(
        accuracies[2]
    )

