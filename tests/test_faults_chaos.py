"""Chaos/property tests for the fault-injection layer.

For a set of fixed seeds the suite asserts the system-level
invariants the paper's setting demands:

- the resilient executor **never deadlocks**: every inference
  completes, and retry counts respect the bounded-retry policy;
- **virtual time stays monotonic** across all injected fault events
  and degradation decisions;
- **accuracy degrades gracefully**: monotonically (within a tolerance
  that absorbs sampling noise) as the packet-loss rate rises from
  0 to 0.5, and the clean run is never beaten by a faulty one by more
  than the tolerance.

The per-seed workload lives in
:func:`repro.faults.sweeps.chaos_curve_point` — a sweep task — so the
same code path serves the direct tier-1 checks, the sweep determinism
pin, and the opt-in large sweep through :func:`repro.par.run_sweep`.

The default seed set is small enough for tier-1; set
``REPRO_CHAOS_SWEEP=1`` to run the larger opt-in sweep
(``pytest -m chaos_sweep``).
"""

import os

import numpy as np
import pytest

from repro.faults import (
    CHAOS_LOSS_RATES,
    FaultPlan,
    chaos_curve_point,
    demo_scenario,
    inject,
    scenario_shared,
)
from repro.par import SweepPoint, make_points, run_sweep

CHAOS_TASK = "repro.faults.sweeps:chaos_curve_point"
CHAOS_SEEDS = [0, 1, 2, 3, 4]
SWEEP_SEEDS = list(range(5, 25))
LOSS_RATES = list(CHAOS_LOSS_RATES)
#: Accuracy may wiggle up between adjacent loss rates by at most this
#: much.  The slack is wide because each plan also crashes a node: when
#: the crash hits a load-bearing unit the whole curve sits near chance,
#: where independent fault draws on a finite test set wiggle hard.
MONOTONE_TOLERANCE = 0.25
#: Endpoint slack: loss 0.5 must not beat loss 0.0 by more than this.
EXTREMES_TOLERANCE = 0.05


@pytest.fixture(scope="module")
def trained():
    scenario, (x, y) = demo_scenario(seed=0)
    return scenario, x, y


def assert_chaos_payload(seed, payload) -> None:
    """The chaos invariants, asserted on a ``chaos_curve_point``
    payload (called directly or through a sweep)."""
    invariants = payload["invariants"]
    # No deadlock: every inference completed with bounded virtual time.
    assert invariants["all_inferences_completed"], f"seed {seed}"
    # Virtual time is monotonic across every recorded event.
    assert invariants["time_monotonic"], f"seed {seed}"
    # Bounded retries: no transfer ever exceeded the policy.
    assert invariants["retries_bounded"], f"seed {seed}"
    # Every scheduled crash either fired or lies beyond the run.
    assert invariants["crashes_within_run"], f"seed {seed}"
    # The trace is canonically digestible for every loss rate.
    assert all(len(d) == 64 for d in payload["fault_trace_digests"])

    # Graceful degradation: within tolerance, accuracy is monotone
    # non-increasing in the loss rate, and the extremes are ordered.
    accuracies = payload["accuracies"]
    rates = payload["loss_rates"]
    for lower, higher in zip(accuracies, accuracies[1:]):
        assert higher <= lower + MONOTONE_TOLERANCE, (
            f"seed {seed}: accuracy rose from {lower:.3f} to {higher:.3f} "
            f"as loss increased (rates {rates}, accs {accuracies})"
        )
    assert accuracies[-1] <= accuracies[0] + EXTREMES_TOLERANCE


def run_chaos_seed(trained, seed: int) -> None:
    scenario, x, y = trained
    payload = chaos_curve_point(
        SweepPoint(index=0, seed=seed, config={}),
        np.random.default_rng(0),
        scenario_shared(scenario, x, y),
    )
    assert payload["loss_rates"] == LOSS_RATES
    assert_chaos_payload(seed, payload)


@pytest.mark.chaos
@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_invariants(trained, seed):
    run_chaos_seed(trained, seed)


@pytest.mark.chaos
def test_clean_plan_is_lossless(trained):
    """A plan with no faults must reproduce the fault-free accuracy."""
    scenario, x, y = trained
    from repro.core import DistributedExecutor
    from repro.wsn import Network

    run = inject(scenario, FaultPlan(seed=0))
    baseline = DistributedExecutor(
        scenario.model, scenario.graph, scenario.placement,
        Network(scenario.topology),
    )
    expected = float(
        (baseline.predict(x) == np.asarray(y)).mean()
    )
    assert run.accuracy(x, y, chunks=4) == pytest.approx(expected)
    assert len(run.trace.of_kind("degrade")) == 0
    assert len(run.trace.of_kind("link")) == 0


@pytest.mark.chaos
def test_acceptance_scenario_20pct_loss_2_crashes(trained):
    """The PR's acceptance scenario: 20 % loss + 2 crashed nodes runs
    to completion and the trace lists every fault and fallback."""
    scenario, x, y = trained
    plan = FaultPlan(seed=11, loss_rate=0.2).crash(0.0, 2).crash(0.0, 6)
    run = inject(scenario, plan)
    logits = run.infer(x)
    assert logits.shape == (len(x), 2)
    assert np.all(np.isfinite(logits))
    summary = run.trace.summary()
    assert summary.get("fault.crash") == 2
    assert len(run.trace.of_kind("link.drop")) > 0
    # Fallbacks were taken and recorded (crashed hosts force them).
    assert len(run.trace.of_kind("degrade")) > 0
    assert run.trace.is_time_monotonic()


@pytest.mark.chaos
def test_recovery_restores_accuracy(trained):
    """After a brownout ends, a later inference sees the full mesh."""
    scenario, x, y = trained
    plan = FaultPlan(seed=3).brownout(0.0, 4, duration=10.0)
    run = inject(scenario, plan)
    run.infer(x[:8])  # degraded: node 4 is down
    assert 4 in run.tracker.down_nodes()
    run.sim.run(until=20.0)  # let the brownout end
    assert 4 not in run.tracker.down_nodes()
    degraded_before = len(run.trace.of_kind("degrade"))
    run.infer(x[:8])
    # The recovered mesh adds no new degradation decisions.
    assert len(run.trace.of_kind("degrade")) == degraded_before


@pytest.mark.chaos
def test_chaos_sweep_is_reproducible(trained):
    """The determinism pin: a chaos sweep rerun on the same points
    merges to the byte-identical report — same values, same telemetry,
    same canonical digest — and each value equals a direct call of
    the task outside the engine."""
    scenario, x, y = trained
    shared = scenario_shared(scenario, x[:16], y[:16])
    points = make_points(
        seeds=[0, 1], base_config={"loss_rates": [0.0, 0.3]}
    )
    first = run_sweep(CHAOS_TASK, points, root_seed=0, shared=shared)
    again = run_sweep(CHAOS_TASK, points, root_seed=0, shared=shared)
    assert again.canonical_json() == first.canonical_json()
    assert again.digest() == first.digest()
    assert again.merged_trace_digest() == first.merged_trace_digest()
    assert (
        again.merged_metrics().snapshot()
        == first.merged_metrics().snapshot()
    )
    for point, result in zip(points, first.results):
        direct = chaos_curve_point(point, np.random.default_rng(0), shared)
        assert result.value == direct
        # The payloads themselves pass the chaos invariants.
        assert_chaos_payload(result.seed, result.value)


@pytest.mark.chaos
@pytest.mark.chaos_sweep
@pytest.mark.skipif(
    not os.environ.get("REPRO_CHAOS_SWEEP"),
    reason="large chaos sweep is opt-in (REPRO_CHAOS_SWEEP=1)",
)
def test_chaos_sweep(trained):
    """The large opt-in sweep through the sweep engine."""
    scenario, x, y = trained
    report = run_sweep(
        CHAOS_TASK,
        make_points(seeds=SWEEP_SEEDS),
        root_seed=0,
        shared=scenario_shared(scenario, x, y),
    )
    assert len(report.results) == len(SWEEP_SEEDS)
    for result in report.results:
        assert result.value["loss_rates"] == LOSS_RATES
        assert_chaos_payload(result.seed, result.value)


# -- telemetry reconciliation (the metrics registry is the single -----------
# -- source of truth for per-node tallies) ----------------------------------
@pytest.mark.chaos
def test_telemetry_reconciles_with_fault_trace(trained):
    """Under faults, the network's three views (node counters, stats,
    metrics registry) agree, and cause-attributed drop counts match
    the FaultTrace event-for-event."""
    from repro import obs

    scenario, x, y = trained
    plan = FaultPlan(seed=7, loss_rate=0.2, duplicate_rate=0.1).crash(0.0, 2)
    with obs.session():
        run = inject(scenario, plan)
        run.infer(x[:8])
        assert run.network.telemetry_drift() == []
        stats = run.network.stats
        assert stats.dropped_causes.get("fault", 0) == len(
            run.trace.of_kind("link.drop")
        )
        assert stats.duplicated == len(run.trace.of_kind("link.duplicate"))
        assert stats.corrupted == len(run.trace.of_kind("link.corrupt"))


@pytest.mark.chaos
def test_telemetry_reconciles_under_lossy_bulk_fallback(trained):
    """`unicast_bulk` falls back to the per-message loop on lossy
    links; the reconciliation must survive that path too."""
    from repro import obs
    from repro.core import DistributedExecutor
    from repro.wsn import Network

    scenario, __, __ = trained
    for node in scenario.topology:  # revive nodes crashed by earlier runs
        node.alive = True
    with obs.session():
        network = Network(
            scenario.topology,
            loss_probability=0.3,
            max_retries=1,
            rng=np.random.default_rng(42),
        )
        network.reset_stats()  # the module-scoped topology is shared
        executor = DistributedExecutor(
            scenario.model, scenario.graph, scenario.placement, network
        )
        executor.replay_traffic(8)
        assert network.telemetry_drift() == []
        stats = network.stats
        assert stats.dropped > 0  # the lossy path actually exercised
        assert set(stats.dropped_causes) == {"loss"}


@pytest.mark.chaos
def test_one_placement_index_per_scenario(trained, monkeypatch):
    """A scenario builds its placement index, and with it the transfer
    list and its messages, once: a 4-cell sweep of
    ``chaos_cell_point`` and a 4-loss-rate ``chaos_curve_point``
    (eight injections) share them."""
    from repro.core import costmodel, placement_index
    from repro.faults import FaultScenario
    from repro.wsn.network import Message

    scenario, x, y = trained
    builds, transfer_calls, messages = [], [], []
    init = placement_index.PlacementIndex.__init__
    transfers = costmodel.placement_transfers
    post_init = Message.__post_init__

    def counting_message(message):
        messages.append(message)
        post_init(message)

    def counting_init(self, graph, placement):
        builds.append(placement)
        init(self, graph, placement)

    def counting_transfers(*args, **kwargs):
        transfer_calls.append(args)
        return transfers(*args, **kwargs)

    monkeypatch.setattr(placement_index.PlacementIndex, "__init__",
                        counting_init)
    monkeypatch.setattr(placement_index, "placement_transfers",
                        counting_transfers)
    monkeypatch.setattr(Message, "__post_init__", counting_message)
    fresh = FaultScenario(scenario.model, scenario.graph,
                          scenario.placement, scenario.topology)
    shared = scenario_shared(fresh, x[:8], y[:8])
    run_sweep("repro.faults.sweeps:chaos_cell_point",
              make_points(seeds=[3], grid={"loss_rate": LOSS_RATES}),
              shared=shared)
    chaos_curve_point(SweepPoint(index=0, seed=3, config={}),
                      np.random.default_rng(0), shared)
    assert builds == [scenario.placement]
    assert len(transfer_calls) == 1
    assert len(messages) == len(fresh.index.transfers)
    assert inject(fresh, FaultPlan()).executor.executor.index is fresh.index


def test_executor_rejects_an_index_of_another_deployment(trained):
    from repro.core import (
        DistributedExecutor,
        PlacementIndex,
        UnitGraph,
        grid_correspondence_assignment,
    )
    from repro.wsn import Network

    scenario, __, __ = trained
    network = Network(scenario.topology)
    args = (scenario.model, scenario.graph, scenario.placement, network)
    index = PlacementIndex(scenario.graph, scenario.placement)
    assert DistributedExecutor(*args, index=index).index is index
    other_graph = UnitGraph(scenario.model)
    other_placement = grid_correspondence_assignment(
        scenario.graph, scenario.topology
    )
    for bad in (PlacementIndex(other_graph, scenario.placement),
                PlacementIndex(scenario.graph, other_placement)):
        with pytest.raises(ValueError, match="index was not built"):
            DistributedExecutor(*args, index=bad)
