"""Sweep tasks over the fault-injection layer.

These are the per-point tasks the chaos suite, the E8
accuracy-vs-loss-rate benchmark, and the benchmark's fault campaign
run through :func:`repro.par.run_sweep`.  Each takes the standard
``(point, rng, shared)`` signature; ``shared`` carries the
*pre-trained* scenario plus the held-out test set, so no point
retrains.

Every value a task returns is derived deterministically from
``(shared, point.seed, point.config)``, so a sweep's merged report is
byte-identical from run to run — the property the tests pin via
:meth:`repro.par.SweepReport.digest`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.runtime import RetryPolicy
from repro.faults.scenario import FaultScenario, demo_scenario, inject

#: Loss-rate curve the chaos suite sweeps per seed.
CHAOS_LOSS_RATES = (0.0, 0.15, 0.3, 0.5)


def build_chaos_shared(
    seed: int = 0,
    n_samples: int = 200,
    epochs: int = 10,
    max_test: Optional[int] = None,
) -> Dict[str, object]:
    """The shared payload for chaos sweeps: one trained demo scenario
    plus its held-out test set (optionally truncated)."""
    scenario, (x, y) = demo_scenario(
        seed=seed, n_samples=n_samples, epochs=epochs
    )
    if max_test is not None:
        x, y = x[:max_test], y[:max_test]
    return {"scenario": scenario, "x": x, "y": y}


def scenario_shared(
    scenario: FaultScenario, x: np.ndarray, y: np.ndarray
) -> Dict[str, object]:
    """Wrap an already-built scenario (e.g. the E8 fall detector) as a
    sweep ``shared`` payload."""
    return {"scenario": scenario, "x": np.asarray(x), "y": np.asarray(y)}


def chaos_curve_point(point, rng, shared) -> Dict[str, object]:
    """One chaos seed: the accuracy-vs-loss-rate curve plus the
    invariant evidence the chaos suite asserts on.

    Config: ``loss_rates`` (defaults to :data:`CHAOS_LOSS_RATES`),
    ``max_retries``, ``horizon``, ``n_crashes``, ``n_brownouts``.
    """
    scenario = shared["scenario"]
    x, y = shared["x"], shared["y"]
    cfg = point.config
    loss_rates = [float(l) for l in cfg.get("loss_rates", CHAOS_LOSS_RATES)]
    max_retries = int(cfg.get("max_retries", 2))
    policy = RetryPolicy(max_retries=max_retries)
    node_ids = sorted(scenario.topology.nodes)
    seed = int(point.seed if point.seed is not None else 0)

    accuracies, digests, records = [], [], []
    invariants = {
        "all_inferences_completed": True,
        "time_monotonic": True,
        "retries_bounded": True,
        "crashes_within_run": True,
    }
    for loss in loss_rates:
        plan = FaultPlan.random(
            seed=seed,
            node_ids=node_ids,
            horizon=float(cfg.get("horizon", 0.5)),
            loss_rate=loss,
            n_crashes=int(cfg.get("n_crashes", 1)),
            n_brownouts=int(cfg.get("n_brownouts", 1)),
        )
        run = inject(scenario, plan, policy=policy)
        accuracies.append(run.accuracy(x, y, chunks=4))
        digests.append(run.trace.digest())
        records.append(len(run.trace))
        if not (
            run.executor.inferences == 4
            and np.isfinite(run.sim.now)
            and len(run.trace.of_kind("exec.done")) == 4
        ):
            invariants["all_inferences_completed"] = False
        if not run.trace.is_time_monotonic():
            invariants["time_monotonic"] = False
        for kind in ("degrade.transfer-failed", "retry.recovered"):
            for record in run.trace.of_kind(kind):
                if record.detail["attempts"] > max_retries + 1:
                    invariants["retries_bounded"] = False
        for record in run.trace.of_kind("fault.crash"):
            if record.time > run.sim.now:
                invariants["crashes_within_run"] = False
    return {
        "loss_rates": loss_rates,
        "accuracies": accuracies,
        "fault_trace_digests": digests,
        "fault_records": records,
        "invariants": invariants,
    }


def loss_rate_point(point, rng, shared) -> Dict[str, object]:
    """One packet-loss rate of the E8 resilience curve.

    Config: ``loss_rate`` (required), ``plan_seed`` (default 13),
    ``max_retries`` (default 2), ``chunks`` (default 4).
    """
    scenario = shared["scenario"]
    x, y = shared["x"], shared["y"]
    cfg = point.config
    run = inject(
        scenario,
        FaultPlan(
            seed=int(cfg.get("plan_seed", 13)),
            loss_rate=float(cfg["loss_rate"]),
        ),
        policy=RetryPolicy(max_retries=int(cfg.get("max_retries", 2))),
    )
    accuracy = run.accuracy(x, y, chunks=int(cfg.get("chunks", 4)))
    summary = run.trace.summary()
    return {
        "loss_rate": float(cfg["loss_rate"]),
        "accuracy": accuracy,
        "fault_trace_digest": run.trace.digest(),
        "drops": summary.get("link.drop", 0),
        "retries_recovered": summary.get("retry.recovered", 0),
        "transfers_exhausted": summary.get("degrade.transfer-failed", 0),
        "inferences": run.executor.inferences,
        "time_monotonic": run.trace.is_time_monotonic(),
    }


def chaos_cell_point(point, rng, shared) -> Dict[str, object]:
    """One (seed, loss-rate) cell: the smallest chaos work unit, the
    per-point workload of the benchmark's ``fault_campaign``."""
    scenario = shared["scenario"]
    x, y = shared["x"], shared["y"]
    cfg = point.config
    seed = int(point.seed if point.seed is not None else 0)
    plan = FaultPlan.random(
        seed=seed,
        node_ids=sorted(scenario.topology.nodes),
        horizon=float(cfg.get("horizon", 0.5)),
        loss_rate=float(cfg.get("loss_rate", 0.3)),
        n_crashes=int(cfg.get("n_crashes", 1)),
        n_brownouts=int(cfg.get("n_brownouts", 1)),
    )
    run = inject(
        scenario, plan,
        policy=RetryPolicy(max_retries=int(cfg.get("max_retries", 2))),
    )
    return {
        "accuracy": run.accuracy(x, y, chunks=2),
        "fault_trace_digest": run.trace.digest(),
    }
