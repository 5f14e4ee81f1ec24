"""Sweep tasks over the fault-injection layer.

:func:`chaos_cell` is the unit: a random fault plan armed against a
pre-trained scenario, and the accuracy under it.  Every chaos task is
a composition of it with its own defaults: :func:`chaos_cell_point`
(the benchmark's ``fault_campaign`` cell), :func:`chaos_curve_point`
(a loss-rate curve plus the chaos suite's invariants),
:func:`loss_rate_point` (a crash-free E8 point) and
:func:`repro.par.tasks.chaos_task` (``repro sweep chaos``).

Each task takes the standard ``(point, rng, shared)`` signature;
``shared`` carries the *pre-trained* scenario plus the held-out test
set, so no point retrains.  Every value a task returns is derived
deterministically from ``(shared, point.seed, point.config)``, so a
sweep's merged report is byte-identical from run to run — the
property the tests pin via :meth:`repro.par.SweepReport.digest`.
"""

from __future__ import annotations

import numbers
from typing import Dict, Optional, Tuple

import numpy as np

from repro.faults.plan import FaultPlan
from repro.faults.runtime import RetryPolicy
from repro.faults.scenario import (
    FaultInjection,
    FaultScenario,
    demo_scenario,
    inject,
)

#: Loss-rate curve the chaos suite sweeps per seed.
CHAOS_LOSS_RATES = (0.0, 0.15, 0.3, 0.5)

#: The config keys a chaos cell reads, with their defaults.
CELL_DEFAULTS = {
    "loss_rate": 0.3, "corrupt_rate": 0.0, "duplicate_rate": 0.0,
    "horizon": 0.5, "n_crashes": 1, "n_brownouts": 1, "max_retries": 2,
    "chunks": 4,
}


def build_chaos_shared(
    seed: int = 0, n_samples: int = 200, epochs: int = 10
) -> Dict[str, object]:
    """The shared payload for chaos sweeps: one trained demo scenario
    plus its held-out test set."""
    scenario, (x, y) = demo_scenario(
        seed=seed, n_samples=n_samples, epochs=epochs
    )
    return scenario_shared(scenario, x, y)


def scenario_shared(
    scenario: FaultScenario, x: np.ndarray, y: np.ndarray
) -> Dict[str, object]:
    """Wrap an already-built scenario (e.g. the E8 fall detector) as a
    sweep ``shared`` payload."""
    return {"scenario": scenario, "x": np.asarray(x), "y": np.asarray(y)}


def chaos_cell(
    shared: Dict[str, object],
    seed: Optional[int],
    config: Dict[str, object],
    **defaults,
) -> Tuple[FaultInjection, float]:
    """One chaos cell: a :meth:`FaultPlan.random` plan armed against
    the shared scenario, and the accuracy over its test set in
    ``chunks`` inferences.

    ``config`` is merged over the caller's ``defaults`` over
    :data:`CELL_DEFAULTS`.  An unknown key, a value that is not a
    number, or a count that is not an integer is a ``ValueError``
    naming the key.  A ``None`` seed is 0.
    """
    settings = {**CELL_DEFAULTS, **defaults, **config}
    for key, value in settings.items():
        if key not in CELL_DEFAULTS:
            raise ValueError(
                f"unknown chaos config key {key!r}; known keys: "
                f"{', '.join(CELL_DEFAULTS)}"
            )
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{key} must be a number, got {value!r}")
    scenario = shared["scenario"]
    plan = FaultPlan.random(
        seed=0 if seed is None else seed,
        node_ids=sorted(scenario.topology.nodes),
        horizon=float(settings["horizon"]),
        loss_rate=float(settings["loss_rate"]),
        corrupt_rate=float(settings["corrupt_rate"]),
        duplicate_rate=float(settings["duplicate_rate"]),
        n_crashes=settings["n_crashes"],
        n_brownouts=settings["n_brownouts"],
    )
    run = inject(
        scenario, plan,
        policy=RetryPolicy(max_retries=settings["max_retries"]),
    )
    return run, run.accuracy(
        shared["x"], shared["y"], chunks=settings["chunks"]
    )


def cell_summary(run: FaultInjection, accuracy: float) -> Dict[str, object]:
    """A cell's accuracy plus the fault-trace evidence behind it."""
    summary = run.trace.summary()
    return {
        "accuracy": accuracy,
        "fault_trace_digest": run.trace.digest(),
        "fault_records": len(run.trace),
        "drops": summary.get("link.drop", 0),
        "retries_recovered": summary.get("retry.recovered", 0),
        "transfers_exhausted": summary.get("degrade.transfer-failed", 0),
        "inferences": run.executor.inferences,
        "time_monotonic": run.trace.is_time_monotonic(),
    }


def chaos_curve_point(point, rng, shared) -> Dict[str, object]:
    """One chaos seed: the accuracy-vs-loss-rate curve plus the
    invariant evidence the chaos suite asserts on.

    Config: ``loss_rates`` (defaults to :data:`CHAOS_LOSS_RATES`) and
    the cell keys but ``loss_rate``.
    """
    cfg = dict(point.config)
    loss_rates = [float(l) for l in cfg.pop("loss_rates", CHAOS_LOSS_RATES)]
    if "loss_rate" in cfg:
        raise ValueError("chaos_curve_point sweeps loss_rates, not loss_rate")
    cells = [chaos_cell(shared, point.seed, {**cfg, "loss_rate": loss})
             for loss in loss_rates]
    runs = [run for run, __ in cells]
    # A cell skips empty chunks, so it runs at most len(x) inferences.
    chunks = min(cfg.get("chunks", CELL_DEFAULTS["chunks"]), len(shared["x"]))
    return {
        "loss_rates": loss_rates,
        "accuracies": [accuracy for __, accuracy in cells],
        "fault_trace_digests": [run.trace.digest() for run in runs],
        "fault_records": [len(run.trace) for run in runs],
        "invariants": {
            "all_inferences_completed": all(
                run.executor.inferences == chunks
                and np.isfinite(run.sim.now)
                and len(run.trace.of_kind("exec.done")) == chunks
                for run in runs
            ),
            "time_monotonic": all(
                run.trace.is_time_monotonic() for run in runs
            ),
            "retries_bounded": all(
                record.detail["attempts"]
                <= run.executor.policy.max_retries + 1
                for run in runs
                for kind in ("degrade.transfer-failed", "retry.recovered")
                for record in run.trace.of_kind(kind)
            ),
            "crashes_within_run": all(
                record.time <= run.sim.now
                for run in runs for record in run.trace.of_kind("fault.crash")
            ),
        },
    }


def loss_rate_point(point, rng, shared) -> Dict[str, object]:
    """One packet-loss rate of the E8 resilience curve: a cell with no
    crashes or brownouts by default.

    Config: ``loss_rate`` (required), ``plan_seed`` (default 13) and
    the other cell keys.
    """
    cfg = dict(point.config)
    loss_rate = float(cfg["loss_rate"])
    run, accuracy = chaos_cell(
        shared, cfg.pop("plan_seed", 13), cfg, n_crashes=0, n_brownouts=0
    )
    summary = cell_summary(run, accuracy)
    del summary["fault_records"]
    return {"loss_rate": loss_rate, **summary}


def chaos_cell_point(point, rng, shared) -> Dict[str, object]:
    """One (seed, loss-rate) cell in two inferences: the smallest
    chaos work unit, the per-point workload of the benchmark's
    ``fault_campaign``."""
    run, accuracy = chaos_cell(shared, point.seed, point.config, chunks=2)
    return {"accuracy": accuracy, "fault_trace_digest": run.trace.digest()}
