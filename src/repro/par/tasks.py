"""Registered sweep tasks for the ``repro sweep`` CLI.

A task is a top-level function ``task(point, rng, shared)`` returning
a JSON-stable value.  Registering it under a short name
makes it addressable from the command line::

    repro sweep chaos --seeds 0-4 --grid loss_rate=0.0,0.2,0.4

CLI tasks are **self-contained**: they receive no ``shared`` payload,
so anything expensive (the trained demo scenario) is built on first
use and memoized per process — a sweep pays the build once however
many points it has.
"""

from __future__ import annotations

from typing import Callable, Dict

#: name -> task function; the CLI's task namespace.
REGISTRY: Dict[str, Callable] = {}


def sweep_task(name: str) -> Callable[[Callable], Callable]:
    """Register a top-level function as a named CLI sweep task."""

    def register(fn: Callable) -> Callable:
        REGISTRY[str(name)] = fn
        return fn

    return register


def available_tasks() -> Dict[str, str]:
    """name -> first docstring line, for ``repro sweep --list``."""
    return {
        name: (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        for name, fn in sorted(REGISTRY.items())
    }


#: Process-local cache of trained demo scenarios, keyed by their
#: build parameters, so one sweep trains once however many points it
#: has.
_SCENARIO_CACHE: Dict[tuple, object] = {}


def _demo(seed: int, n_samples: int, epochs: int):
    from repro.faults import demo_scenario

    key = (seed, n_samples, epochs)
    if key not in _SCENARIO_CACHE:
        _SCENARIO_CACHE[key] = demo_scenario(
            seed=seed, n_samples=n_samples, epochs=epochs
        )
    return _SCENARIO_CACHE[key]


@sweep_task("chaos")
def chaos_task(point, rng, shared):
    """One fault-injected inference run on the trained demo scenario.

    Config knobs (all optional): ``loss_rate``, ``corrupt_rate``,
    ``duplicate_rate``, ``n_crashes``, ``n_brownouts``, ``horizon``,
    ``max_retries``, plus scenario build parameters ``scenario_seed``,
    ``n_samples``, ``epochs``.  The point's ``seed`` drives the fault
    plan.
    """
    from repro.faults import FaultPlan, RetryPolicy, inject

    cfg = point.config
    scenario, (x, y) = _demo(
        int(cfg.get("scenario_seed", 0)),
        int(cfg.get("n_samples", 80)),
        int(cfg.get("epochs", 4)),
    )
    seed = int(point.seed if point.seed is not None else 0)
    plan = FaultPlan.random(
        seed=seed,
        node_ids=sorted(scenario.topology.nodes),
        horizon=float(cfg.get("horizon", 0.5)),
        loss_rate=float(cfg.get("loss_rate", 0.2)),
        corrupt_rate=float(cfg.get("corrupt_rate", 0.0)),
        duplicate_rate=float(cfg.get("duplicate_rate", 0.0)),
        n_crashes=int(cfg.get("n_crashes", 1)),
        n_brownouts=int(cfg.get("n_brownouts", 1)),
    )
    run = inject(
        scenario, plan,
        policy=RetryPolicy(max_retries=int(cfg.get("max_retries", 2))),
    )
    accuracy = run.accuracy(x, y, chunks=4)
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


@sweep_task("example")
def example_task(point, rng, shared):
    """Run one registered example end to end, stdout captured.

    Config: ``name`` — a key of :data:`repro.cli.EXAMPLES` (defaults
    to ``quickstart``).  The value fingerprints the output, so a sweep
    doubles as a determinism check across the example catalogue.
    """
    import hashlib
    import io
    from contextlib import redirect_stdout

    from repro.cli import _load_example

    name = str(point.config.get("name", "quickstart"))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        module, code = _load_example(name)
        if module is None:
            raise ValueError(f"unknown example {name!r}")
        module.main()
    out = buffer.getvalue()
    return {
        "example": name,
        "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest(),
        "stdout_lines": out.count("\n"),
    }


@sweep_task("rng")
def rng_task(point, rng, shared):
    """Diagnostic: one substream draw per point (engine smoke test)."""
    return {
        "draw": float(rng.random()),
        "seed": point.seed,
        "config": dict(point.config),
    }


def _echo_shared_task(point, rng, shared):
    """Test helper: echo the shared payload back as the point's value."""
    return shared
