"""Registered sweep tasks for the ``repro sweep`` CLI.

A task is a top-level function ``task(point, rng, shared)`` returning
a JSON-stable value.  Registering it under a short name
makes it addressable from the command line::

    repro sweep chaos --seeds 0-4 --grid loss_rate=0.0,0.2,0.4

CLI tasks are **self-contained**: they receive no ``shared`` payload,
so anything expensive is built on first use and memoized per process
— a sweep pays the build once however many points it has.  ``chaos``
is one :func:`repro.faults.sweeps.chaos_cell` over the trained demo
scenario, memoized per build parameters.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _chaos_shared(scenario_seed: int, n_samples: int, epochs: int):
    """The ``shared`` payload (trained demo scenario plus test set)
    of these build parameters, built once per process however many
    points a sweep has."""
    from repro.faults.sweeps import build_chaos_shared

    return build_chaos_shared(scenario_seed, n_samples, epochs)


@sweep_task("chaos")
def chaos_task(point, rng, shared):
    """One fault-injected inference run on the trained demo scenario.

    Config knobs (all optional): the chaos cell's ``loss_rate``
    (default 0.2), ``corrupt_rate``, ``duplicate_rate``, ``horizon``,
    ``n_crashes``, ``n_brownouts``, ``max_retries`` and ``chunks``
    (see :data:`repro.faults.sweeps.CELL_DEFAULTS`), plus the
    integer scenario build parameters ``scenario_seed``,
    ``n_samples``, ``epochs``.  The point's ``seed`` drives the fault
    plan.
    """
    from repro.faults.plan import check_int
    from repro.faults.sweeps import cell_summary, chaos_cell

    cfg = dict(point.config)
    build = {"scenario_seed": 0, "n_samples": 80, "epochs": 4}
    for key in build:
        build[key] = cfg.pop(key, build[key])
        check_int(key, build[key])
    shared = _chaos_shared(*build.values())
    return cell_summary(*chaos_cell(shared, point.seed, cfg, loss_rate=0.2))


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
