"""Deterministic sweeps (``repro.par``).

The package behind ``repro sweep``, the chaos suite, the E8 loss
curve and the benchmark's fault campaign:

- :mod:`repro.par.sweep` — the engine: :func:`run_sweep` runs
  :class:`SweepPoint`\\s one after another with per-point RNG
  substreams keyed by point index, per-point telemetry sessions, and a
  canonical index-ordered merge with a digest;
- :mod:`repro.par.worker` — :func:`~repro.par.worker.run_point`, the
  per-point executor;
- :mod:`repro.par.tasks` — the named task registry the CLI exposes.

Sweeps run serially in the calling process; no module in ``repro``
creates a process pool (an AST lint enforces it).
"""

from repro.par.sweep import (
    SWEEP_SCHEMA_VERSION,
    SWEEP_SUITE_NAME,
    PointResult,
    SweepPoint,
    SweepReport,
    make_points,
    resolve_task,
    run_sweep,
    strip_wall_fields,
    task_ref,
)
from repro.par.tasks import REGISTRY, available_tasks, sweep_task

__all__ = [
    "PointResult",
    "REGISTRY",
    "SWEEP_SCHEMA_VERSION",
    "SWEEP_SUITE_NAME",
    "SweepPoint",
    "SweepReport",
    "available_tasks",
    "make_points",
    "resolve_task",
    "run_sweep",
    "strip_wall_fields",
    "sweep_task",
    "task_ref",
]
