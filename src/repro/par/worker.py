"""The per-point executor of the sweep engine.

:func:`run_point` runs one :class:`~repro.par.SweepPoint` under its
own telemetry session and packs the value, the canonical metrics
snapshot and the trace digest into a :class:`~repro.par.PointResult`;
:func:`repro.par.run_sweep` calls it once per point.
"""

from __future__ import annotations

import time


def run_point(task, point, seed_seq, shared):
    """Execute one point under its own telemetry session.

    The RNG handed to the task is built from ``seed_seq`` — the
    point's :class:`~numpy.random.SeedSequence` substream — so its
    draws depend only on the root seed and the point's index.
    """
    import numpy as np

    from repro.obs import session
    from repro.obs.trace import canonical_value
    from repro.par.sweep import PointResult, SweepPoint

    # A private config copy: a task that mutates it cannot reach the
    # caller's points.
    point = SweepPoint(point.index, point.seed, dict(point.config))
    rng = np.random.default_rng(seed_seq)
    start = time.perf_counter()
    with session() as tel:
        value = task(point, rng, shared)
    return PointResult(
        index=point.index,
        seed=point.seed,
        config=point.config,
        value=canonical_value(value),
        metrics=canonical_value(tel.metrics.snapshot()),
        trace_digest=tel.tracer.digest(),
        trace_events=len(tel.tracer),
        wall_s=time.perf_counter() - start,
    )
