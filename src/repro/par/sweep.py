"""Deterministic sweep engine.

A *sweep* is a list of :class:`SweepPoint`\\s — (seed, config) pairs —
run through one task function, one point after another in this
process.  The engine's contract is the one the chaos suite, the E8
loss curve and the benchmark's fault campaign pin: **the report
depends only on the points' values** — not on the order they are
listed in, nor on which other points share the sweep.  Three
mechanisms deliver that:

- *deterministic RNG substreams*: every point draws from the
  :class:`numpy.random.SeedSequence` keyed by ``(root_seed,
  point.index)``, which equals the child
  ``SeedSequence(root_seed).spawn(n)`` hands out at that index.  Its
  draws follow the point, not its list position: the data-parallel
  discipline of parameter-server training (Li et al., OSDI 2014)
  applied to simulation sweeps;
- *per-point telemetry sessions*: each point runs under its own
  :func:`repro.obs.session`, which yields a canonical metrics snapshot
  plus the trace digest; the report merges them in ascending point
  index;
- *a canonical result-merge step*: :meth:`SweepReport.to_dict`
  excludes every wall-clock field by default, so the report (and its
  :meth:`~SweepReport.digest`) depends only on the points' values.

Tasks are top-level functions (resolvable as ``"module:qualname"``, or
a :mod:`repro.par.tasks` registry name), so a report's ``task`` field
always names a callable that resolves back to the task.  Large
read-only inputs (a trained scenario, a test set) reach every point
through ``shared``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union


@dataclass(frozen=True)
class SweepPoint:
    """One sweep coordinate: an index, a seed, and a config dict.

    ``index`` is the point's canonical position (merge order) and the
    key of its RNG substream, so it must be a non-negative integer;
    ``seed`` is the user-facing seed recorded in reports (tasks may
    also use it directly, e.g. for a :class:`FaultPlan`); ``config``
    must be JSON-stable.
    """

    index: int
    seed: Optional[int]
    config: Dict[str, object] = field(default_factory=dict)


@dataclass
class PointResult:
    """One completed point.

    ``wall_s`` is a diagnostic only — it is excluded from the
    canonical serialization so repeated runs compare byte-identical.
    """

    index: int
    seed: Optional[int]
    config: Dict[str, object]
    value: object
    metrics: List
    trace_digest: str
    trace_events: int
    wall_s: float

    def to_dict(self, include_wall: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "index": self.index,
            "seed": self.seed,
            "config": self.config,
            "value": self.value,
            "metrics": self.metrics,
            "trace_digest": self.trace_digest,
            "trace_events": self.trace_events,
        }
        if include_wall:
            out["wall_s"] = self.wall_s
        return out


SWEEP_SCHEMA_VERSION = 1
SWEEP_SUITE_NAME = "repro-sweep"


@dataclass
class SweepReport:
    """All point results plus the canonical merge.

    ``results`` is always sorted by point index — the merge order —
    whatever order the points were listed in.
    """

    task: str
    root_seed: int
    results: List[PointResult]
    elapsed_s: float

    def values(self) -> List[object]:
        return [r.value for r in self.results]

    def merged_metrics(self):
        """A fresh :class:`repro.obs.MetricsRegistry` folding every
        point's snapshot in index order."""
        from repro.obs import merge_snapshots

        return merge_snapshots(r.metrics for r in self.results)

    def merged_trace_digest(self) -> str:
        """Combined digest of the per-point traces, in index order."""
        from repro.obs import merge_digests

        return merge_digests(r.trace_digest for r in self.results)

    def to_dict(self, include_wall: bool = False) -> Dict[str, object]:
        """The report as a JSON-stable dict.

        The default form is **canonical**: no wall times — two runs
        of the same sweep serialize byte-identically.  With
        ``include_wall=True`` the timing diagnostics ride along under
        a single ``"wall"`` key (and per-point ``wall_s`` fields), so
        consumers can strip them uniformly.
        """
        from repro.obs.trace import canonical_value

        merged_metrics = self.merged_metrics().snapshot()
        doc: Dict[str, object] = {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "suite": SWEEP_SUITE_NAME,
            "task": self.task,
            "root_seed": self.root_seed,
            "n_points": len(self.results),
            "points": [
                canonical_value(r.to_dict(include_wall=include_wall))
                for r in self.results
            ],
            "merged": {
                "trace_digest": self.merged_trace_digest(),
                "metrics": canonical_value(merged_metrics),
            },
        }
        if include_wall:
            doc["wall"] = {"elapsed_s": self.elapsed_s}
        return doc

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """SHA-256 of the canonical serialization — the determinism
        pin tests compare across runs."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()


def strip_wall_fields(doc: Dict) -> Dict:
    """A deep copy of a ``to_dict(include_wall=True)`` report with
    every wall-time field removed — what "identical modulo wall time"
    means, in one place."""
    out = json.loads(json.dumps(doc))
    out.pop("wall", None)
    for point in out.get("points", []):
        point.pop("wall_s", None)
    return out


def make_points(
    seeds: Optional[Sequence[Optional[int]]] = None,
    grid: Optional[Dict[str, Sequence[object]]] = None,
    base_config: Optional[Dict[str, object]] = None,
) -> List[SweepPoint]:
    """The cartesian product of a seed list and a config grid.

    Seeds vary slowest, then grid keys in their given order; indices
    are assigned in that enumeration order.  ``base_config`` entries
    are merged under every grid combination.
    """
    from itertools import product

    seed_list = list(seeds) if seeds else [None]
    grid = grid or {}
    keys = list(grid)
    value_lists = [list(grid[k]) for k in keys]
    points: List[SweepPoint] = []
    for seed in seed_list:
        for combo in product(*value_lists):
            config = dict(base_config or {})
            config.update(zip(keys, combo))
            points.append(
                SweepPoint(index=len(points), seed=seed, config=config)
            )
    return points


def task_ref(task: Union[str, Callable]) -> str:
    """Normalize a task to its ``"module:qualname"`` (or registry
    name) reference.

    Accepts a registry name (``"chaos"``), a ``"module:qualname"``
    string, or a top-level callable.  Raises :class:`ValueError` when
    the task cannot be resolved back from its reference — nested
    functions, lambdas, and unimportable modules fail *here*, before
    any point runs, so a report's ``task`` field always names the
    callable that produced it.
    """
    if callable(task):
        qualname = getattr(task, "__qualname__", "")
        module = getattr(task, "__module__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ValueError(
                f"task {qualname or task!r} is not a top-level function; "
                "a sweep report names its task by an importable "
                "'module:qualname' reference"
            )
        ref = f"{module}:{qualname}"
        if resolve_task(ref) is not task:
            raise ValueError(
                f"task reference {ref!r} does not resolve back to the "
                "given callable"
            )
        return ref
    ref = str(task)
    resolve_task(ref)  # raises on unknown names / bad modules
    return ref


def resolve_task(ref: str) -> Callable:
    """A task callable from its reference (registry name first, then
    ``module:qualname``); :class:`ValueError` naming ``ref`` when it
    does not resolve to a callable."""
    if ":" not in ref:
        from repro.par.tasks import REGISTRY

        if ref not in REGISTRY:
            raise ValueError(
                f"unknown sweep task {ref!r}; registered: "
                f"{sorted(REGISTRY)}"
            )
        return REGISTRY[ref]
    module_name, __, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(
            f"task reference {ref!r} is not of the form 'module:qualname'"
        )
    try:
        obj = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ValueError(
            f"task reference {ref!r} does not resolve: {exc}"
        ) from exc
    if not callable(obj):
        raise ValueError(f"task reference {ref!r} is not callable")
    return obj


def run_sweep(
    task: Union[str, Callable],
    points: Sequence[SweepPoint],
    root_seed: int = 0,
    shared: Optional[object] = None,
) -> SweepReport:
    """Run ``task`` over ``points``, one point at a time, in index
    order.

    Each point runs through :func:`repro.par.worker.run_point` under
    its own telemetry session with the RNG substream keyed by
    ``(root_seed, point.index)``; ``shared`` is handed to every point
    unchanged (tasks treat it as read-only).
    """
    import numpy as np

    from repro.par import worker

    points = sorted(points, key=lambda p: p.index)
    indices = [p.index for p in points]
    if len(set(indices)) != len(indices):
        raise ValueError(f"sweep point indices must be unique: {indices}")
    if indices and indices[0] < 0:
        raise ValueError(
            f"sweep point indices must be non-negative, got {indices[0]}"
        )
    ref = task_ref(task)
    fn = resolve_task(ref)
    start = time.perf_counter()
    results = [
        worker.run_point(
            fn, point,
            np.random.SeedSequence(root_seed, spawn_key=(point.index,)),
            shared,
        )
        for point in points
    ]
    return SweepReport(
        task=ref,
        root_seed=int(root_seed),
        results=results,
        elapsed_s=time.perf_counter() - start,
    )
