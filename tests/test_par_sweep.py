"""Unit tests for the deterministic sweep engine.

The contract under test (``repro.par``): a sweep's report depends only
on its points — each point's RNG substream is keyed by its index, its
telemetry runs in its own session, and the canonical serialization
excludes wall time — so reruns, reorderings and subsets of the same
points agree point for point.
"""

import json

import numpy as np
import pytest

from repro.par import (
    PointResult,
    SweepPoint,
    SweepReport,
    available_tasks,
    make_points,
    resolve_task,
    run_sweep,
    strip_wall_fields,
    task_ref,
)
from repro.par.tasks import rng_task


class TestMakePoints:
    def test_cartesian_product_seeds_slowest(self):
        points = make_points(seeds=[7, 8], grid={"a": [1, 2], "b": ["x"]})
        assert len(points) == 4
        assert [p.index for p in points] == [0, 1, 2, 3]
        assert [p.seed for p in points] == [7, 7, 8, 8]
        assert [p.config for p in points] == [
            {"a": 1, "b": "x"},
            {"a": 2, "b": "x"},
            {"a": 1, "b": "x"},
            {"a": 2, "b": "x"},
        ]

    def test_base_config_merged_under_grid(self):
        points = make_points(
            seeds=[0], grid={"a": [1]}, base_config={"a": 9, "c": 3}
        )
        assert points[0].config == {"a": 1, "c": 3}

    def test_no_seeds_yields_single_none_seed(self):
        points = make_points(grid={"a": [1, 2]})
        assert [p.seed for p in points] == [None, None]

    def test_empty_everything_is_one_point(self):
        points = make_points()
        assert len(points) == 1
        assert points[0] == SweepPoint(index=0, seed=None, config={})


class TestTaskResolution:
    def test_registry_name_resolves(self):
        assert resolve_task("rng") is rng_task

    def test_unknown_registry_name_raises(self):
        with pytest.raises(ValueError, match="unknown sweep task"):
            resolve_task("no-such-task")

    def test_module_qualname_resolves(self):
        fn = resolve_task("repro.par.tasks:rng_task")
        assert fn is rng_task

    def test_non_callable_reference_raises(self):
        with pytest.raises(ValueError, match="not callable"):
            resolve_task("repro.par.tasks:REGISTRY")

    @pytest.mark.parametrize("ref", [
        "repro.par.tasks:NOPE",
        "repro.par.tasks:",
        "no_such_module:f",
    ])
    def test_unresolvable_reference_raises_value_error(self, ref):
        with pytest.raises(ValueError, match=ref):
            resolve_task(ref)
        with pytest.raises(ValueError, match=ref):
            task_ref(ref)

    def test_callable_roundtrips_to_ref(self):
        assert task_ref(rng_task) == "repro.par.tasks:rng_task"

    def test_nested_function_rejected(self):
        def nested(point, rng, shared):  # pragma: no cover - never runs
            return None

        with pytest.raises(ValueError, match="top-level function"):
            task_ref(nested)

    def test_lambda_rejected(self):
        with pytest.raises(ValueError, match="top-level function"):
            task_ref(lambda point, rng, shared: None)

    def test_available_tasks_lists_registry(self):
        tasks = available_tasks()
        assert "chaos" in tasks and "rng" in tasks
        assert tasks["rng"].startswith("Diagnostic")


class TestRunSweepValidation:
    def test_negative_index_rejected(self):
        points = [SweepPoint(0, 0), SweepPoint(-2, 1)]
        with pytest.raises(ValueError, match="non-negative, got -2"):
            run_sweep("rng", points)

    def test_duplicate_indices_rejected(self):
        points = [SweepPoint(0, 0), SweepPoint(0, 1)]
        with pytest.raises(ValueError, match="must be unique"):
            run_sweep("rng", points)

    def test_task_error_propagates_serial(self):
        with pytest.raises(ValueError, match="unknown example"):
            run_sweep(
                "example",
                [SweepPoint(0, None, {"name": "no-such-example"})],
            )


class TestDeterminism:
    def test_substreams_keyed_by_index(self):
        points = make_points(seeds=[0, 1, 2], grid={"k": [1, 2]})
        report = run_sweep("rng", points, root_seed=42)
        draws = [r.value["draw"] for r in report.results]
        # Re-running reproduces the exact draws.
        again = run_sweep("rng", points, root_seed=42)
        assert [r.value["draw"] for r in again.results] == draws
        # Each point's draw matches its independently spawned substream.
        children = np.random.SeedSequence(42).spawn(len(points))
        expected = [
            float(np.random.default_rng(child).random())
            for child in children
        ]
        assert draws == expected
        # The substream follows the point's index, not its list
        # position: a permuted list gives the same report ...
        permuted = run_sweep(
            "rng", [points[i] for i in (3, 0, 5, 1, 4, 2)], root_seed=42
        )
        assert [r.value["draw"] for r in permuted.results] == draws
        assert permuted.digest() == report.digest()
        # ... and a subset keeps each point's own draw.
        subset = run_sweep("rng", [points[0], points[2]], root_seed=42)
        assert [r.index for r in subset.results] == [0, 2]
        assert [r.value["draw"] for r in subset.results] == [
            expected[0], expected[2]
        ]

    def test_root_seed_changes_draws(self):
        points = make_points(seeds=[0], grid={"k": [1, 2]})
        a = run_sweep("rng", points, root_seed=0)
        b = run_sweep("rng", points, root_seed=1)
        assert a.values() != b.values()

    def test_results_sorted_by_index(self):
        points = make_points(seeds=[0, 1], grid={"k": [1, 2]})
        report = run_sweep("rng", points[::-1], root_seed=0)
        assert [r.index for r in report.results] == [0, 1, 2, 3]


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self):
        points = make_points(seeds=[0, 1])
        return run_sweep("rng", points, root_seed=0)

    def test_canonical_dict_has_no_wall_fields(self, report):
        doc = report.to_dict()
        assert "wall" not in doc
        for point in doc["points"]:
            assert "wall_s" not in point

    def test_wall_fields_segregated(self, report):
        doc = report.to_dict(include_wall=True)
        assert list(doc["wall"]) == ["elapsed_s"]
        assert doc["wall"]["elapsed_s"] >= 0
        for point in doc["points"]:
            assert point["wall_s"] >= 0

    def test_strip_wall_fields_recovers_canonical(self, report):
        full = report.to_dict(include_wall=True)
        assert strip_wall_fields(full) == report.to_dict()

    def test_canonical_json_is_stable(self, report):
        text = report.canonical_json()
        assert json.loads(text) == report.to_dict()
        assert report.canonical_json() == text

    def test_schema_fields(self, report):
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert doc["suite"] == "repro-sweep"
        assert doc["task"] == "rng"
        assert doc["n_points"] == 2
        assert len(doc["merged"]["trace_digest"]) == 64


class TestTelemetryMerge:
    def test_merged_metrics_fold_is_stable(self):
        points = make_points(seeds=[0, 1, 2])
        report = run_sweep("rng", points, root_seed=0)
        merged = report.merged_metrics()
        assert merged.snapshot() == report.merged_metrics().snapshot()

    def test_merge_snapshots_order_independent_for_counters(self):
        from repro.obs import MetricsRegistry, merge_snapshots

        a = MetricsRegistry()
        a.counter("hits").inc(2)
        b = MetricsRegistry()
        b.counter("hits").inc(3)
        ab = merge_snapshots([a.snapshot(), b.snapshot()])
        ba = merge_snapshots([b.snapshot(), a.snapshot()])
        assert ab.snapshot() == ba.snapshot()

    def test_merge_digests_depends_on_order(self):
        from repro.obs import merge_digests

        assert merge_digests(["a", "b"]) != merge_digests(["b", "a"])
        assert merge_digests(["a", "b"]) == merge_digests(["a", "b"])


class TestSharedPayload:
    def test_shared_reaches_workers(self):
        """Every point's task receives the one ``shared`` payload."""
        points = [SweepPoint(i, i) for i in range(3)]
        report = run_sweep(
            "repro.par.tasks:_echo_shared_task",
            points,
            shared={"token": "abc"},
        )
        assert all(r.value == {"token": "abc"} for r in report.results)

    def test_point_result_roundtrip(self):
        r = PointResult(
            index=0, seed=1, config={}, value=2, metrics=[],
            trace_digest="d", trace_events=0, wall_s=0.1,
        )
        assert r.to_dict() == {
            "index": 0, "seed": 1, "config": {}, "value": 2,
            "metrics": [], "trace_digest": "d", "trace_events": 0,
        }
