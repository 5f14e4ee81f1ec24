"""Smoke and unit tests for the ``repro bench`` harness.

One real quick-mode suite run is shared across the CLI tests (module
fixture) so tier-1 stays fast; comparison/threshold semantics are
pinned on hand-built reports.
"""

import json

import pytest

from repro.cli import main
from repro.perf import (
    BenchProtocol,
    Comparison,
    CounterRegistry,
    SCHEMA_VERSION,
    SUITE_NAME,
    TimingStats,
    compare_reports,
    input_digest,
    measure,
    regressions,
    run_suite,
    validate_report,
)


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    """One real quick bench run through the CLI, parsed back."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_quick.json"
    assert main(["bench", "--quick", "--out", str(out)]) == 0
    return out, json.loads(out.read_text())


class TestBenchCli:
    def test_quick_run_writes_schema_valid_report(self, quick_report):
        __, report = quick_report
        assert validate_report(report) == []
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["suite"] == SUITE_NAME
        assert report["protocol"]["quick"] is True
        assert set(report["protocol"]) == {"quick", "seed", "warmup",
                                           "repeat"}
        names = [b["name"] for b in report["benchmarks"]]
        assert names == [
            "traffic_replay_batched", "forward_plan",
            "forward_masked_dead20", "im2col_unfold", "local_backward",
            "telemetry_overhead", "timeline_overhead", "fault_trace",
            "serve_throughput", "city_scale",
        ]

    def test_local_backward_entry_certifies_parity(self, quick_report):
        """The training-backward benchmark must carry the untimed
        parity evidence next to its speedup: gradient agreement and
        counter-exact update-skip accounting under a dead-node set."""
        __, report = quick_report
        bench = next(
            b for b in report["benchmarks"] if b["name"] == "local_backward"
        )
        counters = bench["counters"]
        assert counters["parity_max_abs_diff"] <= 1e-12
        assert counters["update_skips_match"] == 1
        assert counters["update_skips"] > 0
        assert counters["n_dead_nodes"] >= 1
        assert bench["params"]["dead_nodes"]
        assert bench["reference_timing"]["best_s"] > 0
        assert bench["speedup"] > 0

    def test_fault_trace_entry_certifies_digest_parity(self, quick_report):
        """The fault-trace entry replays one chaos cell both ways and
        carries the equal-digest certification next to its speedup."""
        __, report = quick_report
        bench = next(
            b for b in report["benchmarks"] if b["name"] == "fault_trace"
        )
        counters = bench["counters"]
        assert counters["parity_digest_equal"] == 1
        assert counters["records"] > 100
        assert bench["reference_timing"]["best_s"] > 0
        assert bench["speedup"] > 0

    def test_forward_plan_entry_certifies_differential_parity(
        self, quick_report
    ):
        """The compiled-plan benchmark must carry its differential
        evidence next to the speedup: byte-identical logits and exactly
        equal traffic counters against the event-driven oracle, plus
        the plan's shape (links, transfer groups) so a committed entry
        documents what was compiled."""
        __, report = quick_report
        bench = next(
            b for b in report["benchmarks"] if b["name"] == "forward_plan"
        )
        counters = bench["counters"]
        assert counters["parity_logits_identical"] == 1
        assert counters["parity_stats_equal"] == 1
        assert counters["n_links"] > 0
        assert counters["n_transfer_groups"] > 0
        assert counters["values_per_inference"] > 0
        assert counters["batch"] == 8
        assert bench["reference_timing"]["best_s"] > 0
        # The reference side is pinned to the event-driven replay; if
        # that pin broke, both sides would take the compiled path and
        # converge to ~1x.  The plan must be well clear of that even
        # in quick mode.
        assert bench["speedup"] > 2.0

    def test_serve_throughput_certifies_parity_and_latency(
        self, quick_report
    ):
        """The serving bench's contract: parity counters certify the
        untimed byte-identity and metrics-reconciliation asserts ran
        (they surface in the bench table's parity column), and the
        headline numbers are present and sane."""
        __, report = quick_report
        bench = next(
            b for b in report["benchmarks"]
            if b["name"] == "serve_throughput"
        )
        counters = bench["counters"]
        assert counters["parity_logits_bitwise"] == 1.0
        assert counters["parity_metrics_reconciled"] == 1.0
        assert counters["rps"] > 0
        assert 0 < counters["p50_ms"] <= counters["p99_ms"]
        # The batched side really coalesces: closed-loop requests that
        # arrive in one loop turn share a batch.
        assert 1.0 < counters["mean_batch"] <= bench["params"]["max_batch"]
        assert bench["reference_timing"]["best_s"] > 0
        assert bench["params"]["concurrency"] >= bench["params"]["max_batch"]

    def test_city_scale_certifies_parity_and_build_budget(
        self, quick_report
    ):
        """The city-scale bench's contract: every untimed parity assert
        ran (neighbor lists, graph, routes, counter-exact stats, Choco
        RNG stream, unroutable attribution — surfaced as 1.0 counters),
        the sparse graph build beats its O(n^2) reference, and the
        full-graph construction stays inside the documented budget.
        The committed full-mode BENCH_perf.json pins the 10k-node
        >= 20x headline; quick mode only sanity-bounds the shape."""
        __, report = quick_report
        bench = next(
            b for b in report["benchmarks"] if b["name"] == "city_scale"
        )
        counters = bench["counters"]
        for parity in (
            "parity_graph_identical",
            "parity_neighbors_identical",
            "parity_routes_identical",
            "parity_stats_equal",
            "parity_choco_identical",
            "parity_unroutable_attributed",
        ):
            assert counters[parity] == 1.0, parity
        assert counters["n_nodes"] >= 1000
        assert counters["n_edges"] > 0
        assert counters["n_dead"] > 0
        # The acceptance budget is < 5 s for the FULL 10k build; the
        # quick-mode district must come in far under it.
        assert counters["graph_build_s"] < 5.0
        assert counters["reference_graph_build_s"] > counters["graph_build_s"]
        assert bench["reference_timing"]["best_s"] > 0
        # Even quick mode's smaller district must show a decisive win
        # over the brute-force path (full mode lands far higher).
        assert bench["speedup"] > 3.0
        assert bench["params"]["comm_range"] > 0

    def test_city_scale_rides_the_regression_gate(self, quick_report,
                                                  tmp_path, capsys):
        """Satellite pin: a synthetic slowdown in city_scale ALONE must
        trip the exit-3 gate — i.e. the new benchmark is genuinely
        inside the `--against` comparison, not just present in the
        report."""
        __, report = quick_report
        doctored = json.loads(json.dumps(report))
        for bench in doctored["benchmarks"]:
            if bench["name"] != "city_scale":
                continue
            timing = bench["timing"]
            timing["best_s"] /= 100.0
            timing["mean_s"] /= 100.0
            timing["median_s"] /= 100.0
            timing["runs_s"] = [r / 100.0 for r in timing["runs_s"]]
        baseline = tmp_path / "city_fast_baseline.json"
        baseline.write_text(json.dumps(doctored))
        out = tmp_path / "current.json"
        code = main(["bench", "--quick", "--out", str(out),
                     "--against", str(baseline)])
        assert code == 3
        captured = capsys.readouterr().out
        assert "REGRESSED" in captured
        assert "city_scale" in captured

    def test_against_identical_run_passes(self, quick_report, tmp_path,
                                          capsys):
        """Re-running against the just-written baseline passes.  The
        threshold is generous because quick-mode timings on a loaded
        CI box jitter; the tight-threshold semantics are pinned on
        hand-built reports in TestCompareSemantics."""
        baseline_path, __ = quick_report
        out = tmp_path / "rerun.json"
        code = main(["bench", "--quick", "--out", str(out),
                     "--against", str(baseline_path),
                     "--threshold", "900"])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_against_detects_synthetic_slowdown(self, quick_report, tmp_path,
                                                capsys):
        """A baseline twice as fast as reality == the current code got
        50% slower; the gate must trip (exit 3)."""
        __, report = quick_report
        doctored = json.loads(json.dumps(report))
        for bench in doctored["benchmarks"]:
            timing = bench["timing"]
            timing["best_s"] /= 2.0
            timing["mean_s"] /= 2.0
            timing["median_s"] /= 2.0
            timing["runs_s"] = [r / 2.0 for r in timing["runs_s"]]
        baseline = tmp_path / "fast_baseline.json"
        baseline.write_text(json.dumps(doctored))
        out = tmp_path / "current.json"
        code = main(["bench", "--quick", "--out", str(out),
                     "--against", str(baseline)])
        assert code == 3
        assert "REGRESSED" in capsys.readouterr().out

    def test_against_missing_baseline_is_usage_error(self, tmp_path):
        out = tmp_path / "current.json"
        code = main(["bench", "--quick", "--out", str(out),
                     "--against", str(tmp_path / "nope.json")])
        assert code == 2

    def test_against_invalid_json_baseline_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "current.json"
        code = main(["bench", "--quick", "--out", str(out),
                     "--against", str(bad)])
        assert code == 2

    def test_against_schema_invalid_baseline_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad_schema.json"
        bad.write_text(json.dumps({"schema_version": 99, "benchmarks": []}))
        out = tmp_path / "current.json"
        code = main(["bench", "--quick", "--out", str(out),
                     "--against", str(bad)])
        assert code == 2


class TestSeedStability:
    def test_same_seed_same_digests(self, quick_report):
        """Two runs with the same seed see byte-identical inputs —
        the reproducibility contract behind the regression gate."""
        __, first = quick_report
        second = run_suite(quick=True, seed=0)
        digests_a = {b["name"]: b["input_digest"] for b in first["benchmarks"]}
        digests_b = {b["name"]: b["input_digest"] for b in second["benchmarks"]}
        assert digests_a == digests_b

    def test_different_seed_different_digests(self, quick_report):
        __, first = quick_report
        other = run_suite(quick=True, seed=1)
        digests_a = {b["name"]: b["input_digest"] for b in first["benchmarks"]}
        digests_b = {b["name"]: b["input_digest"] for b in other["benchmarks"]}
        assert any(digests_a[n] != digests_b[n] for n in digests_a)


def make_report(best_by_name):
    """Minimal schema-valid report with the given best_s values."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": SUITE_NAME,
        "protocol": {"quick": True, "seed": 0, "warmup": 1, "repeat": 2},
        "env": {"python": "3", "numpy": "2", "platform": "test"},
        "benchmarks": [
            {
                "name": name,
                "params": {},
                "input_digest": "0" * 64,
                "timing": {"best_s": best, "mean_s": best, "median_s": best,
                           "std_s": 0.0, "runs_s": [best]},
            }
            for name, best in best_by_name.items()
        ],
    }


class TestCompareSemantics:
    def test_threshold_is_strict(self):
        baseline = make_report({"a": 1.0, "b": 1.0, "c": 1.0})
        current = make_report({"a": 1.25, "b": 1.2500001, "c": 0.5})
        comps = {c.name: c for c in compare_reports(current, baseline, 25.0)}
        assert not comps["a"].regressed      # exactly at threshold: pass
        assert comps["b"].regressed          # just past it: fail
        assert not comps["c"].regressed      # faster: pass
        assert [c.name for c in regressions(comps.values())] == ["b"]

    def test_missing_benchmark_counts_as_regression(self):
        baseline = make_report({"a": 1.0, "gone": 1.0})
        current = make_report({"a": 1.0})
        comps = compare_reports(current, baseline)
        gone = next(c for c in comps if c.name == "gone")
        assert gone.missing and gone.regressed

    def test_new_benchmark_in_current_is_ignored(self):
        baseline = make_report({"a": 1.0})
        current = make_report({"a": 1.0, "new": 100.0})
        comps = compare_reports(current, baseline)
        assert [c.name for c in comps] == ["a"]
        assert not comps[0].regressed

    def test_negative_threshold_rejected(self):
        report = make_report({"a": 1.0})
        with pytest.raises(ValueError):
            compare_reports(report, report, threshold_pct=-1.0)

    def test_make_report_is_schema_valid(self):
        assert validate_report(make_report({"a": 1.0})) == []

    def test_validate_catches_common_corruption(self):
        report = make_report({"a": 1.0})
        report["benchmarks"][0]["timing"]["best_s"] = -1.0
        assert validate_report(report)
        report = make_report({"a": 1.0})
        report["benchmarks"].append(dict(report["benchmarks"][0]))
        assert any("duplicate" in e for e in validate_report(report))
        assert validate_report([]) == ["report must be a JSON object"]


class TestTimingPrimitives:
    def test_protocol_validation(self):
        with pytest.raises(ValueError):
            BenchProtocol(warmup=-1, repeat=3)
        with pytest.raises(ValueError):
            BenchProtocol(warmup=0, repeat=0)

    def test_measure_runs_warmup_plus_repeat(self):
        calls = []
        stats = measure(lambda: calls.append(1),
                        BenchProtocol(warmup=2, repeat=3))
        assert len(calls) == 5          # warmup + timed
        assert len(stats.runs_s) == 3   # only timed runs recorded
        assert stats.best_s == min(stats.runs_s)
        assert stats.best_s <= stats.median_s

    def test_measure_setup_untimed_and_passed_through(self):
        seen = []
        stats = measure(seen.append, BenchProtocol(warmup=1, repeat=2),
                        setup=lambda: "fixture")
        assert seen == ["fixture"] * 3
        assert stats.to_dict()["std_s"] >= 0.0

    def test_counter_registry(self):
        counters = CounterRegistry()
        counters.set("x", 2)
        counters.add("x", 3)
        assert counters.to_dict() == {"x": 5.0}

    def test_input_digest_sensitivity(self):
        import numpy as np
        a = np.arange(6, dtype=np.float64)
        assert input_digest(a) == input_digest(a.copy())
        assert input_digest(a) != input_digest(a.astype(np.float32))
        assert input_digest(a) != input_digest(a.reshape(2, 3))
        assert input_digest(a) != input_digest(a, extra="salt")
        assert len(input_digest(a)) == 64

    def test_comparison_dataclass_fields(self):
        comp = Comparison(name="a", baseline_best_s=1.0, current_best_s=2.0,
                          ratio=2.0, regressed=True)
        assert not comp.missing


class TestTelemetryOverheadBench:
    def test_entry_shape_and_budget(self, quick_report):
        """The tracer-overhead case reports both sides of the ratio and
        its documented budget.  The committed full-mode BENCH_perf.json
        is the authoritative budget evidence; here we only sanity-bound
        the quick run loosely so tier-1 cannot flake on scheduler
        noise."""
        __, report = quick_report
        (entry,) = [
            b for b in report["benchmarks"]
            if b["name"] == "telemetry_overhead"
        ]
        assert entry["reference_timing"]["best_s"] > 0
        assert entry["timing"]["best_s"] > 0
        counters = entry["counters"]
        assert counters["budget_pct"] == 5.0
        assert counters["spans_per_run"] > 0
        assert counters["overhead_pct"] < 50.0
        # Interleaved-pairs protocol: both sides ran the same number of
        # times, more than the plain repeat count.
        assert len(entry["timing"]["runs_s"]) == len(
            entry["reference_timing"]["runs_s"]
        )
        assert len(entry["timing"]["runs_s"]) > report["protocol"]["repeat"]

    def test_timeline_entry_shape_budget_and_parity(self, quick_report):
        """The flight-recorder overhead case: same interleaved-pairs
        protocol and 5% budget as the tracer bench, plus the two pins
        specific to the recorder — a near-zero null-backend hook cost
        and byte-identical timeline digests across seeded runs (the
        parity evidence the bench table surfaces)."""
        __, report = quick_report
        (entry,) = [
            b for b in report["benchmarks"]
            if b["name"] == "timeline_overhead"
        ]
        assert entry["reference_timing"]["best_s"] > 0
        assert entry["timing"]["best_s"] > 0
        counters = entry["counters"]
        assert counters["budget_pct"] == 5.0
        assert counters["series_per_sample"] > 0
        assert counters["overhead_pct"] < 50.0  # loose: quick-mode noise
        # The disabled recorder's sample_if_due is one attribute check:
        # nanoseconds, not microseconds.
        assert 0 <= counters["null_sample_ns"] < 2000.0
        assert counters["parity_digest_identical"] == 1.0
        assert len(entry["timing"]["runs_s"]) == len(
            entry["reference_timing"]["runs_s"]
        )

    def test_bench_trace_writes_valid_jsonl(self, tmp_path):
        from repro import obs

        out = tmp_path / "bench.json"
        trace = tmp_path / "bench_trace.jsonl"
        assert main(["bench", "--quick", "--out", str(out),
                     "--trace", str(trace)]) == 0
        events = obs.load_trace_file(trace)
        assert events
        for event in events[:200]:
            assert obs.validate_event(event) == [], event
