"""Golden-trace regression tests for the fault-injection layer.

One fixed scenario + plan + seed is pinned down to the exact event
sequence (and the sha256 digest of the canonical JSONL trace), so a
refactor of the executor retry path, the link fault model, or the
trace encoder cannot silently change recovery behaviour.  If a change
here is *intentional*, regenerate the constants by running this file's
``build_run()`` and updating the pins.
"""

import json

import numpy as np
import pytest

from repro.core import UnitGraph, grid_correspondence_assignment
from repro.faults import FaultPlan, RetryPolicy, inject
from repro.faults.scenario import FaultScenario
from repro.faults.trace import FaultTrace, TraceRecord
from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential
from repro.wsn import GridTopology
from repro.wsn.network import Message

GOLDEN_DIGEST = "5e64c00d90c4a5ff8a63e7f194f20d923d19d172869b3f270e536d1e62741bae"
GOLDEN_N_RECORDS = 60

#: The exact event-kind sequence for two inferences under the golden
#: plan: inference 1 sees a crash mid-replay plus drops with one
#: exhausted retry budget and zero-fills (no cache yet); inference 2
#: recovers every drop within budget and falls back to stale caches.
GOLDEN_KINDS = [
    "exec.start",
    "fault.crash",
    "degrade.source-down",
    "link.drop",
    "retry.recovered",
    "link.drop",
    "link.drop",
    "degrade.transfer-failed",
    "degrade.source-down",
    "degrade.source-down",
    "link.drop",
    "retry.recovered",
    "degrade.source-down",
    "degrade.source-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "degrade.source-down",
    "degrade.source-down",
    "degrade.zero",
    "degrade.zero",
    "degrade.zero",
    "degrade.zero",
    "degrade.zero",
    "degrade.zero",
    "exec.done",
    "exec.start",
    "link.drop",
    "retry.recovered",
    "degrade.source-down",
    "link.drop",
    "retry.recovered",
    "degrade.source-down",
    "degrade.source-down",
    "link.drop",
    "retry.recovered",
    "link.drop",
    "retry.recovered",
    "degrade.source-down",
    "degrade.source-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "degrade.dest-down",
    "link.drop",
    "retry.recovered",
    "degrade.source-down",
    "link.drop",
    "retry.recovered",
    "degrade.source-down",
    "degrade.stale",
    "degrade.stale",
    "degrade.stale",
    "degrade.stale",
    "degrade.stale",
    "degrade.stale",
    "exec.done",
]

GOLDEN_EXEC_DONE = [
    {"down_nodes": [3], "failed_transfers": 13, "inference": 1,
     "substitutions": 18},
    {"down_nodes": [3], "failed_transfers": 12, "inference": 2,
     "substitutions": 18},
]

#: A spot-check of full records (time, kind, detail) at the start of
#: the trace — the crash fires mid-replay, then the first retry cycle.
GOLDEN_HEAD = [
    (0.0, "exec.start", {"batch": 2, "inference": 1}),
    (0.012, "fault.crash", {"node": 3}),
    (0.02, "degrade.source-down", {"dst": 0, "layer": 0, "src": 3}),
    (0.025, "link.drop", {"dst": 1, "msg": "layer0", "src": 0}),
]


def build_run():
    """The pinned deployment: 2x2 grid, deterministic weights, one
    crash at t=0.012 plus 25 % loss under a 1-retry policy."""
    rng = np.random.default_rng(42)
    model = Sequential([Conv2D(1, 3), ReLU(), Flatten(), Dense(2)])
    model.build((1, 4, 4), rng)
    graph = UnitGraph(model)
    topology = GridTopology(2, 2)
    placement = grid_correspondence_assignment(graph, topology)
    scenario = FaultScenario(
        model=model, graph=graph, placement=placement, topology=topology
    )
    plan = FaultPlan(seed=5, loss_rate=0.25).crash(0.012, 3)
    run = inject(
        scenario, plan,
        policy=RetryPolicy(max_retries=1, attempt_latency_s=0.005,
                           timeout_s=0.05),
    )
    x = np.random.default_rng(1).normal(size=(2, 1, 4, 4))
    run.infer(x)
    run.infer(x)
    return run


@pytest.fixture(scope="module")
def golden_run():
    return build_run()


class TestGoldenTrace:
    def test_digest_is_pinned(self, golden_run):
        assert golden_run.trace.digest() == GOLDEN_DIGEST

    def test_record_count(self, golden_run):
        assert len(golden_run.trace) == GOLDEN_N_RECORDS

    def test_exact_kind_sequence(self, golden_run):
        assert [r.kind for r in golden_run.trace] == GOLDEN_KINDS

    def test_head_records_exact(self, golden_run):
        head = list(golden_run.trace)[: len(GOLDEN_HEAD)]
        got = [(r.time, r.kind, r.detail) for r in head]
        assert got == GOLDEN_HEAD

    def test_exec_done_details(self, golden_run):
        done = golden_run.trace.of_kind("exec.done")
        assert [r.detail for r in done] == GOLDEN_EXEC_DONE

    def test_retry_budget_respected_in_golden(self, golden_run):
        for record in golden_run.trace.of_kind("retry.recovered"):
            assert record.detail["attempts"] == 2
        failed = golden_run.trace.of_kind("degrade.transfer-failed")
        assert len(failed) == 1
        assert failed[0].detail["attempts"] == 2

    def test_second_inference_uses_stale_cache(self, golden_run):
        """Inference 1 has no cache (zero-fill); inference 2 must fall
        back to the stale activations cached by inference 1."""
        zeros = golden_run.trace.of_kind("degrade.zero")
        stales = golden_run.trace.of_kind("degrade.stale")
        assert len(zeros) == 6 and len(stales) == 6
        done = golden_run.trace.of_kind("exec.done")
        assert all(z.time <= done[0].time for z in zeros)
        assert all(s.time > done[0].time for s in stales)

    def test_messages_built_on_first_inference_only(self, monkeypatch):
        """The executor builds one message per transfer on its first
        inference and reuses them; the trace is still the golden one."""
        built = []
        post_init = Message.__post_init__

        def counting(message):
            built.append(message)
            post_init(message)

        monkeypatch.setattr(Message, "__post_init__", counting)
        run = build_run()
        transfers = run.executor.executor.index.transfers
        assert len(built) == len(transfers)
        assert run.trace.digest() == GOLDEN_DIGEST
        run.infer(np.zeros((1, 1, 4, 4)))
        assert len(built) == len(transfers)


class TestTraceEncoding:
    """The canonical encoding itself is load-bearing for determinism
    tests and golden digests — pin its formatting rules."""

    def test_jsonl_is_canonical(self, golden_run):
        for line in golden_run.trace.to_jsonl().splitlines():
            obj = json.loads(line)
            # Round-trip through the same canonical form is stable.
            assert json.dumps(obj, sort_keys=True,
                              separators=(",", ":")) == line
            assert set(obj) == {"t", "kind", "detail"}

    def test_detail_keys_sorted(self):
        trace = FaultTrace()
        trace.record(0.0, "x", zebra=1, alpha=2, mid=3)
        (rec,) = list(trace)
        assert list(rec.detail) == ["alpha", "mid", "zebra"]

    def test_numpy_scalars_coerced(self):
        trace = FaultTrace()
        trace.record(np.float64(1.5), "x", n=np.int64(3), v=np.float32(0.5))
        line = trace.to_jsonl()
        obj = json.loads(line)
        assert obj["t"] == 1.5
        assert obj["detail"]["n"] == 3
        assert isinstance(obj["detail"]["n"], int)

    def test_records_are_immutable(self):
        rec = TraceRecord(time=0.0, kind="x", detail={})
        with pytest.raises(AttributeError):
            rec.time = 1.0

    def test_digest_changes_with_content(self):
        a, b = FaultTrace(), FaultTrace()
        a.record(0.0, "x", n=1)
        b.record(0.0, "x", n=2)
        assert a.digest() != b.digest()
