"""Golden-trace regression tests for the fault-injection layer.

One fixed scenario + plan + seed is pinned down to the exact event
sequence (and the sha256 digest of the canonical JSONL trace), so a
refactor of the executor retry path, the link fault model, or the
trace encoder cannot silently change recovery behaviour.  If a change
here is *intentional*, regenerate the constants by running this file's
``build_run()`` and updating the pins.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UnitGraph, grid_correspondence_assignment
from repro.faults import FaultPlan, RetryPolicy, inject
from repro.faults import trace as trace_module
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
        """The scenario's placement index builds one message per
        transfer on the first inference, and every later inference
        (and cell) reuses them; the trace is still the golden one."""
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


# -- stored lines against the to_json oracle ---------------------------------
PARITY = settings(derandomize=True, max_examples=200, deadline=None)

#: Record times: plain and numpy floats, ints, signed zeros, non-finite.
times = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 0.1 + 0.2]),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(-(10**6), 10**6),
)

#: Strings with quotes, backslashes, unicode and control characters.
texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", '\\"', "\n\t\x00\x1f", "ü€😀", "\u2028"]),
)

scalars = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    texts,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
    st.booleans().map(np.bool_),
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(texts, inner, max_size=3),
    ),
    max_leaves=6,
)

#: Detail keys: any string that is not one of record()'s own
#: parameter names.
keys = texts.filter(lambda k: k not in ("self", "time", "kind"))

#: A record's kind and detail, mostly plain (exact int/str) so that
#: the head cache is hit, with every other value type mixed in.
records = st.tuples(
    times,
    st.sampled_from(["link.drop", "degrade.zero", "x"]) | texts,
    st.dictionaries(
        keys, st.one_of(st.integers(), texts, values), max_size=4
    ),
)


def assert_lines_match_oracle(trace: FaultTrace) -> None:
    for rec in trace:
        assert rec.line == rec.to_json()
    assert trace.digest() == trace.digest_reference()
    assert trace.to_jsonl() == "\n".join(r.to_json() for r in trace)


class TestTraceLineParity:
    """Every stored line equals :meth:`TraceRecord.to_json`, and the
    records equal those of :meth:`FaultTrace.record_reference`."""

    @PARITY
    @given(st.lists(records, max_size=12))
    def test_lines_equal_oracle(self, batch):
        trace, reference = FaultTrace(), FaultTrace()
        for time, kind, detail in batch:
            # Twice: the second record of a plain pair hits the cache.
            for __ in range(2):
                rec = trace.record(time, kind, **detail)
                ref = reference.record_reference(time, kind, **detail)
                assert rec.line == ref.to_json()
                assert [type(v) for v in rec.detail.values()] == [
                    type(v) for v in ref.detail.values()
                ]
        assert_lines_match_oracle(trace)
        assert trace.digest() == reference.digest_reference()

    @pytest.mark.parametrize("order", [
        (1, True, 1.0, np.int64(1)),
        (True, 1, np.int64(1), 1.0),
        (1.0, np.int64(1), 1, True),
    ])
    def test_hash_equal_values_keep_their_encoding(self, order):
        """``True``, ``1``, ``1.0`` and ``np.int64(1)`` are equal,
        hash-equal dict keys; under one detail key each still gets the
        oracle's line, whichever came first."""
        trace = FaultTrace()
        for value in order:
            trace.record(0.5, "k.hash-equal", n=value)
        assert_lines_match_oracle(trace)
        tails = {
            type(value): rec.line.split('"n":')[1].split("}")[0]
            for value, rec in zip(order, trace)
        }
        assert tails == {
            int: "1", bool: "true", float: "1.0", np.int64: "1",
        }

    def test_non_finite_times_take_the_oracle_path(self):
        trace = FaultTrace()
        for time in (float("nan"), float("inf"), -float("inf"), -0.0):
            trace.record(time, "x", n=1)
        assert_lines_match_oracle(trace)
        assert [r.line.rsplit('"t":', 1)[1] for r in trace] == [
            "NaN}", "Infinity}", "-Infinity}", "-0.0}",
        ]

    def test_appended_records_share_one_line(self):
        """10,000 appends of one record allocate no string each: a
        per-append encoding would cost ~100 bytes a call, the record
        list's own growth ~9."""
        trace = FaultTrace()
        rec = trace.record(0.0, "degrade.update-skipped", layer=0, node=5)
        trace.append(rec)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for __ in range(10_000):
                trace.append(rec)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 10_000 * 24, grown
        assert len({id(r.line) for r in trace}) == 1
        assert_lines_match_oracle(trace)

    def test_foreign_record_is_encoded_once(self):
        """A record built outside :meth:`FaultTrace.record` encodes its
        line on first use and keeps it."""
        trace = FaultTrace()
        rec = TraceRecord(time=1.25, kind="x", detail={"a": [1, 2]})
        trace.append(rec)
        trace.append(rec)
        assert rec.line is rec.line
        assert_lines_match_oracle(trace)

    def test_head_cache_is_bounded(self):
        trace = FaultTrace()
        for i in range(trace_module._HEADS_MAX + 10):
            trace.record(0.25, f"k{i}", n=i)
        assert 0 < len(trace_module._HEADS) <= trace_module._HEADS_MAX
        assert_lines_match_oracle(trace)

    def test_golden_run_lines(self, golden_run):
        assert_lines_match_oracle(golden_run.trace)
        assert golden_run.trace.digest_reference() == GOLDEN_DIGEST
