"""Deterministic dispatcher tests on the fake clock.

Every batching behavior here — window flushes, early flushes, the
synchronous fast path, tenant isolation, hot-swap races, backpressure,
shutdown draining — runs on :class:`repro.serve.testing.FakeClock`
with zero real sleeps and no sockets: time moves only when a test
calls ``advance``, so the assertions are exact (a request's recorded
latency *equals* the batching window, not approximately).
"""

import numpy as np
import pytest

from repro.serve import (
    BatchPolicy,
    DispatcherClosed,
    PlainFuture,
    TenantOverloaded,
    UnknownTenant,
)
from repro.serve.testing import FakeClock, ServeHarness


class TestFakeClock:
    def test_now_advances_exactly(self):
        clock = FakeClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5

    def test_callbacks_fire_in_deadline_then_schedule_order(self):
        clock = FakeClock()
        fired = []
        clock.call_later(0.2, lambda: fired.append("b"))
        clock.call_later(0.1, lambda: fired.append("a"))
        clock.call_later(0.2, lambda: fired.append("c"))
        assert clock.advance(0.3) == 3
        assert fired == ["a", "b", "c"]

    def test_cancelled_timer_never_fires(self):
        clock = FakeClock()
        fired = []
        timer = clock.call_later(0.1, lambda: fired.append("x"))
        timer.cancel()
        assert clock.advance(1.0) == 0
        assert fired == []
        assert clock.scheduled() == 0

    def test_callback_scheduled_during_advance_fires_within_it(self):
        clock = FakeClock()
        fired = []
        clock.call_later(
            0.1, lambda: clock.call_later(0.1, lambda: fired.append("inner"))
        )
        assert clock.advance(0.3) == 2
        assert fired == ["inner"]

    def test_callback_sees_its_deadline_as_now(self):
        clock = FakeClock()
        seen = []
        clock.call_later(0.25, lambda: seen.append(clock.now()))
        clock.advance(1.0)
        assert seen == [0.25]
        assert clock.now() == 1.0

    def test_negative_delay_rejected(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            clock.call_later(-0.1, lambda: None)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_run_due_fires_zero_delay_without_moving_time(self):
        clock = FakeClock()
        fired = []
        clock.call_later(0.0, lambda: fired.append("x"))
        assert clock.run_due() == 1
        assert fired == ["x"]
        assert clock.now() == 0.0


class TestBatchingWindows:
    def test_max_delay_flush(self):
        """Requests below max_batch wait out the window, then flush
        together; recorded latency is exactly the window."""
        h = ServeHarness(policy=BatchPolicy(max_batch=4, max_delay=0.01))
        futures = [h.submit("fall") for __ in range(3)]
        assert not any(f.done() for f in futures)
        h.advance(0.005)
        assert not any(f.done() for f in futures)
        h.advance(0.005)  # 0.005 + 0.005 == 0.01 exactly in binary
        assert all(f.done() for f in futures)
        results = [f.result() for f in futures]
        assert all(r.batch_size == 3 for r in results)
        assert all(r.latency_s == 0.01 for r in results)
        assert h.metric("serve.batches", tenant="fall") == 1.0

    def test_max_batch_flushes_early(self):
        """The window closes the instant it fills — no clock advance."""
        h = ServeHarness(policy=BatchPolicy(max_batch=4, max_delay=10.0))
        futures = [h.submit("fall") for __ in range(4)]
        assert all(f.done() for f in futures)
        assert all(f.result().batch_size == 4 for f in futures)
        assert all(f.result().latency_s == 0.0 for f in futures)
        # The armed timer was cancelled; nothing is left to fire.
        assert h.clock.scheduled() == 0

    def test_single_request_fast_path(self):
        """max_delay=0 serves each request synchronously on arrival."""
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=0.0))
        future = h.submit("fall")
        assert future.done()
        result = future.result()
        assert result.batch_size == 1
        assert result.latency_s == 0.0
        assert h.clock.scheduled() == 0

    def test_fresh_window_rearms_after_flush(self):
        h = ServeHarness(policy=BatchPolicy(max_batch=4, max_delay=0.01))
        first = h.submit("fall")
        h.advance(0.01)
        assert first.done()
        second = h.submit("fall")
        assert not second.done()
        h.advance(0.01)
        assert second.done()
        assert second.result().latency_s == 0.01

    def test_served_logits_match_direct_forward_bitwise(self):
        h = ServeHarness(policy=BatchPolicy(max_batch=4, max_delay=0.01))
        xs = [h.make_input("fall") for __ in range(3)]
        futures = [h.submit("fall", x) for x in xs]
        h.advance(0.01)
        direct = h.direct("fall", xs)
        for i, future in enumerate(futures):
            assert future.result().logits.tobytes() == direct[i].tobytes()

    def test_prediction_metadata(self):
        h = ServeHarness(policy=BatchPolicy(max_batch=1, max_delay=0.0))
        result = h.submit("fall").result()
        assert result.tenant == "fall"
        assert result.pred == int(result.logits.argmax())
        assert result.label == h.pool.require("fall").labels[result.pred]
        assert result.served_by == "plan"


class TestTenantIsolation:
    def test_lanes_batch_independently(self):
        """Filling one tenant's lane flushes it alone; the other
        tenant's window keeps waiting."""
        h = ServeHarness(policy=BatchPolicy(max_batch=2, max_delay=0.01))
        slow = h.submit("hvac")
        fast = [h.submit("fall") for __ in range(2)]
        assert all(f.done() for f in fast)
        assert not slow.done()
        h.advance(0.01)
        assert slow.done()
        assert slow.result().batch_size == 1

    def test_fault_fallback_never_delays_the_other_tenant(self):
        """One tenant falling back to the event-driven oracle is
        invisible to the other lane: same flush time, same plan
        serving, exact latency."""
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=0.01))
        fall = h.pool.require("fall")
        list(fall.topology)[4].alive = False  # forces the oracle
        assert fall.fault_state() == "node-down"
        faulted = h.submit("fall")
        healthy = h.submit("hvac")
        h.advance(0.01)
        assert faulted.result().served_by == "fallback:node-down"
        assert healthy.result().served_by == "plan"
        assert healthy.result().latency_s == 0.01
        assert h.metric(
            "serve.plan_fallbacks", tenant="fall", reason="node-down"
        ) == 1.0
        assert h.metric("serve.plan_runs", tenant="hvac") == 1.0

    def test_fault_state_reports_unroutable(self):
        """A node moved out of radio range leaves every node alive, so
        only compiling the plan finds the unroutable transfer; the
        health report must name the reason ``infer`` serves with, and
        asking must move no traffic."""
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=0.01))
        fall = h.pool.require("fall")
        node = list(fall.topology)[4]
        x, y = node.position
        node.position = (x + 10.0, y)
        sent = fall.network.stats.sent
        assert fall.fault_state() == "unroutable"
        assert fall.describe()["fault"] == "unroutable"
        assert fall.network.stats.sent == sent
        served = h.submit("fall")
        h.advance(0.01)
        assert served.result().served_by == "fallback:unroutable"
        node.position = (x, y)
        assert fall.fault_state() is None

    def test_fallback_accounts_traffic_for_real_requests_only(self):
        """The oracle replay accounts exactly the flushed request
        count — pad rows never inflate the network counters."""
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=0.01))
        fall = h.pool.require("fall")
        list(fall.topology)[4].alive = False
        baseline = fall.network.stats.sent
        h.submit("fall")
        h.advance(0.01)
        sent_one = fall.network.stats.sent - baseline
        assert sent_one > 0
        for __ in range(3):
            h.submit("fall")
        h.advance(0.01)
        assert fall.network.stats.sent - baseline == 4 * sent_one


class TestHotSwap:
    def test_swap_lands_before_flush_serves_from_new_tenant(self):
        """The dispatcher resolves the tenant at flush time, so a
        queued request is served by the tenant installed when the
        window closes."""
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=0.01))
        x = h.make_input("fall")
        future = h.submit("fall", x)
        replacement = h.build_tenant("fall", seed=9)
        h.pool.swap(replacement)
        h.advance(0.01)
        expected = replacement.direct_forward(x[np.newaxis])[0]
        assert future.result().logits.tobytes() == expected.tobytes()

    def test_swap_to_other_shape_fails_queued_requests_individually(self):
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=0.01))
        future = h.submit("fall")
        swapped = h.build_tenant("hvac", name="fall")  # (1,10,10) now
        h.pool.swap(swapped)
        ok = h.submit("fall", np.zeros(swapped.input_shape))
        h.advance(0.01)
        with pytest.raises(ValueError, match="swapped"):
            future.result()
        assert ok.result().logits.shape == (2,)

    def test_removed_tenant_fails_queued_requests(self):
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=0.01))
        future = h.submit("fall")
        h.pool.remove("fall")
        h.advance(0.01)
        with pytest.raises(UnknownTenant):
            future.result()

    def test_unknown_tenant_rejected_at_submit(self):
        h = ServeHarness()
        with pytest.raises(UnknownTenant):
            h.submit("nope", np.zeros((1, 8, 8)))

    def test_wrong_shape_rejected_at_submit(self):
        h = ServeHarness()
        with pytest.raises(ValueError, match="shape"):
            h.submit("fall", np.zeros((1, 9, 9)))


class TestBackpressureAndDrain:
    def test_overloaded_lane_rejects_with_503_semantics(self):
        h = ServeHarness(
            policy=BatchPolicy(max_batch=99, max_delay=1.0, max_pending=2)
        )
        h.submit("fall")
        h.submit("fall")
        with pytest.raises(TenantOverloaded) as exc_info:
            h.submit("fall")
        assert exc_info.value.tenant == "fall"
        assert exc_info.value.pending == 2
        assert h.metric("serve.rejected", tenant="fall") == 1.0
        # The other tenant's lane is unaffected by the full one.
        assert not h.submit("hvac").done()

    def test_drain_serves_everything_in_flight(self):
        """Shutdown flushes every lane's pending window; accepted work
        is never dropped."""
        h = ServeHarness(policy=BatchPolicy(max_batch=8, max_delay=10.0))
        futures = [h.submit("fall") for __ in range(3)]
        futures.append(h.submit("hvac"))
        assert not any(f.done() for f in futures)
        h.drain()
        assert all(f.done() for f in futures)
        assert all(f.result().logits.shape == (2,) for f in futures)

    def test_drained_dispatcher_refuses_new_work(self):
        h = ServeHarness()
        h.drain()
        with pytest.raises(DispatcherClosed):
            h.submit("fall")

    def test_drain_is_idempotent(self):
        h = ServeHarness()
        h.drain()
        h.drain()


class TestMetricsInvariants:
    def test_requests_equal_batch_size_histogram_mass(self):
        """The pinned invariant: every request is observed in exactly
        one batch, so ``serve.requests`` equals the total observation
        mass of the ``serve.batch_size`` histogram."""
        h = ServeHarness(policy=BatchPolicy(max_batch=3, max_delay=0.01))
        for __ in range(7):
            h.submit("fall")
        for __ in range(2):
            h.submit("hvac")
        h.drain()
        assert h.metric_total("serve.requests") == 9.0
        assert h.batch_size_mass() == 9.0
        # 7 fall requests at max_batch=3 -> 3+3+1; hvac -> 2.
        assert h.metric("serve.batches", tenant="fall") == 3.0
        assert h.metric("serve.batches", tenant="hvac") == 1.0

    def test_tenant_served_counter_tracks_requests(self):
        h = ServeHarness(policy=BatchPolicy(max_batch=2, max_delay=0.0))
        for __ in range(3):
            h.submit("fall")
        assert h.pool.require("fall").served == 3


class TestPlainFuture:
    def test_result_and_done_callback(self):
        future = PlainFuture()
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        assert not future.done()
        future.set_result(42)
        assert future.done()
        assert future.result() == 42
        assert seen == [42]

    def test_exception_path(self):
        future = PlainFuture()
        future.set_exception(ValueError("boom"))
        assert isinstance(future.exception(), ValueError)
        with pytest.raises(ValueError, match="boom"):
            future.result()

    def test_double_resolution_rejected(self):
        future = PlainFuture()
        future.set_result(1)
        with pytest.raises(RuntimeError):
            future.set_result(2)
        with pytest.raises(RuntimeError):
            future.set_exception(ValueError())

    def test_pending_access_rejected(self):
        future = PlainFuture()
        with pytest.raises(RuntimeError):
            future.result()
        with pytest.raises(RuntimeError):
            future.exception()
