"""Determinism tests: same fault plan + seed => byte-identical traces.

Hidden ``random`` usage or dict-iteration-order dependence anywhere on
the fault path would break these, across both the WSN (MicroDeep
transfer replay) and the backscatter (MAC coexistence) paths.
"""

import numpy as np
import pytest

from repro.backscatter.mac import (
    ContentionBackscatterMac,
    ScheduledBackscatterMac,
    run_coexistence,
)
from repro.core import UnitGraph, grid_correspondence_assignment
from repro.faults import (
    FaultEvent,
    FaultPlan,
    FaultTrace,
    LinkFaultModel,
    RetryPolicy,
    demo_scenario,
    inject,
)
from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential
from repro.wsn import CsmaMac, GridTopology, Network, TdmaMac
from repro.wsn.network import Message
from repro.sim import Simulator


def tiny_scenario():
    """An untrained (but deterministically initialized) deployment —
    determinism checks don't need a trained model."""
    from repro.faults.scenario import FaultScenario

    rng = np.random.default_rng(42)
    model = Sequential([Conv2D(1, 3), ReLU(), Flatten(), Dense(2)])
    model.build((1, 6, 6), rng)
    graph = UnitGraph(model)
    topology = GridTopology(2, 2)
    placement = grid_correspondence_assignment(graph, topology)
    return FaultScenario(
        model=model, graph=graph, placement=placement, topology=topology
    )


class TestPlanDeterminism:
    def test_random_plan_is_reproducible(self):
        ids = list(range(9))
        a = FaultPlan.random(7, ids, horizon=1.0, n_crashes=2,
                             n_brownouts=1, n_drifts=1)
        b = FaultPlan.random(7, ids, horizon=1.0, n_crashes=2,
                             n_brownouts=1, n_drifts=1)
        assert a.events == b.events
        assert a.loss_rate == b.loss_rate

    def test_different_seeds_differ(self):
        ids = list(range(9))
        a = FaultPlan.random(7, ids, horizon=1.0, n_crashes=2)
        b = FaultPlan.random(8, ids, horizon=1.0, n_crashes=2)
        assert a.events != b.events


NON_FINITE = [float("nan"), float("inf"), -float("inf")]


class TestFaultParameterValidation:
    """Non-finite and non-integer fault parameters are rejected where
    they enter, with a ValueError naming the field."""

    @pytest.mark.parametrize("horizon", NON_FINITE)
    def test_random_plan_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan.random(0, list(range(9)), horizon=horizon)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name,kind", [
        ("time", "crash"), ("duration", "brownout"),
        ("factor", "clock_drift"), ("factor", "crash"),
    ])
    def test_event_fields(self, name, kind, bad):
        fields = {"time": 0.1, "kind": kind, "node": 0, "duration": 0.2,
                  "factor": 1.5, name: bad}
        with pytest.raises(ValueError, match=f"event {name} must be finite"):
            FaultEvent(**fields)

    def test_infinite_drift_never_reaches_the_trace(self):
        with pytest.raises(ValueError, match="factor"):
            FaultPlan(seed=0).clock_drift(0.0, 1, float("inf"))

    @pytest.mark.parametrize("retries", [True, False, 2.5, 2.0, "2", None])
    def test_retry_count_must_be_an_integer(self, retries):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=retries)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["attempt_latency_s", "timeout_s"])
    def test_retry_times(self, name, bad):
        with pytest.raises(ValueError, match=name):
            RetryPolicy(**{name: bad})

    def test_valid_parameters_still_accepted(self):
        assert RetryPolicy(max_retries=np.int64(3)).max_retries == 3
        plan = FaultPlan.random(3, list(range(9)), horizon=0.5,
                                n_brownouts=1, n_drifts=1)
        assert len(plan.events) == 3


class TestWsnPathDeterminism:
    def run_once(self, x):
        scenario = tiny_scenario()
        plan = (
            FaultPlan(seed=9, loss_rate=0.3, corrupt_rate=0.05,
                      duplicate_rate=0.05)
            .crash(0.01, 3)
            .brownout(0.02, 1, duration=0.05)
        )
        run = inject(scenario, plan)
        run.infer(x)
        run.infer(x)
        return run

    def test_byte_identical_traces(self):
        x = np.random.default_rng(0).normal(size=(4, 1, 6, 6))
        first = self.run_once(x)
        second = self.run_once(x)
        assert first.trace.to_jsonl().encode() == second.trace.to_jsonl().encode()
        assert first.trace.digest() == second.trace.digest()
        assert first.sim.now == second.sim.now
        assert first.network.stats == second.network.stats

    def test_network_link_fault_stream_is_seed_deterministic(self):
        topology = GridTopology(3, 3)
        outcomes = []
        for __ in range(2):
            for node in topology:
                node.alive = True
            trace = FaultTrace()
            link = LinkFaultModel(loss_rate=0.3, duplicate_rate=0.1,
                                  seed=5, trace=trace)
            net = Network(topology, link_faults=link)
            results = [
                net.unicast(Message(src=0, dst=8, n_values=3))
                for __ in range(50)
            ]
            outcomes.append((results, trace.to_jsonl()))
        assert outcomes[0] == outcomes[1]


class TestMacPathDeterminism:
    def mac_run(self, mac_cls, **kwargs):
        trace = FaultTrace()
        link = LinkFaultModel(loss_rate=0.2, duplicate_rate=0.05,
                              seed=3, trace=trace)
        result = run_coexistence(
            mac_cls,
            n_devices=5,
            device_period_s=0.5,
            wlan_rate_pps=40.0,
            duration_s=20.0,
            seed=123,
            link_faults=link,
            **kwargs,
        )
        return result, trace

    @pytest.mark.parametrize(
        "mac_cls", [ScheduledBackscatterMac, ContentionBackscatterMac]
    )
    def test_backscatter_coexistence_deterministic(self, mac_cls):
        first, trace_a = self.mac_run(mac_cls)
        second, trace_b = self.mac_run(mac_cls)
        assert trace_a.to_jsonl().encode() == trace_b.to_jsonl().encode()
        assert first.readings_delivered == second.readings_delivered
        assert first.injected_drops == second.injected_drops
        assert first.duplicated_readings == second.duplicated_readings
        assert first.latencies == second.latencies
        # Faults were actually exercised.
        assert first.injected_drops > 0

    def test_wsn_mac_link_faults_deterministic(self):
        def one_run(mac_factory):
            sim = Simulator()
            trace = FaultTrace()
            link = LinkFaultModel(loss_rate=0.25, duplicate_rate=0.1,
                                  seed=6, trace=trace)
            delivered = []
            mac = mac_factory(sim, link, delivered)
            for i in range(30):
                mac.offer(i % 3, f"pkt{i}")
            sim.run(until=100.0)
            return delivered, trace.to_jsonl(), mac.stats

        def tdma(sim, link, delivered):
            mac = TdmaMac(
                sim, [0, 1, 2], slot_duration=1.0,
                on_delivery=lambda n, p: delivered.append((n, p)),
                link_faults=link,
            )
            mac.start()
            return mac

        def csma(sim, link, delivered):
            return CsmaMac(
                sim, slot_duration=1.0, rng=np.random.default_rng(2),
                on_delivery=lambda n, p: delivered.append((n, p)),
                link_faults=link,
            )

        for factory in (tdma, csma):
            a = one_run(factory)
            b = one_run(factory)
            assert a == b
            assert a[2].dropped > 0  # faults were exercised
