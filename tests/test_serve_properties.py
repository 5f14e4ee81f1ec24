"""Property test: serving is interleaving-invariant.

For any seeded interleaving of N concurrent requests — random tenant
choice, loop turns and clock advances at random points between
submits, random ``max_batch`` —
the multiset of returned logits equals the serial baseline (a direct
fixed-shape forward of the same inputs), and the accounting invariant
``serve.requests == sum of serve.batch_size histogram mass`` holds.
Everything runs on the fake clock: hundreds of schedules, zero real
sleeps.
"""

import numpy as np
import pytest

from repro.serve import BatchPolicy
from repro.serve.testing import ServeHarness

TENANTS = ("fall", "hvac")


def random_policy(rng) -> BatchPolicy:
    # max_batch=1 (every submit flushes inside itself) is in the space.
    return BatchPolicy(max_batch=int(rng.integers(1, 6)), max_pending=256)


def run_interleaving(seed: int, n_requests: int = 24):
    """One seeded schedule: returns (harness, submitted, futures,
    expected batch size of each request).

    The expected sizes come from a model of the dispatcher: a
    tenant's open batch closes when it reaches ``max_batch`` or when
    the loop turn ends (``run_due``, an ``advance``, or the drain).
    """
    rng = np.random.default_rng(seed)
    policy = random_policy(rng)
    harness = ServeHarness(tenants=TENANTS, policy=policy)
    submitted = {name: [] for name in TENANTS}
    futures = []
    expected = []
    open_batch = {name: [] for name in TENANTS}

    def close(name):
        for i in open_batch[name]:
            expected[i] = len(open_batch[name])
        open_batch[name] = []

    for i in range(n_requests):
        name = TENANTS[int(rng.integers(len(TENANTS)))]
        x = harness.make_input(name)
        submitted[name].append(x)
        futures.append((name, harness.submit(name, x)))
        expected.append(None)
        open_batch[name].append(i)
        if len(open_batch[name]) == policy.max_batch:
            close(name)
        # Sometimes end the loop turn, sometimes let time pass (which
        # runs the due turn first), sometimes submit back-to-back
        # within the same turn.
        u = rng.random()
        if u < 0.3:
            harness.run_due()
        elif u < 0.5:
            harness.advance(float(rng.choice([0.0005, 0.002, 0.01, 0.05])))
        if u < 0.5:
            for tenant in TENANTS:
                close(tenant)
    harness.drain()  # serve whatever is still pending
    for tenant in TENANTS:
        close(tenant)
    return harness, submitted, futures, expected


@pytest.mark.parametrize("seed", range(12))
def test_any_interleaving_matches_the_serial_baseline(seed):
    harness, submitted, futures, expected = run_interleaving(seed)
    # Every accepted request resolved with a result, in the batch the
    # next-turn model predicts: same-turn submits share one batch.
    assert all(future.done() for __, future in futures)
    assert [f.result().batch_size for __, f in futures] == expected
    assert all(f.result().latency_s == 0.0 for __, f in futures)

    # Multiset of served logits == multiset of the serial baseline.
    served = {name: [] for name in TENANTS}
    for name, future in futures:
        served[name].append(future.result().logits.tobytes())
    for name in TENANTS:
        if not submitted[name]:
            continue
        baseline = harness.direct(name, submitted[name])
        expected = [baseline[i].tobytes()
                    for i in range(baseline.shape[0])]
        assert sorted(served[name]) == sorted(expected), (
            f"seed {seed}: served logits multiset diverged for {name}"
        )

    # Accounting invariant: every request observed in exactly one batch.
    assert harness.metric_total("serve.requests") == float(len(futures))
    assert harness.batch_size_mass() == float(len(futures))


@pytest.mark.parametrize("seed", range(6))
def test_interleavings_are_reproducible(seed):
    """Same seed, same schedule: the exact result bytes and metric
    totals come out twice."""
    first = run_interleaving(seed, n_requests=10)
    second = run_interleaving(seed, n_requests=10)
    for (name_a, fut_a), (name_b, fut_b) in zip(first[2], second[2]):
        assert name_a == name_b
        assert (fut_a.result().logits.tobytes()
                == fut_b.result().logits.tobytes())
        assert fut_a.result().batch_size == fut_b.result().batch_size
        assert fut_a.result().latency_s == fut_b.result().latency_s
    assert (first[0].metric_total("serve.batches")
            == second[0].metric_total("serve.batches"))


def test_fault_interleaving_keeps_the_multiset_property():
    """The property survives a mid-stream fault: requests served by
    the event-driven oracle return the same bytes as the plan path
    (same math, different traffic accounting)."""
    harness = ServeHarness(
        tenants=TENANTS, policy=BatchPolicy(max_batch=3)
    )
    rng = np.random.default_rng(42)
    submitted = {name: [] for name in TENANTS}
    futures = []
    fall = harness.pool.require("fall")
    for i in range(16):
        if i == 6:
            list(fall.topology)[0].alive = False  # fault appears
        if i == 12:
            list(fall.topology)[0].alive = True   # and heals
        name = TENANTS[int(rng.integers(len(TENANTS)))]
        x = harness.make_input(name)
        submitted[name].append(x)
        futures.append((name, harness.submit(name, x)))
        if rng.random() < 0.4:
            harness.run_due()
    harness.drain()
    served_by = {future.result().served_by for __, future in futures}
    assert "plan" in served_by  # both paths were actually exercised
    assert any(s.startswith("fallback:") for s in served_by)
    for name in TENANTS:
        baseline = harness.direct(name, submitted[name])
        expected = sorted(
            baseline[i].tobytes() for i in range(baseline.shape[0])
        )
        got = sorted(
            future.result().logits.tobytes()
            for n, future in futures if n == name
        )
        assert got == expected
    assert harness.metric_total("serve.requests") == 16.0
    assert harness.batch_size_mass() == 16.0
