"""Correctness checks: every op's output against a reference.

Each workload has a reference computed apart from the measured process
and a ``compare_*`` function that returns the indices of the ops whose
output disagrees.  ``test_checks.py`` feeds each comparison one
corrupted output and requires it to be caught.
"""

from __future__ import annotations

import math

import numpy as np

import inputs


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# -- city_churn ---------------------------------------------------------------
def city_expected(seed: int, n_rounds: int):
    """``(delivered, hops)`` per round from an independent oracle:
    ``cKDTree.query_pairs`` links restricted to the alive tags and
    unweighted ``csgraph.shortest_path`` hop counts."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path
    from scipy.spatial import cKDTree

    n = inputs.CITY_TAGS
    links = cKDTree(inputs.city_positions(seed)).query_pairs(
        inputs.CITY_RANGE_M, output_type="ndarray")
    alive = np.ones(n, dtype=bool)
    down, rounds = inputs.city_rounds(seed)
    alive[down] = False
    out = []
    for __ in range(n_rounds):
        flips, pairs = next(rounds)
        alive[flips] = ~alive[flips]
        edges = links[alive[links[:, 0]] & alive[links[:, 1]]]
        graph = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                           shape=(n, n)).tocsr()
        live = [(s, d) for s, d in pairs if alive[s] and alive[d]]
        sources = sorted({s for s, __ in live})
        hops = shortest_path(graph, directed=False, unweighted=True,
                             indices=sources) if sources else None
        found = [hops[sources.index(s), d] for s, d in live]
        found = [int(h) for h in found if math.isfinite(h)]
        out.append((len(found), sum(found)))
    return out


def compare_city(expected, records):
    """Rounds whose delivered count or total hops differ from the
    oracle."""
    return [k for k, rec in enumerate(records)
            if (rec["delivered"], rec["hops"]) != tuple(expected[k])]


# -- fault_campaign -----------------------------------------------------------
def campaign_reference(seed: int):
    """``{(plan seed, loss): (accuracy, fault trace digest)}`` from
    calling the sweep task directly, outside ``run_sweep``."""
    from repro.faults.sweeps import build_chaos_shared, chaos_cell_point
    from repro.par import SweepPoint

    scenario_seed, plans = inputs.campaign_seeds(seed)
    shared = build_chaos_shared(scenario_seed)
    ref = {}
    for plan in plans:
        for loss in inputs.CAMPAIGN_LOSSES:
            value = chaos_cell_point(
                SweepPoint(index=0, seed=plan, config={"loss_rate": loss}),
                None, shared,
            )
            ref[(plan, loss)] = (value["accuracy"],
                                 value["fault_trace_digest"])
    return plans, ref


def compare_campaign(reference, records):
    """Ops whose grid, accuracies or fault-trace digests differ from
    the reference pass."""
    plans, ref = reference
    bad = []
    for k, rec in enumerate(records):
        plan = plans[k % len(plans)]
        cells = rec["cells"]
        want = [[plan, loss, *ref[(plan, loss)]]
                for loss in inputs.CAMPAIGN_LOSSES]
        if [list(c) for c in cells] != want or any(
            _bits(c[2]) != _bits(w[2]) for c, w in zip(cells, want)
        ):
            bad.append(k)
    return bad


# -- train_local --------------------------------------------------------------
def train_reference(seed: int):
    """First-epoch weights of the same trainer on the per-node
    ``backward_impl="reference"`` loop."""
    import workloads

    trainer, x, y, rng, __ = workloads.build_trainer(seed, "reference")
    return workloads.first_epoch_weights(trainer, x, y, rng)


def compare_train(reference_weights, records):
    """Epochs with a non-finite loss, plus the first epoch when its
    weights are not bit-identical to the reference."""
    bad = [k for k, rec in enumerate(records)
           if not math.isfinite(rec["loss"])]
    first = records[0].get("weights") if records else None
    if first is None or len(first) != len(reference_weights) or any(
        _bits(a) != _bits(b) for a, b in zip(first, reference_weights)
    ):
        bad = sorted(set(bad) | {0})
    return bad


# -- serve_open ---------------------------------------------------------------
def serve_expected(requests):
    """Logits bytes per request from a direct fixed-shape forward on
    tenants built here with the daemon's config (CLI defaults)."""
    from repro.serve import TenantConfig, build_tenant

    by_tenant = {}
    for i, (name, x) in enumerate(requests):
        by_tenant.setdefault(name, []).append(i)
    out = [None] * len(requests)
    for name, idx in by_tenant.items():
        tenant = build_tenant(TenantConfig(name=name, scenario=name))
        rows = tenant.direct_forward(np.stack([requests[i][1] for i in idx]))
        for i, row in zip(idx, rows):
            out[i] = row.tobytes()
    return out


def compare_serve(expected, responses):
    """Requests that were not answered 200 with logits byte-identical
    to the direct forward.  ``responses`` holds ``(status, body)``."""
    bad = []
    for i, (status, body) in enumerate(responses):
        if status != 200 or not isinstance(body, dict) or \
                _bits(body.get("logits", [])) != expected[i]:
            bad.append(i)
    return bad


def served_requests(snapshot) -> float:
    """Total ``serve.requests`` in a ``/metrics?format=json`` dump."""
    return sum(payload for name, __, kind, payload in snapshot
               if name == "serve.requests")
