"""Each correctness check passes the program's real output and catches
one corrupted output; the span reader computes self time correctly.

Run from the repository root::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_ops(workload, n):
    return [workload.record(k, workload.op(workload.op_input(k)))
            for k in range(n)]


class CityCheckTest(unittest.TestCase):
    def test_oracle_agrees_and_catches_one_wrong_round(self):
        records = run_ops(workloads.CityChurn(0), 3)
        expected = checks.city_expected(0, 3)
        self.assertEqual(checks.compare_city(expected, records), [])
        bad = copy.deepcopy(records)
        bad[1]["hops"] += 1
        self.assertEqual(checks.compare_city(expected, bad), [1])


class CampaignCheckTest(unittest.TestCase):
    def test_reference_agrees_and_catches_one_wrong_cell(self):
        records = run_ops(workloads.FaultCampaign(0), 2)
        reference = checks.campaign_reference(0)
        self.assertEqual(checks.compare_campaign(reference, records), [])
        bad = copy.deepcopy(records)
        bad[1]["cells"][2][3] = "0" * 64
        self.assertEqual(checks.compare_campaign(reference, bad), [1])
        bad = copy.deepcopy(records)
        bad[0]["cells"][0][2] = math.nextafter(bad[0]["cells"][0][2], 2.0)
        self.assertEqual(checks.compare_campaign(reference, bad), [0])


class TrainCheckTest(unittest.TestCase):
    def test_reference_agrees_and_catches_one_ulp_and_nan(self):
        records = run_ops(workloads.TrainLocal(0), 2)
        reference = checks.train_reference(0)
        self.assertEqual(checks.compare_train(reference, records), [])
        bad = copy.deepcopy(records)
        row = bad[0]["weights"][-1]
        row[0] = math.nextafter(row[0], math.inf)
        self.assertEqual(checks.compare_train(reference, bad), [0])
        bad = copy.deepcopy(records)
        bad[1]["loss"] = float("nan")
        self.assertEqual(checks.compare_train(reference, bad), [1])


class ServeCheckTest(unittest.TestCase):
    def test_direct_forward_agrees_and_catches_one_ulp_and_refusal(self):
        from repro.serve import TenantConfig, build_tenant

        rng = np.random.default_rng(0)
        requests = [("hvac", rng.normal(size=(1, 10, 10))) for __ in range(3)]
        tenant = build_tenant(TenantConfig(name="hvac", scenario="hvac"))
        logits, __ = tenant.infer(np.stack([x for __, x in requests]))
        served = [(200, json.loads(json.dumps({"logits": row.tolist()})))
                  for row in logits]
        expected = checks.serve_expected(requests)
        self.assertEqual(checks.compare_serve(expected, served), [])
        bad = copy.deepcopy(served)
        bad[1][1]["logits"][0] = math.nextafter(
            bad[1][1]["logits"][0], math.inf)
        self.assertEqual(checks.compare_serve(expected, bad), [1])
        bad = copy.deepcopy(served)
        bad[2] = (503, {"error": "overloaded"})
        self.assertEqual(checks.compare_serve(expected, bad), [2])


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children_and_ops_are_assigned(self):
        log = spans.SpanLog()
        inner = log.wrap("nn.inner", lambda: sum(range(20000)))
        outer = log.wrap("core.training.outer", lambda: inner() + inner())
        op = log.open(spans.OP_SPAN, 7)
        outer()
        log.close(op)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.npz")
            log.save(path)
            trace = spans.Spans(path)
        outer_i = np.flatnonzero(trace.mask("core.training.outer"))[0]
        inner_i = np.flatnonzero(trace.mask("nn.inner"))
        self.assertAlmostEqual(
            trace.self_time[outer_i],
            trace.dur[outer_i] - trace.dur[inner_i].sum(), places=12)
        self.assertEqual(set(trace.op.tolist()), {7})
        self.assertEqual(trace.layer[outer_i], "core.training")


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_run_prints(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            manifest = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in manifest["per_layer"]},
            run.PER_LAYER_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in manifest["end_to_end"]},
            run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
