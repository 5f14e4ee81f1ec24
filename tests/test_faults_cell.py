"""The chaos cell and its compositions.

Every chaos task — ``chaos_cell_point`` (the benchmark's fault
campaign), ``chaos_curve_point`` (the chaos suite), ``loss_rate_point``
(E8) and the ``repro sweep chaos`` task — is one
:func:`repro.faults.sweeps.chaos_cell` with its own defaults.  The
pins below hold their outputs to the bit: an accuracy as its float
hex, a fault trace as its sha256 digest, a sweep as its report
digest.  The validation tests hold the cell to its key table: a
config it cannot run as written is a ``ValueError`` naming the key,
never a silent truncation.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    RetryPolicy,
    build_chaos_shared,
    chaos_cell_point,
    chaos_curve_point,
    inject,
    loss_rate_point,
)
from repro.par import SweepPoint, make_points, run_sweep
from repro.par.tasks import chaos_task

#: ``repro sweep chaos --seeds 0-1 --grid loss_rate=0.0,0.3``.
CHAOS_SWEEP_DIGEST = (
    "2f277df406eb699106e9877eff1356aac2cdf78041c3abaa8e6978332415c734"
)
#: ``repro sweep rng --seeds 0-3 --grid k=1,2``.
RNG_SWEEP_DIGEST = (
    "f69433f7247dd27335e065ad75caa7d51f17f2010088da55e94ebd0edf7b7eee"
)

#: ``chaos_cell_point`` on ``build_chaos_shared(0)``:
#: (plan seed, loss) -> (accuracy hex, fault trace digest).
CELL_PINS = {
    (0, 0.0): (
        "0x1.0000000000000p+0",
        "954701f40f9d99991c5bd4d8304490efca79d251c4e7a6d461621f7ccecddbe4",
    ),
    (1, 0.3): (
        "0x1.0888888888889p-1",
        "b50b3b09e9e342c857b4d5ef031c6318f9e6119c8c376d1ce772b0e43f41c201",
    ),
    (7, 0.5): (
        "0x1.199999999999ap-1",
        "1cc8e62c628c650018d60aa9a7c44744bc1280bf0367a5efe78f1e8d13e77db3",
    ),
}


@pytest.fixture(scope="module")
def shared():
    return build_chaos_shared(0)


def hexed(payload):
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in payload.items()}


class TestPins:
    @pytest.mark.parametrize("plan,loss", sorted(CELL_PINS))
    def test_campaign_cell(self, shared, plan, loss):
        value = chaos_cell_point(
            SweepPoint(index=0, seed=plan, config={"loss_rate": loss}),
            None, shared,
        )
        assert (value["accuracy"].hex(), value["fault_trace_digest"]) == (
            CELL_PINS[(plan, loss)]
        )
        assert sorted(value) == ["accuracy", "fault_trace_digest"]

    def test_loss_rate_point(self, shared):
        value = loss_rate_point(
            SweepPoint(index=0, seed=None, config={"loss_rate": 0.2}),
            None, shared,
        )
        assert hexed(value) == {
            "loss_rate": "0x1.999999999999ap-3",
            "accuracy": "0x1.e666666666666p-1",
            "fault_trace_digest": "0d4f09422ab75b3ba0551a34cfd98e08"
                                  "e715cd186d7c2d1e1d45f96952775a1d",
            "drops": 178,
            "retries_recovered": 148,
            "transfers_exhausted": 3,
            "inferences": 4,
            "time_monotonic": True,
        }

    def test_loss_rate_point_is_a_crash_free_plan(self, shared):
        """E8's point equals a direct ``inject`` of the fixed plan it
        has always run: seed 13, the loss rate, no scheduled events."""
        value = loss_rate_point(
            SweepPoint(index=0, seed=None, config={"loss_rate": 0.35}),
            None, shared,
        )
        run = inject(shared["scenario"], FaultPlan(seed=13, loss_rate=0.35),
                     policy=RetryPolicy(max_retries=2))
        accuracy = run.accuracy(shared["x"], shared["y"], chunks=4)
        assert value["accuracy"] == accuracy
        assert value["fault_trace_digest"] == run.trace.digest()

    def test_chaos_task(self):
        value = chaos_task(SweepPoint(index=0, seed=0, config={}), None, None)
        assert hexed(value) == {
            "accuracy": "0x1.9555555555555p-1",
            "fault_trace_digest": "cca30365dc18a25959d7e145e0d0656c"
                                  "0f89ca6abf1de0ba5781db848e22d7b8",
            "fault_records": 465,
            "drops": 135,
            "retries_recovered": 96,
            "transfers_exhausted": 6,
            "inferences": 4,
            "time_monotonic": True,
        }

    def test_cli_chaos_sweep_digest(self):
        """In a fresh process, as the CLI runs it: the first point
        trains the demo scenario under its own telemetry session, so
        a process that already holds the scenario digests otherwise."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(repo / "src"))
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "chaos",
             "--seeds", "0-1", "--grid", "loss_rate=0.0,0.3"],
            capture_output=True, text=True, env=env, cwd=str(repo),
            check=True,
        ).stdout
        assert f"report digest:       {CHAOS_SWEEP_DIGEST}\n" in out

    def test_cli_rng_sweep_digest(self, capsys):
        from repro.cli import main

        assert main(["sweep", "rng", "--seeds", "0-3", "--grid",
                     "k=1,2"]) == 0
        assert f"report digest:       {RNG_SWEEP_DIGEST}\n" in (
            capsys.readouterr().out
        )

    def test_chaos_sweep_trains_the_demo_scenario_once(self, monkeypatch):
        """A 4-point ``chaos`` sweep builds its scenario on the first
        point and reuses it for the other three."""
        import repro.faults
        import repro.faults.sweeps

        calls = []
        build = repro.faults.demo_scenario

        def counting(**kwargs):
            calls.append(kwargs)
            return build(**kwargs)

        # The sweep task may reach the builder through either module.
        monkeypatch.setattr(repro.faults, "demo_scenario", counting)
        monkeypatch.setattr(repro.faults.sweeps, "demo_scenario", counting)
        points = make_points(
            seeds=[0, 1], grid={"loss_rate": [0.0, 0.3]},
            base_config={"scenario_seed": 3, "n_samples": 40, "epochs": 1},
        )
        report = run_sweep("chaos", points)
        assert len(report.results) == 4
        assert calls == [{"seed": 3, "n_samples": 40, "epochs": 1}]


class TestValidation:
    """A chaos config the cell cannot run as written is rejected with
    a ValueError naming the key, before or instead of a truncated
    run."""

    @pytest.mark.parametrize("name", ["seed", "n_crashes", "n_brownouts",
                                      "n_drifts"])
    @pytest.mark.parametrize("bad", [1.9, 2.0, True, "1", None, -1])
    def test_random_plan_counts(self, name, bad):
        args = {"seed": 0, "node_ids": list(range(9)), "horizon": 0.5,
                name: bad}
        with pytest.raises(ValueError, match=name):
            FaultPlan.random(**args)

    def test_random_plan_accepts_numpy_integers(self):
        plan = FaultPlan.random(np.int64(3), list(range(9)), horizon=0.5,
                                n_crashes=np.int64(2))
        assert plan.seed == 3 and type(plan.seed) is int
        assert len(plan.events) == 2

    @pytest.mark.parametrize("chunks", [2.5, 2.0, True, 0, -1])
    def test_accuracy_chunks(self, shared, chunks):
        run = inject(shared["scenario"], FaultPlan(seed=0))
        with pytest.raises(ValueError, match="chunks"):
            run.accuracy(shared["x"], shared["y"], chunks=chunks)
        assert run.executor.inferences == 0

    @pytest.mark.parametrize("config,key", [
        ({"los_rate": 0.5}, "los_rate"),
        ({"plan_seed": 3}, "plan_seed"),
        ({"max_retries": True}, "max_retries"),
        ({"loss_rate": False}, "loss_rate"),
        ({"horizon": "0.5"}, "horizon"),
        ({"max_retries": 2.5}, "max_retries"),
        ({"n_crashes": 1.9}, "n_crashes"),
        ({"n_brownouts": -1}, "n_brownouts"),
        ({"chunks": 2.5}, "chunks"),
        ({"horizon": float("inf")}, "horizon"),
        ({"loss_rate": float("nan")}, "loss_rate"),
    ])
    def test_cell_config(self, shared, config, key):
        from repro.faults.sweeps import chaos_cell

        with pytest.raises(ValueError, match=key):
            chaos_cell(shared, 0, config)

    def test_cell_defaults_are_checked_too(self, shared):
        from repro.faults.sweeps import chaos_cell

        with pytest.raises(ValueError, match="key 'chunk'"):
            chaos_cell(shared, 0, {}, chunk=2)

    @pytest.mark.parametrize("config,key", [
        ({"n_samples": 80.5}, "n_samples"),
        ({"epochs": True}, "epochs"),
        ({"scenario_seed": 1.5}, "scenario_seed"),
        ({"n_samples": -80}, "n_samples"),
        ({"los_rate": 0.5}, "los_rate"),
        ({"chunks": 2.5}, "chunks"),
    ])
    def test_chaos_task(self, config, key):
        with pytest.raises(ValueError, match=key):
            chaos_task(SweepPoint(index=0, seed=0, config=config), None,
                       None)

    def test_curve_rejects_a_single_loss_rate(self, shared):
        """The curve sweeps ``loss_rates``; a ``loss_rate`` key would
        be overridden by every cell, so it is an error."""
        with pytest.raises(ValueError, match="loss_rate"):
            chaos_curve_point(
                SweepPoint(index=0, seed=0, config={"loss_rate": 0.5}),
                None, shared,
            )

    def test_curve_checks_its_own_chunk_count(self, shared):
        """A curve at ``chunks=3`` runs three inferences per cell and
        holds its completion invariant to three."""
        from repro.faults.sweeps import chaos_cell

        value = chaos_curve_point(
            SweepPoint(index=0, seed=2,
                       config={"loss_rates": [0.0, 0.3], "chunks": 3}),
            None, shared,
        )
        assert all(value["invariants"].values())
        for loss, accuracy in zip(value["loss_rates"], value["accuracies"]):
            run, direct = chaos_cell(shared, 2,
                                     {"loss_rate": loss, "chunks": 3})
            assert run.executor.inferences == 3
            assert accuracy == direct

    def test_curve_counts_only_the_chunks_it_can_fill(self, shared):
        """Three test examples fill three of four chunks: three
        inferences complete, and nothing hung."""
        from repro.faults import scenario_shared

        small = scenario_shared(shared["scenario"], shared["x"][:3],
                                shared["y"][:3])
        value = chaos_curve_point(
            SweepPoint(index=0, seed=0, config={"loss_rates": [0.0, 0.3]}),
            None, small,
        )
        assert value["invariants"] == {
            "all_inferences_completed": True,
            "time_monotonic": True,
            "retries_bounded": True,
            "crashes_within_run": True,
        }
