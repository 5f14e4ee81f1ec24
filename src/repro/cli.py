"""Command-line entry point: list and run the example scenarios.

Usage::

    python -m repro.cli list
    python -m repro.cli run quickstart
    python -m repro.cli info
    python -m repro.cli faults run --loss 0.2 --crashes 2
    python -m repro.cli bench --quick --against BENCH_perf.json
    python -m repro.cli train --mode local --epochs 5 --trace train.jsonl
    python -m repro.cli sweep chaos --seeds 0-4 --grid loss_rate=0.0,0.2,0.4
    python -m repro.cli trace quickstart --out trace.jsonl
    python -m repro.cli stats trace.jsonl
    python -m repro.cli serve --tenants fall,hvac --port 8080
    python -m repro.cli monitor demo --loss 0.3 --rules slo.json
    python -m repro.cli monitor train --epochs 8

``run`` executes the named example script from the installed
repository's ``examples/`` directory (development layout) so users can
explore the scenarios without locating the files.  ``faults run``
drives a MicroDeep inference through the fault-injection layer and
reports the trace.  ``bench`` runs the performance suite, writes the
schema-versioned report, and can gate against a previous one
(``--trace`` additionally records the suite under a telemetry
session).  ``trace`` runs an example with the telemetry layer
installed and writes the Chrome-compatible JSONL trace plus a markdown
summary; ``stats`` aggregates a written trace into the per-node
communication-cost tables (Fig. 10 shape), optionally comparing two
traces.  ``sweep`` runs a registered task over a seed list × config
grid through the deterministic sweep engine (:mod:`repro.par`) — two
runs write the same JSON report except for the ``wall`` timing
section.  ``train`` runs MicroDeep
distributed training on the toy field task — exact or local updates
with the vectorized backward — and can record the ``train.step`` /
``exec.backward`` telemetry to a trace file.  ``serve`` hosts the
multi-tenant recognition HTTP service (:mod:`repro.serve`) until
interrupted (Ctrl-C drains in-flight batches before exiting) or until
``--stop-after N`` requests have been handled.  ``monitor`` runs a
workload (the fault-injection demo, the training loop, or any example)
under a flight recorder + SLO watchdog (:mod:`repro.obs.timeline` /
:mod:`repro.obs.watch`), prints a windowed health table, optionally
writes the timeline and fired-alert JSONL, and exits non-zero when a
critical alert fired.

Exit codes: 0 success (including a ``serve`` shutdown via Ctrl-C or
``--stop-after``); 2 usage error (unknown example/task/scenario, bad
``--grid``/``--set``/``--seeds`` spec or negative ``--root-seed``,
invalid ``serve`` batching knobs,
unreadable or schema-invalid ``bench --against`` baseline, invalid
``monitor --rules`` file); 3 ``bench`` performance regression against
the baseline; 4 ``monitor`` saw at least one critical alert fire.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import Dict, Optional

import repro

#: Example name -> (file, one-line description).
EXAMPLES: Dict[str, tuple] = {
    "quickstart": ("quickstart.py", "MicroDeep workflow end to end"),
    "fall": ("elderly_fall_monitoring.py",
             "(i) IR-array fall detection, Fig. 10 comparison"),
    "congestion": ("train_congestion_monitoring.py",
                   "car-level train congestion dashboard"),
    "sociogram": ("sociogram_kindergarten.py",
                  "(iv) kindergarten sociograms from tag logs"),
    "backscatter": ("zero_energy_backscatter_network.py",
                    "links, energy budgets, MAC coexistence"),
    "sensing": ("device_free_sensing.py",
                "localization, gestures, PEM crowds, trajectories"),
    "body": ("athlete_body_sensing.py",
             "(ii) posture, exercise counting, breathing"),
    "watch": ("wildlife_and_slope_watch.py",
              "(iii)+(v) intrusion and slope monitoring"),
    "hvac": ("autonomous_hvac.py", "(vi) closed-loop comfort control"),
    "planner": ("design_support_planner.py",
                "auto-generated collection schedules"),
    "faultdemo": ("fault_injection_demo.py",
                  "fault injection: crashes, loss, degraded inference"),
    "telemetry": ("telemetry_walkthrough.py",
                  "telemetry session -> per-node cost table (Fig. 10)"),
}


def _examples_dir() -> Optional[Path]:
    """The examples directory of a development checkout, if present."""
    candidate = Path(repro.__file__).resolve().parents[2] / "examples"
    return candidate if candidate.is_dir() else None


def cmd_list() -> int:
    """Print the example catalogue."""
    print("available examples (repro run <name>):")
    for name, (__, description) in EXAMPLES.items():
        print(f"  {name:12s} {description}")
    return 0


def cmd_info() -> int:
    """Print package version and layout."""
    print(f"repro {repro.__version__} — reproduction of 'Context "
          "Recognition of Humans and Objects by Distributed Zero-Energy "
          "IoT Devices' (ICDCS 2019)")
    print("subpackages:", ", ".join(repro.__all__))
    examples = _examples_dir()
    print("examples dir:", examples if examples else "(not found)")
    return 0


def _load_example(name: str):
    """Import one example script as a module; returns ``(module, 0)``
    or ``(None, exit_code)`` with the error already printed."""
    if name not in EXAMPLES:
        print(f"unknown example {name!r}; run 'list' to see the choices",
              file=sys.stderr)
        return None, 2
    examples = _examples_dir()
    if examples is None:
        print("examples directory not found (not a development checkout)",
              file=sys.stderr)
        return None, 1
    path = examples / EXAMPLES[name][0]
    spec = importlib.util.spec_from_file_location(f"repro_example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, 0


def cmd_run(name: str) -> int:
    """Execute one example script's main()."""
    module, code = _load_example(name)
    if module is None:
        return code
    module.main()
    return 0


def cmd_trace(args) -> int:
    """Run one example under a telemetry session; write its trace."""
    from repro import obs

    module, code = _load_example(args.name)
    if module is None:
        return code
    with obs.session() as tel:
        module.main()
    events = obs.export_events(tel, include_wall=args.wall)
    out = Path(args.out)
    obs.write_trace(tel, out, include_wall=args.wall)
    print(f"\ntrace: {len(events)} events -> {out}")
    if not events:
        print("(the example manages its own telemetry sessions; "
              "its traces were reported on stdout above)")
    summary = obs.trace_summary_markdown(
        events, title=f"Trace: {args.name}"
    )
    if args.summary:
        Path(args.summary).write_text(summary + "\n")
        print(f"summary -> {args.summary}")
    else:
        print()
        print(summary)
    return 0


def cmd_stats(args) -> int:
    """Aggregate a written trace into per-node cost tables."""
    from repro import obs

    def load(path):
        try:
            return obs.load_trace_file(path)
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
        except ValueError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
        return None

    events = load(args.trace)
    if events is None:
        return 2
    if args.against is None:
        print(obs.trace_summary_markdown(events, title=f"Trace: {args.trace}"))
        return 0
    other = load(args.against)
    if other is None:
        return 2
    print(obs.cost_comparison_markdown(
        obs.per_node_costs(events),
        obs.per_node_costs(other),
        base_label=Path(args.trace).stem,
        other_label=Path(args.against).stem,
    ))
    return 0


def _demo_crash_plan(scenario, seed: int, crashes: int, **rates):
    """The plan ``faults run`` and ``monitor demo`` arm: link fault
    ``rates`` plus ``crashes`` nodes, drawn by ``default_rng(seed)``,
    down at t=0."""
    import numpy as np

    from repro.faults import FaultPlan

    plan = FaultPlan(seed=seed, **rates)
    node_ids = sorted(scenario.topology.nodes)
    for node in np.random.default_rng(seed).choice(
        node_ids, size=min(crashes, len(node_ids)), replace=False
    ):
        plan.crash(0.0, int(node))
    return plan


def cmd_faults_run(args) -> int:
    """Run one fault-injected inference and report the trace."""
    from repro.faults import FaultPlan, demo_scenario, inject

    print(f"building demo scenario (seed {args.seed}) ...")
    scenario, (x, y) = demo_scenario(seed=args.seed)
    baseline = inject(scenario, FaultPlan(seed=args.seed))
    clean_acc = baseline.accuracy(x, y, chunks=2)

    run = inject(scenario, _demo_crash_plan(
        scenario, args.seed, args.crashes, loss_rate=args.loss,
        corrupt_rate=args.corrupt, duplicate_rate=args.duplicate,
    ))
    acc = run.accuracy(x, y, chunks=2)

    print(f"\nfault plan: loss={args.loss:.0%} corrupt={args.corrupt:.0%} "
          f"duplicate={args.duplicate:.0%} crashes={args.crashes}")
    print(f"accuracy: {clean_acc:.3f} clean -> {acc:.3f} degraded "
          f"(no hang: {run.executor.inferences} inferences completed, "
          f"virtual time {run.sim.now:.3f}s)")
    print("\ntrace summary (kind: count):")
    for kind, count in run.trace.summary().items():
        print(f"  {kind:26s} {count:5d}")
    if args.trace:
        Path(args.trace).write_text(run.trace.to_jsonl() + "\n")
        print(f"\nfull trace ({len(run.trace)} records) written to {args.trace}")
    return 0


def cmd_bench(args) -> int:
    """Run the perf suite, write the report, optionally gate."""
    import json

    from repro.perf import compare_reports, run_suite, validate_report

    mode = "quick" if args.quick else "full"
    print(f"running {mode} benchmark suite (seed {args.seed}) ...")
    if args.trace:
        from repro import obs

        # The session is live while the workloads build their stacks,
        # so the suite itself is traced (the telemetry_overhead
        # benchmark injects its backends explicitly and is immune).
        with obs.session() as tel:
            report = run_suite(quick=args.quick, seed=args.seed)
        trace_path = obs.write_trace(tel, args.trace, include_wall=True)
        print(f"telemetry trace written to {trace_path}")
    else:
        report = run_suite(quick=args.quick, seed=args.seed)
    errors = validate_report(report)
    if errors:  # pragma: no cover - suite always emits valid reports
        for err in errors:
            print(f"internal error: {err}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out}\n")
    print(f"{'benchmark':28s} {'best':>10s} {'mean':>10s} {'speedup':>8s} "
          f"{'parity':>7s}")
    for bench in report["benchmarks"]:
        timing = bench["timing"]
        speedup = bench.get("speedup")
        # Entries that assert equivalence untimed before the clocks
        # start record it in parity_* counters; surface that so a
        # certified speedup is distinguishable from a bare timing.
        certified = any(
            key.startswith("parity") for key in bench.get("counters", {})
        )
        print(f"{bench['name']:28s} {timing['best_s']*1e3:8.2f}ms "
              f"{timing['mean_s']*1e3:8.2f}ms "
              f"{'%.2fx' % speedup if speedup else '-':>8s} "
              f"{'yes' if certified else '-':>7s}")

    if args.against is None:
        return 0
    baseline_path = Path(args.against)
    if not baseline_path.is_file():
        print(f"\nbaseline {baseline_path} not found", file=sys.stderr)
        return 2
    try:
        baseline = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        print(f"\nbaseline {baseline_path} is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    base_errors = validate_report(baseline)
    if base_errors:
        print(f"\nbaseline {baseline_path} fails schema validation:",
              file=sys.stderr)
        for err in base_errors:
            print(f"  {err}", file=sys.stderr)
        return 2
    comparisons = compare_reports(report, baseline, args.threshold)
    print(f"\ncomparison against {baseline_path} "
          f"(threshold {args.threshold:.0f}%):")
    failed = False
    for comp in comparisons:
        if comp.missing:
            print(f"  {comp.name:28s} MISSING from current run")
            failed = True
            continue
        verdict = "REGRESSED" if comp.regressed else "ok"
        print(f"  {comp.name:28s} {comp.ratio:6.2f}x baseline  {verdict}")
        failed = failed or comp.regressed
    if failed:
        print("\nperformance regression detected", file=sys.stderr)
        return 3
    print("\nno regressions")
    return 0


def cmd_train(args) -> int:
    """Train the demo CNN with distributed updates; report the curves."""
    import numpy as np

    from repro.core import (
        MicroDeepTrainer,
        UnitGraph,
        grid_correspondence_assignment,
    )
    from repro.faults.scenario import toy_field_task
    from repro.nn import (
        Conv2D, Dense, Flatten, MaxPool2D, ReLU, SGD, Sequential,
    )
    from repro.wsn import GridTopology

    if args.samples <= 0:
        print(f"--samples must be positive, got {args.samples}",
              file=sys.stderr)
        return 2

    def build_and_fit():
        rng = np.random.default_rng(args.seed)
        x, y = toy_field_task(args.samples, (10, 10), rng)
        model = Sequential([
            Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
            Dense(8), ReLU(), Dense(2),
        ])
        model.build((1, 10, 10), np.random.default_rng(args.seed))
        graph = UnitGraph(model)
        placement = grid_correspondence_assignment(graph, GridTopology(4, 4))
        trainer = MicroDeepTrainer(
            graph, placement, SGD(lr=0.05),
            update_mode=args.mode,
        )
        history = trainer.fit(
            x, y, epochs=args.epochs, batch_size=args.batch_size,
            rng=np.random.default_rng(args.seed + 1),
        )
        loss, acc = trainer.evaluate(x, y)
        return history, loss, acc

    print(f"training: mode={args.mode} impl=vectorized "
          f"epochs={args.epochs} batch={args.batch_size} "
          f"samples={args.samples} seed={args.seed}")
    if args.trace:
        from repro import obs

        # The trainer resolves its telemetry at construction, so the
        # whole build-and-fit runs inside the session.
        with obs.session() as tel:
            history, loss, acc = build_and_fit()
        trace_path = obs.write_trace(tel, args.trace)
        steps = tel.metrics.total("train.steps")
        print(f"telemetry: {steps:.0f} train.step spans -> {trace_path}")
    else:
        history, loss, acc = build_and_fit()
    for epoch, (ep_loss, ep_acc) in enumerate(
        zip(history.train_loss, history.train_accuracy)
    ):
        print(f"  epoch {epoch + 1:3d}: loss={ep_loss:.4f} "
              f"accuracy={ep_acc:.3f}")
    print(f"final: loss={loss:.4f} accuracy={acc:.3f}")
    return 0


def _parse_scalar(text: str):
    """int, then float, then bool, then the bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_seeds(spec: str) -> list:
    """``"0,3,7"`` and ``"0-4"`` (inclusive) forms, freely mixed;
    seeds are non-negative (fault plans seed numpy generators)."""
    seeds = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            if dash and lo:
                seeds.extend(range(int(lo), int(hi) + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            raise ValueError(
                f"--seeds: {part!r} is not a seed or an inclusive "
                "'lo-hi' range of non-negative integers"
            ) from None
    if not seeds:
        raise ValueError(f"--seeds: empty seed spec {spec!r}")
    negative = [seed for seed in seeds if seed < 0]
    if negative:
        raise ValueError(
            f"--seeds: seeds must be non-negative, got {negative[0]}"
        )
    return seeds


def _parse_grid(entries, flag: str = "--grid") -> dict:
    """``key=v1,v2,...`` entries into an ordered value-list dict."""
    grid = {}
    for entry in entries or []:
        key, eq, values = entry.partition("=")
        if not eq or not key or not values:
            raise ValueError(
                f"{flag} entry {entry!r} is not of the form key=v1,v2,..."
            )
        grid[key] = [_parse_scalar(v) for v in values.split(",")]
    return grid


def cmd_sweep(args) -> int:
    """Run a registered task over seeds × grid; write the report."""
    import json

    from repro.par import available_tasks, make_points, run_sweep

    tasks = available_tasks()
    if args.list:
        print("registered sweep tasks (repro sweep <task>):")
        for name, description in tasks.items():
            print(f"  {name:12s} {description}")
        return 0
    if args.task is None:
        print("a task name is required (or --list)", file=sys.stderr)
        return 2
    if args.task not in tasks:
        print(f"unknown sweep task {args.task!r}; registered: "
              f"{', '.join(tasks)}", file=sys.stderr)
        return 2
    if args.root_seed < 0:
        print(f"--root-seed must be non-negative, got {args.root_seed}",
              file=sys.stderr)
        return 2
    try:
        seeds = _parse_seeds(args.seeds)
        grid = _parse_grid(args.grid)
        base = _parse_grid(args.set, flag="--set")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for key, values in base.items():
        if len(values) != 1:
            print(f"--set {key}= takes one value, got {len(values)}; "
                  "use --grid for an axis", file=sys.stderr)
            return 2
    base_config = {k: v[0] for k, v in base.items()}
    points = make_points(seeds=seeds, grid=grid, base_config=base_config)
    print(f"sweeping {args.task!r}: {len(points)} points "
          f"({len(seeds)} seeds x {max(1, len(points) // len(seeds))} "
          f"configs), root seed {args.root_seed}")
    try:
        report = run_sweep(args.task, points, root_seed=args.root_seed)
    except ValueError as exc:
        print(f"sweep {args.task}: {exc}", file=sys.stderr)
        return 2

    header = f"{'idx':>4s} {'seed':>6s} {'config':32s} result"
    print(header)
    for result in report.results:
        config = json.dumps(result.config, sort_keys=True)
        if isinstance(result.value, dict) and "accuracy" in result.value:
            shown = f"accuracy={result.value['accuracy']:.4f}"
        else:
            shown = json.dumps(result.value, sort_keys=True)[:48]
        print(f"{result.index:4d} {str(result.seed):>6s} {config:32s} {shown}")
    print(f"\nmerged trace digest: {report.merged_trace_digest()}")
    print(f"report digest:       {report.digest()}")
    print(f"elapsed: {report.elapsed_s:.2f}s")
    if args.out:
        doc = report.to_dict(include_wall=True)
        Path(args.out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"report written to {args.out}")
    return 0


def cmd_serve(args) -> int:
    """Host the recognition service until interrupted."""
    import asyncio

    from repro.serve import BatchPolicy, ServeApp, TenantConfig
    from repro.serve.tenants import SCENARIOS

    names = [t.strip() for t in args.tenants.split(",") if t.strip()]
    if not names:
        print("at least one tenant is required (--tenants)", file=sys.stderr)
        return 2
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}; available: "
              f"{', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return 2
    try:
        policy = BatchPolicy(
            max_batch=args.max_batch, max_pending=args.max_pending,
        )
        policy.validate()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    app = ServeApp(policy)
    for name in names:
        print(f"building tenant {name!r} "
              f"(seed {args.seed}, {args.epochs} training epoch(s))...",
              flush=True)
        app.add_tenant(TenantConfig(
            name=name, scenario=name, seed=args.seed,
            train_epochs=args.epochs,
        ))

    def ready(started) -> None:
        # Flushed so a supervisor reading a pipe sees readiness live.
        print(f"serving on http://{args.host}:{started.port}")
        print("  POST /v1/recognize   {\"tenant\": ..., \"input\": [[...]]}")
        print("  POST /v1/tenants     hot-swap a tenant")
        print("  GET  /healthz /metrics /traces")
        print(f"  batching: next loop turn, max_batch={policy.max_batch} "
              f"max_pending={policy.max_pending}", flush=True)

    try:
        asyncio.run(app.run(
            args.host, args.port, stop_after=args.stop_after, ready=ready,
        ))
    except KeyboardInterrupt:
        print("interrupted; draining")
    print(f"served {app.requests_handled} request(s); bye")
    return 0


def _default_monitor_rules(target: str):
    """Built-in rule sets when ``monitor`` runs without ``--rules``."""
    from repro.obs.watch import Rule

    if target == "train":
        return [
            Rule(name="loss-plateau", series="train.epoch_loss",
                 kind="trend", op=">=", value=0.0, windows=3,
                 severity="warning"),
            Rule(name="loss-rising", series="train.epoch_loss",
                 kind="trend", op=">", value=0.0, windows=2,
                 severity="critical"),
        ]
    rules = [
        Rule(name="packet-drops", series="net.dropped_causes",
             kind="rate", op=">", value=0.0, severity="warning"),
        Rule(name="fault-transitions", series="faults.transitions",
             kind="threshold", op=">", value=0.0, severity="warning"),
        Rule(name="retry-storm", series="resilient.retries",
             kind="rate", op=">", value=500.0, severity="critical"),
    ]
    if target == "demo":
        rules.append(Rule(
            name="delivery-stalled", series="net.delivered",
            kind="absence", windows=3, severity="critical",
        ))
    return rules


def cmd_monitor(args) -> int:
    """Run a workload under the flight recorder + SLO watchdog."""
    import numpy as np

    from repro import obs

    target = args.target
    if target not in ("demo", "train") and target not in EXAMPLES:
        print(f"unknown monitor target {target!r}; use 'demo', 'train', "
              f"or an example name (see 'list')", file=sys.stderr)
        return 2
    if args.rules:
        try:
            rules = obs.load_rules(args.rules)
        except (OSError, ValueError) as exc:
            print(f"cannot load rules from {args.rules}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        rules = _default_monitor_rules(target)

    with obs.session() as tel:
        recorder = obs.FlightRecorder(
            tel, interval=args.interval, window=args.window
        )
        watchdog = obs.Watchdog(rules, telemetry=tel)
        recorder.attach(watchdog)
        if target == "demo":
            from repro.faults import demo_scenario, inject

            print(f"building demo scenario (seed {args.seed}) ...")
            scenario, (x, y) = demo_scenario(seed=args.seed)
            plan = _demo_crash_plan(scenario, args.seed, args.crashes,
                                    loss_rate=args.loss)
            run = inject(scenario, plan, recorder=recorder)
            acc = run.accuracy(x, y, chunks=args.chunks)
            recorder.sample()  # capture the end state
            print(f"degraded accuracy {acc:.3f} over {args.chunks} "
                  f"inference(s), virtual time {run.sim.now:.3f}s")
        elif target == "train":
            from repro.core import (
                MicroDeepTrainer,
                UnitGraph,
                grid_correspondence_assignment,
            )
            from repro.faults.scenario import toy_field_task
            from repro.nn import Conv2D, Dense, Flatten, ReLU, SGD, Sequential
            from repro.wsn import GridTopology

            print(f"training demo CNN for {args.epochs} epoch(s) "
                  f"(seed {args.seed}) ...")
            rng = np.random.default_rng(args.seed)
            x, y = toy_field_task(args.samples, (8, 8), rng)
            model = Sequential([Conv2D(2, 3), ReLU(), Flatten(), Dense(2)])
            model.build((1, 8, 8), np.random.default_rng(args.seed))
            graph = UnitGraph(model)
            placement = grid_correspondence_assignment(
                graph, GridTopology(3, 3)
            )
            trainer = MicroDeepTrainer(
                graph, placement, SGD(lr=0.05), update_mode="local"
            )
            trainer.fit(
                x, y, epochs=args.epochs, batch_size=16,
                rng=np.random.default_rng(args.seed + 1),
                recorder=recorder,
            )
        else:
            module, code = _load_example(target)
            if module is None:
                return code
            module.main()
            recorder.sample()  # one end-of-run snapshot of the registry

    print()
    print(obs.health_table(recorder, watchdog, last=args.window))
    if args.out:
        Path(args.out).write_text(recorder.to_jsonl() + "\n")
        print(f"\ntimeline ({len(recorder)} samples, digest "
              f"{recorder.digest()[:12]}…) written to {args.out}")
    if args.alerts:
        Path(args.alerts).write_text(watchdog.to_jsonl() + "\n")
        print(f"alerts ({len(watchdog.alerts)}) written to {args.alerts}")
    if watchdog.critical_count():
        print(f"\n{watchdog.critical_count()} critical alert(s) fired",
              file=sys.stderr)
        return 4
    return 0


def cmd_topo(args) -> int:
    """Generate a topology, print its summary, optionally export it."""
    import json

    import numpy as np

    from repro.wsn import (
        GridTopology,
        RandomTopology,
        load_map_topology,
        make_topology,
        sample_map_path,
    )

    kind = args.kind
    try:
        if kind == "grid":
            topo = GridTopology(args.rows, args.cols, spacing=args.spacing,
                                comm_range=args.comm_range)
        elif kind == "random":
            topo = RandomTopology(
                args.n, args.side, args.side,
                comm_range=args.comm_range if args.comm_range else 15.0,
                rng=np.random.default_rng(args.seed),
            )
        elif kind == "map":
            path = Path(args.path) if args.path else sample_map_path()
            topo = load_map_topology(path, comm_range=args.comm_range)
        else:
            params = {"n_leaves" if kind == "star" else "n_nodes": args.n}
            if kind in ("clique", "star"):
                params["radius"] = args.radius
            else:
                params["spacing"] = args.spacing
            if args.comm_range is not None:
                params["comm_range"] = args.comm_range
            topo = make_topology(kind, **params)
    except (ValueError, OSError) as exc:
        print(f"topology generation failed: {exc}", file=sys.stderr)
        return 2
    g = topo.graph()
    degrees = sorted(d for __, d in g.degree())
    adjacency = topo.sparse_adjacency()
    print(f"kind:        {kind}")
    print(f"nodes:       {len(topo)} ({len(topo.alive_nodes())} alive)")
    print(f"comm_range:  {topo.comm_range:g}")
    print(f"edges:       {adjacency.n_edges}")
    print(f"connected:   {topo.is_connected()}")
    if degrees:
        mean = sum(degrees) / len(degrees)
        print(f"degree:      min {degrees[0]}  mean {mean:.2f}  "
              f"max {degrees[-1]}")
    if args.out:
        doc = {
            "name": f"{kind}-{len(topo)}",
            "comm_range": topo.comm_range,
            "nodes": [
                {"id": n.node_id, "pos": [n.position[0], n.position[1]]}
                for n in topo
            ],
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"map written to {args.out} (reload with "
              f"'repro topo map --path {args.out}')")
    return 0


def main(argv: Optional[list] = None) -> int:
    """Argument parsing and dispatch; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the example scenarios")
    sub.add_parser("info", help="package and layout information")
    run_parser = sub.add_parser("run", help="run one example scenario")
    run_parser.add_argument("name", help="example name (see 'list')")
    faults_parser = sub.add_parser(
        "faults", help="fault-injection utilities"
    )
    faults_sub = faults_parser.add_subparsers(dest="faults_command",
                                              required=True)
    faults_run = faults_sub.add_parser(
        "run", help="inject faults into a demo MicroDeep inference"
    )
    faults_run.add_argument("--loss", type=float, default=0.2,
                            help="per-hop packet loss rate (default 0.2)")
    faults_run.add_argument("--corrupt", type=float, default=0.0,
                            help="per-hop corruption rate (default 0)")
    faults_run.add_argument("--duplicate", type=float, default=0.0,
                            help="per-hop duplication rate (default 0)")
    faults_run.add_argument("--crashes", type=int, default=2,
                            help="nodes crashed at t=0 (default 2)")
    faults_run.add_argument("--seed", type=int, default=0,
                            help="root seed for all fault draws")
    faults_run.add_argument("--trace", default=None, metavar="PATH",
                            help="write the full JSONL trace to PATH")
    bench_parser = sub.add_parser(
        "bench", help="run the performance suite and write BENCH_perf.json"
    )
    bench_parser.add_argument("--quick", action="store_true",
                              help="reduced sizes/repeats (CI smoke mode)")
    bench_parser.add_argument("--seed", type=int, default=0,
                              help="root seed for all benchmark inputs")
    bench_parser.add_argument("--out", default="BENCH_perf.json",
                              metavar="PATH",
                              help="report path (default BENCH_perf.json)")
    bench_parser.add_argument("--against", default=None, metavar="JSON",
                              help="baseline report; exit 3 on regression")
    bench_parser.add_argument("--threshold", type=float, default=25.0,
                              metavar="PCT",
                              help="regression threshold in percent "
                                   "(default 25)")
    bench_parser.add_argument("--trace", default=None, metavar="PATH",
                              help="record the suite under a telemetry "
                                   "session and write the JSONL trace "
                                   "(heavy in full mode; pair with --quick)")
    train_parser = sub.add_parser(
        "train", help="train the demo CNN with distributed updates"
    )
    train_parser.add_argument("--mode", choices=("exact", "local"),
                              default="local",
                              help="update mode (default local)")
    train_parser.add_argument("--epochs", type=int, default=5,
                              help="training epochs (default 5)")
    train_parser.add_argument("--batch-size", type=int, default=8,
                              help="mini-batch size (default 8)")
    train_parser.add_argument("--samples", type=int, default=120,
                              help="toy-task samples (default 120)")
    train_parser.add_argument("--seed", type=int, default=0,
                              help="seed for data, init and batching")
    train_parser.add_argument("--trace", default=None, metavar="PATH",
                              help="record training telemetry and write "
                                   "the JSONL trace to PATH")
    sweep_parser = sub.add_parser(
        "sweep", help="run a registered task over seeds x config grid "
                      "(deterministic sweep engine)"
    )
    sweep_parser.add_argument("task", nargs="?", default=None,
                              help="registered task name (see --list)")
    sweep_parser.add_argument("--seeds", default="0", metavar="SPEC",
                              help="seed list: '0,1,2' and/or '0-4' "
                                   "(default '0')")
    sweep_parser.add_argument("--grid", action="append", metavar="KEY=V1,V2",
                              help="config axis (repeatable); the sweep "
                                   "covers the cartesian product")
    sweep_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                              help="fixed config entry applied to every "
                                   "point (repeatable)")
    sweep_parser.add_argument("--root-seed", type=int, default=0,
                              help="root of the per-point RNG substreams "
                                   "(default 0)")
    sweep_parser.add_argument("--out", default=None, metavar="PATH",
                              help="write the JSON report to PATH")
    sweep_parser.add_argument("--list", action="store_true",
                              help="list the registered tasks and exit")
    trace_parser = sub.add_parser(
        "trace", help="run an example with telemetry on; write its trace"
    )
    trace_parser.add_argument("name", help="example name (see 'list')")
    trace_parser.add_argument("--out", default="trace.jsonl", metavar="PATH",
                              help="JSONL trace path (default trace.jsonl)")
    trace_parser.add_argument("--summary", default=None, metavar="PATH",
                              help="write the markdown summary to PATH "
                                   "instead of stdout")
    trace_parser.add_argument("--wall", action="store_true",
                              help="include wall-clock durations (trace is "
                                   "no longer byte-deterministic)")
    serve_parser = sub.add_parser(
        "serve", help="host the multi-tenant recognition HTTP service"
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="bind port; 0 picks an ephemeral port "
                                   "(default 8080)")
    serve_parser.add_argument("--tenants", default="fall,hvac",
                              metavar="NAMES",
                              help="comma-separated scenario tenants "
                                   "(default fall,hvac)")
    serve_parser.add_argument("--seed", type=int, default=0,
                              help="tenant build seed (default 0)")
    serve_parser.add_argument("--epochs", type=int, default=2,
                              help="training epochs per tenant at startup "
                                   "(default 2; 0 skips training)")
    serve_parser.add_argument("--max-batch", type=int, default=8,
                              metavar="N",
                              help="flush a tenant's lane at N pending "
                                   "requests, before the next loop turn "
                                   "(default 8)")
    serve_parser.add_argument("--max-pending", type=int, default=256,
                              metavar="N",
                              help="per-tenant backpressure bound "
                                   "(default 256)")
    serve_parser.add_argument("--stop-after", type=int, default=None,
                              metavar="N",
                              help="exit cleanly after N handled requests "
                                   "(smoke tests)")
    monitor_parser = sub.add_parser(
        "monitor", help="run a workload under the flight recorder + "
                        "SLO watchdog; exit 4 on critical alerts"
    )
    monitor_parser.add_argument("target", nargs="?", default="demo",
                                help="'demo' (fault-injected inference), "
                                     "'train', or an example name "
                                     "(default demo)")
    monitor_parser.add_argument("--rules", default=None, metavar="JSON",
                                help="SLO rule file; built-in defaults "
                                     "per target when omitted")
    monitor_parser.add_argument("--seed", type=int, default=0,
                                help="workload seed (default 0)")
    monitor_parser.add_argument("--interval", type=float, default=0.02,
                                metavar="SECONDS",
                                help="flight-recorder cadence on the "
                                     "workload clock (default 0.02)")
    monitor_parser.add_argument("--window", type=int, default=8,
                                metavar="N",
                                help="rolling-window width in samples "
                                     "(default 8)")
    monitor_parser.add_argument("--loss", type=float, default=0.2,
                                help="demo: per-hop packet loss rate "
                                     "(default 0.2)")
    monitor_parser.add_argument("--crashes", type=int, default=2,
                                help="demo: nodes crashed at t=0 "
                                     "(default 2)")
    monitor_parser.add_argument("--chunks", type=int, default=6,
                                help="demo: independent inference calls "
                                     "(default 6)")
    monitor_parser.add_argument("--epochs", type=int, default=6,
                                help="train: training epochs (default 6)")
    monitor_parser.add_argument("--samples", type=int, default=120,
                                help="train: toy-task samples "
                                     "(default 120)")
    monitor_parser.add_argument("--out", default=None, metavar="PATH",
                                help="write the timeline JSONL to PATH")
    monitor_parser.add_argument("--alerts", default=None, metavar="PATH",
                                help="write the fired-alert JSONL to PATH")
    topo_parser = sub.add_parser(
        "topo", help="generate a topology (clique/chain/ring/star/grid/"
                     "random/map), summarize it, optionally export JSON"
    )
    topo_parser.add_argument("kind",
                             choices=("clique", "chain", "ring", "star",
                                      "grid", "random", "map"),
                             help="topology shape or 'map' for JSON import")
    topo_parser.add_argument("--n", type=int, default=16,
                             help="node count (star: leaf count; "
                                  "default 16)")
    topo_parser.add_argument("--rows", type=int, default=4,
                             help="grid rows (default 4)")
    topo_parser.add_argument("--cols", type=int, default=4,
                             help="grid cols (default 4)")
    topo_parser.add_argument("--spacing", type=float, default=1.0,
                             help="chain/ring/grid spacing (default 1)")
    topo_parser.add_argument("--radius", type=float, default=1.0,
                             help="clique/star circle radius (default 1)")
    topo_parser.add_argument("--side", type=float, default=40.0,
                             help="random: square side length (default 40)")
    topo_parser.add_argument("--comm-range", type=float, default=None,
                             help="override the shape's default comm range")
    topo_parser.add_argument("--seed", type=int, default=0,
                             help="random placement seed (default 0)")
    topo_parser.add_argument("--path", default=None, metavar="JSON",
                             help="map: file to import (default: the "
                                  "committed sample district)")
    topo_parser.add_argument("--out", default=None, metavar="JSON",
                             help="export the topology as a map JSON file")
    stats_parser = sub.add_parser(
        "stats", help="per-node cost tables from a written trace"
    )
    stats_parser.add_argument("trace", help="JSONL trace file (from 'trace')")
    stats_parser.add_argument("--against", default=None, metavar="JSONL",
                              help="second trace; print the Fig.-10-style "
                                   "side-by-side cost comparison")
    args = parser.parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "info":
        return cmd_info()
    if args.command == "faults":
        return cmd_faults_run(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "train":
        return cmd_train(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "monitor":
        return cmd_monitor(args)
    if args.command == "topo":
        return cmd_topo(args)
    if args.command == "stats":
        return cmd_stats(args)
    return cmd_run(args.name)


if __name__ == "__main__":
    sys.exit(main())
