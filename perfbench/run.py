"""End-to-end benchmark of the repro program, split per layer on demand.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_open --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched.  ``--trace 1`` makes two runs of the workload instead: one
that records only garbage collections (tail latency, GC time and the
untraced baseline) and one with every layer's public functions wrapped
(see ``spans.py``), and prints the per-layer split.  Every op's output
is checked against a reference in both modes; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("serve_open", "fault_campaign", "city_churn", "train_local")
#: Extra processes an untraced run starts before and after the measured
#: one, only to time set-up; ``setup_s`` is the median over all of them.
#: Spreading them around the window averages slow drifts in machine
#: speed the way the window's own median does.
SETUP_EXTRA = (2, 3)
#: Untimed ops run before the measured window (caches, lazy set-up).
WARMUP_OPS = 2
#: Throughput unit per op: sweep cells per sweep, examples per epoch.
OP_UNITS = {"fault_campaign": len(inputs.CAMPAIGN_LOSSES), "city_churn": 1,
            "train_local": inputs.TRAIN_EXAMPLES}
READY_TIMEOUT_S = 60.0
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

#: Per-layer metrics read from span totals: ``name -> (how, spans)``.
#: ``self`` sums self time (child spans subtracted), ``count`` calls,
#: ``rebuilds`` calls that called other wrapped functions (a
#: ``cached_graph`` call only does when it rebuilds the graph) and
#: ``value`` the spans' counts; all per op.
OBS_SPANS = ("obs.span", "obs.digest", "obs.lookup", "obs.update",
             "obs.snapshot", "obs.sample")
SPAN_METRICS = {
    "core.compiled.run_ms": ("self", ("core.compiled.run",)),
    "wsn.network.account_ms": ("self", ("wsn.network.account",)),
    "nn.conv.forward_ms": ("self", ("nn.conv.forward",)),
    "nn.pool.forward_ms": ("self", ("nn.pool.forward",)),
    "nn.dense.forward_ms": ("self", ("nn.dense.forward",)),
    "nn.act.forward_ms": ("self", ("nn.act.forward",)),
    "obs.ms_per_op": ("self", OBS_SPANS),
    "obs.calls_per_op": ("count", OBS_SPANS),
    "par.self_ms": ("self", ("par.run_sweep", "par.run_point")),
    "faults.runtime.self_ms": ("self", ("faults.runtime.infer",)),
    "faults.links.verdict_ms": ("self", ("faults.links.verdict",)),
    "faults.trace.record_ms": ("self", ("faults.trace.record",)),
    "faults.trace.digest_ms": ("self", ("faults.trace.digest",)),
    "sim.run_ms": ("self", ("sim.run",)),
    "sim.events_per_op": ("value", ("sim.run",)),
    "core.executor.forward_hooked_ms": (
        "self", ("core.executor.forward_hooked",)),
    "wsn.routing.route_ms": ("self", ("wsn.routing.route",)),
    "wsn.routing.routes_per_op": ("count", ("wsn.routing.route",)),
    "wsn.topology.graph_ms": ("self", ("wsn.topology.graph",)),
    "wsn.topology.rebuilds_per_op": ("rebuilds", ("wsn.topology.graph",)),
    "wsn.network.unicast_ms": ("self", ("wsn.network.unicast",)),
    "wsn.topology.soa_ms": ("self", ("wsn.topology.soa",)),
    "wsn.spatial.index_ms": ("self", ("wsn.spatial.index",)),
    "wsn.spatial.adjacency_ms": ("self", ("wsn.spatial.adjacency",)),
    "nn.conv.backward_nodes_ms": ("self", ("nn.conv.backward_nodes",)),
    "nn.pool.backward_nodes_ms": ("self", ("nn.pool.backward_nodes",)),
    "nn.dense.backward_nodes_ms": ("self", ("nn.dense.backward_nodes",)),
    "nn.loss_ms": ("self", ("nn.loss",)),
    "nn.optim.step_ms": ("self", ("nn.optim.step",)),
    "core.training.self_ms": ("self", ("core.training.fit",)),
    "serve.http.json_ms": ("self", ("serve.http.json",)),
}

#: Every per-layer metric with its unit (``BENCHMARK.json`` lists the
#: same names).  A workload reports 0 for a layer it does not load.
PER_LAYER_UNITS = {
    "serve.http.self_ms": "ms", "serve.http.json_ms": "ms",
    "serve.dispatch.wait_ms": "ms", "serve.dispatch.batch_size_mean": "rows",
    "serve.dispatch.fallback_ratio": "ratio", "serve.tenants.infer_ms": "ms",
    "serve.tenants.useful_rows_ratio": "ratio",
    "faults.runtime.transfers_per_op": "count",
    "faults.runtime.retries_per_op": "count",
    "wsn.network.delivery_ratio": "ratio", "wsn.network.hops_per_op": "count",
    "core.training.update_skips_per_op": "count",
    "py.gc_ms_per_op": "ms", "latency_tail_ms": "ms",
    "latency_tail_percentile": "%", "latency_samples": "count",
    "loadgen.late_ms": "ms", "loadgen.sent": "count",
    "loadgen.succeeded": "count", "loadgen.failed": "count",
    "loadgen.refused": "count", "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
}
for _name, (_how, __) in SPAN_METRICS.items():
    PER_LAYER_UNITS[_name] = "ms" if _how == "self" else "count"

END_TO_END_UNITS = {"latency_p50_ms": "ms", "throughput_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- child processes ----------------------------------------------------------
class Child:
    """A program process with its stdout lines timestamped as read."""

    live = set()

    def __init__(self, args) -> None:
        self.proc = subprocess.Popen(
            [sys.executable] + list(args), cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        Child.live.add(self)
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put((time.perf_counter(), line))
        self.lines.put((time.perf_counter(), None))

    def expect(self, prefix: str, timeout: float):
        """``(read time, line)`` of the next line starting with
        ``prefix``."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                stamp, line = self.lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise BenchError(f"no {prefix.strip()!r} within {timeout} s")
            if line is None:
                raise BenchError(
                    f"process exited ({self.proc.wait()}) before "
                    f"{prefix.strip()!r}")
            if line.startswith(prefix):
                return stamp, line.rstrip("\n")

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def stop(self, sig=None, timeout: float = 30.0) -> int:
        """Signal (optional), wait for exit, kill after ``timeout``."""
        if sig is not None and self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdin.close()
        self.reader.join(timeout=5.0)
        self.proc.stdout.close()
        Child.live.discard(self)
        return code


def start(args, ready_prefix: str):
    """``(child, set-up seconds, ready line)`` of a new process."""
    spawned = time.perf_counter()
    child = Child(args)
    ready, line = child.expect(ready_prefix, READY_TIMEOUT_S)
    return child, ready - spawned, line


def setups_only(args, ready_prefix: str, n: int, quit) -> list:
    """Set-up times of ``n`` processes stopped right after set-up."""
    out = []
    for __ in range(n):
        child, setup, __ = start(args, ready_prefix)
        quit(child)
        out.append(setup)
    return out


def quit_worker(child) -> None:
    child.send("QUIT")
    child.stop()


def spans_path(workload: str, level: int) -> str:
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, f"{workload}-level{level}.npz")


# -- in-process workloads -----------------------------------------------------
def run_worker(workload, seed, seconds, level, extra):
    """Run the workload in a worker process and return its result,
    with the set-up times of ``extra`` more processes around it."""
    path = spans_path(workload, level) if level else os.devnull
    args = [os.path.join(HERE, "worker.py"), workload, str(seed),
            str(level), path]
    setups = setups_only(args, "READY", extra[0], quit_worker)
    child, setup, __ = start(args, "READY")
    child.send(f"GO {seconds} {WARMUP_OPS}")
    __, line = child.expect("RESULT ", seconds + 120.0)
    if child.stop() != 0:
        raise BenchError(f"{workload} worker failed")
    setups += [setup] + setups_only(args, "READY", extra[1], quit_worker)
    result = json.loads(line[len("RESULT "):])
    result["setups"] = setups
    result["spans"] = path
    return result


def check_worker(workload, seed, records, reference):
    """Indices of the ops whose output fails its check."""
    if workload == "city_churn":
        return checks.compare_city(
            checks.city_expected(seed, len(records)), records)
    if workload == "fault_campaign":
        return checks.compare_campaign(reference, records)
    return checks.compare_train(reference, records)


def worker_reference(workload, seed):
    """References computed up front (untimed, before any worker)."""
    if workload == "fault_campaign":
        return checks.campaign_reference(seed)
    if workload == "train_local":
        return checks.train_reference(seed)
    return None


# -- serve_open ---------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection of the load generator."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, method: str, path: str, body: bytes = b""):
        self.writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, __, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def drive(port, due, bodies, n_warm):
    """Closed-loop warm-up, then the open-loop window: each request is
    sent at its due time on whichever connection is free first."""
    conns = [await Connection.open(port)
             for __ in range(inputs.SERVE_CONNECTIONS)]
    warm = [await conns[0].request("POST", "/v1/recognize", body)
            for body in bodies[:n_warm]]
    __, before = await conns[0].request("GET", "/metrics?format=json")
    n = len(due)
    sent = [None] * n
    pending = iter(range(n))
    start = time.perf_counter() + 0.05

    async def pump(conn):
        for i in pending:
            at = start + due[i]
            delay = at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            t_send = time.perf_counter()
            status, data = await conn.request(
                "POST", "/v1/recognize", bodies[n_warm + i])
            sent[i] = (at, t_send, time.perf_counter(), status, data)

    await asyncio.gather(*(pump(conn) for conn in conns))
    __, after = await conns[0].request("GET", "/metrics?format=json")
    for conn in conns:
        await conn.close()
    return {"warm": warm, "window": sent, "start": start,
            "metrics_before": json.loads(before),
            "metrics_after": json.loads(after)}


def run_serve(seed, seconds, level, extra):
    """Drive a daemon and return what the generator saw, with the
    set-up times of ``extra`` more daemons around it."""
    due, requests = inputs.serve_requests(seed, seconds)
    warm = inputs.serve_warmup(seed)
    every = warm + requests
    bodies = [json.dumps({"tenant": name, "input": x.tolist()}).encode()
              for name, x in every]
    path = spans_path("serve_open", level) if level else os.devnull
    args = [os.path.join(HERE, "serve_launcher.py"), str(level), path,
            "serve", "--port", "0", "--tenants",
            ",".join(inputs.SERVE_TENANTS)]
    ready = "serving on http://"
    interrupt = lambda child: child.stop(signal.SIGINT)  # noqa: E731
    setups = setups_only(args, ready, extra[0], interrupt)
    child, setup, line = start(args, ready)
    port = int(line.rsplit(":", 1)[1])
    load = asyncio.run(asyncio.wait_for(
        drive(port, due, bodies, len(warm)), seconds + READY_TIMEOUT_S))
    child.proc.send_signal(signal.SIGINT)
    __, line = child.expect("PEAK_RSS_MB ", READY_TIMEOUT_S)
    load["rss_mb"] = float(line.split()[1])
    if child.stop() != 0:
        raise BenchError("serve daemon failed")
    load["setups"] = setups + [setup] + setups_only(
        args, ready, extra[1], interrupt)
    load["spans"] = path
    load["requests"] = every
    return load


def request_counts(load):
    """Requests sent, succeeded (200), refused (503) and failed
    otherwise, warm-up included."""
    statuses = [status for status, __ in load["warm"]] + [
        rec[3] for rec in load["window"]]
    ok, refused = statuses.count(200), statuses.count(503)
    return {"loadgen.sent": len(statuses), "loadgen.succeeded": ok,
            "loadgen.refused": refused,
            "loadgen.failed": len(statuses) - ok - refused}


def check_serve(load):
    """Failed requests: non-200 or logits not byte-identical to the
    direct forward, plus any gap between the 200s and the daemon's
    ``serve.requests`` count."""
    counts = request_counts(load)
    print("serve_open: " + ", ".join(
        f"{name.split('.')[1]} {value}" for name, value in counts.items()),
        file=sys.stderr)
    responses = load["warm"] + [(rec[3], rec[4]) for rec in load["window"]]
    parsed = []
    for status, data in responses:
        try:
            parsed.append((status, json.loads(data)))
        except ValueError:
            parsed.append((status, None))
    bad = checks.compare_serve(checks.serve_expected(load["requests"]),
                               parsed)
    served = checks.served_requests(load["metrics_after"])
    return len(parsed), len(bad) + int(abs(counts["loadgen.succeeded"]
                                           - served))


# -- metrics ------------------------------------------------------------------
def tail(latencies_ms):
    """``(value, percentile, n)``: the highest percentile with at least
    ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    best = 50.0
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    rank = min(n - 1, max(0, math.ceil(best / 100.0 * n) - 1))
    return ordered[rank], best, n


def layer_split(trace, keep, n_ops):
    """Per-op span metrics over the spans selected by ``keep``."""
    out = {}
    for metric, (how, names) in SPAN_METRICS.items():
        sel = keep & np.isin(trace.name_id, [trace.names.index(n)
                                             for n in names
                                             if n in trace.names])
        if how == "self":
            total = trace.self_time[sel].sum() * 1000.0
        elif how == "count":
            total = float(sel.sum())
        elif how == "rebuilds":
            total = float((sel & trace.has_child).sum())
        else:
            total = trace.value[sel].sum()
        out[metric] = float(total) / n_ops
    return out


def under(trace, names):
    """Spans with an ancestor named in ``names``."""
    targets = [trace.names.index(n) for n in names if n in trace.names]
    found = np.zeros(len(trace.dur), dtype=bool)
    node = trace.parent.copy()
    while (node >= 0).any():
        live = node >= 0
        found[live] |= np.isin(trace.name_id[node[live]], targets)
        node[live] = trace.parent[node[live]]
    return found


def worker_layers(workload, untraced, traced):
    """Per-layer metrics of an in-process workload: spans of the
    traced run, GC time and tail latency of the GC-only run."""
    lat_ms = [x * 1000.0 for x in untraced["latencies"]]
    metrics = {}
    trace = spans.Spans(traced["spans"])
    first = traced["first_op"]
    ops = trace.mask(spans.OP_SPAN) & (trace.op >= first)
    n = int(ops.sum())
    keep = trace.op >= first
    metrics.update(layer_split(trace, keep, n))
    structural = keep & (trace.layer == "")
    metrics["trace.unattributed_pct"] = float(
        100.0 * trace.self_time[structural].sum() / trace.dur[ops].sum())
    unicasts = keep & trace.mask("wsn.network.unicast") & under(
        trace, ["faults.runtime.infer"])
    metrics["faults.runtime.transfers_per_op"] = float(unicasts.sum()) / n
    gc_trace = spans.Spans(untraced["spans"])
    gc_keep = gc_trace.mask(spans.GC_SPAN) & (
        gc_trace.op >= untraced["first_op"])
    metrics["py.gc_ms_per_op"] = float(
        gc_trace.dur[gc_keep].sum() * 1000.0 / len(lat_ms))
    metrics["latency_tail_ms"], metrics["latency_tail_percentile"], \
        metrics["latency_samples"] = tail(lat_ms)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.mean(traced["latencies"])
        / statistics.mean(untraced["latencies"]) - 1.0)
    measured = traced["records"][first:]

    def per_op(key):
        return sum(rec[key] for rec in measured) / n

    if workload in ("city_churn", "fault_campaign"):
        metrics["wsn.network.delivery_ratio"] = (
            per_op("delivered") / per_op("sent"))
        metrics["wsn.network.hops_per_op"] = per_op("hops")
    if workload == "fault_campaign":
        metrics["faults.runtime.retries_per_op"] = per_op("retries")
    if workload == "train_local":
        metrics["core.training.update_skips_per_op"] = per_op("skips")
    return metrics


def window_stats(load):
    """Latencies from due time (ms), lateness (ms), and throughput of
    the open-loop window; failed requests count as infinitely late."""
    recs = load["window"]
    lat = [(done - at) * 1000.0 if status == 200 else math.inf
           for at, __, done, status, __ in recs]
    late = [(t_send - at) * 1000.0 for at, t_send, __, __, __ in recs]
    ok = sum(1 for rec in recs if rec[3] == 200)
    elapsed = max(rec[2] for rec in recs) - load["start"]
    return lat, late, ok / elapsed


def _metric_delta(before, after, name, field=None):
    def total(snapshot):
        out = 0.0
        for series, __, kind, payload in snapshot:
            if series == name:
                out += payload[field] if field else payload
        return out
    return total(after) - total(before)


def serve_layers(untraced, traced):
    """Per-layer metrics of serve_open from the daemon's spans and the
    generator's view of each request."""
    from repro.serve.tenants import SERVE_BATCH

    lat, late, __ = window_stats(untraced)
    lat_traced, __, __ = window_stats(traced)
    recs = [rec for rec in traced["window"] if rec[3] == 200]
    n = len(recs)
    rtt = np.array([rec[2] - rec[1] for rec in recs])
    served = np.array([json.loads(rec[4])["latency_s"] for rec in recs])
    t_end = max(rec[2] for rec in recs)
    trace = spans.Spans(traced["spans"])
    keep = (trace.start >= traced["start"]) & (trace.start <= t_end)
    metrics = layer_split(trace, keep, n)
    infer = keep & trace.mask("serve.tenants.infer")
    rows = trace.value[infer]
    metrics["serve.tenants.infer_ms"] = float(
        trace.dur[infer].sum() * 1000.0 / n)
    metrics["serve.tenants.useful_rows_ratio"] = float(
        rows.sum() / (np.ceil(rows / SERVE_BATCH) * SERVE_BATCH).sum())
    metrics["serve.dispatch.wait_ms"] = float(
        1000.0 * (served.sum() - (trace.dur[infer] * rows).sum()) / n)
    metrics["serve.http.self_ms"] = float(1000.0 * (rtt - served).mean())
    before, after = traced["metrics_before"], traced["metrics_after"]
    metrics["serve.dispatch.batch_size_mean"] = (
        _metric_delta(before, after, "serve.batch_size", "sum")
        / _metric_delta(before, after, "serve.batch_size", "count"))
    fallbacks = _metric_delta(before, after, "serve.plan_fallbacks")
    metrics["serve.dispatch.fallback_ratio"] = fallbacks / (
        fallbacks + _metric_delta(before, after, "serve.plan_runs"))
    json_s = trace.self_time[keep & trace.mask("serve.http.json")].sum()
    metrics["trace.unattributed_pct"] = float(
        100.0 * (rtt.sum() - served.sum() - json_s) / rtt.sum())
    gc_trace = spans.Spans(untraced["spans"])
    t_end_a = max(rec[2] for rec in untraced["window"])
    gc_keep = gc_trace.mask(spans.GC_SPAN) & (
        gc_trace.start >= untraced["start"]) & (gc_trace.start <= t_end_a)
    metrics["py.gc_ms_per_op"] = float(
        gc_trace.dur[gc_keep].sum() * 1000.0 / len(lat))
    metrics["latency_tail_ms"], metrics["latency_tail_percentile"], \
        metrics["latency_samples"] = tail(lat)
    metrics["loadgen.late_ms"] = statistics.mean(late)
    metrics.update(request_counts(untraced))
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.mean(lat_traced) / statistics.mean(lat) - 1.0)
    return metrics


# -- entry point --------------------------------------------------------------
def measure(workload, seed, seconds, trace):
    """``(attempted, failed, metrics)`` of one benchmark run."""
    if trace:
        passes = [(1, (0, 0)), (2, (0, 0))]
    else:
        passes = [(0, SETUP_EXTRA)]
    results = []
    attempted = failed = 0
    if workload == "serve_open":
        for level, extra in passes:
            load = run_serve(seed, seconds, level, extra)
            n, bad = check_serve(load)
            attempted += n
            failed += bad
            results.append(load)
        if trace:
            return attempted, failed, serve_layers(*results)
        lat, __, throughput = window_stats(results[0])
        return attempted, failed, {
            "latency_p50_ms": statistics.median(lat),
            "throughput_per_s": throughput,
            "setup_s": statistics.median(results[0]["setups"]),
            "peak_rss_mb": results[0]["rss_mb"],
        }
    reference = worker_reference(workload, seed)
    for level, extra in passes:
        result = run_worker(workload, seed, seconds, level, extra)
        attempted += len(result["records"])
        failed += len(check_worker(workload, seed, result["records"],
                                   reference))
        results.append(result)
    if trace:
        return attempted, failed, worker_layers(workload, *results)
    result = results[0]
    return attempted, failed, {
        "latency_p50_ms": statistics.median(result["latencies"]) * 1000.0,
        "throughput_per_s": (len(result["latencies"]) * OP_UNITS[workload]
                             / result["elapsed"]),
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": result["rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program at src/repro; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        attempted, failed, values = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        for child in list(Child.live):
            child.proc.kill()
            child.stop()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
