"""Serving quickstart: recognition-as-a-service over compiled plans.

Starts the multi-tenant HTTP service in-process on an ephemeral port
(no fixed-port collisions), then exercises it like a client would:

1. host two pre-trained scenario tenants (fall monitoring + HVAC);
2. POST recognition requests and read logits/labels back;
3. fire a concurrent burst and watch the micro-batching dispatcher
   coalesce it: requests that arrive in the same event-loop turn
   share a batch (requests/sec, per-request latency, batch sizes);
4. hot-swap a tenant live and see the served bytes change;
5. read the same telemetry that ``/metrics`` exposes.

Everything is stdlib + NumPy: the server is hand-rolled on
``asyncio.start_server``.  The long-running flavor of this demo is
``python -m repro.cli serve --tenants fall,hvac --port 8080``.

Run:  python examples/serve_quickstart.py
"""

import asyncio

import numpy as np

from repro.serve import BatchPolicy, ServeApp, TenantConfig
from repro.serve.loadgen import HttpClient, run_load


async def demo() -> None:
    # 1. Host two tenants: short training keeps the demo quick.
    app = ServeApp(BatchPolicy(max_batch=4))
    print("building tenants (fall, hvac) ...")
    for name in ("fall", "hvac"):
        app.add_tenant(TenantConfig(
            name=name, scenario=name, seed=0, train_epochs=1,
            train_samples=32,
        ))
    await app.start(port=0)  # ephemeral port
    print(f"serving on http://127.0.0.1:{app.port}\n")
    client = HttpClient("127.0.0.1", app.port)

    # 2. One recognition request per tenant.
    rng = np.random.default_rng(7)
    print("single requests:")
    for name in ("fall", "hvac"):
        shape = app.pool.require(name).input_shape
        status, body = await client.post_json(
            "/v1/recognize",
            {"tenant": name, "input": rng.normal(size=shape).tolist()},
        )
        print(f"  {name:6s} -> {status} label={body['label']:12s} "
              f"served_by={body['served_by']} "
              f"batch={body['batch_size']}")

    # 3. A concurrent burst: the dispatcher coalesces per tenant
    #    whatever arrives in one loop turn (up to max_batch).
    n = 24
    payloads = [
        {"tenant": ("fall", "hvac")[i % 2],
         "input": rng.normal(
             size=app.pool.require(("fall", "hvac")[i % 2]).input_shape
         ).tolist()}
        for i in range(n)
    ]
    report = await run_load("127.0.0.1", app.port, payloads, concurrency=8)
    sizes = sorted({body["batch_size"] for body in report.responses})
    print(f"\nburst of {n} over 8 connections: "
          f"{report.rps:.0f} req/s, p50 {report.p50_s * 1e3:.2f} ms, "
          f"p99 {report.p99_s * 1e3:.2f} ms, batch sizes {sizes}")

    # 4. Hot-swap the fall tenant live; the served bytes change.
    x = rng.normal(size=app.pool.require("fall").input_shape)
    __, before = await client.post_json(
        "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
    )
    status, swapped = await client.post_json(
        "/v1/tenants",
        {"name": "fall", "scenario": "fall", "seed": 99},
    )
    __, after = await client.post_json(
        "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
    )
    print(f"\nhot swap -> {status} (fall now seed "
          f"{swapped['seed']}); same input, logits changed: "
          f"{before['logits'] != after['logits']}")

    # 5. The service's own telemetry, as /metrics reports it.
    status, health = await client.get_json("/healthz")
    metrics = app.telemetry.metrics
    print(f"\nhealthz: {health['status']}; served per tenant: "
          + ", ".join(
          f"{name}={info['served']}"
          for name, info in sorted(health["tenants"].items())))
    print(f"totals: requests={metrics.total('serve.requests'):.0f} "
          f"batches={metrics.total('serve.batches'):.0f} "
          f"plan_runs={metrics.total('serve.plan_runs'):.0f} "
          f"fallbacks={metrics.total('serve.plan_fallbacks'):.0f}")

    await client.close()
    await app.shutdown()
    print("drained and shut down cleanly")


def main():
    asyncio.run(demo())


if __name__ == "__main__":
    main()
