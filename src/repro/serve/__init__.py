"""Long-running recognition service over compiled inference plans.

The serving layer turns the repo's scenario deployments into a
multi-tenant asyncio HTTP daemon (stdlib only): pre-trained tenants
(:mod:`repro.serve.tenants`), a per-tenant micro-batching dispatcher
(:mod:`repro.serve.dispatch`), the HTTP surface
(:mod:`repro.serve.http`), a closed-loop load generator
(:mod:`repro.serve.loadgen`), and a fully deterministic fake-clock
test harness (:mod:`repro.serve.testing`).  All timing flows through
the clock shim (:mod:`repro.serve.clock`) so batching behavior is
testable without sockets or sleeps.  A lane flushes on the event
loop's next turn: requests ready in the same turn share one batch, up
to ``max_batch``, and a lone request never waits.

Start one from Python::

    from repro.serve import BatchPolicy, ServeApp, TenantConfig

    app = ServeApp(BatchPolicy(max_batch=8))
    app.add_tenant(TenantConfig(name="fall", scenario="fall"))
    asyncio.run(app.run(port=8080))

or from the CLI: ``repro serve --tenants fall,hvac --port 8080``.
"""

from repro.serve.clock import LoopClock
from repro.serve.dispatch import (
    BATCH_BUCKETS,
    BatchPolicy,
    Dispatcher,
    DispatcherClosed,
    PlainFuture,
    ServeResult,
    TenantOverloaded,
)
from repro.serve.dashboard import DASHBOARD_HTML
from repro.serve.http import (
    DEFAULT_LATENCY_BUDGET_S,
    MAX_BODY_BYTES,
    ServeApp,
    default_serve_rules,
)
from repro.serve.loadgen import HttpClient, LoadReport, run_load
from repro.serve.tenants import (
    MAX_TRAIN_EXAMPLE_EPOCHS,
    SCENARIOS,
    ScenarioSpec,
    Tenant,
    TenantConfig,
    TenantPool,
    UnknownTenant,
    build_tenant,
)

__all__ = [
    "BATCH_BUCKETS",
    "BatchPolicy",
    "DASHBOARD_HTML",
    "DEFAULT_LATENCY_BUDGET_S",
    "Dispatcher",
    "DispatcherClosed",
    "HttpClient",
    "LoadReport",
    "LoopClock",
    "MAX_BODY_BYTES",
    "MAX_TRAIN_EXAMPLE_EPOCHS",
    "PlainFuture",
    "SCENARIOS",
    "ScenarioSpec",
    "ServeApp",
    "ServeResult",
    "Tenant",
    "TenantConfig",
    "TenantOverloaded",
    "TenantPool",
    "UnknownTenant",
    "build_tenant",
    "default_serve_rules",
    "run_load",
]
