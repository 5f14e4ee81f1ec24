"""The asyncio HTTP service: multi-tenant recognition over plans.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` (stdlib only, in
the tradition of long-lived Python network daemons with built-in
monitoring): one coroutine per connection, keep-alive by default,
JSON bodies.  All inference runs on the event loop — the executors
are NumPy-bound and release nothing, so the service scales by
micro-batching (the dispatcher), not threads.

Endpoints:

``GET /healthz``
    Liveness + per-tenant summary (requests served, current fault
    state) as JSON.
``GET /metrics``
    The telemetry registry in a Prometheus-style text exposition;
    ``GET /metrics?format=json`` returns the canonical registry
    snapshot instead (what the tests and tooling parse).
``GET /traces``
    The trace events recorded so far as deterministic JSONL (one
    Chrome-trace event per line) — ``serve.batch`` spans nest the
    executor's traffic span: ``exec.plan`` in steady state,
    ``exec.replay`` on fallback.
``GET /timeline``
    The flight recorder's retained ring-buffer samples as canonical
    JSONL; ``GET /timeline?format=json`` returns a document with the
    parsed samples, the fired alerts, and both sha256 digests (what
    the dashboard polls).  Each GET also gives the recorder a
    pull-style ``sample_if_due`` kick, so pollers keep the timeline
    fresh even between periodic ticks.
``GET /dashboard``
    A self-contained polling HTML page (no external assets) rendering
    the timeline: health cards, the alert log, and a per-series table
    with sparklines.  See :mod:`repro.serve.dashboard`.
``POST /v1/recognize``
    Body ``{"tenant": name, "input": nested-list}``; the input must
    match the tenant's ``(channels, h, w)`` shape (a bare ``(h, w)``
    list is accepted for single-channel tenants).  Responds with the
    logits (exact float64 round-trip — byte-identical to a direct
    executor forward), the predicted label, and serving metadata.
``POST /v1/tenants``
    Live hot-swap: body is a :class:`~repro.serve.tenants
    .TenantConfig` payload (``name``, ``scenario``, optional
    ``seed``/``train_epochs``/``train_samples``).  Builds the tenant
    (synchronously — training blocks the loop; keep serve-time swap
    epochs small) and installs it, replacing any tenant of that name.
    In-flight requests queued for the old tenant are served by the
    new one (see :class:`~repro.serve.tenants.TenantPool`).

Status codes: 400 malformed JSON/input (non-finite values included),
non-finite logits or a bad tenant config, 404 unknown route or
tenant, 405 wrong method, 503 overloaded or shutting down.
Every error body is ``{"error": ..., "detail": ...}``.  A request the
parser cannot frame (a bad request line or target, a line over the
reader's 64 KiB limit, a ``Content-Length`` that is not ASCII digits
or is over :data:`MAX_BODY_BYTES`) is answered with its 400 and the
connection closes.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.serve.clock import LoopClock
from repro.serve.dispatch import (
    BatchPolicy,
    Dispatcher,
    DispatcherClosed,
    TenantOverloaded,
)
from repro.serve.tenants import (
    Tenant,
    TenantConfig,
    TenantPool,
    UnknownTenant,
    build_tenant,
)

_STATUS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies above this are rejected (a recognition input for the
#: largest scenario is ~30 kB of JSON).
MAX_BODY_BYTES = 1 << 20


class _BadRequest(Exception):
    def __init__(self, status: int, error: str, detail: str = "") -> None:
        self.status = status
        self.error = error
        self.detail = detail
        super().__init__(error)


def _error_payload(error: str, detail: str = "") -> bytes:
    """The JSON body of every error response."""
    return json.dumps({"error": error, "detail": detail}).encode()


async def _read_line(reader) -> bytes:
    """One line, line feed included; a line over the reader's limit
    is a 400."""
    try:
        return await reader.readline()
    except ValueError as exc:  # asyncio's limit overrun
        raise _BadRequest(400, "line-too-long", str(exc))


def _content_length(headers: Dict[str, str]) -> int:
    """The body length: ASCII digits only (no sign, space, ``_`` or
    non-ASCII digit that ``int()`` would accept), at most
    :data:`MAX_BODY_BYTES`; a missing or empty header means 0."""
    raw = headers.get("content-length") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise _BadRequest(400, "bad-content-length", raw)
    digits = raw.lstrip("0") or "0"
    if (len(digits) > len(str(MAX_BODY_BYTES))
            or int(digits) > MAX_BODY_BYTES):
        raise _BadRequest(400, "body-too-large", f"{raw} bytes")
    return int(digits)


#: Default p99 latency budget (seconds) for the stock serve rules.
DEFAULT_LATENCY_BUDGET_S = 0.5


def default_serve_rules(
    latency_budget_s: float = DEFAULT_LATENCY_BUDGET_S,
    backlog: int = 128,
):
    """The stock serve SLOs: any plan fallback (warning), any
    backpressure rejection (critical), windowed p99 latency over
    budget (critical), and lane backlog at or past ``backlog``
    (warning)."""
    from repro.obs.watch import Rule

    return [
        Rule(name="plan-fallbacks", series="serve.plan_fallbacks",
             kind="rate", op=">", value=0.0, severity="warning"),
        Rule(name="rejected", series="serve.rejected",
             kind="rate", op=">", value=0.0, severity="critical"),
        Rule(name="p99-latency", series="serve.latency_s",
             kind="quantile", quantile=0.99, op=">",
             value=latency_budget_s, windows=2, severity="critical"),
        Rule(name="backlog", series="serve.pending",
             kind="threshold", op=">=", value=float(backlog),
             severity="warning"),
    ]


class ServeApp:
    """The long-running service: tenants + dispatcher + telemetry.

    Args:
        policy: micro-batching knobs.
        telemetry: explicit ``repro.obs`` backend; by default the app
            creates its own live :class:`~repro.obs.runtime.Telemetry`
            (not installed process-wide), which ``/metrics`` and
            ``/traces`` expose.
        clock: timing provider; the loop clock by default.
        timeline_interval: flight-recorder cadence (clock seconds).
        timeline_capacity / timeline_window: recorder ring size and
            rolling-window width (samples).
        rules: watchdog :class:`~repro.obs.watch.Rule` list; the
            stock :func:`default_serve_rules` when omitted, ``()`` to
            disable alerting.
    """

    def __init__(
        self,
        policy: Optional[BatchPolicy] = None,
        telemetry=None,
        clock=None,
        timeline_interval: float = 1.0,
        timeline_capacity: Optional[int] = None,
        timeline_window: Optional[int] = None,
        rules=None,
    ) -> None:
        if telemetry is None:
            from repro.obs.runtime import Telemetry

            telemetry = Telemetry()
        self.telemetry = telemetry
        self.clock = clock if clock is not None else LoopClock()
        self.policy = policy or BatchPolicy()
        self.pool = TenantPool()
        self.dispatcher = Dispatcher(
            self.pool, self.policy, self.clock, telemetry=telemetry,
            future_factory=lambda: asyncio.get_running_loop().create_future(),
        )
        from repro.obs.timeline import (
            DEFAULT_CAPACITY,
            DEFAULT_WINDOW,
            flight_recorder,
        )
        from repro.obs.watch import Watchdog

        self.recorder = flight_recorder(
            telemetry, clock=self.clock.now,
            interval=timeline_interval,
            capacity=timeline_capacity or DEFAULT_CAPACITY,
            window=timeline_window or DEFAULT_WINDOW,
        )
        if rules is None:
            rules = default_serve_rules(backlog=self.policy.max_pending // 2)
        self.watchdog = Watchdog(
            rules, telemetry=telemetry if telemetry.enabled else None
        )
        if self.recorder.enabled:
            self.recorder.attach(self.watchdog)
        self.requests_handled = 0
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._conn_tasks: set = set()
        self._stop = asyncio.Event()
        self._stop_after: Optional[int] = None
        self._timeline_timer = None

    # -- tenant management ---------------------------------------------------
    def add_tenant(self, config: TenantConfig) -> Tenant:
        """Build a tenant wired to the app telemetry and install it."""
        tenant = build_tenant(config, telemetry=self.telemetry)
        replaced = self.pool.swap(tenant)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "serve.tenant_swaps", tenant=tenant.name
            ).inc()
            if replaced is not None:
                self.telemetry.tracer.instant(
                    "serve.tenant-swap", tenant=tenant.name,
                    scenario=config.scenario, seed=config.seed,
                )
        return tenant

    # -- lifecycle -----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port
        (recorded in :attr:`port`)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.recorder.enabled and self._timeline_timer is None:
            self._timeline_timer = self.clock.call_later(
                self.recorder.interval, self._timeline_tick
            )

    def _timeline_tick(self) -> None:
        """Periodic flight-recorder sample on the serving clock;
        re-arms itself until shutdown."""
        self._timeline_timer = None
        if self._stop.is_set() or not self.recorder.enabled:
            return
        self.recorder.sample()
        self._timeline_timer = self.clock.call_later(
            self.recorder.interval, self._timeline_tick
        )

    async def shutdown(self) -> None:
        """Graceful stop: drain in-flight batches, close the listener
        and every open connection."""
        self.dispatcher.drain()
        if self._timeline_timer is not None:
            self._timeline_timer.cancel()
            self._timeline_timer = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            writer.close()
        current = asyncio.current_task()
        stragglers = [t for t in self._conn_tasks if t is not current]
        for task in stragglers:
            task.cancel()
        if stragglers:
            await asyncio.gather(*stragglers, return_exceptions=True)
        self._stop.set()

    async def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        stop_after: Optional[int] = None,
        ready=None,
    ) -> None:
        """Serve until :meth:`shutdown` (or ``stop_after`` handled
        requests); ``ready(app)`` is called once the port is bound."""
        self._stop_after = stop_after
        await self.start(host, port)
        if ready is not None:
            ready(self)
        try:
            await self._stop.wait()
        finally:
            if self._server is not None:
                await self.shutdown()

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    # The stream position is unknown after a parse
                    # error: answer, then close.
                    self._write_response(
                        writer, exc.status,
                        _error_payload(exc.error, exc.detail),
                        "application/json", keep_alive=False,
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = await self._handle_request(request, writer)
                await writer.drain()
                self.requests_handled += 1
                if (self._stop_after is not None
                        and self.requests_handled >= self._stop_after):
                    self._stop.set()
                    break
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown cancelled us mid-read; exit quietly.
            pass
        finally:
            self._conn_tasks.discard(task)
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader) -> Optional[Tuple]:
        """One request off the stream as ``(method, split target,
        headers, body)``, or ``None`` at a clean end of stream.
        Malformed input raises :class:`_BadRequest` (a 4xx); a peer
        that hangs up mid-body raises
        :class:`asyncio.IncompleteReadError`."""
        line = await _read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, __ = line.decode("latin-1").strip().split(" ", 2)
            parts = urlsplit(target)  # e.g. "//[" is a ValueError
        except ValueError:
            raise _BadRequest(400, "malformed-request-line")
        headers: Dict[str, str] = {}
        while True:
            header = await _read_line(reader)
            if not header or header in (b"\r\n", b"\n"):
                break
            name, sep, value = header.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = _content_length(headers)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), parts, headers, body

    async def _handle_request(self, request, writer) -> bool:
        method, parts, headers, body = request
        content_type = "application/json"
        try:
            status, payload, content_type = await self._route(
                method, parts.path, parts.query, body
            )
        except _BadRequest as exc:
            status, payload = exc.status, _error_payload(exc.error, exc.detail)
        except UnknownTenant as exc:
            status, payload = 404, _error_payload("unknown-tenant", str(exc))
        except (TenantOverloaded, DispatcherClosed) as exc:
            status, payload = 503, _error_payload("overloaded", str(exc))
        keep_alive = headers.get("connection", "").lower() != "close"
        self._write_response(writer, status, payload, content_type,
                             keep_alive)
        return keep_alive

    @staticmethod
    def _write_response(writer, status: int, payload: bytes,
                        content_type: str, keep_alive: bool) -> None:
        head = (
            f"HTTP/1.1 {status} {_STATUS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + payload)

    # -- routing -------------------------------------------------------------
    async def _route(
        self, method: str, path: str, query: str, body: bytes
    ) -> Tuple[int, bytes, str]:
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self._healthz(), "application/json"
        if path == "/metrics":
            self._require(method, "GET")
            wants_json = "json" in parse_qs(query).get("format", [])
            if wants_json:
                return 200, self._metrics_json(), "application/json"
            return 200, self._metrics_text(), "text/plain; version=0.0.4"
        if path == "/traces":
            self._require(method, "GET")
            return 200, self._traces(), "application/x-ndjson"
        if path == "/timeline":
            self._require(method, "GET")
            self.recorder.sample_if_due()
            if "json" in parse_qs(query).get("format", []):
                return 200, self._timeline_json(), "application/json"
            jsonl = self.recorder.to_jsonl()
            return 200, (jsonl + "\n" if jsonl else "").encode(), \
                "application/x-ndjson"
        if path == "/dashboard":
            self._require(method, "GET")
            from repro.serve.dashboard import DASHBOARD_HTML

            return 200, DASHBOARD_HTML.encode(), "text/html; charset=utf-8"
        if path == "/v1/recognize":
            self._require(method, "POST")
            return 200, await self._recognize(body), "application/json"
        if path == "/v1/tenants":
            if method == "GET":
                return 200, json.dumps(
                    self.pool.describe(), sort_keys=True
                ).encode(), "application/json"
            self._require(method, "POST")
            return 201, self._swap_tenant(body), "application/json"
        raise _BadRequest(404, "unknown-route", path)

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _BadRequest(405, "method-not-allowed",
                              f"use {expected}")

    @staticmethod
    def _json_body(body: bytes) -> Dict:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and an integer
            # literal past Python's digit limit; RecursionError, nesting.
            raise _BadRequest(400, "malformed-json", str(exc))
        if not isinstance(payload, dict):
            raise _BadRequest(400, "malformed-json", "body must be an object")
        return payload

    # -- endpoint bodies -----------------------------------------------------
    def _healthz(self) -> bytes:
        active = self.watchdog.active()
        return json.dumps({
            "status": "ok" if not self.dispatcher.closed else "draining",
            "requests_handled": self.requests_handled,
            "tenants": self.pool.describe(),
            "policy": {
                "max_batch": self.policy.max_batch,
                "max_pending": self.policy.max_pending,
            },
            "alerts": {
                "active": [a.rule for a in active],
                "fired": len(self.watchdog.alerts),
                "critical": self.watchdog.critical_count(),
            },
        }, sort_keys=True).encode()

    def _timeline_json(self) -> bytes:
        """The dashboard document: parsed retained samples, fired
        alerts, and both determinism digests."""
        samples = [
            json.loads(sample.to_json())
            for sample in self.recorder.samples()
        ]
        alerts = [
            json.loads(alert.to_json()) for alert in self.watchdog.alerts
        ]
        return json.dumps({
            "interval": self.recorder.interval,
            "window": self.recorder.window,
            "capacity": self.recorder.capacity,
            "n_samples": self.recorder.n_samples,
            "dropped": self.recorder.dropped,
            "rules": [rule.name for rule in self.watchdog.rules],
            "samples": samples,
            "alerts": alerts,
            "digests": {
                "timeline": self.recorder.digest(),
                "alerts": self.watchdog.digest(),
            },
        }, sort_keys=True).encode()

    def _metrics_json(self) -> bytes:
        return json.dumps(
            self.telemetry.metrics.snapshot(), sort_keys=True
        ).encode()

    @staticmethod
    def _escape_label(value) -> str:
        """Escape a label value per the Prometheus text exposition
        format: backslash, double quote, and newline."""
        return (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )

    def _metrics_text(self) -> bytes:
        """Prometheus-style exposition from the registry snapshot."""
        lines = []
        for name, label_items, kind, payload in (
            self.telemetry.metrics.snapshot()
        ):
            metric = name.replace(".", "_").replace("-", "_")
            labels = ",".join(
                f'{k}="{self._escape_label(v)}"' for k, v in label_items
            )
            suffix = "{" + labels + "}" if labels else ""
            if kind == "histogram":
                acc = 0
                for bound, count in zip(
                    payload["buckets"] + [float("inf")], payload["counts"]
                ):
                    acc += count
                    shown = "+Inf" if bound == float("inf") else bound
                    le = ",".join(filter(None, [labels, f'le="{shown}"']))
                    lines.append(f"{metric}_bucket{{{le}}} {acc}")
                lines.append(f"{metric}_sum{suffix} {payload['sum']}")
                lines.append(f"{metric}_count{suffix} {payload['count']}")
            else:
                lines.append(f"{metric}{suffix} {payload}")
        return ("\n".join(lines) + "\n").encode()

    def _traces(self) -> bytes:
        from repro.obs import export_events

        events = export_events(self.telemetry)
        return ("\n".join(
            json.dumps(event, sort_keys=True) for event in events
        ) + ("\n" if events else "")).encode()

    async def _recognize(self, body: bytes) -> bytes:
        payload = self._json_body(body)
        tenant_name = payload.get("tenant")
        if not isinstance(tenant_name, str):
            raise _BadRequest(400, "missing-tenant",
                              "body needs a 'tenant' string")
        tenant = self.pool.require(tenant_name)
        if "input" not in payload:
            raise _BadRequest(400, "missing-input",
                              "body needs an 'input' array")
        try:
            x = np.asarray(payload["input"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _BadRequest(400, "malformed-input", str(exc))
        if not np.isfinite(x).all():  # json reads Infinity, NaN, 1e999
            raise _BadRequest(400, "malformed-input", "non-finite value")
        if x.shape == tenant.input_shape[1:] and tenant.input_shape[0] == 1:
            x = x[np.newaxis]
        if x.shape != tenant.input_shape:
            raise _BadRequest(
                400, "input-shape",
                f"expected {list(tenant.input_shape)}, got {list(x.shape)}",
            )
        result = await self.dispatcher.submit(tenant_name, x)
        if not np.isfinite(result.logits).all():  # strict JSON has no inf
            raise _BadRequest(400, "non-finite-logits", "forward overflowed")
        return json.dumps({
            "tenant": result.tenant,
            "logits": result.logits.tolist(),
            "pred": result.pred,
            "label": result.label,
            "served_by": result.served_by,
            "batch_size": result.batch_size,
            "latency_s": result.latency_s,
        }, sort_keys=True).encode()

    def _swap_tenant(self, body: bytes) -> bytes:
        try:
            config = TenantConfig.from_payload(self._json_body(body))
        except ValueError as exc:
            raise _BadRequest(400, "bad-tenant-config", str(exc))
        tenant = self.add_tenant(config)
        return json.dumps(
            {"name": tenant.name, **tenant.describe()}, sort_keys=True
        ).encode()
