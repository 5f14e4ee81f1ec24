"""End-to-end socket tests for the serving HTTP layer.

A real :class:`~repro.serve.http.ServeApp` on an ephemeral port
(``port=0`` — no fixed-port flakes), driven by the stdlib-only
:class:`~repro.serve.loadgen.HttpClient`.  The core pins: logits
served over HTTP are **byte-identical** to a direct
``DistributedExecutor`` forward on the same scenario/seed (JSON's
shortest-repr float round-trip is exact for float64), and the
``/metrics`` endpoint reconciles exactly with the requests sent.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import (
    MAX_BODY_BYTES,
    BatchPolicy,
    LoopClock,
    ServeApp,
    TenantConfig,
    build_tenant,
)
from repro.serve.loadgen import HttpClient, run_load

SEED = 7


def run(coro):
    return asyncio.run(coro)


class HeldTurnClock(LoopClock):
    """The loop clock with every timer 50 ms late: a lane's next-turn
    flush waits long enough for concurrent requests to pile up in it
    (what the backpressure test needs)."""

    def call_later(self, delay, callback):
        return super().call_later(delay + 0.05, callback)


def make_app(max_batch=4, max_pending=64, clock=None):
    app = ServeApp(BatchPolicy(
        max_batch=max_batch, max_pending=max_pending,
    ), clock=clock)
    for name in ("fall", "hvac"):
        app.add_tenant(TenantConfig(
            name=name, scenario=name, seed=SEED, train_epochs=0,
        ))
    return app


async def with_app(test, **app_kwargs):
    """Start an app on an ephemeral port, run ``test(app, client)``,
    always shut down."""
    app = make_app(**app_kwargs)
    await app.start(port=0)
    client = HttpClient("127.0.0.1", app.port)
    try:
        return await test(app, client)
    finally:
        await client.close()
        await app.shutdown()


class TestRecognizeParity:
    def test_served_logits_byte_identical_to_direct_forward(self):
        """The tentpole pin: recognition over HTTP returns the exact
        bytes a direct executor forward produces for the same
        scenario/seed — batching, JSON, and sockets change nothing."""
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(5, 1, 8, 8))

        async def test(app, client):
            responses = []
            for i in range(xs.shape[0]):
                status, body = await client.post_json(
                    "/v1/recognize",
                    {"tenant": "fall", "input": xs[i].tolist()},
                )
                assert status == 200
                responses.append(body)
            # An independently built tenant of the same config must
            # produce the served bytes from scratch.
            fresh = build_tenant(TenantConfig(
                name="fall", scenario="fall", seed=SEED, train_epochs=0,
            ))
            direct = fresh.direct_forward(xs)
            for i, body in enumerate(responses):
                got = np.asarray(body["logits"], dtype=np.float64)
                assert got.tobytes() == direct[i].tobytes()
                assert body["pred"] == int(direct[i].argmax())
                assert body["served_by"] == "plan"

        run(with_app(test))

    def test_parity_holds_under_concurrent_batched_load(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(size=(12, 1, 10, 10))
        payloads = [
            {"tenant": "hvac", "input": xs[i].tolist()}
            for i in range(xs.shape[0])
        ]

        async def test(app, client):
            report = await run_load(
                "127.0.0.1", app.port, payloads, concurrency=4
            )
            assert set(report.statuses) == {200}
            direct = app.pool.require("hvac").direct_forward(xs)
            batch_sizes = set()
            for i, body in enumerate(report.responses):
                got = np.asarray(body["logits"], dtype=np.float64)
                assert got.tobytes() == direct[i].tobytes()
                batch_sizes.add(body["batch_size"])
            return batch_sizes

        batch_sizes = run(with_app(test))
        assert batch_sizes - {1, 2, 3, 4} == set()

    def test_single_channel_input_accepts_2d_payload(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 8, 8))

        async def test(app, client):
            status, with_channel = await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            status2, without = await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x[0].tolist()}
            )
            assert status == status2 == 200
            assert with_channel["logits"] == without["logits"]

        run(with_app(test))


class TestMetricsReconciliation:
    def test_metrics_totals_match_requests_sent(self):
        """``serve.requests`` == requests sent == ``serve.batch_size``
        histogram mass, straight from the JSON metrics endpoint."""
        rng = np.random.default_rng(3)
        n = 9
        payloads = [
            {"tenant": ("fall", "hvac")[i % 2],
             "input": rng.normal(
                 size=(1, 8, 8) if i % 2 == 0 else (1, 10, 10)
             ).tolist()}
            for i in range(n)
        ]

        async def test(app, client):
            report = await run_load(
                "127.0.0.1", app.port, payloads, concurrency=3
            )
            assert set(report.statuses) == {200}
            status, snapshot = await client.get_json("/metrics?format=json")
            assert status == 200
            requests_total = sum(
                payload for name, __, kind, payload in snapshot
                if name == "serve.requests"
            )
            hist_mass = sum(
                payload["sum"] for name, __, kind, payload in snapshot
                if name == "serve.batch_size"
            )
            hist_count_mass = sum(
                batches * 1 for name, __, kind, payload in snapshot
                if name == "serve.batches" for batches in [payload]
            )
            assert requests_total == float(n)
            assert hist_mass == float(n)
            assert hist_count_mass >= 1
            # The text exposition carries the same totals.
            status, __, text = await client.request("GET", "/metrics")
            assert status == 200
            lines = text.decode().splitlines()
            served = sum(
                float(line.rsplit(" ", 1)[1]) for line in lines
                if line.startswith("serve_requests{")
            )
            assert served == float(n)

        run(with_app(test))

    def test_healthz_reports_tenants_and_served_counts(self):
        async def test(app, client):
            status, health = await client.get_json("/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert sorted(health["tenants"]) == ["fall", "hvac"]
            assert health["tenants"]["fall"]["fault"] is None
            assert health["policy"] == {"max_batch": 4, "max_pending": 64}
            x = np.zeros((1, 8, 8))
            await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            __, health = await client.get_json("/healthz")
            assert health["tenants"]["fall"]["served"] == 1
            assert health["requests_handled"] >= 1

        run(with_app(test))

    def test_traces_expose_serve_batch_spans(self):
        async def test(app, client):
            x = np.zeros((1, 8, 8))
            await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            status, __, body = await client.request("GET", "/traces")
            assert status == 200
            events = [json.loads(line)
                      for line in body.decode().splitlines()]
            names = {event["name"] for event in events}
            assert "serve.batch" in names
            # The executor's own spans nest under the serving span.
            assert "exec.plan" in names or "exec.forward" in names

        run(with_app(test))


class TestErrorPaths:
    def test_unknown_tenant_404(self):
        async def test(app, client):
            status, body = await client.post_json(
                "/v1/recognize",
                {"tenant": "nope", "input": np.zeros((1, 8, 8)).tolist()},
            )
            assert status == 404
            assert body["error"] == "unknown-tenant"

        run(with_app(test))

    def test_unknown_route_404_and_wrong_method_405(self):
        async def test(app, client):
            assert (await client.request("GET", "/zzz"))[0] == 404
            assert (await client.request("GET", "/v1/recognize"))[0] == 405
            assert (await client.request("POST", "/metrics"))[0] == 405

        run(with_app(test))

    def test_malformed_json_and_shape_400(self):
        async def test(app, client):
            status, __, __ = await client.request(
                "POST", "/v1/recognize", b"{not json"
            )
            assert status == 400
            status, body = await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": [[1, 2]]}
            )
            assert status == 400
            assert body["error"] == "input-shape"
            status, body = await client.post_json(
                "/v1/recognize", {"input": np.zeros((1, 8, 8)).tolist()}
            )
            assert status == 400
            assert body["error"] == "missing-tenant"
            status, body = await client.post_json(
                "/v1/recognize", {"tenant": "fall"}
            )
            assert status == 400
            assert body["error"] == "missing-input"

        run(with_app(test))

    def test_draining_app_responds_503(self):
        async def test(app, client):
            app.dispatcher.drain()
            status, body = await client.post_json(
                "/v1/recognize",
                {"tenant": "fall", "input": np.zeros((1, 8, 8)).tolist()},
            )
            assert status == 503
            assert body["error"] == "overloaded"
            status, health = await client.get_json("/healthz")
            assert health["status"] == "draining"

        run(with_app(test))

    def test_connection_close_honored(self):
        async def test(app, client):
            status, headers, __ = await client.request("GET", "/healthz")
            assert headers["connection"] == "keep-alive"
            # Manual request with Connection: close.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", app.port
            )
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\nContent-Length: 0\r\n\r\n"
            )
            await writer.drain()
            data = await reader.read()  # until server closes
            writer.close()
            assert b"200 OK" in data
            assert b"Connection: close" in data

        run(with_app(test))


async def exchange(port: int, data: bytes, timeout: float = 10.0):
    """Send raw bytes on a fresh connection and read until the server
    closes it (a server still waiting after ``timeout`` s fails the
    test); returns ``(status, headers, body)`` with ``status`` None
    when the server closed without a status line."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    chunks = []

    async def send_and_read_all():
        writer.write(data)
        try:
            await writer.drain()
        except ConnectionResetError:
            pass  # answered and closed before reading it all; read on
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                return
            chunks.append(chunk)

    try:
        await asyncio.wait_for(send_and_read_all(), timeout)
    except ConnectionResetError:
        pass  # the server closed with request bytes still unread
    writer.close()
    raw = b"".join(chunks)
    if not raw.startswith(b"HTTP/1.1 "):
        return None, {}, raw
    head, __, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, __, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


class TestParserErrors:
    """Input the parser cannot frame is answered with a typed 400 and
    ``Connection: close`` — never an empty close — and the server
    keeps serving other connections."""

    def check_400(self, data: bytes, error: str):
        async def test(app, client):
            loop_errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            status, headers, body = await exchange(app.port, data)
            assert status == 400, body
            assert headers["connection"] == "close"
            assert headers["content-type"] == "application/json"
            assert json.loads(body)["error"] == error
            assert (await client.get_json("/healthz"))[0] == 200
            assert loop_errors == []

        run(with_app(test))

    def test_malformed_request_line(self):
        self.check_400(b"GARBAGE\r\n\r\n", "malformed-request-line")

    def test_unsplittable_request_target(self):
        """``urlsplit`` raises on an unterminated IPv6 host."""
        self.check_400(b"GET //[ HTTP/1.1\r\n\r\n", "malformed-request-line")

    def test_content_length_over_the_body_limit(self):
        self.check_400(
            b"POST /v1/recognize HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
            "body-too-large",
        )

    def test_huge_content_length_digit_string(self):
        """Past Python's int-string digit limit, ``int()`` itself
        raises; the parser rejects by length first."""
        self.check_400(
            b"POST /v1/recognize HTTP/1.1\r\nContent-Length: "
            + b"9" * 5000 + b"\r\n\r\n",
            "body-too-large",
        )

    @pytest.mark.parametrize("value", [
        b"abc", b"-5", b"+5", b"1_0", b"0x10", b"\xb2",
    ])
    def test_content_length_not_ascii_digits(self, value):
        self.check_400(
            b"POST /v1/recognize HTTP/1.1\r\nContent-Length: "
            + value + b"\r\n\r\n{}",
            "bad-content-length",
        )

    def test_request_line_over_the_reader_limit(self):
        self.check_400(
            b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n",
            "line-too-long",
        )

    def test_header_line_over_the_reader_limit(self):
        self.check_400(
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * (70 * 1024)
            + b"\r\n\r\n",
            "line-too-long",
        )

    @pytest.mark.parametrize("body, error", [
        # An integer literal past Python's digit limit (ValueError).
        (b'{"tenant": "fall", "input": ' + b"1" * 5000 + b"}",
         "malformed-json"),
        # Nesting past the recursion limit (RecursionError).
        (b'{"tenant": "fall", "input": ' + b"[" * 100000 + b"}",
         "malformed-json"),
        # An integer too large for a float64 (OverflowError).
        (b'{"tenant": "fall", "input": [' + b"9" * 400 + b"]}",
         "malformed-input"),
    ])
    def test_unparseable_recognize_body(self, body, error):
        """A framed request whose JSON or numbers cannot be decoded is
        a 400 on a connection that stays open."""
        async def test(app, client):
            status, __, raw = await client.request(
                "POST", "/v1/recognize", body
            )
            assert status == 400
            assert json.loads(raw)["error"] == error
            assert (await client.get_json("/healthz"))[0] == 200

        run(with_app(test))


class TestHotSwapEndpoint:
    def test_live_swap_changes_served_bytes(self):
        """POST /v1/tenants installs a new tenant under the name; the
        served logits flip to the new seed's exact bytes."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 8, 8))

        async def test(app, client):
            status, before = await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            assert status == 200
            status, swapped = await client.post_json(
                "/v1/tenants",
                {"name": "fall", "scenario": "fall", "seed": 99},
            )
            assert status == 201
            assert swapped["seed"] == 99
            status, after = await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            assert status == 200
            fresh = build_tenant(TenantConfig(
                name="fall", scenario="fall", seed=99, train_epochs=0,
            ))
            expected = fresh.direct_forward(x[np.newaxis])[0]
            got = np.asarray(after["logits"], dtype=np.float64)
            assert got.tobytes() == expected.tobytes()
            assert before["logits"] != after["logits"]

        run(with_app(test))

    def test_swap_rejects_unknown_scenario(self):
        async def test(app, client):
            status, body = await client.post_json(
                "/v1/tenants", {"name": "x", "scenario": "nope"}
            )
            assert status == 400
            assert body["error"] == "bad-tenant-config"
            status, listing = await client.get_json("/v1/tenants")
            assert status == 200
            assert sorted(listing) == ["fall", "hvac"]

        run(with_app(test))


    def test_training_past_the_budget_is_a_400(self):
        """The hot-swap trains on the event loop, so a config past
        ``MAX_TRAIN_EXAMPLE_EPOCHS`` is refused before it trains and
        ``/healthz`` answers right after it."""
        payload = {"scenario": "fall", "name": "big", "train_epochs": 40,
                   "train_samples": 2048}

        async def test(app, client):
            loop = asyncio.get_running_loop()
            sent = loop.time()
            status, body = await client.post_json("/v1/tenants", payload)
            assert status == 400
            assert body["error"] == "bad-tenant-config"
            assert "train_epochs" in body["detail"]
            assert "train_samples" in body["detail"]
            status, health = await client.get_json("/healthz")
            assert status == 200
            assert loop.time() - sent < 0.5
            assert sorted(health["tenants"]) == ["fall", "hvac"]

        run(with_app(test))

    @pytest.mark.parametrize("payload, field", [
        ({"name": 5, "scenario": "fall"}, "name"),
        ({"name": "x", "scenario": ["fall"]}, "scenario"),
        ({"name": "x", "scenario": "fall", "seed": -1}, "seed"),
        ({"name": "x", "scenario": "fall", "seed": True}, "seed"),
        ({"name": "x", "scenario": "fall", "seed": 1.5}, "seed"),
        ({"name": "x", "scenario": "fall", "seed": "3"}, "seed"),
        ({"name": "x", "scenario": "fall", "train_epochs": [1]},
         "train_epochs"),
        ({"name": "x", "scenario": "fall", "train_samples": None},
         "train_samples"),
    ])
    def test_bad_config_is_a_400_naming_the_field(self, payload, field):
        """A rejected config installs nothing, and ``/healthz`` and
        ``/v1/tenants`` keep answering afterwards."""
        async def test(app, client):
            status, body = await client.post_json("/v1/tenants", payload)
            assert status == 400
            assert body["error"] == "bad-tenant-config"
            assert field in body["detail"]
            status, health = await client.get_json("/healthz")
            assert status == 200
            assert sorted(health["tenants"]) == ["fall", "hvac"]
            status, listing = await client.get_json("/v1/tenants")
            assert status == 200
            assert sorted(listing) == ["fall", "hvac"]

        run(with_app(test))

class TestBackpressureOverHttp:
    def test_full_lane_yields_503(self):
        """With a tiny lane bound and a held flush, concurrent
        requests beyond max_pending are rejected as 503 — and the
        accepted ones still complete."""
        rng = np.random.default_rng(5)
        payloads = [
            {"tenant": "fall", "input": rng.normal(size=(1, 8, 8)).tolist()}
            for __ in range(6)
        ]

        async def test(app, client):
            report = await run_load(
                "127.0.0.1", app.port, payloads, concurrency=6
            )
            return report

        report = run(with_app(
            test, max_batch=64, max_pending=2, clock=HeldTurnClock(),
        ))
        assert 503 in report.statuses
        assert 200 in report.statuses
        ok = [body for status, body in zip(report.statuses, report.responses)
              if status == 200]
        assert all(len(body["logits"]) == 2 for body in ok)


class TestTimelineAndDashboard:
    def test_timeline_jsonl_endpoint(self):
        async def test(app, client):
            x = np.zeros((1, 8, 8))
            await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            # The GET itself gives the recorder a sample_if_due kick,
            # so at least one tick exists even before the timer fires.
            status, headers, body = await client.request(
                "GET", "/timeline"
            )
            assert status == 200
            assert "ndjson" in headers.get("content-type", "")
            lines = body.decode().splitlines()
            assert lines
            doc = json.loads(lines[-1])
            assert set(doc) == {"i", "t", "series"}
            assert any(k.startswith("serve.requests") for k in doc["series"])

        run(with_app(test))

    def test_timeline_json_document(self):
        async def test(app, client):
            x = np.zeros((1, 8, 8))
            await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            status, doc = await client.get_json("/timeline?format=json")
            assert status == 200
            assert doc["interval"] == app.recorder.interval
            assert doc["n_samples"] >= 1
            assert doc["dropped"] == 0
            assert "p99-latency" in doc["rules"]
            assert len(doc["samples"]) == doc["n_samples"]
            assert doc["alerts"] == []
            assert doc["digests"]["timeline"] == app.recorder.digest()
            assert doc["digests"]["alerts"] == app.watchdog.digest()

        run(with_app(test))

    def test_dashboard_serves_html(self):
        async def test(app, client):
            status, headers, body = await client.request(
                "GET", "/dashboard"
            )
            assert status == 200
            assert headers.get("content-type", "").startswith("text/html")
            page = body.decode()
            assert "<!doctype html>" in page.lower()
            # The page is self-contained and polls the app's own
            # endpoints -- no external assets.
            assert "/timeline?format=json" in page
            assert "/healthz" in page
            assert "src=" not in page and "href=" not in page

        run(with_app(test))

    def test_healthz_includes_alert_summary(self):
        async def test(app, client):
            status, health = await client.get_json("/healthz")
            assert status == 200
            assert health["alerts"] == {
                "active": [], "fired": 0, "critical": 0,
            }

        run(with_app(test))


class TestPrometheusExposition:
    def test_label_values_are_escaped(self):
        async def test(app, client):
            app.telemetry.metrics.counter(
                "weird", path='a\\b', msg='say "hi"\nnow'
            ).inc()
            status, __, body = await client.request("GET", "/metrics")
            assert status == 200
            line = next(
                line for line in body.decode().splitlines()
                if line.startswith("weird{")
            )
            assert 'msg="say \\"hi\\"\\nnow"' in line
            assert 'path="a\\\\b"' in line
            assert "\n" not in line  # the newline never leaks raw

        run(with_app(test))

    def test_histogram_le_inf_label(self):
        async def test(app, client):
            x = np.zeros((1, 8, 8))
            await client.post_json(
                "/v1/recognize", {"tenant": "fall", "input": x.tolist()}
            )
            status, __, body = await client.request("GET", "/metrics")
            assert status == 200
            assert 'le="+Inf"' in body.decode()

        run(with_app(test))
