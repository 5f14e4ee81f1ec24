"""Boundary fuzz for the serving layer's untrusted inputs.

Two parsers face the network: the hand-rolled HTTP request reader
(``ServeApp._read_request``) and the ``POST /v1/tenants`` config path
(:meth:`~repro.serve.tenants.TenantConfig.from_payload`).  Generated
inputs may only ever produce their documented outcomes:

- a byte stream fed to an :class:`asyncio.StreamReader` yields a
  request tuple, ``None`` (clean end of stream),
  :class:`asyncio.IncompleteReadError` (peer hung up mid-body) or a
  ``_BadRequest`` carrying a 4xx — never another exception and never a
  hang;
- a JSON object either becomes a well-typed, in-range
  :class:`TenantConfig` within the training budget
  (:data:`~repro.serve.MAX_TRAIN_EXAMPLE_EPOCHS`) or raises
  ``ValueError`` naming a field — never ``KeyError``, ``TypeError``
  or ``IndexError``.

``derandomize=True`` keeps the examples fixed from run to run.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    MAX_BODY_BYTES,
    MAX_TRAIN_EXAMPLE_EPOCHS,
    SCENARIOS,
    ServeApp,
    TenantConfig,
)
from repro.serve.http import _BadRequest

FUZZ = settings(derandomize=True, max_examples=250, deadline=None)

#: A reader limit below asyncio's 64 KiB default keeps over-long lines
#: cheap, yet above the 5,000-digit Content-Length case.
READER_LIMIT = 8192

# -- HTTP request reader -----------------------------------------------------
_eol = st.sampled_from([b"\r\n", b"\n"])
#: Three-part request lines; a few targets ``urlsplit`` rejects.
_framed_request_line = st.tuples(
    st.sampled_from([b"GET", b"POST"]),
    st.sampled_from([b"/v1/recognize", b"/healthz", b"/metrics?format=json",
                     b"*", b"//[", b"http://[::1/x"]),
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"]),
).map(b" ".join)
_odd_request_line = st.one_of(
    st.tuples(
        st.sampled_from([b"GET", b"post", b"X", b""]),
        st.sampled_from([b"/healthz", b"/", b""]),
        st.sampled_from([b"HTTP/1.1", b"", b"x y"]),
    ).map(b" ".join),
    st.binary(max_size=40),
)
#: Content-Length values ``int()`` accepts or chokes on that HTTP does
#: not allow: signs, spaces, ``_``, hex, latin-1 superscript digits,
#: digit strings past Python's int-conversion limit.
_length_value = st.one_of(
    st.sampled_from([
        b"abc", b"-5", b"+5", b" 7", b"1_0", b"0x10", b"\xb2", b"1\xb9",
        b"", b"%d" % (MAX_BODY_BYTES + 1), b"0" * 30 + b"3", b"9" * 80,
        b"9" * 5000,
    ]),
    st.integers(0, 24).map(lambda n: b"%d" % n),
)
_header = st.one_of(
    st.sampled_from([b"Connection: close", b"Host: x", b"no-colon", b":",
                     b"CONTENT-LENGTH : 2"]),
    st.binary(max_size=30),
)
_long = st.integers(READER_LIMIT - 16, READER_LIMIT + 64)


@st.composite
def request_streams(draw):
    """Mostly request-shaped streams, so the deep paths are reached:
    usually a three-part request line and a Content-Length (often an
    odd one), sometimes an over-long line, some raw bytes."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=200))
    if kind == 1:
        line = b"G" * draw(_long)
    elif kind <= 3:
        line = draw(_odd_request_line)
    else:
        line = draw(_framed_request_line)
    eol = draw(_eol)
    headers = draw(st.lists(_header, max_size=3))
    if draw(st.integers(0, 3)) > 0:
        headers.insert(draw(st.integers(0, len(headers))),
                       b"Content-Length: " + draw(_length_value))
    if draw(st.integers(0, 7)) == 0:
        headers.insert(draw(st.integers(0, len(headers))),
                       b"X-Pad: " + b"p" * draw(_long))
    head = eol.join([line] + headers) + eol
    if draw(st.integers(0, 3)) > 0:
        head += eol  # end of the header block
    return head + draw(st.binary(max_size=32))


async def _read(app, data: bytes):
    reader = asyncio.StreamReader(limit=READER_LIMIT)
    reader.feed_data(data)
    reader.feed_eof()
    return await asyncio.wait_for(app._read_request(reader), timeout=5.0)


@pytest.fixture(scope="module")
def app():
    return ServeApp(rules=())


@FUZZ
@given(data=request_streams())
def test_request_reader_yields_only_documented_outcomes(app, data):
    try:
        request = asyncio.run(_read(app, data))
    except asyncio.IncompleteReadError:
        return
    except _BadRequest as exc:
        assert 400 <= exc.status < 500, exc.status
        return
    if request is None:
        return
    method, target, headers, body = request
    assert isinstance(method, str) and isinstance(target.path, str)
    assert all(isinstance(k, str) and isinstance(v, str)
               for k, v in headers.items())
    declared = headers.get("content-length") or "0"
    assert declared.isascii() and declared.isdigit()
    assert len(body) == int(declared) <= MAX_BODY_BYTES


# -- tenant configs ----------------------------------------------------------
FIELDS = ("name", "scenario", "seed", "train_epochs", "train_samples")
INT_FLOORS = {"seed": 0, "train_epochs": 0, "train_samples": 2}

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 70)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_valid = {
    "name": st.sampled_from(["fall", "tenant-a"]),
    "scenario": st.sampled_from(sorted(SCENARIOS)),
    "seed": st.integers(0, 2 ** 70),
    "train_epochs": st.integers(0, 64),
    "train_samples": st.integers(2, 4096),
}
_junk = st.one_of(
    st.booleans(), st.integers(-3, 1), st.sampled_from(["", "fall"]),
    st.floats(), st.none(), _json,
)


@st.composite
def _payloads(draw):
    """Objects that are valid but for one or two junk fields (so a
    wrong value is reached behind valid ones), plus any extra key."""
    junk = set(draw(st.lists(st.sampled_from(FIELDS), max_size=2)))
    payload = {}
    for field in FIELDS:
        if field in junk:
            payload[field] = draw(_junk)
        elif draw(st.integers(0, 3)) > 0:
            payload[field] = draw(_valid[field])
    if draw(st.booleans()):
        payload["extra"] = draw(_json)
    return payload


@FUZZ
@given(payload=_payloads())
def test_tenant_config_either_validates_or_names_the_field(payload):
    try:
        config = TenantConfig.from_payload(payload)
    except ValueError as exc:
        assert any(field in str(exc) for field in FIELDS), str(exc)
        return
    for field in ("name", "scenario"):
        assert isinstance(getattr(config, field), str)
        assert getattr(config, field)
    assert config.scenario in SCENARIOS
    for field, floor in INT_FLOORS.items():
        value = getattr(config, field)
        assert type(value) is int and value >= floor, (field, value)
    budget = config.train_epochs * config.train_samples
    assert budget <= MAX_TRAIN_EXAMPLE_EPOCHS, budget
