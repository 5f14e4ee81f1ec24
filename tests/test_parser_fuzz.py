"""Boundary fuzz for the JSON parsers outside the serving layer.

Two parsers read documents a user hands in: SLO rule files
(:func:`repro.obs.parse_rules`) and deployment maps
(:func:`repro.wsn.load_map_topology`).  A generated JSON document may
only ever produce their documented outcomes:

- a result the next consumer can use — rules a watchdog evaluates and
  reports on, a topology whose spatial index and graph build;
- or a ``ValueError`` naming the offending field.

Never ``KeyError``, ``TypeError`` or ``IndexError``, and never an
error one step later.  ``derandomize=True`` keeps the examples fixed
from run to run.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    FlightRecorder,
    Telemetry,
    Watchdog,
    health_table,
    parse_rules,
)
from repro.obs.watch import KINDS, OPS, SEVERITIES
from repro.wsn import load_map_topology

FUZZ = settings(derandomize=True, max_examples=20, deadline=None)

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2 ** 70)
    | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
_junk = st.one_of(
    st.booleans(), st.integers(-3, 1), st.sampled_from(["", "abc"]),
    st.floats(), st.none(), _json,
)


#: Junk for a field beyond :data:`_junk`: a truthy non-string rule
#: name, a ``pos`` pair with one bad coordinate.
_FIELD_JUNK = {
    "name": _junk | st.sampled_from([3, True, ["r"], {"r": 1}]),
    "pos": _junk | st.tuples(st.floats(-50, 50), st.sampled_from(
        [None, "1", True, [1.0], math.nan, -math.inf, 10 ** 400])).map(list),
}


def _one_field_wrong(valid, field, data):
    """A valid object with ``field`` replaced by junk or dropped (so a
    wrong value is reached behind valid ones)."""
    doc = data.draw(st.fixed_dictionaries(valid))
    if data.draw(st.booleans()):
        del doc[field]
    else:
        doc[field] = data.draw(_FIELD_JUNK.get(field, _junk))
    return doc


def _round_trip(doc):
    """What ``json.load`` hands the parser for ``doc``."""
    return json.loads(json.dumps(doc))


# -- SLO rule files ------------------------------------------------------------
RULE_FIELDS = ("name", "series", "kind", "op", "value", "labels",
               "windows", "severity", "quantile")
#: What a rejection may name besides a field: the document's ``rules``
#: list, a rule that is not an object, or keys a rule may not carry.
RULE_SHAPES = ("rules", "must be an object", "unknown keys")
#: The registry the parsed rules are evaluated against.
SERIES = ("depth", "hits", "lat")
_valid_rule = {
    "name": st.sampled_from(["r", "p99-latency"]),
    "series": st.sampled_from(SERIES + ("ghost",)),
    "kind": st.sampled_from(KINDS),
    "op": st.sampled_from(sorted(OPS)),
    "value": st.floats(-10, 10) | st.integers(-3, 3),
    "labels": st.dictionaries(st.sampled_from(["tenant", "cause"]),
                              st.sampled_from(["a", "b"]), max_size=2),
    "windows": st.integers(1, 3),
    "severity": st.sampled_from(SEVERITIES),
    "quantile": st.floats(0, 1),
}


def _drive(metrics, tick):
    metrics.gauge("depth").set(float(tick))
    metrics.counter("hits", tenant="a").inc(tick)
    metrics.counter("hits", tenant="b", cause="loss").inc()
    metrics.histogram("lat", buckets=(0.1, 1.0)).observe(0.05 * tick)


def _check_rules(doc):
    try:
        rules = parse_rules(_round_trip(doc))
    except ValueError as exc:
        message = str(exc)
        assert any(
            name in message for name in RULE_FIELDS + RULE_SHAPES
        ), message
        return
    for rule in rules:
        assert isinstance(rule.name, str) and rule.name
        assert isinstance(rule.series, str) and rule.series
        assert type(rule.windows) is int and rule.windows >= 1
        assert math.isfinite(rule.value) and 0 <= rule.quantile <= 1
    tel = Telemetry()
    recorder = FlightRecorder(tel, window=2)
    # One rule per name: duplicate names are the watchdog's to reject.
    dog = Watchdog({r.name: r for r in rules}.values(), telemetry=tel)
    recorder.attach(dog)
    for tick in range(2):
        _drive(tel.metrics, tick + 1)
        recorder.sample()
    dog.to_jsonl()
    health_table(recorder, dog)


@pytest.mark.parametrize("field", RULE_FIELDS)
@FUZZ
@given(data=st.data())
def test_rule_field_either_evaluates_or_is_named(field, data):
    rules = [data.draw(st.fixed_dictionaries(_valid_rule)),
             _one_field_wrong(_valid_rule, field, data)]
    _check_rules({"rules": rules} if data.draw(st.booleans()) else rules)


@FUZZ
@given(doc=_json)
def test_rule_document_either_parses_or_names_its_shape(doc):
    _check_rules(doc)


# -- deployment maps -----------------------------------------------------------
MAP_FIELDS = ("nodes", "comm_range", "'id'", "'pos'", "'name'")
#: Few distinct ids, so some maps repeat one.
_valid_node = {
    "id": st.integers(0, 6),
    "pos": st.lists(st.floats(-50, 50), min_size=2, max_size=2),
}
_valid_map = {
    "comm_range": st.floats(0.5, 30) | st.integers(1, 30),
    "name": st.sampled_from(["district", "m"]),
}


def _nodes(data, wrong=None):
    """Up to four nodes; with ``wrong`` set, the first node has that
    field junk or missing."""
    n = data.draw(st.integers(1 if wrong else 0, 4))
    nodes = [data.draw(st.fixed_dictionaries(_valid_node)) for __ in range(n)]
    if wrong:
        nodes[0] = _one_field_wrong(_valid_node, wrong, data)
    return nodes


@pytest.fixture(scope="module")
def map_path(tmp_path_factory):
    return tmp_path_factory.mktemp("maps") / "map.json"


def _check_map(map_path, doc):
    map_path.write_text(json.dumps(doc))
    try:
        topo = load_map_topology(map_path)
    except ValueError as exc:
        message = str(exc)
        assert any(field in message for field in MAP_FIELDS), message
        return
    assert [n.node_id for n in topo] == [e["id"] for e in doc["nodes"]]
    assert all(type(n.node_id) is int for n in topo)
    assert math.isfinite(topo.comm_range) and topo.comm_range > 0
    assert isinstance(topo.map_name, str)
    topo.sparse_adjacency()
    topo.graph()


@pytest.mark.parametrize("field", ["nodes", "comm_range", "name"])
@FUZZ
@given(data=st.data())
def test_map_field_either_loads_or_is_named(map_path, field, data):
    valid = {"nodes": st.just(_nodes(data)), **_valid_map}
    _check_map(map_path, _one_field_wrong(valid, field, data))


@pytest.mark.parametrize("field", ["id", "pos"])
@FUZZ
@given(data=st.data())
def test_map_node_field_either_loads_or_is_named(map_path, field, data):
    doc = data.draw(st.fixed_dictionaries(_valid_map))
    _check_map(map_path, {"nodes": _nodes(data, wrong=field), **doc})


@FUZZ
@given(doc=_json)
def test_map_document_either_loads_or_names_its_shape(map_path, doc):
    _check_map(map_path, doc)
