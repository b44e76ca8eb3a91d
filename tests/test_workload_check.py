"""The workload check both simulations run before any event: references
to clients and addresses are resolved once, in run order, by one set of
rules, so the two modes accept and reject the same workloads."""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_topology_doc
from ipicn.cli import main
from ipicn.simnet import (
    BaselineSimulation,
    IcnSimulation,
    Scenario,
    ScenarioError,
    UnknownClientError,
    load_scenario,
)
from ipicn.topology import load_topology_doc

MODES = (IcnSimulation, BaselineSimulation)


def topology(border: bool) -> dict:
    """1 - 2 - 3 line: NAP 1 at node 1, NAP 2 at node 3, border 99 at node 2."""
    doc = {
        "nodes": [{"id": n} for n in (1, 2, 3)],
        "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}],
        "naps": [
            {"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
            {"client": 2, "node": 3, "prefixes": ["10.0.2.0/24"]},
        ],
    }
    if border:
        doc["border"] = {"client": 99, "node": 2}
    return doc


def attach(t_us, client, addr):
    return {"t_us": t_us, "op": "attach", "client": client, "addr": addr}


def send(t_us, client, src, dst="8.8.8.8"):
    return {"t_us": t_us, "op": "send_ip", "client": client, "src": src, "dst": dst,
            "bytes": 10}


def serve(t_us, client, fqdn="a.example"):
    return {"t_us": t_us, "op": "http_serve", "client": client, "fqdn": fqdn}


@pytest.mark.parametrize("cls", MODES)
@pytest.mark.parametrize(
    "border, workload, error, match",
    [
        (True, [send(0, 1, "10.0.1.5")], ScenarioError, "not attached"),
        (True, [attach(0, 2, "10.0.2.5"), send(10, 1, "10.0.2.5")],
         ScenarioError, "not attached at client 1"),
        (True, [attach(1000, 1, "10.0.1.5"), send(0, 1, "10.0.1.5")],
         ScenarioError, "not attached"),
        (True, [send(0, 1, "10.0.1.5"), attach(0, 1, "10.0.1.5")],
         ScenarioError, "not attached"),
        (True, [attach(0, 1, "10.0.1.5"), send(5_000_000, 1, "10.0.1.5", "nope")],
         ScenarioError, "invalid IPv4 address 'nope'"),
        (True, [attach(0, 1, "10.0.1.256")], ScenarioError, "invalid IPv4 address"),
        (True, [{"t_us": 0, "op": "ext_in", "src": "", "dst": "10.0.1.5"}],
         ScenarioError, "invalid IPv4 address ''"),
        (False, [{"t_us": 0, "op": "ext_in", "dst": "10.0.1.5"}],
         ScenarioError, "requires a border"),
        (True, [serve(0, 99)], ScenarioError, "not a NAP"),
        (False, [serve(0, 99)], UnknownClientError, "unknown client 99"),
        (True, [serve(0, 1), serve(0, 1), serve(5_000_000, 2)],
         ScenarioError, "'a.example' is already served by client 1"),
    ],
    ids=["unattached-source", "source-at-another-nap", "attach-after-send",
         "attach-listed-after-send-at-same-time", "bad-late-destination",
         "bad-attach-address", "bad-ext-source", "ext-in-without-border",
         "border-as-nap", "no-border-client", "fqdn-served-by-a-second-client"],
)
def test_bad_reference_rejected_by_the_constructor(cls, border, workload, error, match):
    topo = load_topology_doc(topology(border), 7)
    with pytest.raises(error, match=match):
        cls(topo, Scenario(workload=workload))


@pytest.mark.parametrize("cls", MODES)
def test_attach_listed_first_at_the_same_time_comes_first(cls):
    doc = make_topology_doc(
        nodes=[1, 2], undirected_links=[(1, 2)],
        naps=[{"client": 1, "node": 1, "prefixes": ["10.0.1.0/24"]},
              {"client": 2, "node": 2, "prefixes": ["10.0.2.0/24"]}],
    )
    sim = cls(doc, Scenario(workload=[
        attach(0, 2, "10.0.2.5"), attach(0, 1, "10.0.1.5"), send(0, 1, "10.0.1.5", "10.0.2.5"),
    ]))
    assert sim.run().flows["ip:10.0.1.5->10.0.2.5"]["delivered"] == 1


@pytest.mark.parametrize("cls", MODES)
def test_repeat_serve_by_the_same_client_is_allowed(cls):
    get = {"t_us": 10, "op": "http_get", "client": 2, "fqdn": "a.example", "url": "/x",
           "resp_bytes": 100}
    sim = cls(load_topology_doc(topology(False), 7),
              Scenario(workload=[serve(0, 1), serve(5, 1), get]))
    assert sim.run().flows["http:2:a.example/x"]["delivered"] == 1


# -- both modes accept and reject alike -------------------------------------

CLIENTS = st.sampled_from([1, 2, 99, 7])
ADDRESSES = st.sampled_from(
    ["10.0.1.5", "10.0.1.6", "10.0.2.5", "10.0.3.1", "8.8.8.8", "10.0.1.256", "bogus", ""]
)
FQDNS = st.sampled_from(["a.example", "b.example", ""])
OPS = st.one_of(
    st.fixed_dictionaries({"op": st.just("attach"), "client": CLIENTS, "addr": ADDRESSES}),
    st.fixed_dictionaries({"op": st.just("send_ip"), "client": CLIENTS, "src": ADDRESSES,
                           "dst": ADDRESSES, "bytes": st.integers(0, 64)}),
    st.fixed_dictionaries({"op": st.just("http_serve"), "client": CLIENTS, "fqdn": FQDNS}),
    st.fixed_dictionaries({"op": st.just("http_get"), "client": CLIENTS, "fqdn": FQDNS,
                           "url": st.sampled_from(["/x", "/y", ""]),
                           "resp_bytes": st.sampled_from([0, 100, 70_000])}),
    st.fixed_dictionaries({"op": st.just("ext_in"), "dst": ADDRESSES},
                          optional={"src": ADDRESSES}),
)
WORKLOADS = st.lists(
    st.tuples(st.sampled_from([0, 1000, 2000]), OPS).map(lambda p: {"t_us": p[0], **p[1]}),
    max_size=8,
)


def cli_exit_code(mode: str, topo_text: str, scenario_text: str) -> int:
    """`ipicn run` in-process; an exception escaping it would be a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        topo, scenario = Path(tmp, "t.json"), Path(tmp, "s.json")
        topo.write_text(topo_text)
        scenario.write_text(scenario_text)
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["run", "--topology", str(topo), "--scenario", str(scenario),
                         "--mode", mode, "--out", str(Path(tmp, "r.json"))])
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(border=st.booleans(), workload=WORKLOADS)
def test_both_modes_exit_alike_and_reject_before_the_run(border, workload):
    topo_text = json.dumps(topology(border))
    scenario_text = json.dumps({"seed": 3, "workload": workload})
    codes = {mode: cli_exit_code(mode, topo_text, scenario_text) for mode in ("icn", "ip")}
    assert codes["icn"] == codes["ip"] in (0, 2, 3)
    # the code follows from loading and constructing alone, so run() raised nothing
    for cls in MODES:
        try:
            cls(load_topology_doc(topo_text, 3), load_scenario(scenario_text))
            expected = 0
        except UnknownClientError:
            expected = 3
        except ValueError:
            expected = 2
        assert codes["icn"] == expected


# -- arbitrary JSON ------------------------------------------------------------

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
DEMOS = {
    demo: {
        "topology": json.loads((DEMO_DATA / f"{demo}.json").read_text()),
        "scenario": json.loads((DEMO_DATA / f"{demo}_scenario.json").read_text()),
    }
    for demo in ("small", "star")
}


def _places(doc, path=()):
    """Every path to the document, its fields, their entries and their fields."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _places(value, (*path, key))


PLACES = {
    demo: [(which, path) for which, doc in docs.items() for path in _places(doc)]
    for demo, docs in DEMOS.items()
}
# any JSON value, with integers and the documents' own values drawn often, so
# that many replaced documents still load and run. A document's value is
# drawn as a copy: placed by reference, a later replacement inside it would
# write into DEMOS, and could make a document contain itself.
JSON_VALUES = st.integers() | st.sampled_from([
    reduce(getitem, path, DEMOS[demo][which])
    for demo, places in PLACES.items() for which, path in places
]).map(copy.deepcopy) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


def _replace(doc, path, value):
    """`doc` with the value at `path` replaced; unchanged if an earlier
    replacement took that place away."""
    if not path:
        return value
    try:
        parent = reduce(getitem, path[:-1], doc)
        if isinstance(parent, (dict, list)):
            parent[path[-1]]  # raises unless the place still exists
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return doc


# one demo, then up to three places in its documents and a value for each
DEMO_REPLACEMENTS = st.sampled_from(sorted(DEMOS)).flatmap(lambda demo: st.tuples(
    st.just(demo),
    st.lists(st.tuples(st.sampled_from(PLACES[demo]), JSON_VALUES), min_size=1, max_size=3),
))


@settings(max_examples=200, deadline=None)
@given(DEMO_REPLACEMENTS)
def test_arbitrary_json_exits_0_2_or_3(demo_replacements):
    """Any JSON value in place of a demo document (the small unicast one or
    the star that serves HTTP) or of any of its fields makes `ipicn run` exit
    0, 2 or 3, in every mode, never with a traceback."""
    demo, replacements = demo_replacements
    docs = json.loads(json.dumps(DEMOS[demo]))
    for (which, path), value in replacements:
        docs[which] = _replace(docs[which], path, value)
    topo_text, scenario_text = json.dumps(docs["topology"]), json.dumps(docs["scenario"])
    for mode in ("icn", "ip", "compare"):
        assert cli_exit_code(mode, topo_text, scenario_text) in (0, 2, 3)
