"""Command-line behaviour: exit codes, atomic reports, flags."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipicn.cli import main
from ipicn.gateways import MAX_RESPONSE_BYTES
from ipicn.simnet import ScenarioError, load_scenario
from ipicn.topology import TopologyError, load_topology_doc

ROOT = Path(__file__).resolve().parent.parent

TOPOLOGY = {
    "nodes": [{"id": 1}, {"id": 2}],
    "links": [{"a": 1, "b": 2, "delay_us": 1000, "capacity_bps": 1_000_000_000}],
    "naps": [{"client": 1, "node": 2, "prefixes": ["10.0.1.0/24"]}],
    "border": {"client": 99, "node": 1},
}

SCENARIO = {
    "mode": "icn",
    "seed": 1,
    "workload": [
        {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
        {"t_us": 1000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
         "dst": "8.8.8.8", "bytes": 100},
    ],
}


# Two NAPs, so one FQDN can be served twice.
TWO_NAPS = dict(TOPOLOGY, naps=[*TOPOLOGY["naps"],
                                {"client": 2, "node": 1, "prefixes": ["10.0.2.0/24"]}])
HUGE = "x" * 1_000_000  # an input value no error line should echo in full
BIG = 10**4000 - 1  # a 4,000-digit integer, which JSON reads and int() accepts

# An integer literal one digit longer than the interpreter reads from text;
# None where the interpreter has no such limit or it is switched off.
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (INT_LIMIT + 1) if INT_LIMIT else None
needs_int_limit = pytest.mark.skipif(TOO_LONG is None,
                                     reason="no int-string digit limit")

# Input files that no JSON document can be read from, by how they fail.
UNREADABLE = {
    "not_utf8": b"\xff\xfe{}",
    "nested_too_deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.fixture
def paths(tmp_path):
    topo = tmp_path / "t.json"
    topo.write_text(json.dumps(TOPOLOGY))
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(SCENARIO))
    return {"topo": topo, "scenario": scenario, "out": tmp_path / "r.json",
            "dir": tmp_path}


def run_args(paths, mode="compare", extra=()):
    return [
        "run",
        "--topology", str(paths["topo"]),
        "--scenario", str(paths["scenario"]),
        "--mode", mode,
        "--seed", "7",
        "--out", str(paths["out"]),
        *extra,
    ]


class TestRun:
    def test_compare_writes_report_and_exits_zero(self, paths):
        assert main(run_args(paths)) == 0
        report = json.loads(paths["out"].read_text())
        assert {"baseline", "bottleneck", "icn", "links", "overhead"} <= set(report)

    def test_icn_mode_report(self, paths):
        assert main(run_args(paths, mode="icn")) == 0
        report = json.loads(paths["out"].read_text())
        assert report["totals"]["control_bytes"] > 0

    def test_repeat_invocations_byte_identical(self, paths):
        assert main(run_args(paths)) == 0
        first = paths["out"].read_bytes()
        assert main(run_args(paths)) == 0
        assert paths["out"].read_bytes() == first

    def test_missing_topology_exits_2(self, paths):
        args = run_args(paths)
        args[args.index("--topology") + 1] = str(paths["dir"] / "nope.json")
        assert main(args) == 2
        assert not paths["out"].exists()

    def test_invalid_topology_exits_2(self, paths):
        paths["topo"].write_text('{"nodes": []}')
        assert main(run_args(paths)) == 2

    def test_non_integer_time_exits_2(self, paths, capsys):
        bad = dict(SCENARIO)
        bad["workload"] = [{"t_us": "abc", "op": "attach", "client": 1,
                            "addr": "10.0.1.5"}]
        paths["scenario"].write_text(json.dumps(bad))
        assert main(run_args(paths, mode="icn")) == 2
        assert "t_us" in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize("t_us", ["1.9", '"100"', "true", "1e3"])
    def test_time_is_a_json_integer_like_every_integer_field(self, paths, capsys, t_us):
        """A float, even a whole one, a numeric string and a boolean are all
        refused, not truncated or converted."""
        text = json.dumps(SCENARIO).replace('"t_us": 0,', f'"t_us": {t_us},', 1)
        assert text != json.dumps(SCENARIO)
        paths["scenario"].write_text(text)
        assert main(run_args(paths, mode="icn")) == 2
        assert "has a non-integer t_us" in capsys.readouterr().err
        assert not paths["out"].exists()

    @needs_int_limit
    @pytest.mark.parametrize("which", ["topo", "scenario"])
    def test_integer_too_long_to_read_exits_2(self, paths, capsys, which):
        """A link delay or an op time past the int-string limit is refused
        with one short error line, not a traceback."""
        if which == "topo":
            text = json.dumps(TOPOLOGY).replace('"delay_us": 1000,', f'"delay_us": {TOO_LONG},')
        else:
            text = json.dumps(SCENARIO).replace('"t_us": 0,', f'"t_us": {TOO_LONG},', 1)
        paths[which].write_text(text)
        assert main(run_args(paths, mode="icn")) == 2
        err = capsys.readouterr().err
        kind = "topology" if which == "topo" else "scenario"
        assert err.startswith(f"error: {kind} is not valid JSON: ") and err.count("\n") == 1
        assert len(err) < 200, err[:300]
        assert not paths["out"].exists()

    @pytest.mark.parametrize("seed", ["1.9", "true", '"7"', "1e3"])
    def test_seed_is_a_json_integer_like_t_us(self, paths, capsys, seed):
        """The scenario's seed is refused, not truncated or converted, even
        when `--seed` would override it."""
        text = json.dumps(SCENARIO).replace('"seed": 1,', f'"seed": {seed},', 1)
        assert text != json.dumps(SCENARIO)
        paths["scenario"].write_text(text)
        assert main(run_args(paths, mode="icn")) == 2
        assert "scenario seed is not an integer" in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize("value", ["1.9", '"7"', "true", "1e3"])
    @pytest.mark.parametrize("what, entries, field", [
        ("node", "nodes", "id"),
        ("link", "links", "a"),
        ("link", "links", "b"),
        ("link", "links", "delay_us"),
        ("link", "links", "capacity_bps"),
        ("nap", "naps", "client"),
        ("nap", "naps", "node"),
        ("border", "border", "client"),
        ("border", "border", "node"),
    ])
    def test_topology_integers_are_json_integers_like_t_us(
            self, paths, capsys, what, entries, field, value):
        """A topology's integer fields are refused, not truncated or
        converted: link {"a": 1.9} does not become node 1."""
        doc = json.loads(json.dumps(TOPOLOGY))
        entry = doc[entries] if entries == "border" else doc[entries][0]
        entry[field] = json.loads(value)
        paths["topo"].write_text(json.dumps(doc))
        assert main(run_args(paths, mode="icn")) == 2
        assert f"{what} entry has a non-integer field" in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize(
        "op, field, value",
        [
            ("send_ip", "bytes", None),
            ("send_ip", "bytes", [1]),
            ("send_ip", "bytes", -5),
            ("send_ip", "proto", None),
            ("send_ip", "proto", 300),
            ("send_ip", "client", [1]),
            ("http_get", "resp_bytes", None),
            ("http_get", "resp_bytes", MAX_RESPONSE_BYTES + 1),
            ("http_get", "fqdn", None),
            ("http_get", "fqdn", ""),
            ("http_get", "url", ""),
            ("http_serve", "fqdn", ""),
            # a lone surrogate, which JSON text can carry but UTF-8 cannot encode
            ("http_get", "url", "/\ud800"),
            ("http_get", "fqdn", "cdn\udfff.example"),
            ("http_serve", "fqdn", "\ud800"),
        ],
        ids=["bytes-null", "bytes-list", "bytes-negative", "proto-null",
             "proto-300", "client-list", "resp_bytes-null", "resp_bytes-over-bound",
             "fqdn-null", "fqdn-empty", "url-empty", "serve-fqdn-empty",
             "url-surrogate", "fqdn-surrogate", "serve-fqdn-surrogate"],
    )
    @pytest.mark.parametrize("mode", ["icn", "ip"])
    def test_malformed_op_field_exits_2(self, paths, capsys, mode, op, field, value):
        """Each mode refuses the scenario before any run, and writes no report."""
        bad = json.loads(json.dumps(SCENARIO))
        bad["workload"] += [
            {"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "cdn.example"},
            {"t_us": 2000, "op": "http_get", "client": 1, "fqdn": "cdn.example",
             "url": "/x", "resp_bytes": 100},
        ]
        target = next(a for a in bad["workload"] if a["op"] == op)
        target[field] = value
        paths["scenario"].write_text(json.dumps(bad))
        assert main(run_args(paths, mode=mode)) == 2
        assert repr(field) in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize("mode", ["icn", "ip"])
    def test_non_ascii_names_that_encode_as_utf8_run(self, paths, mode):
        ok = json.loads(json.dumps(SCENARIO))
        ok["workload"] += [
            {"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "caf\u00e9.example"},
            {"t_us": 2000, "op": "http_get", "client": 1, "fqdn": "caf\u00e9.example",
             "url": "/\u00fc/\U0001f600", "resp_bytes": 100},
        ]
        paths["scenario"].write_text(json.dumps(ok))
        assert main(run_args(paths, mode=mode)) == 0
        flows = json.loads(paths["out"].read_text())["flows"]
        assert any("\u00fc" in key for key in flows)

    @pytest.mark.parametrize("mode", ["icn", "ip"])
    def test_client_id_outside_32_bits_exits_2(self, paths, capsys, mode):
        for role, client in (("nap", -1), ("nap", 2**32), ("border", 2**32)):
            topo = json.loads(json.dumps(TOPOLOGY))
            scenario = json.loads(json.dumps(SCENARIO))
            if role == "nap":
                topo["naps"][0]["client"] = client
                for action in scenario["workload"]:
                    action["client"] = client
            else:
                topo["border"]["client"] = client
            paths["topo"].write_text(json.dumps(topo))
            paths["scenario"].write_text(json.dumps(scenario))
            assert main(run_args(paths, mode=mode)) == 2
            assert f"client id {client} outside" in capsys.readouterr().err
            assert not paths["out"].exists()

    @pytest.mark.parametrize(
        "workload, message",
        [
            ([{"t_us": 0, "op": "send_ip", "client": 1, "src": "10.0.1.5",
               "dst": "8.8.8.8"}], "not attached"),
            ([{"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
              {"t_us": 5_000_000, "op": "send_ip", "client": 1, "src": "10.0.1.5",
               "dst": "nope"}], "invalid IPv4 address 'nope'"),
        ],
        ids=["unattached-source", "bad-late-destination"],
    )
    @pytest.mark.parametrize("mode", ["icn", "ip"])
    def test_bad_reference_exits_2_in_both_modes(self, paths, capsys, mode, workload,
                                                  message):
        paths["scenario"].write_text(json.dumps(dict(SCENARIO, workload=workload)))
        assert main(run_args(paths, mode=mode)) == 2
        assert message in capsys.readouterr().err
        assert not paths["out"].exists()

    def test_unknown_client_exits_3(self, paths):
        bad = dict(SCENARIO)
        bad["workload"] = [
            {"t_us": 0, "op": "attach", "client": 55, "addr": "10.0.1.5"}
        ]
        paths["scenario"].write_text(json.dumps(bad))
        assert main(run_args(paths, mode="icn")) == 3
        assert not paths["out"].exists()

    def test_256_subscribers_to_one_name_complete_in_both_modes(self, paths):
        # the rendezvous tells the topology manager the subscriber count,
        # which once had to fit in one byte
        clients = range(1, 257)
        paths["topo"].write_text(json.dumps(dict(TOPOLOGY, naps=[
            {"client": 1000, "node": 1, "prefixes": ["10.2.0.0/24"]},
            *({"client": c, "node": 2, "prefixes": [f"10.1.{c - 1}.0/24"]}
              for c in clients),
        ], border=None)))
        paths["scenario"].write_text(json.dumps(dict(SCENARIO, workload=[
            {"t_us": 0, "op": "http_serve", "client": 1000, "fqdn": "cdn.example"},
            *({"t_us": 10, "op": "http_get", "client": c, "fqdn": "cdn.example",
               "url": "/v/1", "resp_bytes": 100} for c in clients),
        ])))
        assert main(run_args(paths, mode="compare")) == 0
        report = json.loads(paths["out"].read_text())
        for mode in ("icn", "baseline"):
            flows = report[mode]["flows"]
            assert sum(f["delivered"] for f in flows.values()) == 256, mode
            assert len(flows) == 256, mode

    def test_trace_flag_writes_trace(self, paths, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(run_args(paths, mode="icn", extra=("--trace", str(trace)))) == 0
        rows = trace.read_text().strip().splitlines()
        assert rows and all(len(r.split(",")) == 6 for r in rows)

    @pytest.mark.parametrize("selected_by", ["flag", "scenario"])
    def test_trace_with_compare_exits_2_and_leaves_no_file(self, paths, capsys, selected_by):
        trace = paths["dir"] / "t.csv"
        args = run_args(paths, mode="compare", extra=("--trace", str(trace)))
        if selected_by == "scenario":
            paths["scenario"].write_text(json.dumps(dict(SCENARIO, mode="compare")))
            del args[args.index("--mode") + 1]
            args.remove("--mode")
        before = sorted(paths["dir"].rglob("*"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --trace ") and err.count("\n") == 1, err
        assert sorted(paths["dir"].rglob("*")) == before  # no report, trace or temp file

    @pytest.mark.parametrize("mode", ["icn", "ip", "compare"])
    def test_negative_window_exits_2_and_leaves_no_file(self, paths, capsys, mode):
        trace = () if mode == "compare" else ("--trace", str(paths["dir"] / "t.csv"))
        before = sorted(paths["dir"].rglob("*"))
        assert main(run_args(paths, mode=mode, extra=("--window-us", "-1", *trace))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --window-us ") and err.count("\n") == 1, err
        assert sorted(paths["dir"].rglob("*")) == before  # no report, trace or temp file

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    @pytest.mark.parametrize("case", ["missing_directory", "existing_directory"])
    def test_unwritable_output_path_exits_2(self, paths, capsys, flag, case):
        (paths["dir"] / "taken").mkdir()
        bad = paths["dir"] / ("missing/x.csv" if case == "missing_directory" else "taken")
        args = run_args(paths, mode="icn", extra=("--trace", str(paths["dir"] / "t.csv")))
        args[args.index(flag) + 1] = str(bad)
        before = sorted(paths["dir"].rglob("*"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1, err
        assert sorted(paths["dir"].rglob("*")) == before  # no report, trace or temp file

    def test_ideal_control_zeroes_control_bytes(self, paths):
        assert main(run_args(paths, mode="icn", extra=("--ideal-control",))) == 0
        report = json.loads(paths["out"].read_text())
        assert report["totals"]["control_bytes"] == 0

    def test_negative_seed_flag_exits_2(self, paths, capsys):
        """`--seed -5` would alias seed 5's link masks."""
        args = run_args(paths, mode="icn")
        args[args.index("--seed") + 1] = "-5"
        assert main(args) == 2
        assert "link-mask seed must not be negative, got -5" in capsys.readouterr().err
        assert not paths["out"].exists()

    def test_negative_scenario_seed_exits_2(self, paths, capsys):
        """Refused even when `--seed` would override it, as a non-integer
        scenario seed is."""
        paths["scenario"].write_text(json.dumps(dict(SCENARIO, seed=-5)))
        assert main(run_args(paths, mode="icn")) == 2
        assert "scenario seed must not be negative, got -5" in capsys.readouterr().err
        assert not paths["out"].exists()

    def test_seed_defaults_to_scenario_then_one(self, paths):
        args = run_args(paths, mode="icn")
        del args[args.index("--seed") + 1]
        args.remove("--seed")
        assert main(args) == 0

    def test_mode_defaults_to_the_scenario_and_the_flag_wins(self, paths):
        paths["scenario"].write_text(json.dumps(dict(SCENARIO, mode="ip")))
        reports = {}
        for mode in (None, "ip", "icn"):
            args = run_args(paths, mode=mode or "ip")
            if mode is None:
                del args[args.index("--mode") + 1]
                args.remove("--mode")
            assert main(args) == 0
            reports[mode] = paths["out"].read_bytes()
        assert reports[None] == reports["ip"] != reports["icn"]

    @pytest.mark.parametrize("mode", ["icn", "ip"])
    def test_second_server_for_one_fqdn_exits_2(self, paths, capsys, mode):
        paths["topo"].write_text(json.dumps(dict(TOPOLOGY, naps=[
            {"client": 1, "node": 2, "prefixes": ["10.0.1.0/24"]},
            {"client": 2, "node": 1, "prefixes": ["10.0.2.0/24"]},
        ])))
        paths["scenario"].write_text(json.dumps(dict(SCENARIO, workload=[
            {"t_us": 0, "op": "http_serve", "client": c, "fqdn": "cdn.example"}
            for c in (1, 2)
        ])))
        assert main(run_args(paths, mode=mode)) == 2
        assert "'cdn.example' is already served by client 1" in capsys.readouterr().err
        assert not paths["out"].exists()

    @pytest.mark.parametrize("content", sorted(UNREADABLE))
    @pytest.mark.parametrize("which", ["topo", "scenario"])
    def test_unreadable_input_exits_2_and_leaves_no_file(self, paths, capsys, which,
                                                         content):
        paths[which].write_bytes(UNREADABLE[content])
        trace = paths["dir"] / "t.csv"
        before = sorted(paths["dir"].rglob("*"))
        assert main(run_args(paths, mode="icn", extra=("--trace", str(trace)))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert sorted(paths["dir"].rglob("*")) == before  # no report, trace or temp file

    @pytest.mark.parametrize("which, edit", [
        ("scenario", lambda doc: doc["workload"][0].update(addr=HUGE)),
        ("scenario", lambda doc: doc["workload"][0].update(addr=[HUGE])),
        ("scenario", lambda doc: doc["workload"][0].update(op=HUGE)),
        ("scenario", lambda doc: doc.update(mode=HUGE)),
        ("scenario", lambda doc: doc["workload"][1].update(src=HUGE)),
        ("scenario", lambda doc: doc["workload"][1].update(dst=HUGE)),
        ("scenario", lambda doc: doc["workload"].extend(
            {"t_us": 0, "op": "http_serve", "client": c, "fqdn": HUGE} for c in (1, 2))),
        ("topo", lambda doc: doc["nodes"][0].update(id=HUGE)),
        ("topo", lambda doc: doc["naps"][0].update(prefixes=[HUGE])),
    ], ids=["attach-addr", "list-addr", "op", "mode", "send-src", "send-dst",
            "served-fqdn", "node-id", "nap-prefix"])
    def test_huge_input_value_gives_one_short_error_line(self, paths, capsys, which, edit):
        doc = json.loads(json.dumps(SCENARIO if which == "scenario" else TWO_NAPS))
        edit(doc)
        paths["topo"].write_text(json.dumps(TWO_NAPS))
        paths[which].write_text(json.dumps(doc))
        before = sorted(paths["dir"].rglob("*"))
        assert main(run_args(paths, mode="icn")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:300]
        assert sorted(paths["dir"].rglob("*")) == before

    def test_ip_mode_has_no_control_traffic(self, paths):
        assert main(run_args(paths, mode="ip")) == 0
        report = json.loads(paths["out"].read_text())
        assert report["totals"]["control_bytes"] == 0


class TestValidate:
    def test_valid_topology_prints_counts(self, paths, capsys):
        assert main(["validate", str(paths["topo"])]) == 0
        out = capsys.readouterr().out
        assert "nodes=2" in out and "links=2" in out and "naps=1" in out

    def test_disconnected_exits_2(self, paths, capsys):
        doc = {
            "nodes": [{"id": 1}, {"id": 2}, {"id": 3}],
            "links": [{"a": 1, "b": 2}],
        }
        paths["topo"].write_text(json.dumps(doc))
        assert main(["validate", str(paths["topo"])]) == 2
        assert "disconnected" in capsys.readouterr().err

    def test_duplicate_node_exits_2(self, paths, capsys):
        doc = {"nodes": [{"id": 1}, {"id": 1}], "links": []}
        paths["topo"].write_text(json.dumps(doc))
        assert main(["validate", str(paths["topo"])]) == 2
        assert "duplicate node" in capsys.readouterr().err

    def test_non_integer_node_id_exits_2(self, paths, capsys):
        paths["topo"].write_text(json.dumps({"nodes": [{"id": "x"}]}))
        assert main(["validate", str(paths["topo"])]) == 2
        assert "node entry has a non-integer field" in capsys.readouterr().err

    def test_link_without_endpoint_exits_2(self, paths, capsys):
        doc = {"nodes": [{"id": 1}, {"id": 2}], "links": [{"a": 1}]}
        paths["topo"].write_text(json.dumps(doc))
        assert main(["validate", str(paths["topo"])]) == 2
        assert "link entry needs 'b'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, paths):
        assert main(["validate", str(paths["dir"] / "absent.json")]) == 2

    @pytest.mark.parametrize("prefixes", [[True], [167772160], {"10.0.0.0/8": 1}],
                             ids=["bool", "int", "object"])
    def test_prefixes_other_than_a_list_of_strings_exit_2(self, paths, capsys, prefixes):
        paths["topo"].write_text(json.dumps(dict(TOPOLOGY, naps=[
            {"client": 1, "node": 2, "prefixes": prefixes}])))
        assert main(["validate", str(paths["topo"])]) == 2
        assert capsys.readouterr().err == \
            "invalid: nap 1 'prefixes' must be a list of strings\n"
        assert main(run_args(paths, mode="compare")) == 2
        assert capsys.readouterr().err == \
            "error: nap 1 'prefixes' must be a list of strings\n"
        assert not paths["out"].exists()

    def test_huge_prefix_gives_one_short_line(self, paths, capsys):
        paths["topo"].write_text(json.dumps(dict(TOPOLOGY, naps=[
            {"client": 1, "node": 2, "prefixes": [HUGE]}])))
        assert main(["validate", str(paths["topo"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid: bad prefix on nap 1: ") and err.endswith("...\n")
        assert len(err) < 200, err[:300]

    @pytest.mark.parametrize("doc, message", [
        ({"nodes": [{"id": BIG}, {"id": BIG}]}, "duplicate node id 9999"),
        ({"nodes": [{"id": BIG}, {"id": 1}], "links": [{"a": BIG, "b": BIG}]},
         "self-loop link at node 9999"),
        ({"nodes": [{"id": 1}], "links": [{"a": 1, "b": BIG}]},
         "link references unknown node: 1-9999"),
        ({"nodes": [{"id": BIG}, {"id": 1}], "links": [{"a": BIG, "b": 1}, {"a": 1, "b": BIG}]},
         "duplicate link entry 1-9999"),
        ({"nodes": [{"id": BIG}, {"id": 1}], "links": [{"a": BIG, "b": 1, "delay_us": -1}]},
         "bad delay/capacity on link 9999"),
        (dict(TOPOLOGY, naps=[{"client": BIG, "node": 2}]), "nap client id 9999"),
        (dict(TOPOLOGY, naps=[{"client": 1, "node": BIG}]),
         "nap client 1 attached to unknown node 9999"),
    ], ids=["duplicate-node", "self-loop", "unknown-node", "duplicate-link", "bad-delay",
            "client-id", "attachment-node"])
    def test_huge_integer_gives_one_short_line(self, paths, capsys, doc, message):
        paths["topo"].write_text(json.dumps(doc))
        assert main(["validate", str(paths["topo"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: {message}") and err.count("\n") == 1, err[:300]
        assert len(err) < 200, err[:300]

    @needs_int_limit
    def test_delay_too_long_to_read_exits_2(self, paths, capsys):
        paths["topo"].write_text(
            json.dumps(TOPOLOGY).replace('"delay_us": 1000,', f'"delay_us": {TOO_LONG},'))
        assert main(["validate", str(paths["topo"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid: topology is not valid JSON: ")
        assert captured.err.count("\n") == 1 and len(captured.err) < 200, captured.err[:300]

    @pytest.mark.parametrize("content", sorted(UNREADABLE))
    def test_unreadable_file_exits_2(self, paths, capsys, content):
        paths["topo"].write_bytes(UNREADABLE[content])
        assert main(["validate", str(paths["topo"])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid: ") and captured.err.count("\n") == 1


STAR = {kind: json.loads((ROOT / "demos" / "data" / f"star{suffix}.json").read_text())
        for kind, suffix in (("topology", ""), ("scenario", "_scenario"))}
BAD_VALUES = [1.9, "7", True, None, -1, 2**70, [], {}, "x"]
DELETE = "<delete>"


def value_paths(doc, prefix=()):
    """The path (keys and indices) to every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


STAR_PATHS = [(kind, path) for kind in STAR for path in value_paths(STAR[kind])]
STAR_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(STAR_PATHS), st.sampled_from(BAD_VALUES)),
    st.tuples(st.sampled_from([kp for kp in STAR_PATHS if isinstance(kp[1][-1], str)]),
              st.just(DELETE)),
)


@settings(max_examples=100, deadline=None)
@given(mutation=STAR_MUTATIONS)
def test_any_single_field_change_exits_with_a_documented_code(mutation):
    """One bad value or one missing key anywhere in the star demo's topology
    or scenario gives exit 0, 2 or 3 and at most a short error, never an
    exception."""
    (kind, path), value = mutation
    docs = json.loads(json.dumps(STAR))
    parent = docs[kind]
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        files = {kind: Path(tmp) / f"{kind}.json" for kind in docs}
        for kind, doc in docs.items():
            files[kind].write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", "--mode", "compare", "--topology", str(files["topology"]),
                         "--scenario", str(files["scenario"]),
                         "--out", str(Path(tmp) / "report.json")])
    assert code in (0, 2, 3)
    assert len(err.getvalue()) <= 400, err.getvalue()[:500]


def test_loaders_reject_too_deeply_nested_text_with_their_own_error():
    text = UNREADABLE["nested_too_deep"].decode()
    with pytest.raises(ScenarioError):
        load_scenario(text)
    with pytest.raises(TopologyError):
        load_topology_doc(text, seed=1)


class TestHashSeed:
    """Reports and streamed traces do not depend on the interpreter's hash
    seed: `ipicn run` in fresh processes under two `PYTHONHASHSEED` values."""

    SCENARIO = {"workload": [
        {"t_us": 0, "op": "attach", "client": 1, "addr": "10.0.1.5"},
        {"t_us": 0, "op": "attach", "client": 2, "addr": "10.0.2.9"},
        {"t_us": 0, "op": "http_serve", "client": 1, "fqdn": "cdn.example"},
        *({"t_us": 1000 + 700 * k, "op": "send_ip", "client": 1, "src": "10.0.1.5",
           "dst": ("10.0.2.9", "8.8.8.8")[k % 2], "bytes": 100 + k} for k in range(6)),
        *({"t_us": 1500 + 900 * k, "op": "ext_in", "src": "198.51.100.7",
           "dst": "10.0.2.9", "bytes": 64} for k in range(3)),
        *({"t_us": 2000 + 10 * c, "op": "http_get", "client": c, "fqdn": "cdn.example",
           "url": "/v/1", "resp_bytes": 90_000} for c in (1, 2)),
    ]}

    def outputs(self, tmp_path, mode, hash_seed):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(self.SCENARIO))
        out, trace = tmp_path / f"{mode}-{hash_seed}.json", tmp_path / f"{mode}-{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "ipicn.cli", "run", "--mode", mode,
             "--topology", str(ROOT / "demos" / "data" / "small.json"),
             "--scenario", str(scenario), "--out", str(out), "--trace", str(trace)],
            env=env, check=True,
        )
        return out.read_bytes(), trace.read_bytes()

    @pytest.mark.parametrize("mode", ["icn", "ip"])
    def test_report_and_trace_bytes_equal_across_hash_seeds(self, tmp_path, mode):
        report, trace = self.outputs(tmp_path, mode, 0)
        flows = json.loads(report)["flows"]
        assert {"ip:10.0.1.5->8.8.8.8", "ip:198.51.100.7->10.0.2.9",
                "http:2:cdn.example/v/1"} <= set(flows)
        assert trace.count(b",data,") > 0
        assert (report, trace) == self.outputs(tmp_path, mode, 1)
