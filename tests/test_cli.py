"""Command-line behaviour: exit codes, atomic reports, flags."""

import json

import pytest

from ipicn.cli import main

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

    def test_unknown_client_exits_3(self, paths):
        bad = dict(SCENARIO)
        bad["workload"] = [
            {"t_us": 0, "op": "attach", "client": 55, "addr": "10.0.1.5"}
        ]
        paths["scenario"].write_text(json.dumps(bad))
        assert main(run_args(paths, mode="icn")) == 3
        assert not paths["out"].exists()

    def test_trace_flag_writes_trace(self, paths, tmp_path):
        trace = tmp_path / "trace.csv"
        assert main(run_args(paths, mode="icn", extra=("--trace", str(trace)))) == 0
        rows = trace.read_text().strip().splitlines()
        assert rows and all(len(r.split(",")) == 6 for r in rows)

    def test_ideal_control_zeroes_control_bytes(self, paths):
        assert main(run_args(paths, mode="icn", extra=("--ideal-control",))) == 0
        report = json.loads(paths["out"].read_text())
        assert report["totals"]["control_bytes"] == 0

    def test_seed_defaults_to_scenario_then_one(self, paths):
        args = run_args(paths, mode="icn")
        del args[args.index("--seed") + 1]
        args.remove("--seed")
        assert main(args) == 0

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
