"""Tests of the benchmark harness itself: inputs, tracer and answer checks.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from ipicn import BaselineSimulation, IcnSimulation, load_scenario, load_topology_doc
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# A small network that reaches every layer: unicast IP, traffic to and
# from the border, and two coalesced HTTP fetches plus a lone one.
MINI_TOPOLOGY = {
    "nodes": [{"id": n} for n in range(1, 7)],
    "links": [{"a": a, "b": b, "delay_us": d} for a, b, d in
              [(1, 2, 800), (2, 3, 1200), (3, 4, 700), (4, 5, 900), (5, 6, 1500),
               (1, 4, 2500), (2, 6, 3000)]],
    "naps": [{"client": c, "node": n, "prefixes": [f"10.0.{c}.0/24"]}
             for c, n in [(1, 2), (2, 4), (3, 6)]],
    "border": {"client": 1000, "node": 5},
}
MINI_WORKLOAD = (
    [{"t_us": 0, "op": "attach", "client": c, "addr": f"10.0.{c}.10"} for c in (1, 2, 3)]
    + [{"t_us": 0, "op": "http_serve", "client": 3, "fqdn": "mini.example"}]
    + [{"t_us": 50_000 + 1000 * k, "op": "send_ip", "client": 1, "src": "10.0.1.10",
        "dst": "10.0.2.10", "bytes": 64 * k} for k in range(5)]
    + [{"t_us": 51_000 + 1000 * k, "op": "send_ip", "client": 2, "src": "10.0.2.10",
        "dst": "198.51.100.7", "bytes": 100} for k in range(3)]
    + [{"t_us": 52_000 + 1000 * k, "op": "ext_in", "src": "203.0.113.9",
        "dst": "10.0.3.10", "bytes": 200} for k in range(3)]
    + [{"t_us": 60_000 + 1000 * k, "op": "http_get", "client": c, "fqdn": "mini.example",
        "url": "/a", "resp_bytes": 150_000} for k, c in enumerate((1, 2))]
    + [{"t_us": 300_000, "op": "http_get", "client": 1, "fqdn": "mini.example",
        "url": "/b", "resp_bytes": 0}]
)
MINI = workloads.Inputs(
    "mini", 5, json.dumps(MINI_TOPOLOGY),
    json.dumps({"mode": "compare", "seed": 5, "workload": MINI_WORKLOAD}),
)


def _simulate(mode: str, inputs=MINI):
    scenario = load_scenario(inputs.scenario_text)
    topo = load_topology_doc(inputs.topology_text, scenario.seed)
    sim = (IcnSimulation if mode == "icn" else BaselineSimulation)(topo, scenario)
    report = sim.run()
    return report, report.to_canonical_json()


def _ipicn_attributes() -> dict:
    """Every attribute of every ipicn module and of the classes they define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "ipicn" and not name.startswith("ipicn."):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first, again = workloads.generate(workload, 3), workloads.generate(workload, 3)
    assert first.topology_text == again.topology_text
    assert first.scenario_text == again.scenario_text
    other = workloads.generate(workload, 4)
    assert other.topology_text != first.topology_text
    assert json.loads(first.scenario_text)["seed"] == 3


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generated_inputs_load_and_every_operation_is_routable(workload):
    inputs = workloads.generate(workload, 2)
    scenario = load_scenario(inputs.scenario_text)
    load_topology_doc(inputs.topology_text, scenario.seed)
    ops = [op for op in scenario.workload if op["op"] in workloads.TIMED_OPS]
    assert workloads.attempted_ops(inputs) == len(ops)
    assert sum(workloads.expected_deliveries(inputs).values()) == len(ops)


# -- tracer ------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["icn", "ip"])
def test_tracer_restores_attributes_and_leaves_report_unchanged(mode):
    _, plain = _simulate(mode)
    before = _ipicn_attributes()
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        assert _ipicn_attributes() != before  # something really was patched
        _, traced = _simulate(mode)
    after = _ipicn_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == plain


def test_tracer_rebinds_names_imported_elsewhere():
    from ipicn import simnet, topology

    tracer = Tracer()
    with tracer.installed():
        assert simnet.dijkstra is topology.dijkstra
        assert simnet.dijkstra.__wrapped__ is not None
        for name in ("dijkstra", "handle_match", "tree_for_match", "forward",
                     "render_name", "synth_bytes", "encode_ip_packet"):
            assert hasattr(getattr(simnet, name), "__wrapped__"), name


def test_trivial_accessors_are_not_wrapped():
    from ipicn import topology

    tracer = Tracer()
    with tracer.installed():
        assert not hasattr(topology.NetworkGraph.link, "__wrapped__")
        assert not hasattr(topology.NetworkGraph.out_links, "__wrapped__")
    assert all(layer in LAYERS for layer, _ in tracer.names)


@pytest.mark.parametrize("mode", ["icn", "ip"])
def test_self_times_add_up_to_traced_run_time(mode):
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        _simulate(mode)
    summary = tracer.summary()
    total = sum(summary[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(tracer.root_s, rel=1e-9, abs=1e-9)
    assert all(summary[f"{layer}.self_s"] >= 0 for layer in LAYERS)
    spans = tracer.spans()
    assert spans[0][3] == -1 and all(0 <= p < i for i, (_, _, _, p) in enumerate(spans) if i)


def test_spans_written_out_match_those_kept(tmp_path):
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        _simulate("icn")
    path = tmp_path / "spans.csv"
    tracer.write_spans(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "layer,start_s,end_s,parent"
    rows = [line.split(",") for line in lines[1:]]
    assert [(l, float(s), float(e), int(p)) for l, s, e, p in rows] == tracer.spans()


def test_tracer_counts_layer_work():
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        report, _ = _simulate("icn")
    summary = tracer.summary()
    assert summary["forwarding.copies"] > 0
    assert summary["rendezvous.match_events"] > 0
    assert summary["names.render_name_calls"] > 0
    assert summary["simnet.events"] >= summary["simnet.queue_peak"] > 0
    assert 1 <= summary["topology.dijkstra_per_match"] <= 2


def test_missing_entry_point_leaves_metric_absent(monkeypatch):
    from ipicn import topology

    monkeypatch.delattr(topology, "handle_match")
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        _simulate("icn")
    summary = tracer.summary()
    assert "topology.dijkstra_per_match" not in summary
    assert "topology.self_s" in summary


# -- answer checks -----------------------------------------------------------


def _result(digest: str, delivered: dict) -> dict:
    return {"digest": digest, "delivered": dict(delivered)}


def test_check_answers_accepts_matching_reports():
    expected = workloads.expected_deliveries(MINI)
    results = {"icn": [_result("a", expected)] * 2, "ip": [_result("b", expected)]}
    assert run.check_answers(MINI, results, {}) == ([], 0)


def test_check_answers_counts_lost_and_duplicated_operations():
    expected = workloads.expected_deliveries(MINI)
    lossy = dict(expected)
    flow = next(k for k in lossy if k.startswith("ip:"))
    lossy[flow] -= 2
    problems, missed = run.check_answers(
        MINI, {"icn": [_result("a", lossy)], "ip": [_result("b", expected)]}, {}
    )
    assert missed == 2 and problems


def test_check_answers_rejects_digest_drift_and_pin_mismatch():
    expected = workloads.expected_deliveries(MINI)
    drift = {"icn": [_result("a", expected), _result("c", expected)],
             "ip": [_result("b", expected)]}
    assert run.check_answers(MINI, drift, {})[0]
    pinned = workloads.Inputs("mini", run.DEFAULT_SEED, MINI.topology_text,
                              MINI.scenario_text)
    same = {"icn": [_result("a", expected)], "ip": [_result("b", expected)]}
    assert run.check_answers(pinned, same, {"mini": {"icn": "a", "ip": "b"}})[0] == []
    assert run.check_answers(pinned, same, {"mini": {"icn": "x", "ip": "b"}})[0]


def test_pinned_digests_cover_every_workload():
    pins = run.load_pins()
    assert set(pins) == set(workloads.WORKLOADS)
    assert all(set(p) == set(run.MODES) for p in pins.values())


# -- the benchmark's contract ------------------------------------------------


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "flash_crowd",
         "--seed", str(run.DEFAULT_SEED), "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [BENCH.name]


def test_measure_rounds_runs_at_least_once():
    calls = []
    assert run.measure_rounds(0, calls.append) == 1
    assert calls == [0]


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_one_round_reports_every_end_to_end_metric():
    proc = _bench("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert proc.stdout.count("(matches pin)") == 2


def test_traced_round_reports_every_layer_metric_and_writes_spans(tmp_path):
    proc = _bench("--trace", "1", "--spans", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "flash_crowd-1-icn-0.csv", "flash_crowd-1-ip-0.csv"]
