"""One measured pass in a fresh interpreter, as a CLI user's run would be.

Reads a job as JSON on stdin, imports `ipicn` from the checkout's `src`,
and writes one JSON result to stdout. A job names the mode (`icn` or `ip`)
and the pass:

- `time`: load the documents `loads` times (timing each load), then time
  simulation construction + `run()` + `to_canonical_json()` once, and
  report the process's peak RSS and the host-speed probe's median time,
  taken before the loads and after the run.
- `trace`: the same run under the outside-in tracer (see tracer.py).
- `memory`: the same run under `tracemalloc`, snapshotted after `run()`
  returns while the simulation is still alive.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBES = 4  # host-speed probes before the loads and again after the run
# One frame keeps tracemalloc's slowdown near 4x; allocations are then
# charged to the module whose code made them, and those made inside the
# standard library (JSON parsing, ipaddress objects) to no layer.
MEMORY_FRAMES = 1


def _setup(job: dict, loads: int):
    """The CLI's input loading, repeated; returns the last load and the
    time each one took."""
    from ipicn import load_scenario, load_topology_doc

    times = []
    topo = scenario = None
    for _ in range(loads):
        topo = scenario = None
        start = time.perf_counter()
        scenario = load_scenario(job["scenario_text"])
        topo = load_topology_doc(job["topology_text"], scenario.seed)
        times.append(time.perf_counter() - start)
    return topo, scenario, times


def host_probe() -> float:
    """Time a fixed piece of interpreter work (dict, string, heap and bytes
    operations, about 20 ms on a 2.1 GHz Xeon): how fast this host runs
    Python right now. It touches no `ipicn` code."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    heap: list[int] = []
    for i in range(20_000):
        key = f"k{i % 997}:{i}"
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (i * 7919) % 10007)
    while heap:
        heapq.heappop(heap)
    b"".join(bytes(64) for _ in range(2000))
    return time.perf_counter() - start


def _simulate(mode: str, topo, scenario):
    from ipicn import BaselineSimulation, IcnSimulation

    if mode == "icn":
        sim = IcnSimulation(topo, scenario)
    else:
        sim = BaselineSimulation(topo, scenario)
    report = sim.run()
    return sim, report, report.to_canonical_json()


def _report_facts(report, text: str) -> dict:
    """What the parent needs to check the answer and print model outputs."""
    return {
        "digest": hashlib.sha1(text.encode()).hexdigest(),
        "delivered": {k: v["delivered"] for k, v in report.flows.items()},
        "latency_us": {k: v["latency_us"] for k, v in report.flows.items()},
        "counters": report.counters,
        "totals": report.totals,
        "link_data_bytes": {k: v["data_bytes"] for k, v in report.per_link.items()},
    }


def time_pass(job: dict) -> dict:
    probes = [host_probe() for _ in range(PROBES)]
    topo, scenario, load_s = _setup(job, job["loads"])
    start = time.perf_counter()
    _, report, text = _simulate(job["mode"], topo, scenario)
    run_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += [host_probe() for _ in range(PROBES)]
    return {"load_s": load_s, "run_s": run_s, "rss_mb": rss_mb,
            "probe_s": statistics.median(probes), **_report_facts(report, text)}


def trace_pass(job: dict) -> dict:
    from tracer import Tracer

    topo, scenario, _ = _setup(job, 1)
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        _, report, text = _simulate(job["mode"], topo, scenario)
    layers = tracer.summary()
    receptions = layers.pop("gateways.receptions", None)
    if receptions:
        layers["gateways.fp_rx_pct"] = 100 * report.counters["fp_deliveries"] / receptions
    copies = layers.get("forwarding.copies")
    if copies:
        layers["forwarding.off_tree_pct"] = (
            100 * report.counters["off_tree_forwards"] / copies
        )
    if job.get("spans"):
        tracer.write_spans(job["spans"])
    return {"run_s": tracer.root_s, "layers": layers, **_report_facts(report, text)}


def memory_pass(job: dict) -> dict:
    import ipicn  # noqa: F401  (module import is not the run's memory)

    tracemalloc.start(MEMORY_FRAMES)
    topo, scenario, _ = _setup(job, 1)
    sim, report, text = _simulate(job["mode"], topo, scenario)
    snapshot = tracemalloc.take_snapshot()
    heap_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    retained = _retained_by_module(snapshot, str(SRC / "ipicn"))
    del sim
    return {"heap_peak_mb": heap_peak / 2**20,
            "retained_mb": {m: b / 2**20 for m, b in retained.items()},
            **_report_facts(report, text)}


def _retained_by_module(snapshot, package_dir: str) -> dict[str, int]:
    """Live bytes grouped by the innermost `ipicn` module on the recorded
    stack; allocations made outside the package are left out."""
    retained: dict[str, int] = {}
    for stat in snapshot.statistics("traceback"):
        for frame in reversed(stat.traceback):
            if frame.filename.startswith(package_dir):
                module = Path(frame.filename).stem
                retained[module] = retained.get(module, 0) + stat.size
                break
    return retained


PASSES = {"time": time_pass, "trace": trace_pass, "memory": memory_pass}


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(SRC))
    result = PASSES[job["pass"]](job)
    json.dump(result, sys.stdout, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
