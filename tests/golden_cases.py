"""The pinned cases: 81 benchmark, 150 dense-grid and 6 counter cases, and a check of them.

A benchmark case is one workload of `perfbench/workloads.py` at seed 1, 2
or 7, run in ICN mode, in ICN mode with ideal control or in IP mode, to
quiescence or cut at 50 ms or at 200 ms. None of them forwards a copy off
its tree or drops one for its TTL, so the grid cases pin those anomalies:
a grid case is one of 25 seeded dense grids (`grid_inputs`; the last 5
have a NAP on half of their nodes only), run in ICN mode with and without
ideal control, to quiescence or cut at 10 ms or at 105 ms. Neither kind
drops a packet or fetches a URL nobody serves, so the counter cases do:
each is one hand-built scenario (`counter_inputs`) run in the three modes,
to quiescence or cut at 3 ms. A row holds
the sha1 of the report, the sha1 of the trace rows sorted and in the
order the sink got them, and the events the run queued (`queue._seq`).

    PYTHONPATH=src python tests/golden_cases.py > tests/data/golden_cases.json
    PYTHONPATH=src python tests/golden_cases.py --check [--seed 1]

The first prints the table to pin. The second runs every case (or only
one seed's benchmark cases) three times, untraced, traced and walked
(traced under `conftest.walking()`, where every message walks hop by hop
and bills each link), and compares each with its pinned row; it exits 1
if any differs. An untraced run has no trace, so it is checked on its
report and its events only. So the walk is judged on every case, and
carried and walked runs write the same rows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

from conftest import walking
from ipicn import BaselineSimulation, IcnSimulation, load_scenario, load_topology_doc

REPO = Path(__file__).resolve().parent.parent
TABLE = REPO / "tests" / "data" / "golden_cases.json"
WORKLOADS = ("flash_crowd", "http_churn", "unicast_mesh")
SEEDS = (1, 2, 7)
MODES = ("icn", "icn-ideal", "ip")
LIMITS = {"full": None, "50ms": 50_000, "200ms": 200_000}
GRIDS = tuple(range(25))
FULL_GRIDS = 20  # grids below this index have a NAP on every node
GRID_MODES = ("icn", "icn-ideal")
# the 100 ms HTTP window holds each response, so 105 ms cuts them in flight
GRID_LIMITS = {"full": None, "10ms": 10_000, "105ms": 105_000}
COUNTER_LIMITS = {"full": None, "3ms": 3_000}
RUNS = ("untraced", "traced", "walked")


@lru_cache(maxsize=None)
def _generator():
    """`perfbench/workloads.py`, loaded by path: the harness is not a package."""
    spec = importlib.util.spec_from_file_location("golden_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=3)
def inputs(workload: str, seed: int):
    """A workload's topology text and its loaded scenario; a grid's for
    workload "grid", `seed` being its index."""
    if workload == "grid":
        return grid_inputs(seed)
    if workload == "counters":
        return counter_inputs()
    generated = _generator().generate(workload, seed)
    return generated.topology_text, load_scenario(generated.scenario_text)


def grid_inputs(index: int):
    """The topology text and loaded scenario of dense grid `index`, drawn
    from a generator seeded with it: a 5x5 to 8x8 grid whose links take 0,
    1, 500 or 1000 us, with a NAP on every node or, from index
    `FULL_GRIDS` on, on half of them. One NAP serves /a and /b (0, 100 or
    70,000 bytes each), and from a third of the others to all of them
    fetch one at 1-4 ms, alongside up to 10 `send_ip`. So many trees
    stand at once that on about half the grids fids match links off their
    trees: copies leave them, some loop until their TTL is spent, and some
    arrive twice. Where nodes have no NAP, copies cross nodes where no
    gateway takes them."""
    rng = random.Random(index)
    rows, cols = rng.randint(5, 8), rng.randint(5, 8)
    nodes = range(1, rows * cols + 1)
    links = [{"a": node, "b": node + step, "delay_us": rng.choice((0, 1, 500, 1000))}
             for node in nodes for step in (1, cols)
             if node + step in nodes and (step == cols or node % cols)]
    naps = nodes if index < FULL_GRIDS else sorted(rng.sample(nodes, len(nodes) // 2))
    topology = {"nodes": [{"id": node} for node in nodes], "links": links,
                "naps": [{"client": node, "node": node, "prefixes": [f"10.0.{node}.0/24"]}
                         for node in naps]}
    server = rng.choice(naps)
    sizes = {url: rng.choice((0, 100, 70_000)) for url in ("/a", "/b")}
    others = [node for node in naps if node != server]
    ops = [{"t_us": 0, "op": "http_serve", "client": server, "fqdn": "s.example"}]
    for client in rng.sample(others, rng.randint(len(naps) // 3, len(others))):
        url = rng.choice(("/a", "/b"))
        ops.append({"t_us": rng.randint(1000, 4000), "op": "http_get", "client": client,
                    "fqdn": "s.example", "url": url, "resp_bytes": sizes[url]})
    sends = [rng.sample(naps, 2) for _ in range(rng.randint(0, 10))]
    ops += [{"t_us": 0, "op": "attach", "client": node, "addr": f"10.0.{node}.9"}
            for node in sorted({node for pair in sends for node in pair})]
    ops += [{"t_us": rng.randint(1000, 4000), "op": "send_ip", "client": src,
             "src": f"10.0.{src}.9", "dst": f"10.0.{dst}.9", "bytes": rng.choice((0, 100, 1400))}
            for src, dst in sends]
    scenario = load_scenario(json.dumps({"workload": ops, "seed": index + 1}))
    return json.dumps(topology), scenario


def counter_inputs():
    """The topology text and loaded scenario of the counter cases: a ring of
    six 1 ms links with NAPs 2-5 on nodes 2-5 and the border on node 1. A
    fetch runs before its FQDN is served (`unroutable_http`) and one after;
    one `ext_in` is addressed outside the address plan and one to a device;
    70 sends to one name leave in one instant, so in ICN mode 6 fall out of
    the pending queue before the fid arrives, while the baseline delivers
    all 70; a send to an unattached address in the plan is dropped by the
    baseline and stays pending in ICN mode; a send leaves by the border."""
    topology = {"nodes": [{"id": node} for node in range(1, 7)],
                "links": [{"a": node, "b": node % 6 + 1} for node in range(1, 7)],
                "naps": [{"client": node, "node": node, "prefixes": [f"10.0.{node}.0/24"]}
                         for node in range(2, 6)],
                "border": {"client": 99, "node": 1}}
    get = {"op": "http_get", "client": 4, "fqdn": "late.example", "url": "/x",
           "resp_bytes": 3000}
    send = {"op": "send_ip", "client": 2, "src": "10.0.2.9", "bytes": 100}
    ops = [{"t_us": 0, "op": "attach", "client": node, "addr": f"10.0.{node}.9"}
           for node in range(2, 5)]
    ops += [{"t_us": 0, **get},
            {"t_us": 500, "op": "http_serve", "client": 5, "fqdn": "late.example"},
            {"t_us": 1000, "op": "ext_in", "dst": "192.0.2.7", "bytes": 200},
            {"t_us": 1000, "op": "ext_in", "dst": "10.0.3.9", "bytes": 200},
            *[{"t_us": 2000, **send, "dst": "10.0.3.9"}] * 70,
            {"t_us": 2000, **send, "dst": "10.0.4.77"},
            {"t_us": 2500, "op": "send_ip", "client": 3, "src": "10.0.3.9",
             "dst": "198.51.100.1", "bytes": 300},
            {"t_us": 4000, **get}]
    scenario = load_scenario(json.dumps({"workload": ops, "seed": 5}))
    return json.dumps(topology), scenario


def case_ids(seeds: tuple[int, ...] = SEEDS, grids: tuple[int, ...] = GRIDS,
             counters: bool = True) -> list[str]:
    """Every benchmark case of `seeds`, grid case of `grids` and, if
    `counters`, counter case, as "workload/seed/mode/limit" (a grid's is
    "grid/index/mode/limit", a counter case's "counters/0/mode/limit")."""
    return [f"{workload}/{seed}/{mode}/{limit}" for workload in WORKLOADS for seed in seeds
            for mode in MODES for limit in LIMITS] + [
        f"grid/{index}/{mode}/{limit}" for index in grids for mode in GRID_MODES
        for limit in GRID_LIMITS] + [
        f"counters/0/{mode}/{limit}" for mode in MODES if counters
        for limit in COUNTER_LIMITS]


def simulate(case: str, trace=None):
    """Run one case, passing its trace rows to `trace`; return the
    simulation after its run and its report."""
    workload, seed, mode, limit = case.split("/")
    topology_text, scenario = inputs(workload, int(seed))
    topo = load_topology_doc(topology_text, scenario.seed)
    if mode == "ip":
        sim = BaselineSimulation(topo, scenario, trace=trace)
    else:
        sim = IcnSimulation(topo, scenario, ideal_control=mode == "icn-ideal", trace=trace)
    limits = {"grid": GRID_LIMITS, "counters": COUNTER_LIMITS}.get(workload, LIMITS)
    max_time_us = limits[limit]
    return sim, sim.run() if max_time_us is None else sim.run(max_time_us)


def run_case(case: str, run: str = "traced") -> dict[str, str | int]:
    """The row of one case from a run of `RUNS`: without its trace digests
    from an untraced one."""
    rows: list[str] = []
    with walking() if run == "walked" else contextlib.nullcontext():
        sim, report = simulate(case, None if run == "untraced" else rows.append)
    row: dict[str, str | int] = {"report": _sha1(report.to_canonical_json()),
                                 "events": sim.queue._seq}
    if run != "untraced":
        row["trace"] = _sha1("\n".join(rows))
        row["trace_sorted"] = _sha1("\n".join(sorted(rows)))
    return row


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def pinned() -> dict[str, dict[str, str | int]]:
    return json.loads(TABLE.read_text())


def check(case: str, table: dict[str, dict[str, str | int]]) -> list[str]:
    """How a case's untraced, traced and walked runs differ from its
    pinned row."""
    want = table[case]
    faults = []
    for run in RUNS:
        got = run_case(case, run)
        faults += [f"{case} {run} {key}: {got[key]} != pinned {want[key]}"
                   for key in got if got[key] != want[key]]
    return faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare untraced, traced and walked runs with the pinned table")
    parser.add_argument("--seed", type=int, choices=SEEDS, action="append",
                        help="only this seed's benchmark cases (repeatable)")
    args = parser.parse_args(argv)
    cases = case_ids(tuple(args.seed), grids=(), counters=False) if args.seed else case_ids()
    if not args.check:
        json.dump({case: run_case(case) for case in cases}, sys.stdout,
                  indent=1, sort_keys=True)
        print()
        return 0
    table = pinned()
    faults = [fault for case in cases for fault in check(case, table)]
    for fault in faults:
        print(fault)
    print(f"{len(cases)} cases, untraced, traced and walked: "
          f"{'all as pinned' if not faults else f'{len(faults)} differences'}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
