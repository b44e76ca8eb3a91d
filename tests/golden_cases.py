"""The 81 pinned benchmark cases, and a check of them.

A case is one benchmark workload of `perfbench/workloads.py` at seed 1, 2
or 7, run in ICN mode, in ICN mode with ideal control or in IP mode, to
quiescence or cut at 50 ms or at 200 ms. Its row holds the sha1 of the
report, the sha1 of the trace rows sorted and in the order the sink got
them, and the events the run queued (`queue._seq`).

    PYTHONPATH=src python tests/golden_cases.py > tests/data/golden_cases.json
    PYTHONPATH=src python tests/golden_cases.py --check [--seed 1]

The first prints the table to pin. The second runs every case (or one
seed's) twice, traced and untraced, and compares each with its pinned
row; it exits 1 if any differs. An untraced run has no trace, so it is
checked on its report and its events only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path

from ipicn import BaselineSimulation, IcnSimulation, load_scenario, load_topology_doc

REPO = Path(__file__).resolve().parent.parent
TABLE = REPO / "tests" / "data" / "golden_cases.json"
WORKLOADS = ("flash_crowd", "http_churn", "unicast_mesh")
SEEDS = (1, 2, 7)
MODES = ("icn", "icn-ideal", "ip")
LIMITS = {"full": None, "50ms": 50_000, "200ms": 200_000}


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
    """A workload's topology text and its loaded scenario."""
    generated = _generator().generate(workload, seed)
    return generated.topology_text, load_scenario(generated.scenario_text)


def case_ids(seeds: tuple[int, ...] = SEEDS) -> list[str]:
    """Every case of `seeds`, as "workload/seed/mode/limit"."""
    return [f"{workload}/{seed}/{mode}/{limit}" for workload in WORKLOADS for seed in seeds
            for mode in MODES for limit in LIMITS]


def run_case(case: str, traced: bool) -> dict[str, str | int]:
    """The row of one case, from a traced run or, without its trace
    digests, from an untraced one."""
    workload, seed, mode, limit = case.split("/")
    topology_text, scenario = inputs(workload, int(seed))
    topo = load_topology_doc(topology_text, scenario.seed)
    rows: list[str] = []
    trace = rows.append if traced else None
    if mode == "ip":
        sim = BaselineSimulation(topo, scenario, trace=trace)
    else:
        sim = IcnSimulation(topo, scenario, ideal_control=mode == "icn-ideal", trace=trace)
    max_time_us = LIMITS[limit]
    report = sim.run() if max_time_us is None else sim.run(max_time_us)
    row: dict[str, str | int] = {"report": _sha1(report.to_canonical_json()),
                                 "events": sim.queue._seq}
    if traced:
        row["trace"] = _sha1("\n".join(rows))
        row["trace_sorted"] = _sha1("\n".join(sorted(rows)))
    return row


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def pinned() -> dict[str, dict[str, str | int]]:
    return json.loads(TABLE.read_text())


def check(case: str, table: dict[str, dict[str, str | int]]) -> list[str]:
    """How a case's traced and untraced runs differ from its pinned row."""
    want = table[case]
    faults = []
    for traced in (True, False):
        got = run_case(case, traced)
        faults += [f"{case} {'traced' if traced else 'untraced'} {key}: "
                   f"{got[key]} != pinned {want[key]}"
                   for key in got if got[key] != want[key]]
    return faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare traced and untraced runs with the pinned table")
    parser.add_argument("--seed", type=int, choices=SEEDS, action="append",
                        help="only this seed's cases (repeatable)")
    args = parser.parse_args(argv)
    cases = case_ids(tuple(args.seed) if args.seed else SEEDS)
    if not args.check:
        json.dump({case: run_case(case, traced=True) for case in cases}, sys.stdout,
                  indent=1, sort_keys=True)
        print()
        return 0
    table = pinned()
    faults = [fault for case in cases for fault in check(case, table)]
    for fault in faults:
        print(fault)
    print(f"{len(cases)} cases, traced and untraced: "
          f"{'all as pinned' if not faults else f'{len(faults)} differences'}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
