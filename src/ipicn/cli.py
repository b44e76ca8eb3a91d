"""Command-line entry point: run scenarios and validate topologies.

Exit codes: 0 success, 2 invalid input files, flags or output paths,
3 scenario references undefined entities. The report and the trace are
written to temporary files, opened before the run, and renamed into place
only when the run succeeds, so a failure never leaves a partial file
behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import simnet
from .gateways import DEFAULT_WINDOW_US
from .simnet import ScenarioError, Scenario, UnknownClientError, load_scenario
from .topology import TopologyDoc, TopologyError, load_topology_doc

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_REFERENCE = 3


@contextmanager
def _atomic_output(path: str):
    """A text file that appears at `path` only if the block completes.

    A missing directory or a path naming a directory fails here, before
    anything is written."""
    target = Path(path)
    if target.is_dir():
        raise OSError(f"cannot write {path}: it is a directory")
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    """A file's text; one that is not UTF-8 fails like one that cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _load_inputs(args) -> tuple[TopologyDoc, Scenario]:
    scenario = load_scenario(_read_text(args.scenario))
    seed = args.seed if args.seed is not None else scenario.seed
    topo = load_topology_doc(_read_text(args.topology), seed)
    return topo, scenario


def cmd_run(args) -> int:
    try:
        topo, scenario = _load_inputs(args)
    except (OSError, TopologyError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    mode = args.mode or scenario.mode
    if mode == "compare" and args.trace is not None:
        print("error: --trace needs a single mode (icn or ip), not compare", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.window_us < 0:
        print(f"error: --window-us must not be negative, got {args.window_us}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        with ExitStack() as outputs:
            out = outputs.enter_context(_atomic_output(args.out))
            trace = None
            if args.trace is not None:
                rows = outputs.enter_context(_atomic_output(args.trace))
                trace = lambda row: rows.write(row + "\n")
            if mode == "icn":
                report = simnet.IcnSimulation(
                    topo, scenario, window_us=args.window_us,
                    ideal_control=args.ideal_control, trace=trace,
                ).run()
            elif mode == "ip":
                report = simnet.BaselineSimulation(topo, scenario, trace=trace).run()
            else:
                report = simnet.compare(
                    scenario, topo, window_us=args.window_us,
                    ideal_control=args.ideal_control,
                )
            out.write(report.to_canonical_json() + "\n")
    except UnknownClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_REFERENCE
    except (OSError, ScenarioError, TopologyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        topo = load_topology_doc(_read_text(args.topology), seed=1)
    except (OSError, TopologyError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    graph = topo.graph
    print(
        f"nodes={len(graph.nodes)} links={len(graph.links)} "
        f"naps={len(topo.naps)} border={'yes' if topo.border else 'no'}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipicn",
        description="IP-over-ICN network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write the KPI report")
    run_p.add_argument("--topology", required=True, help="topology JSON path")
    run_p.add_argument("--scenario", required=True, help="scenario JSON path")
    run_p.add_argument("--mode", default=None, choices=("icn", "ip", "compare"),
                       help="simulation mode (defaults to the scenario's, then icn)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="link-mask seed (defaults to the scenario's, then 1)")
    run_p.add_argument("--out", required=True, help="report output path")
    run_p.add_argument("--trace", default=None, help="forwarding trace output path")
    run_p.add_argument("--window-us", type=int, default=DEFAULT_WINDOW_US,
                       help="HTTP coalescing window override")
    run_p.add_argument("--ideal-control", action="store_true",
                       help="deliver control messages instantly at zero byte cost")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="check a topology document")
    val_p.add_argument("topology", help="topology JSON path")
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
