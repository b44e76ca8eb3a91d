"""Host-time benchmark for ipicn: how long a user waits, and how much memory
a run needs, to replay one scenario through the ICN core and the plain-IP
baseline.

    python3 perfbench/run.py --workload unicast_mesh --seed 7 --seconds 30
    python3 perfbench/run.py --workload all                # every workload
    python3 perfbench/run.py --workload http_churn --trace 1

The benchmark generates the workload's topology and scenario documents from
the seed (workloads.py) and hands only that JSON text to fresh interpreters
(worker.py), one at a time, until `--seconds` have passed. With `--trace 0`
it reports the end-to-end metrics; with `--trace 1` it runs the traced and
memory passes and reports the per-layer metrics. Every run checks the
answers (see `check_answers`); the last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Inputs, attempted_ops, expected_deliveries, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "digests.json"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
LOADS_PER_WORKER = 5
WORKER_TIMEOUT_S = 150
MODES = ("icn", "ip")
# Host speed on a shared machine drifts by tens of percent within minutes,
# for every process alike. Each timed process therefore also times a fixed
# probe (worker.host_probe) before and after its work, and end-to-end times
# are scaled to a host on which the probe takes PROBE_REFERENCE_S. Runs made
# while the host was fast or slow then compare; unscaled medians are printed.
PROBE_REFERENCE_S = 0.0175

END_TO_END = {
    "setup_s": "s",
    "icn_run_s": "s",
    "ip_run_s": "s",
    "icn_peak_rss_mb": "MB",
    "ip_peak_rss_mb": "MB",
}

_LAYER_BASE = {"calls": "count", "self_s": "s", "retained_mb": "MB"}
_LAYERS_BY_MODE = {
    "icn": ("names", "rendezvous", "topology", "forwarding", "gateways", "simnet"),
    # the baseline never names, matches or mask-forwards anything
    "ip": ("topology", "gateways", "simnet"),
}
_EXTRAS_BY_MODE = {
    "icn": {
        "topology.dijkstra_per_match": "ratio",
        "rendezvous.match_events": "count",
        "rendezvous.events_per_op": "ratio",
        "names.render_name_calls": "count",
        "forwarding.copies": "count",
        "forwarding.off_tree_pct": "%",
        "gateways.fp_rx_pct": "%",
        "simnet.events": "count",
        "simnet.queue_peak": "count",
        "simnet.report_s": "s",
    },
    "ip": {
        "simnet.events": "count",
        "simnet.queue_peak": "count",
        "simnet.report_s": "s",
    },
}


def _per_layer() -> dict[str, str]:
    metrics = {}
    for mode in MODES:
        for layer in _LAYERS_BY_MODE[mode]:
            for quantity, unit in _LAYER_BASE.items():
                metrics[f"{mode}.{layer}.{quantity}"] = unit
        for name, unit in _EXTRAS_BY_MODE[mode].items():
            metrics[f"{mode}.{name}"] = unit
        metrics[f"{mode}.heap_peak_mb"] = "MB"
        metrics[f"{mode}.trace_overhead_pct"] = "%"
    # the baseline enters simnet only through run() and the report, so this
    # count is the same constant on every input
    del metrics["ip.simnet.calls"]
    return metrics


PER_LAYER = _per_layer()


class WorkerError(RuntimeError):
    """A measured pass crashed or produced no result."""


def spawn(job: dict, hash_seed: int) -> dict:
    """Run one pass in a fresh interpreter and return its result; the
    child is always waited for, and killed if it outlives the timeout."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"{job['pass']} pass ({job['mode']}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _job(inputs: Inputs, mode: str, kind: str, loads: int = 1, **extra) -> dict:
    return {"pass": kind, "mode": mode, "loads": loads,
            "topology_text": inputs.topology_text,
            "scenario_text": inputs.scenario_text, **extra}


def measure_rounds(seconds: float, one_round) -> int:
    """Call `one_round(index)` until the next round would overrun the time
    budget (always at least once); returns the number of rounds run."""
    deadline = time.monotonic() + seconds
    longest = 0.0
    rounds = 0
    while rounds == 0 or time.monotonic() + longest <= deadline:
        began = time.monotonic()
        one_round(rounds)
        longest = max(longest, time.monotonic() - began)
        rounds += 1
    return rounds


# -- correctness -----------------------------------------------------------


def load_pins() -> dict:
    return json.loads(PINNED.read_text()) if PINNED.exists() else {}


def check_answers(
    inputs: Inputs, results: dict[str, list[dict]], pins: dict
) -> tuple[list[str], int]:
    """Problems found in one run's reports, and how many ICN operations
    were not delivered exactly once (summed over the run's ICN reports).

    Every report must deliver each routable IP packet and each fetch once
    (so ICN and baseline agree flow by flow), all reports of one mode must
    be byte-identical, and for the pinned seed they must hash to the
    pinned digests.
    """
    expected = expected_deliveries(inputs)
    problems: list[str] = []
    missed = 0
    for mode in MODES:
        digests = {r["digest"] for r in results[mode]}
        if len(digests) != 1:
            problems.append(f"{mode} reports differ between passes: {sorted(digests)}")
        pinned = pins.get(inputs.workload, {}).get(mode)
        if inputs.seed == DEFAULT_SEED and pinned is not None and pinned not in digests:
            problems.append(f"{mode} digest {sorted(digests)} != pinned {pinned}")
        for r in results[mode]:
            got = {k: v for k, v in r["delivered"].items() if k.startswith(("ip:", "http:"))}
            wrong = {k for k in expected.keys() | got.keys() if got.get(k, 0) != expected[k]}
            if wrong:
                problems.append(f"{mode} deliveries differ from the scenario on "
                                f"{len(wrong)} flows, e.g. {sorted(wrong)[:3]}")
            if mode == "icn":
                missed += sum(min(expected[k], abs(got.get(k, 0) - expected[k]))
                              for k in wrong)
    icn_ip = [{k: v for k, v in r["delivered"].items() if k.startswith("ip:")}
              for r in results["icn"]]
    ip_ip = [{k: v for k, v in r["delivered"].items() if k.startswith("ip:")}
             for r in results["ip"]]
    if any(a != b for a in icn_ip for b in ip_ip):
        problems.append("ICN and baseline deliver different ip:* counts")
    return problems, missed


def model_outputs(icn: dict, ip: dict) -> str:
    """Simulated KPIs, printed for information: the inputs fix them."""
    base_links = ip["link_data_bytes"]
    bottleneck = max(sorted(base_links), key=base_links.get)
    icn_bytes = icn["link_data_bytes"][bottleneck]
    savings = base_links[bottleneck] / icn_bytes if icn_bytes else float("inf")

    def mean_latency_ms(r: dict) -> float:
        lat = r["latency_us"].values()
        return sum(lat) / len(lat) / 1000 if lat else 0.0

    return (
        f"bottleneck {bottleneck} savings x{savings:.3f}; signalling overhead "
        f"icn {icn['totals']['signalling_overhead_pct']}% "
        f"ip {ip['totals']['signalling_overhead_pct']}%; mean flow latency "
        f"icn {mean_latency_ms(icn):.3f} ms ip {mean_latency_ms(ip):.3f} ms"
    )


# -- the two kinds of run --------------------------------------------------


def timed_run(inputs: Inputs, seconds: float) -> tuple[dict, dict]:
    """End-to-end pass: alternate fresh ICN and baseline processes."""
    results: dict[str, list[dict]] = {mode: [] for mode in MODES}

    def one_round(index: int) -> None:
        for k, mode in enumerate(MODES):
            job = _job(inputs, mode, "time", loads=LOADS_PER_WORKER)
            results[mode].append(spawn(job, hash_seed=2 * index + k + 1))

    measure_rounds(seconds, one_round)
    every = [r for mode in MODES for r in results[mode]]
    times = {"setup_s": [(r, s) for r in every for s in r["load_s"]]}
    for mode in MODES:
        times[f"{mode}_run_s"] = [(r, r["run_s"]) for r in results[mode]]
    values, unscaled = {}, {}
    for name, pairs in times.items():
        values[name] = statistics.median(s * PROBE_REFERENCE_S / r["probe_s"] for r, s in pairs)
        unscaled[name] = statistics.median(s for _, s in pairs)
    for mode in MODES:
        values[f"{mode}_peak_rss_mb"] = statistics.median(r["rss_mb"] for r in results[mode])
    samples = {"setup_s": len(times["setup_s"]), **{
        f"{mode}_{what}": len(results[mode]) for mode in MODES
        for what in ("run_s", "peak_rss_mb")
    }}
    return values, {"results": results, "samples": samples, "unscaled": unscaled}


def traced_run(inputs: Inputs, seconds: float, spans_dir: Path | None) -> tuple[dict, dict]:
    """Per-layer pass: untraced and traced processes per mode each round,
    and one tracemalloc process per mode."""
    results: dict[str, list[dict]] = {mode: [] for mode in MODES}
    plain: dict[str, list[float]] = {mode: [] for mode in MODES}
    traced: dict[str, list[dict]] = {mode: [] for mode in MODES}
    memory: dict[str, dict] = {}
    began = time.monotonic()
    for k, mode in enumerate(MODES):
        memory[mode] = spawn(_job(inputs, mode, "memory"), hash_seed=k + 1)
        results[mode].append(memory[mode])

    def one_round(index: int) -> None:
        for k, mode in enumerate(MODES):
            seed = 2 * index + k + 1
            untraced = spawn(_job(inputs, mode, "time"), hash_seed=seed)
            spans = None
            if spans_dir is not None:
                spans = str(spans_dir / f"{inputs.workload}-{inputs.seed}-{mode}-{index}.csv")
            trace = spawn(_job(inputs, mode, "trace", spans=spans), hash_seed=seed)
            plain[mode].append(untraced["run_s"])
            traced[mode].append(trace)
            results[mode] += [untraced, trace]

    rounds = measure_rounds(seconds - (time.monotonic() - began), one_round)
    values: dict[str, float] = {}
    for mode in MODES:
        layers = traced[mode]
        for name in layers[0]["layers"]:
            values[f"{mode}.{name}"] = statistics.median_low(r["layers"][name] for r in layers)
        for layer, mb in memory[mode]["retained_mb"].items():
            values[f"{mode}.{layer}.retained_mb"] = mb
        values[f"{mode}.heap_peak_mb"] = memory[mode]["heap_peak_mb"]
        traced_s = statistics.median(r["run_s"] for r in layers)
        plain_s = statistics.median(plain[mode])
        values[f"{mode}.trace_overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    wanted = {name: values[name] for name in PER_LAYER if name in values}
    samples = {name: 1 if name.endswith(("retained_mb", "heap_peak_mb")) else rounds
               for name in wanted}
    return wanted, {"results": results, "samples": samples}


# -- command line ----------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spans_dir: Path | None) -> dict:
    inputs = generate(workload, seed)
    if trace:
        values, info = traced_run(inputs, seconds, spans_dir)
        units = PER_LAYER
    else:
        values, info = timed_run(inputs, seconds)
        units = END_TO_END
    results = info["results"]
    pins = load_pins()
    problems, missed = check_answers(inputs, results, pins)
    attempted = attempted_ops(inputs) * len(results["icn"])
    failed = attempted if problems else missed

    print(f"== {workload} seed={seed} trace={int(trace)} (closed loop, one process at a time)")
    for name, unit in units.items():
        if name in values:
            value = values[name]
            shown = f"{value:.6f}" if isinstance(value, float) else str(value)
            note = f"median of {info['samples'][name]}"
            if name in info.get("unscaled", {}):
                note += f"; unscaled {info['unscaled'][name]:.6f} {unit}"
            print(f"{name:<36} {shown:>14} {unit:<6} ({note})")
        else:
            print(f"{name:<36} {'absent':>14} {unit:<6} (not found in this program)")
    icn, ip = results["icn"][0], results["ip"][0]
    for mode, r in (("icn", icn), ("ip", ip)):
        pinned = pins.get(workload, {}).get(mode) if seed == DEFAULT_SEED else None
        state = "not pinned for this seed" if pinned is None else (
            "matches pin" if pinned == r["digest"] else "DIFFERS FROM PIN")
        print(f"digest {mode} sha1={r['digest']} ({state})")
    print(f"model (information only): {model_outputs(icn, ip)}")
    print(f"operations attempted={attempted} failed={failed}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }


def _sources_present() -> bool:
    return (ROOT / "src" / "ipicn" / "__init__.py").is_file()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer pass instead of end-to-end")
    parser.add_argument("--spans", type=Path, default=None,
                        help="directory to write each traced run's spans to (CSV)")
    args = parser.parse_args(argv)
    if not _sources_present():
        print(f"error: no ipicn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.spans is not None:
        args.spans.mkdir(parents=True, exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outcomes = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), args.spans)
                    for w in workloads}
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(outcomes) == 1:
        result = next(iter(outcomes.values()))
    else:
        result = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}.{name}": m for w, o in outcomes.items()
                        for name, m in o["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
