"""A complete run: legacy devices talking IP over the publish/subscribe core.

Two NAPs and a border gateway sit on a five-node operator network. Devices
attach, send packets to each other and to the outside world, and an
external sender reaches an internal device through the border gateway.
The report shows byte counters per link, per-flow latency and the
signalling share of total traffic.
"""

from pathlib import Path

from ipicn import IcnSimulation, Nap, load_scenario, load_topology_doc

DATA = Path(__file__).parent / "data"


def main() -> None:
    topo = load_topology_doc((DATA / "small.json").read_text(), seed=1)
    scenario = load_scenario((DATA / "small_scenario.json").read_text())

    sim = IcnSimulation(topo, scenario, collect_trace=True)
    report = sim.run()

    print("== per-flow results ==")
    for flow, stats in sorted(report.flows.items()):
        print(f"{flow:36} delivered={stats['delivered']}"
              f" latency={stats['latency_us']}us jitter={stats['jitter_us']}us")

    print()
    print("== busiest links ==")
    busy = sorted(
        report.per_link.items(),
        key=lambda kv: -(kv[1]["data_bytes"] + kv[1]["control_bytes"]),
    )[:5]
    for key, counters in busy:
        print(f"{key:8} data={counters['data_bytes']:6}B"
              f" control={counters['control_bytes']:5}B")

    print()
    totals = report.totals
    print(f"totals: data={totals['data_bytes']}B control={totals['control_bytes']}B"
          f" signalling={totals['signalling_overhead_pct']}%")
    print(f"counters: { {k: v for k, v in report.counters.items() if v} or 'all zero' }")

    print()
    print("== first forwarding decisions (time_us,node,event,link,bytes,name) ==")
    for row in sim.trace[:8]:
        print(" ", row)

    print()
    print("device logs stay pure IP:")
    # one payload-free record per delivered packet: its flow names the
    # addresses ("ip:src->dst") and its size is the payload length
    for client, gw in sorted(sim.gateways.items()):
        got = [d for d in sim.deliveries if d.client == client and d.packet_id is not None]
        if got and isinstance(gw, Nap):
            print(f"  NAP {client}: {[f'{d.flow[3:]} ({d.size}B)' for d in got]}")
        elif got:
            print(f"  border {client} relayed: {[d.flow[3:] for d in got]}")


if __name__ == "__main__":
    main()
