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


class LoggingSimulation(IcnSimulation):
    """Keeps, per client, each first arrival its delivery hooks see, as
    ("src->dst", payload length); the simulation itself keeps only
    per-flow totals."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.arrivals: dict[int, list[tuple[str, int]]] = {}

    def _log(self, client: int, ip) -> None:
        if ip.id in self.send_time:  # a later copy only counts a duplicate
            self.arrivals.setdefault(client, []).append((f"{ip.src}->{ip.dst}", ip.size))

    def note_ip_delivered(self, client, ip) -> None:
        self._log(client, ip)
        super().note_ip_delivered(client, ip)

    def note_peer_emitted(self, client, ip) -> None:
        self._log(client, ip)
        super().note_peer_emitted(client, ip)


def main() -> None:
    topo = load_topology_doc((DATA / "small.json").read_text(), seed=1)
    scenario = load_scenario((DATA / "small_scenario.json").read_text())

    rows: list[str] = []
    sim = LoggingSimulation(topo, scenario, trace=rows.append)
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
    for row in rows[:8]:
        print(" ", row)

    print()
    print("device logs stay pure IP:")
    for client, gw in sorted(sim.gateways.items()):
        got = sim.arrivals.get(client)
        if got and isinstance(gw, Nap):
            print(f"  NAP {client}: {[f'{flow} ({size}B)' for flow, size in got]}")
        elif got:
            print(f"  border {client} relayed: {[flow for flow, _ in got]}")


if __name__ == "__main__":
    main()
