"""Outside-in per-layer tracer for one simulation run.

The tracer wraps each layer's entry points from outside the program: the
public functions of each `ipicn` module and the public methods of the
classes it defines. A wrapped name is rebound at every place that holds
it, including modules that imported it by name (`simnet` binds `dijkstra`,
`forward`, `render_name`, `synth_bytes` and others that way), and every
attribute is put back on exit.

Each call of a wrapped entry point records one span (entry point, start,
end, parent span) in flat arrays; nothing is summed until the run is over.
A layer's self time is its spans' time minus the time of the spans they
directly contain, so the layers' self times add up to the root span, which
the caller opens around the whole run and charges to `simnet`.

Entry points the program no longer has are skipped, and the metrics built
from them are left out of the summary instead of failing.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable

PACKAGE = "ipicn"
LAYERS = ("names", "rendezvous", "topology", "forwarding", "gateways", "simnet")

# One-line accessors and tests called from inside a layer's own loops:
# wrapping them would cost more than the work, so they count as their
# caller's time. Properties (`NsId.hex`, `IcnPacket.wire_size`) are never
# wrapped at all. The event queue's push and pop are counted, not spanned.
TRIVIAL = {
    "topology": {"NetworkGraph.link", "NetworkGraph.out_links"},
    "forwarding": {"lid_matches"},
    "simnet": {"IcnSimulation.now_us", "_EventQueue.push", "_EventQueue.pop"},
}

# Non-public methods that the event queue calls directly, or that build
# the report, and so would otherwise be charged to the wrong layer.
EXTRA = {
    "gateways": {"Nap._close_exchange"},
    "simnet": {"_AccountingMixin._build_report"},
}

# entry point -> counter that the length (or presence) of its result feeds
RESULT_COUNTERS = {
    "forwarding": {"forward": "forwarding.copies"},
    "rendezvous": {
        "Rendezvous.subscribe": "rendezvous.match_events",
        "Rendezvous.unsubscribe": "rendezvous.match_events",
        "Rendezvous.publish_availability": "rendezvous.match_events",
        "Rendezvous.unpublish": "rendezvous.match_events",
    },
}

RV_STATE_CHANGES = (
    "Rendezvous.subscribe", "Rendezvous.unsubscribe",
    "Rendezvous.publish_availability", "Rendezvous.unpublish",
)
REPORT_ENTRY_POINTS = ("_AccountingMixin._build_report", "KpiReport.to_canonical_json")
GATEWAY_RECEIVERS = ("Nap.on_icn_data", "BorderGateway.on_icn_data")


def _result_size(result) -> int:
    if result is None:
        return 0
    if isinstance(result, list):
        return len(result)
    return 1


def entry_points(module) -> list[tuple[str, object, str, Callable]]:
    """(qualified name, owner, attribute, function) for every entry point
    of one layer module that the tracer wraps."""
    layer = module.__name__.rsplit(".", 1)[-1]
    skip = TRIVIAL.get(layer, set())
    extra = EXTRA.get(layer, set())
    found = []
    for name, value in sorted(vars(module).items()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and not name.startswith("_") and name not in skip:
            found.append((name, module, name, value))
        elif inspect.isclass(value):
            for attr, member in sorted(vars(value).items()):
                qual = f"{name}.{attr}"
                public = not attr.startswith("_")
                if inspect.isfunction(member) and (public or qual in extra) and qual not in skip:
                    found.append((qual, value, attr, member))
    return found


class Tracer:
    """Spans and counters for one traced run; install with `installed()`."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # entry index -> (layer, qualname)
        self.span_entry = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter[str] = Counter()
        self.queue_depth = 0
        self.queue_peak = 0
        self.root_s = 0.0
        self._current = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, index: int, fn: Callable, counter: str | None) -> Callable:
        entry, parent, start, end = (
            self.span_entry, self.span_parent, self.span_start, self.span_end
        )
        current, clock, counters = self._current, time.perf_counter, self.counters

        def traced(*args, **kwargs):
            span = len(entry)
            entry.append(index)
            parent.append(current[0])
            end.append(0.0)
            current[0] = span
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                current[0] = parent[span]
            if counter is not None:
                counters[counter] += _result_size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_queue(self, owner) -> None:
        """Count event-queue pushes and pops without spans: the queue is
        simnet's own, so its time stays simnet's."""
        push, pop = owner.push, owner.pop
        tracer = self

        def counted_push(queue, *args, **kwargs):
            tracer.queue_depth += 1
            if tracer.queue_depth > tracer.queue_peak:
                tracer.queue_peak = tracer.queue_depth
            return push(queue, *args, **kwargs)

        def counted_pop(queue, *args, **kwargs):
            tracer.queue_depth -= 1
            tracer.counters["simnet.events"] += 1
            return pop(queue, *args, **kwargs)

        self._patch(owner, "push", counted_push)
        self._patch(owner, "pop", counted_pop)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers: dict[int, tuple[Callable, Callable]] = {}  # id(original) -> pair
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for qual, owner, attr, fn in entry_points(module):
                counter = RESULT_COUNTERS.get(layer, {}).get(qual)
                wrapper = self._wrap(len(self.names), fn, counter)
                self.names.append((layer, qual))
                self._patch(owner, attr, wrapper)
                if owner is module:
                    wrappers[id(fn)] = (fn, wrapper)
            queue = getattr(module, "_EventQueue", None)
            if layer == "simnet" and hasattr(queue, "push") and hasattr(queue, "pop"):
                self._count_queue(queue)
        # rebind functions at every module that imported them by name
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def root(self):
        """The span around the whole run; time no layer claims is simnet's."""
        index = len(self.names)
        self.names.append(("simnet", "<run>"))
        span = len(self.span_entry)
        self.span_entry.append(index)
        self.span_parent.append(self._current[0])
        self.span_end.append(0.0)
        self._current[0] = span
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[span] = time.perf_counter()
            self._current[0] = self.span_parent[span]
            self.root_s = self.span_end[span] - self.span_start[span]

    # -- results ----------------------------------------------------------

    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every span as (layer, start, end, parent index), in start order."""
        return [
            (self.names[e][0], s, t, p)
            for e, s, t, p in zip(
                self.span_entry, self.span_start, self.span_end, self.span_parent
            )
        ]

    def write_spans(self, path: str) -> None:
        """Write every span as CSV: layer, start and end (perf_counter
        seconds) and the index of the parent span (-1 for the root)."""
        with open(path, "w") as out:
            out.write("layer,start_s,end_s,parent\n")
            out.writelines(f"{l},{s!r},{e!r},{p}\n" for l, s, e, p in self.spans())

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time, plus the layer counters whose
        entry points exist in the traced program."""
        entry_layer = [layer for layer, _ in self.names]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls_by_entry = [0] * len(self.names)
        time_by_entry = [0.0] * len(self.names)
        for e, s, t, p in zip(
            self.span_entry, self.span_start, self.span_end, self.span_parent
        ):
            took = t - s
            calls_by_entry[e] += 1
            time_by_entry[e] += took
            self_s[entry_layer[e]] += took
            if p >= 0:
                self_s[entry_layer[self.span_entry[p]]] -= took
        by_name = {qual: i for i, (_, qual) in enumerate(self.names)}

        def calls(qual: str) -> int | None:
            i = by_name.get(qual)
            return None if i is None else calls_by_entry[i]

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = sum(
                c for c, (l, q) in zip(calls_by_entry, self.names)
                if l == layer and not q.startswith("<")
            )
        dijkstra, matches = calls("dijkstra"), calls("handle_match")
        if dijkstra is not None and matches:
            out["topology.dijkstra_per_match"] = dijkstra / matches
        rv_ops = [calls(q) for q in RV_STATE_CHANGES]
        if None not in rv_ops:
            events = self.counters["rendezvous.match_events"]
            out["rendezvous.match_events"] = events
            if sum(rv_ops):
                out["rendezvous.events_per_op"] = events / sum(rv_ops)
        if calls("render_name") is not None:
            out["names.render_name_calls"] = calls("render_name")
        if calls("forward") is not None:
            out["forwarding.copies"] = self.counters["forwarding.copies"]
        receivers = [calls(q) for q in GATEWAY_RECEIVERS]
        if None not in receivers:
            out["gateways.receptions"] = sum(receivers)
        if "simnet.events" in self.counters:
            out["simnet.events"] = self.counters["simnet.events"]
            out["simnet.queue_peak"] = self.queue_peak
        report = [by_name[q] for q in REPORT_ENTRY_POINTS if q in by_name]
        if report:
            out["simnet.report_s"] = sum(time_by_entry[i] for i in report)
        return out
