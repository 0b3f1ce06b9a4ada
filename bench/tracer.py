"""In-memory span tracer that wraps the package's functions from outside.

A span records its name, start, end and the span that caused it (the
innermost open span on the same thread). Spans stay in memory and are
written out once, when the run ends. A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Functions are wrapped where their callers look them up: every
`wsdetect` module attribute that is the original function object is
replaced, so `from x import f` copies are caught too. Methods are
wrapped on their class.
"""

from __future__ import annotations

import functools
import gc
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    counts: dict | None = None  # work done in this call, e.g. {"packets": 512}


class Tracer:
    """Records spans while `enabled`; when disabled, the wrappers call
    straight through, so traced and untraced operations can alternate."""

    def __init__(self):
        self.spans: list[Span] = []
        self.gc_pause_s = 0.0
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._gc_started = 0.0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, count=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = count(args, result) if count is not None and result is not None else None
            self.spans.append(Span(sid, parent, name, start, end, counts))

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        return self.call(name, fn, args, kwargs)

    def _wrapper(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def wrap_function(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        traced = self._wrapper(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "wsdetect" and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)

    def wrap_method(self, cls, attr: str, name: str, count=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrapper(name, raw.__func__, count)))
        else:
            setattr(cls, attr, self._wrapper(name, raw, count))

    def _on_gc(self, phase, info):
        if not self.enabled:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started

    def start_gc_timing(self) -> None:
        gc.callbacks.append(self._on_gc)

    def to_json(self) -> dict:
        return {"spans": [[s.sid, s.parent, s.name, s.start, s.end, s.counts]
                          for s in self.spans],
                "gc_pause_s": self.gc_pause_s}


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end))
                  for c in children[s.sid] if c.end > s.start and c.start < s.end]
        entry = out[s.name]
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += (s.end - s.start) - covered(inside)
    return dict(out)


def install_package_hooks(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the per-layer metrics name."""
    from wsdetect.flowmeter import features, flows, pcapfile
    from wsdetect.inspector import daemon, pipeline
    from wsdetect.rulelang import matcher
    from wsdetect.srcmodel import OpcodeCnn
    from wsdetect.tensornet import optim, train
    from wsdetect.trafficmodel import TabularDataset, TabularDnn
    import wsdetect.opcode as opcode

    def rows(args, result):
        inputs = args[1]
        first = inputs[0] if isinstance(inputs, tuple) else inputs
        return {"rows": len(first)}

    tracer.wrap_function(pcapfile, "read_pcap", "flowmeter.read_pcap",
                         lambda a, r: {"packets": len(r.packets), "skipped": r.skipped})
    tracer.wrap_function(flows, "assemble_flows", "flowmeter.assemble_flows",
                         lambda a, r: {"flows": len(r)})
    tracer.wrap_function(features, "compute_features", "flowmeter.compute_features")
    tracer.wrap_method(TabularDataset, "from_records", "trafficmodel.from_records")
    tracer.wrap_method(TabularDnn, "prepare", "trafficmodel.prepare")
    tracer.wrap_method(TabularDnn, "forward", "trafficmodel.dnn_forward", rows)
    tracer.wrap_method(TabularDnn, "backward", "trafficmodel.dnn_backward")
    tracer.wrap_function(pipeline, "inspect_pcap", "inspector.inspect_pcap")
    tracer.wrap_function(pipeline, "inspect_flows", "inspector.inspect_flows",
                         lambda a, r: {"alerts": len(r.alerts)})
    tracer.wrap_function(pipeline, "write_rules", "inspector.write_rules")
    tracer.wrap_function(pipeline, "emit_eve", "inspector.emit_eve")
    tracer.wrap_method(daemon.InspectorDaemon, "handle_request",
                       "inspector.daemon.handle_request")
    tracer.wrap_method(matcher.CompiledRuleSet, "__init__", "rulelang.compile")
    tracer.wrap_function(matcher, "match_buffer", "rulelang.match",
                         lambda a, r: {"bytes": len(a[1]), "hit_files": int(bool(r))})
    tracer.wrap_function(opcode, "parse_listing", "opcode.parse_listing",
                         lambda a, r: {"bytes": len(a[0])})
    tracer.wrap_function(opcode, "oiva", "opcode.oiva")
    tracer.wrap_method(OpcodeCnn, "forward", "srcmodel.cnn_forward", rows)
    tracer.wrap_method(OpcodeCnn, "backward", "srcmodel.cnn_backward")
    tracer.wrap_function(optim, "adam_step", "tensornet.adam_step")
    tracer.wrap_function(train, "fit", "tensornet.fit")
    tracer.start_gc_timing()


# Per-layer metric name -> unit. Self times and counts are per workload
# operation (see README.md); rates are work over the layer's own time.
LAYER_METRICS = {
    "flowmeter.read_pcap.self_ms": "ms",
    "flowmeter.read_pcap.pkts_per_s": "1/s",
    "flowmeter.read_pcap.skipped": "count",
    "flowmeter.assemble_flows.self_ms": "ms",
    "flowmeter.assemble_flows.flows": "count",
    "flowmeter.compute_features.self_ms": "ms",
    "flowmeter.compute_features.flows_per_s": "1/s",
    "trafficmodel.from_records.self_ms": "ms",
    "trafficmodel.prepare.self_ms": "ms",
    "trafficmodel.dnn_forward.self_ms": "ms",
    "trafficmodel.dnn_forward.rows_per_call": "count",
    "trafficmodel.dnn_backward.self_ms": "ms",
    "inspector.inspect_flows.self_ms": "ms",
    "inspector.alerts": "count",
    "inspector.write_rules.self_ms": "ms",
    "inspector.write_rules.file_rules": "count",
    "inspector.emit_eve.self_ms": "ms",
    "inspector.daemon.handle_ms": "ms",
    "inspector.daemon.wait_ms": "ms",
    "inspector.daemon.errors": "count",
    "rulelang.compile.calls": "count",
    "rulelang.compile.self_ms": "ms",
    "rulelang.match.self_ms": "ms",
    "rulelang.match.mb_per_s": "MB/s",
    "rulelang.match.hit_files": "count",
    "opcode.parse_listing.self_ms": "ms",
    "opcode.oiva.self_ms": "ms",
    "opcode.parse.mb_per_s": "MB/s",
    "srcmodel.cnn_forward.self_ms": "ms",
    "srcmodel.cnn_forward.rows_per_call": "count",
    "srcmodel.cnn_forward.samples_per_s": "1/s",
    "srcmodel.cnn_backward.self_ms": "ms",
    "tensornet.adam_step.self_ms": "ms",
    "tensornet.fit.self_ms": "ms",
    "python.gc_pause_ms": "ms",
    "trace.overhead_pct": "%",
}


OP_ROOTS = ("bench.op", "inspector.daemon.handle_request")


def op_spans(spans: list[Span]) -> list[Span]:
    """The spans that ran inside a workload operation: those whose root
    span is one of OP_ROOTS. Set-up calls between operations drop out."""
    by_id = {s.sid: s for s in spans}
    roots: dict[int, str] = {}

    def root_name(span: Span) -> str:
        chain = []
        while span.sid not in roots and span.parent in by_id:
            chain.append(span.sid)
            span = by_id[span.parent]
        name = roots.get(span.sid, span.name)
        for sid in chain + [span.sid]:
            roots[sid] = name
        return name

    return [s for s in spans if root_name(s) in OP_ROOTS]


def layer_metrics(trace: dict, ops: int, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer values from one traced phase's `Tracer.to_json()`.

    `ops` is the number of workload operations the phase completed;
    `extra` supplies the values measured outside the tracer (daemon
    timings, rule-file size, tracing overhead). A layer that did no work
    on this workload reports 0.
    """
    spans = op_spans([Span(*s) for s in trace["spans"]])
    times = layer_times(spans)
    counts: dict[str, float] = defaultdict(float)
    for s in spans:
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value
    ops = max(ops, 1)

    def self_ms(name):
        return 1000.0 * times.get(name, {}).get("self_s", 0.0) / ops

    def rate(amount, name, key="self_s"):
        seconds = times.get(name, {}).get(key, 0.0)
        return amount / seconds if seconds > 0 else 0.0

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    out = {name: 0.0 for name in LAYER_METRICS}
    for name in LAYER_METRICS:
        if name.endswith(".self_ms"):
            out[name] = self_ms(name[:-len(".self_ms")])
    out.update({
        "flowmeter.read_pcap.pkts_per_s": rate(
            counts.get("flowmeter.read_pcap.packets", 0), "flowmeter.read_pcap"),
        "flowmeter.read_pcap.skipped": counts.get("flowmeter.read_pcap.skipped", 0) / ops,
        "flowmeter.assemble_flows.flows": counts.get("flowmeter.assemble_flows.flows", 0) / ops,
        "flowmeter.compute_features.flows_per_s": rate(
            calls("flowmeter.compute_features"), "flowmeter.compute_features"),
        "trafficmodel.dnn_forward.rows_per_call": (
            counts.get("trafficmodel.dnn_forward.rows", 0)
            / max(calls("trafficmodel.dnn_forward"), 1)),
        "inspector.alerts": counts.get("inspector.inspect_flows.alerts", 0) / ops,
        "rulelang.compile.calls": calls("rulelang.compile") / ops,
        "rulelang.match.mb_per_s": rate(
            counts.get("rulelang.match.bytes", 0) / 1e6, "rulelang.match"),
        "rulelang.match.hit_files": counts.get("rulelang.match.hit_files", 0) / ops,
        "opcode.parse.mb_per_s": rate(
            counts.get("opcode.parse_listing.bytes", 0) / 1e6, "opcode.parse_listing"),
        "srcmodel.cnn_forward.rows_per_call": (
            counts.get("srcmodel.cnn_forward.rows", 0)
            / max(calls("srcmodel.cnn_forward"), 1)),
        "srcmodel.cnn_forward.samples_per_s": rate(
            counts.get("srcmodel.cnn_forward.rows", 0), "srcmodel.cnn_forward", "total_s"),
        "python.gc_pause_ms": 1000.0 * trace["gc_pause_s"] / ops,
    })
    out.update(extra)
    return out
