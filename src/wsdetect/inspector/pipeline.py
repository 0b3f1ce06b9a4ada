"""The detection pipeline: pcap -> flows -> features -> verdicts ->
EVE alerts + generated rules + blacklist updates.

It runs in two halves. `classify_pcap` reads a capture and classifies
its flows into plain `Verdicts` columns; it needs only the model, so the
daemon runs it in worker processes. `inspect_flows` turns verdicts into
alerts, rules and blacklist hits against one `RuleTable`; it holds the
shared state, so the daemon runs it in its own process. `inspect_pcap`
is the two in a row.

Per webshell-classified flow: one alert. Per (source IP, action): one
rule; repeat detections of the same source bump the blacklist counter
and, across rule-file writes, the rule's revision.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from wsdetect.flowmeter import assemble_flows, feature_matrix, read_pcap
from wsdetect.inspector.config import InspectorConfig
from wsdetect.tensornet import load_model
from wsdetect.trafficmodel import TabularDataset, TabularDnn, dnn_predict

RULE_FILE_NAME = "webshell-generated.rules"
ALERT_SIGNATURE = "Webshell Attacking"
ALERT_CATEGORY = "Webshell"

_PROTO_NAMES = {6: "TCP", 17: "UDP"}


class InspectorError(Exception):
    pass


@dataclass(frozen=True)
class Alert:
    """EVE-style alert for one webshell-classified flow."""

    timestamp_us: int
    src_ip: str
    src_port: int
    dest_ip: str
    dest_port: int
    proto: str
    signature_id: int
    p_webshell: float

    def to_eve(self) -> dict:
        stamp = datetime.fromtimestamp(
            self.timestamp_us / 1e6, tz=timezone.utc)
        return {
            "timestamp": stamp.strftime("%Y-%m-%dT%H:%M:%S.%f%z"),
            "event_type": "alert",
            "src_ip": self.src_ip,
            "src_port": self.src_port,
            "dest_ip": self.dest_ip,
            "dest_port": self.dest_port,
            "proto": self.proto,
            "alert": {
                "category": ALERT_CATEGORY,
                "severity": 1,
                "signature": ALERT_SIGNATURE,
                "signature_id": self.signature_id,
            },
            "p_webshell": round(self.p_webshell, 6),
        }


@dataclass
class GeneratedRule:
    action: str  # "drop" | "alert"
    src_ip: str
    sid: int
    rev: int = 1
    msg: str = ALERT_SIGNATURE

    def render(self) -> str:
        return (f'{self.action} ip {self.src_ip} any -> $HOME_NET any '
                f'(msg:"{self.msg}"; classtype:web-application-attack; '
                f'sid:{self.sid}; rev:{self.rev};)')


_RULE_LINE = re.compile(
    r'^(?P<action>drop|alert|reject|pass) ip (?P<src>\S+) any -> \$HOME_NET any '
    r'\(msg:"(?P<msg>[^"]*)"; classtype:web-application-attack; '
    r'sid:(?P<sid>\d+); rev:(?P<rev>\d+);\)$')


def parse_rule_line(line: str) -> GeneratedRule:
    """Inverse of GeneratedRule.render; used to merge rule files."""
    m = _RULE_LINE.match(line.strip())
    if m is None:
        raise InspectorError(f"unparseable rule line: {line!r}")
    return GeneratedRule(action=m.group("action"), src_ip=m.group("src"),
                         sid=int(m.group("sid")), rev=int(m.group("rev")),
                         msg=m.group("msg"))


@dataclass
class BlacklistEntry:
    first_seen: float
    hit_count: int
    expiry: float


@dataclass
class Blacklist:
    """Attack sources with TTL. Expired entries are never reported, and
    each hit or read drops them, so the blacklist holds only the sources
    hit within the last TTL. Safe to share between threads."""

    ttl_s: float = 86_400.0
    # earliest expiry first: every hit moves its source to the end
    entries: OrderedDict[str, BlacklistEntry] = field(default_factory=OrderedDict)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  repr=False, compare=False)

    def hit(self, src_ip: str, now: float | None = None) -> BlacklistEntry:
        now = time.time() if now is None else now
        with self._lock:
            self._evict(now)
            entry = self.entries.get(src_ip)
            if entry is None or entry.expiry <= now:
                entry = BlacklistEntry(first_seen=now, hit_count=0,
                                       expiry=now + self.ttl_s)
                self.entries[src_ip] = entry
            self.entries.move_to_end(src_ip)
            entry.hit_count += 1
            entry.expiry = now + self.ttl_s
            return entry

    def active(self, now: float | None = None) -> dict[str, BlacklistEntry]:
        now = time.time() if now is None else now
        with self._lock:
            self._evict(now)
            return {ip: e for ip, e in self.entries.items() if e.expiry > now}

    def _evict(self, now: float) -> None:
        # a clock that steps back can leave an expired entry behind a
        # live one until that one expires; active() still filters it
        while self.entries and next(iter(self.entries.values())).expiry <= now:
            self.entries.popitem(last=False)


class StubPredictor:
    """Fixed-verdict model stand-in for pipeline tests and dry runs.

    `forced_class` 1 marks every flow webshell; 0 marks everything
    benign. Implements the same predict surface as the trained model.
    """

    def __init__(self, forced_class: int):
        if forced_class not in (0, 1):
            raise ValueError("forced_class must be 0 or 1")
        self.forced_class = forced_class

    def predict(self, dataset: TabularDataset) -> tuple[np.ndarray, np.ndarray]:
        n = len(dataset)
        probs = np.zeros((n, 2))
        probs[:, self.forced_class] = 1.0
        return probs, np.full(n, self.forced_class, dtype=np.intp)


def load_predictor(model_path: str):
    """A model path, or "stub"/"stub:webshell"/"stub:benign" for the
    fixed-verdict predictor."""
    if model_path in ("stub", "stub:webshell"):
        return StubPredictor(forced_class=1)
    if model_path == "stub:benign":
        return StubPredictor(forced_class=0)
    return load_model(model_path, expect=TabularDnn)


def _predict(model, dataset: TabularDataset):
    if isinstance(model, TabularDnn):
        return dnn_predict(model, dataset)
    return model.predict(dataset)


@dataclass
class Verdicts:
    """The flows of one capture, classified: one entry per flow in flow
    order in each column, plus the capture's packet counters. Plain
    lists, so a worker process pickles them cheaply."""

    src_ip: list[str]
    src_port: list[int]
    dst_ip: list[str]
    dst_port: list[int]
    protocol: list[int]
    first_ts: list[int]
    p_webshell: list[float]
    cls: list[int]
    packets: int = 0
    skipped_packets: int = 0
    fragments: int = 0


def classify_pcap(pcap_path: str | Path, model) -> Verdicts:
    """read_pcap -> assemble_flows -> feature_matrix -> predict."""
    capture = read_pcap(pcap_path)
    flows = assemble_flows(capture.packets)
    p_webshell, classes = [], []
    if flows:
        dataset = TabularDataset(
            [(flow.dst_port, flow.protocol) for flow in flows],
            feature_matrix(flows), np.zeros(len(flows), np.intp))
        probs, predicted = _predict(model, dataset)
        p_webshell, classes = probs[:, 1].tolist(), predicted.tolist()
    return Verdicts(
        [flow.src_ip for flow in flows], [flow.src_port for flow in flows],
        [flow.dst_ip for flow in flows], [flow.dst_port for flow in flows],
        [flow.protocol for flow in flows], [flow.first_ts for flow in flows],
        p_webshell, classes, packets=len(capture.packets),
        skipped_packets=capture.skipped, fragments=capture.fragments)


@dataclass
class InspectionResult:
    alerts: list[Alert] = field(default_factory=list)
    rules: list[GeneratedRule] = field(default_factory=list)
    flows: int = 0
    webshell: int = 0
    benign: int = 0
    packets: int = 0          # decoded IPv4 TCP/UDP packets
    skipped_packets: int = 0  # frames that were not IPv4 TCP/UDP, or cut short
    fragments: int = 0        # IPv4 fragments, never part of a flow

    def stats(self, elapsed_ms: float) -> dict:
        return {"flows": self.flows, "webshell": self.webshell,
                "benign": self.benign, "packets": self.packets,
                "skipped_packets": self.skipped_packets,
                "fragments": self.fragments, "ms": round(elapsed_ms, 3)}


class RuleTable:
    """The generated rule file, held in memory.

    `rules` maps each (source IP, action) given a sid to its rule, and
    `next_sid` is one past the highest sid handed out, so sids are
    unique by construction. `write_rules` bumps revisions here and
    renders the file from here; a rule is in the file once it has been
    written (rev >= 1), in the order of its first write. Not locked:
    callers that share a table across threads serialise its use, as the
    daemon does.
    """

    def __init__(self, sid_start: int = 0, rules: list[GeneratedRule] = ()):
        self.rules: dict[tuple[str, str], GeneratedRule] = {}
        # the rendered line of each written rule, in file order
        self.lines: dict[tuple[str, str], str] = {}
        for rule in rules:
            key = (rule.src_ip, rule.action)
            self.rules[key] = rule
            self.lines[key] = rule.render() + "\n"
        self.next_sid = max([sid_start, *(rule.sid + 1 for rule in rules)])

    @classmethod
    def load(cls, rules_dir: str | Path, sid_start: int = 0) -> RuleTable:
        """The table of the rule file under `rules_dir`; empty if there
        is none."""
        path = Path(rules_dir) / RULE_FILE_NAME
        if not path.exists():
            return cls(sid_start)
        return cls(sid_start, [
            parse_rule_line(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")])

    def sid(self, key: tuple[str, str]) -> int:
        """The sid of (source IP, action); a new source takes the next
        free one."""
        rule = self.rules.get(key)
        if rule is None:
            rule = self.rules[key] = GeneratedRule(
                action=key[1], src_ip=key[0], sid=self.next_sid, rev=0)
            self.next_sid += 1
        return rule.sid

    def merge(self, rules: list[GeneratedRule]) -> None:
        """Bump each rule's revision: rev 1 for a source not yet written."""
        for new in rules:
            key = (new.src_ip, new.action)
            self.sid(key)
            rule = self.rules[key]
            if rule.rev == 0:
                rule.msg = new.msg
            rule.rev += 1
            self.lines[key] = rule.render() + "\n"

    def render(self) -> str:
        return "".join(self.lines.values())


def inspect_flows(verdicts: Verdicts, config: InspectorConfig,
                  blacklist: Blacklist | None = None,
                  table: RuleTable | None = None) -> InspectionResult:
    """Alerts and rules for the flows classified 1.

    `table` gives each source its sid, so repeated inspections keep
    stable signature ids, the ones the rule file keeps. Each rule
    carries the sid, rev and msg that writing it to `table` renders.
    """
    result = InspectionResult(
        flows=len(verdicts.cls), packets=verdicts.packets,
        skipped_packets=verdicts.skipped_packets, fragments=verdicts.fragments)
    table = RuleTable(config.sid_start) if table is None else table
    action = config.rule_action
    emitted: dict[tuple[str, str], GeneratedRule] = {}
    for src_ip, src_port, dst_ip, dst_port, proto, first_ts, p, cls in zip(
            verdicts.src_ip, verdicts.src_port, verdicts.dst_ip, verdicts.dst_port,
            verdicts.protocol, verdicts.first_ts, verdicts.p_webshell, verdicts.cls):
        if cls != 1:
            result.benign += 1
            continue
        result.webshell += 1
        key = (src_ip, action)
        rule = emitted.get(key)
        if rule is None:
            # the line the table's next write renders for this source
            table.sid(key)
            held = table.rules[key]
            rule = emitted[key] = GeneratedRule(
                action=action, src_ip=src_ip, sid=held.sid, rev=held.rev + 1,
                msg=held.msg)
        result.alerts.append(Alert(
            timestamp_us=first_ts, src_ip=src_ip, src_port=src_port,
            dest_ip=dst_ip, dest_port=dst_port,
            proto=_PROTO_NAMES.get(proto, str(proto)),
            signature_id=rule.sid, p_webshell=p))
        if blacklist is not None:
            blacklist.hit(src_ip)
    result.rules = list(emitted.values())
    return result


def inspect_pcap(pcap_path: str | Path, model, config: InspectorConfig,
                 blacklist: Blacklist | None = None,
                 table: RuleTable | None = None) -> InspectionResult:
    """Full pipeline for one capture file."""
    return inspect_flows(classify_pcap(pcap_path, model), config,
                         blacklist=blacklist, table=table)


def emit_eve(alerts: list[Alert], sink) -> int:
    """Append one JSON line per alert; returns the number written.

    `sink` is an open text file or a path.
    """
    if isinstance(sink, (str, Path)):
        with open(sink, "a", encoding="utf-8") as fh:
            return emit_eve(alerts, fh)
    for alert in alerts:
        sink.write(json.dumps(alert.to_eve()) + "\n")
    sink.flush()
    return len(alerts)


def write_rules(rules: list[GeneratedRule], rules_dir: str | Path,
                table: RuleTable | None = None) -> Path | None:
    """Write/merge the generated rule file under `rules_dir`.

    Semantics per source: a new (src_ip, action) appends with rev 1 and
    the next free sid; an already-present one keeps its sid and
    increments rev. `table` holds the file's rules; without one, the
    file is read first, and sids are handed out from the lowest sid in
    `rules` up. The file is written whole to a temporary file beside it,
    then moved into place, so a reader sees the old file or the new one,
    never a part. With no rules to write the file is left untouched
    (returns None).
    """
    if not rules:
        return None
    directory = Path(rules_dir)
    if not directory.is_dir():
        raise InspectorError(f"rules directory {directory} does not exist")
    if table is None:
        table = RuleTable.load(directory, min(rule.sid for rule in rules))
    table.merge(rules)
    path = directory / RULE_FILE_NAME
    temporary = directory / f".{RULE_FILE_NAME}.{os.getpid()}.{threading.get_ident()}"
    temporary.write_text(table.render(), encoding="utf-8")
    os.replace(temporary, path)
    return path
