"""The detection pipeline: pcap -> flows -> features -> verdicts ->
EVE alerts + generated rules + blacklist updates.

It runs in two halves. `classify_pcap` reads a capture, classifies its
flows and keeps the counters plus one plain row per webshell flow
(`Verdicts`); it needs only the model, so the daemon runs it in worker
processes. `inspect_flows` turns those rows into alerts, rules and hits
on one `SourceTable`; it holds the shared state, so the daemon runs it
in its own process. `inspect_pcap` is both.

Per webshell-classified flow: one alert and one hit on its source. Per
(source IP, action): one rule and blacklist entry. Repeat detections
bump the hit count and, across rule-file writes, the rule's revision;
a source not hit for one TTL leaves the blacklist and the rule file.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
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
    # its source's blacklist state, kept in a SourceTable; not compared
    hit_count: int = field(default=0, compare=False, repr=False)
    first_seen: float = field(default=0.0, compare=False, repr=False)
    expiry: float = field(default=0.0, compare=False, repr=False)

    def render(self) -> str:
        return (f'{self.action} ip {self.src_ip} any -> $HOME_NET any '
                f'(msg:"{self.msg}"; classtype:web-application-attack; '
                f'sid:{self.sid}; rev:{self.rev};)')


_RULE_LINE = re.compile(
    r'^(?P<action>drop|alert|reject|pass) ip (?P<src>\S+) any -> \$HOME_NET any '
    r'\(msg:"(?P<msg>[^"]*)"; classtype:web-application-attack; '
    r'sid:(?P<sid>\d+); rev:(?P<rev>\d+);\)$')
_NEXT_SID_LINE = re.compile(r"^# next-sid: (\d+)$")


def parse_rule_line(line: str) -> GeneratedRule:
    """Inverse of GeneratedRule.render; used to merge rule files."""
    m = _RULE_LINE.match(line.strip())
    if m is None:
        raise InspectorError(f"unparseable rule line: {line!r}")
    return GeneratedRule(action=m.group("action"), src_ip=m.group("src"),
                         sid=int(m.group("sid")), rev=int(m.group("rev")),
                         msg=m.group("msg"))


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


@dataclass
class Verdicts:
    """One capture, classified: its flow and packet counters, and one
    `(src_ip, src_port, dst_ip, dst_port, protocol, first_ts, p_webshell)`
    row per webshell-classified flow, in flow order. Plain tuples, so a
    worker process pickles them cheaply."""

    flows: int
    packets: int
    skipped_packets: int
    fragments: int
    webshell: list[tuple[str, int, str, int, int, int, float]]


def classify_pcap(pcap_path: str | Path, model) -> Verdicts:
    """read_pcap -> assemble_flows -> feature_matrix -> predict."""
    capture = read_pcap(pcap_path)
    flows = assemble_flows(capture.packets)
    rows = []
    if flows:
        dataset = TabularDataset(
            [(flow.dst_port, flow.protocol) for flow in flows],
            feature_matrix(flows), np.zeros(len(flows), np.intp))
        probs, predicted = (dnn_predict(model, dataset) if isinstance(
            model, TabularDnn) else model.predict(dataset))
        rows = [(flow.src_ip, flow.src_port, flow.dst_ip, flow.dst_port,
                 flow.protocol, flow.first_ts, p)
                for flow, p, cls in zip(flows, probs[:, 1].tolist(), predicted.tolist())
                if cls == 1]
    return Verdicts(len(flows), len(capture.packets), capture.skipped,
                    capture.fragments, rows)


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


class SourceTable:
    """Per (source IP, action), one `GeneratedRule`: sid, rev, msg, hit
    count, first hit this uptime, and expiry `ttl_s` after its last hit
    (or its load). Expired entries are dropped, written or not. The rule
    file renders the written ones in the order of their first write.
    `next_sid` never goes down, so no sid is handed out twice; the file
    keeps it in a leading `# next-sid: N` line when it exceeds the
    highest listed sid + 1. Not locked: callers sharing a table
    serialise its use, as the daemon does.
    """

    def __init__(self, ttl_s: float = 86_400.0, sid_start: int = 0,
                 rules: list[GeneratedRule] = (), next_sid: int = 0,
                 clock: Callable[[], float] = time.time):
        self.ttl_s = ttl_s
        self.clock = clock
        # earliest expiry first: every hit moves its source to the end
        self.rules: OrderedDict[tuple[str, str], GeneratedRule] = OrderedDict()
        # the rendered line of each written rule, in file order
        self.lines: dict[tuple[str, str], str] = {}
        self._dropped = 0  # entries dropped since the dicts were last copied
        expiry = clock() + ttl_s
        for rule in rules:
            key = (rule.src_ip, rule.action)
            rule.expiry = expiry
            self.rules[key] = rule
            self.lines[key] = rule.render() + "\n"
        self.next_sid = max([sid_start, next_sid, *(rule.sid + 1 for rule in rules)])

    @classmethod
    def load(cls, rules_dir: str | Path, sid_start: int = 0,
             ttl_s: float = 86_400.0) -> SourceTable:
        """The table of the rule file under `rules_dir`, each rule live
        for one TTL from now. Empty if there is no file, or if
        `rules_dir` is "": no rules directory, not the working one."""
        path = Path(rules_dir) / RULE_FILE_NAME
        rules, next_sid = [], 0
        for line in (path.read_text(encoding="utf-8").splitlines()
                     if rules_dir != "" and path.exists() else ()):
            if (m := _NEXT_SID_LINE.match(line)) is not None:
                next_sid = int(m.group(1))
            elif line.strip() and not line.lstrip().startswith("#"):
                rules.append(parse_rule_line(line))
        return cls(ttl_s, sid_start, rules, next_sid)

    def hit(self, src_ip: str, action: str) -> GeneratedRule:
        """A detection of the source: its entry, counted and refreshed."""
        now = self.clock()
        key = (src_ip, action)
        rule = self._entry(key, now)
        if rule.hit_count == 0:
            rule.first_seen = now
        rule.hit_count += 1
        rule.expiry = now + self.ttl_s
        self.rules.move_to_end(key)
        return rule

    def merge(self, rules: list[GeneratedRule]) -> None:
        """Bump each rule's revision: rev 1 for a source not yet written."""
        now = self.clock()
        for new in rules:
            key = (new.src_ip, new.action)
            rule = self._entry(key, now)
            if rule.rev == 0:
                rule.msg = new.msg
            rule.rev += 1
            self.lines[key] = rule.render() + "\n"

    def blacklist(self) -> dict[str, GeneratedRule]:
        """The live sources hit during this uptime, by IP."""
        now = self.clock()
        self._evict(now)
        return {ip: rule for (ip, _), rule in self.rules.items()
                if rule.hit_count and rule.expiry > now}

    def render(self) -> str:
        text = "".join(self.lines.values())
        if self.lines and self.next_sid > 1 + max(
                self.rules[key].sid for key in self.lines):
            text = f"# next-sid: {self.next_sid}\n{text}"
        return text

    def _entry(self, key: tuple[str, str], now: float) -> GeneratedRule:
        """The live entry of `key`; a new source takes the next free sid."""
        self._evict(now)
        rule = self.rules.get(key)
        # an expired entry is still here if the clock stepped back
        if rule is None or rule.expiry <= now:
            self.lines.pop(key, None)
            rule = self.rules[key] = GeneratedRule(
                key[1], key[0], self.next_sid, rev=0, expiry=now + self.ttl_s)
            self.next_sid += 1
        return rule

    def _evict(self, now: float) -> None:
        while self.rules and next(iter(self.rules.values())).expiry <= now:
            key, _ = self.rules.popitem(last=False)
            self.lines.pop(key, None)
            self._dropped += 1
        if self._dropped > len(self.rules):
            # a dict keeps its size after deletions: copy the survivors
            self.rules, self.lines = OrderedDict(self.rules), dict(self.lines)
            self._dropped = 0


def inspect_flows(verdicts: Verdicts, config: InspectorConfig,
                  table: SourceTable | None = None) -> InspectionResult:
    """Alerts and rules for the webshell rows, each a hit on its source
    in `table`.

    `table` gives each source its sid, so repeated inspections keep
    stable signature ids, the ones the rule file keeps. Each rule
    carries the sid, rev and msg that writing it to `table` renders.
    """
    webshell = len(verdicts.webshell)
    result = InspectionResult(
        flows=verdicts.flows, webshell=webshell, benign=verdicts.flows - webshell,
        packets=verdicts.packets, skipped_packets=verdicts.skipped_packets,
        fragments=verdicts.fragments)
    if table is None:
        table = SourceTable(config.blacklist_ttl_s, config.sid_start)
    action = config.rule_action
    emitted: dict[str, GeneratedRule] = {}
    for src_ip, src_port, dst_ip, dst_port, proto, first_ts, p in verdicts.webshell:
        held = table.hit(src_ip, action)
        rule = emitted.get(src_ip)
        if rule is None:
            # the line the table's next write renders for this source
            rule = emitted[src_ip] = GeneratedRule(
                action, src_ip, held.sid, held.rev + 1, held.msg)
        result.alerts.append(Alert(
            timestamp_us=first_ts, src_ip=src_ip, src_port=src_port,
            dest_ip=dst_ip, dest_port=dst_port,
            proto=_PROTO_NAMES.get(proto, str(proto)),
            signature_id=rule.sid, p_webshell=p))
    result.rules = list(emitted.values())
    return result


def inspect_pcap(pcap_path: str | Path, model, config: InspectorConfig,
                 table: SourceTable | None = None) -> InspectionResult:
    """Full pipeline for one capture file."""
    return inspect_flows(classify_pcap(pcap_path, model), config, table)


def emit_eve(alerts: list[Alert], path: str | Path) -> int:
    """Append one JSON line per alert to the file at `path`; returns the
    number written."""
    with open(path, "a", encoding="utf-8") as fh:
        for alert in alerts:
            fh.write(json.dumps(alert.to_eve()) + "\n")
    return len(alerts)


def write_rules(rules: list[GeneratedRule], rules_dir: str | Path,
                table: SourceTable | None = None) -> Path | None:
    """Write/merge the generated rule file under `rules_dir`.

    Semantics per source: a new (src_ip, action) appends with rev 1 and
    the next free sid; an already-present one keeps its sid and
    increments rev. `table` holds the file's rules; without one, the
    file is read first, and sids are handed out from the lowest sid in
    `rules` up. The file is written whole to a temporary file beside it,
    then moved into place, so a reader sees the old file or the new one,
    never a part; if either step fails, the temporary file is removed.
    With no rules to write the file is left untouched (returns None).
    """
    if not rules:
        return None
    directory = Path(rules_dir)
    if not directory.is_dir():
        raise InspectorError(f"rules directory {directory} does not exist")
    if table is None:
        table = SourceTable.load(directory, min(rule.sid for rule in rules))
    table.merge(rules)
    path = directory / RULE_FILE_NAME
    temporary = directory / f".{RULE_FILE_NAME}.{os.getpid()}.{threading.get_ident()}"
    try:
        temporary.write_text(table.render(), encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return path
