"""The detection pipeline: pcap -> flows -> features -> verdicts ->
EVE alerts + generated rules + blacklist updates.

Per webshell-classified flow: one alert. Per (source IP, action): one
rule; repeat detections of the same source bump the blacklist counter
and, across rule-file writes, the rule's revision.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from wsdetect.flowmeter import assemble_flows, feature_matrix, read_pcap
from wsdetect.flowmeter.flows import Flow
from wsdetect.inspector.config import InspectorConfig
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


def _predict(model, dataset: TabularDataset):
    if isinstance(model, TabularDnn):
        return dnn_predict(model, dataset)
    return model.predict(dataset)


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


# Held while a new source gets its sid, so that connection threads
# sharing one `sid_for` map never hand out the same sid.
_SID_LOCK = threading.Lock()


def inspect_flows(flows: list[Flow], model, config: InspectorConfig,
                  blacklist: Blacklist | None = None,
                  sid_for: dict[tuple[str, str], int] | None = None,
                  ) -> InspectionResult:
    """Classify assembled flows and build alerts + rules for class 1.

    `sid_for` maps the (source IP, action) of each rule already assigned,
    the key of a line in the rule file, to its sid, so repeated
    inspections keep stable signature ids.
    """
    result = InspectionResult(flows=len(flows))
    if not flows:
        return result
    dataset = TabularDataset(
        [(flow.dst_port, flow.protocol) for flow in flows],
        feature_matrix(flows), np.zeros(len(flows), np.intp))
    probs, classes = _predict(model, dataset)

    sid_for = {} if sid_for is None else sid_for
    emitted: dict[tuple[str, str], GeneratedRule] = {}
    for flow, cls, prob in zip(flows, classes, probs):
        if cls != 1:
            result.benign += 1
            continue
        result.webshell += 1
        src_ip = flow.src_ip
        key = (src_ip, config.rule_action)
        if key not in sid_for:
            with _SID_LOCK:
                if key not in sid_for:  # one past the highest sid in use
                    sid_for[key] = max([config.sid_start - 1, *sid_for.values()]) + 1
        sid = sid_for[key]
        result.alerts.append(Alert(
            timestamp_us=flow.first_ts,
            src_ip=src_ip, src_port=flow.src_port,
            dest_ip=flow.dst_ip, dest_port=flow.dst_port,
            proto=_PROTO_NAMES.get(flow.protocol, str(flow.protocol)),
            signature_id=sid, p_webshell=float(prob[1])))
        if key not in emitted:
            emitted[key] = GeneratedRule(
                action=config.rule_action, src_ip=src_ip, sid=sid)
        if blacklist is not None:
            blacklist.hit(src_ip)
    result.rules = list(emitted.values())
    return result


def inspect_pcap(pcap_path: str | Path, model, config: InspectorConfig,
                 blacklist: Blacklist | None = None,
                 sid_for: dict[tuple[str, str], int] | None = None,
                 ) -> InspectionResult:
    """Full pipeline for one capture file."""
    capture = read_pcap(pcap_path)
    flows = assemble_flows(capture.packets)
    result = inspect_flows(flows, model, config, blacklist=blacklist,
                           sid_for=sid_for)
    result.packets = len(capture.packets)
    result.skipped_packets = capture.skipped
    result.fragments = capture.fragments
    return result


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


def write_rules(rules: list[GeneratedRule], rules_dir: str | Path) -> Path | None:
    """Write/merge the generated rule file under `rules_dir`.

    Semantics per source: a new (src_ip, action) appends with rev 1; an
    already-present one keeps its sid and increments rev. With no rules
    to write the file is left untouched (returns None).
    """
    if not rules:
        return None
    directory = Path(rules_dir)
    if not directory.is_dir():
        raise InspectorError(f"rules directory {directory} does not exist")
    path = directory / RULE_FILE_NAME

    existing: dict[tuple[str, str], GeneratedRule] = {}
    order: list[tuple[str, str]] = []
    for rule in _read_rules(path):
        existing[(rule.src_ip, rule.action)] = rule
        order.append((rule.src_ip, rule.action))

    taken = {r.sid for r in existing.values()}
    for rule in rules:
        key = (rule.src_ip, rule.action)
        if key in existing:
            existing[key].rev += 1
        else:
            sid = rule.sid
            while sid in taken:  # a fresh run may reuse sid_start
                sid = max(taken) + 1
            taken.add(sid)
            existing[key] = GeneratedRule(
                action=rule.action, src_ip=rule.src_ip, sid=sid,
                rev=1, msg=rule.msg)
            order.append(key)

    sids = [r.sid for r in existing.values()]
    if len(sids) != len(set(sids)):
        raise InspectorError("duplicate sid in generated rules (internal bug)")

    with open(path, "w", encoding="utf-8") as fh:
        for key in order:
            fh.write(existing[key].render() + "\n")
    return path


def _read_rules(path: Path) -> list[GeneratedRule]:
    """The rules of a generated rule file in file order; none if absent."""
    if not path.exists():
        return []
    return [parse_rule_line(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def _file_sids(rules_dir: str | Path) -> dict[tuple[str, str], int]:
    """(source IP, action) -> sid of each rule already in the rule file
    under `rules_dir`: alerts then carry the sid the file keeps, and a
    new source gets a sid past every one in use."""
    return {(rule.src_ip, rule.action): rule.sid
            for rule in _read_rules(Path(rules_dir) / RULE_FILE_NAME)}
