"""Inspection pipeline, EVE output, rule files, socket daemon."""

import contextlib
import gc
import itertools
import json
import logging
import random
import socket
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from tests.conftest import ethernet_ipv4_tcp, ethernet_ipv4_udp, pcap_bytes
from wsdetect.flowmeter import PcapError

from wsdetect.inspector import (
    GeneratedRule,
    InspectorConfig,
    InspectorDaemon,
    SourceTable,
    StubPredictor,
    emit_eve,
    inspect_pcap,
    load_config,
    parse_rule_line,
    write_rules,
)
from wsdetect.inspector.config import ConfigError, ENV_CONFIG_PATH
from wsdetect.inspector.daemon import MAX_REQUEST_BYTES, running
from wsdetect.inspector.pipeline import Verdicts, inspect_flows


@contextlib.contextmanager
def serving(config):
    """The daemon with its worker processes, served on a thread; shut
    down, its workers waited for, on exit."""
    with running(config) as server:
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            thread.join(timeout=10)


class TestConfig:
    def test_defaults_match_operating_ranges(self):
        config = InspectorConfig()
        assert config.rules_dir == "/etc/NetIDPS/rules"

    def test_ids_mode_degrades_drop_to_alert(self):
        assert InspectorConfig(mode="ips").rule_action == "drop"
        assert InspectorConfig(mode="ids").rule_action == "alert"

    def test_load_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"blacklist_ttl_s": 5000,
                                    "mode": "ids"}))
        config = load_config(path, overrides={"sid_start": 42})
        assert config.blacklist_ttl_s == 5000
        assert config.mode == "ids"
        assert config.sid_start == 42

    def test_env_fallback(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"blacklist_ttl_s": 777}))
        monkeypatch.setenv(ENV_CONFIG_PATH, str(path))
        assert load_config().blacklist_ttl_s == 777

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(path)

    @pytest.mark.parametrize("key, value, message", [
        ("blacklist_ttl_s", "1d", "positive number"),
        ("blacklist_ttl_s", -5, "positive number"),
        ("sid_start", "3000001", "non-negative integer"),
        ("deep_inspecting", "false", "true or false"),
    ])
    def test_mistyped_values_rejected(self, tmp_path, key, value, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"{key} must be .*{message}"):
            load_config(path)

    def test_removed_sampling_keys_rejected(self, tmp_path):
        # the daemon is request-driven, so the old scheduler keys are
        # errors; home_net was never read (the rule template hard-codes it)
        path = tmp_path / "cfg.json"
        for key, value in (("inspection_frequency", 120_000),
                           ("home_net", ["10.0.0.0/8"])):
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ConfigError, match=key):
                load_config(path)


class TestInspectPcap:
    def test_empty_capture_nothing(self, tmp_path):
        from tests.conftest import pcap_bytes

        path = tmp_path / "empty.pcap"
        path.write_bytes(pcap_bytes([]))
        result = inspect_pcap(path, StubPredictor(1), InspectorConfig())
        assert result.alerts == [] and result.rules == []

    def test_benign_stub_produces_nothing(self, two_flow_pcap):
        result = inspect_pcap(two_flow_pcap, StubPredictor(0), InspectorConfig())
        assert result.alerts == [] and result.rules == []
        assert result.flows == 2
        assert result.benign == 2

    def test_webshell_stub_alerts_every_flow(self, two_flow_pcap):
        config = InspectorConfig()
        result = inspect_pcap(two_flow_pcap, StubPredictor(1), config)
        assert len(result.alerts) == 2  # one alert per classified flow
        assert len(result.rules) == 2  # two distinct source IPs
        alert = result.alerts[0]
        assert alert.src_ip == "192.168.1.10"
        assert alert.dest_ip == "10.0.0.2"
        assert alert.dest_port == 80
        assert alert.proto == "TCP"
        eve = alert.to_eve()
        assert eve["alert"]["category"] == "Webshell"
        assert eve["alert"]["severity"] == 1
        assert eve["alert"]["signature"] == "Webshell Attacking"

    def test_one_rule_per_source_ip(self, tmp_path):
        from tests.conftest import ethernet_ipv4_tcp, pcap_bytes

        # two flows from the same source: 2 alerts, 1 rule
        frames = [
            (0, ethernet_ipv4_tcp("192.168.1.10", 1111, "10.0.0.2", 80, 10)),
            (200_000, ethernet_ipv4_tcp("192.168.1.10", 2222, "10.0.0.2", 80, 10)),
        ]
        path = tmp_path / "same_src.pcap"
        path.write_bytes(pcap_bytes(frames))
        table = SourceTable()
        result = inspect_pcap(path, StubPredictor(1), InspectorConfig(),
                              table=table)
        assert len(result.alerts) == 2
        assert len(result.rules) == 1
        assert table.rules[("192.168.1.10", "drop")].hit_count == 2

    def test_sids_stable_across_runs(self, two_flow_pcap):
        config = InspectorConfig()
        table = SourceTable(config.blacklist_ttl_s, config.sid_start)
        first = inspect_pcap(two_flow_pcap, StubPredictor(1), config,
                             table=table)
        second = inspect_pcap(two_flow_pcap, StubPredictor(1), config,
                              table=table)
        assert [r.sid for r in first.rules] == [r.sid for r in second.rules]

    def test_alert_sids_agree_with_existing_rule_file(self, two_flow_pcap, tmp_path):
        # a restarted daemon: the rule file holds another source, a drop
        # rule for one source of the capture, and an alert rule (from an
        # ids-mode run) for the other one, which holds the highest sid
        path = tmp_path / "webshell-generated.rules"
        path.write_text("".join(rule.render() + "\n" for rule in (
            GeneratedRule("drop", "1.1.1.1", 3000001),
            GeneratedRule("drop", "192.168.1.10", 3000007),
            GeneratedRule("alert", "192.168.1.20", 3000009))))
        daemon = InspectorDaemon(InspectorConfig(rules_dir=str(tmp_path), model_path="stub"))
        response = daemon.inspect(str(two_flow_pcap))
        written = {(r.src_ip, r.action): r.sid
                   for r in map(parse_rule_line, path.read_text().splitlines())}
        sids = {a["src_ip"]: a["alert"]["signature_id"] for a in response["alerts"]}
        assert sids == {"192.168.1.10": written[("192.168.1.10", "drop")],
                        "192.168.1.20": written[("192.168.1.20", "drop")]}
        assert sids == {"192.168.1.10": 3000007, "192.168.1.20": 3000010}
        assert written[("1.1.1.1", "drop")] == 3000001
        assert written[("192.168.1.20", "alert")] == 3000009

    def test_reply_rules_equal_the_rule_file_lines(self, two_flow_pcap, tmp_path):
        # one source of the capture is already in the file, with its own
        # msg and rev; the reply must render what each write left there
        path = tmp_path / "webshell-generated.rules"
        path.write_text(GeneratedRule("drop", "192.168.1.10", 3000004, rev=5,
                                      msg="Seen before").render() + "\n")
        daemon = InspectorDaemon(InspectorConfig(rules_dir=str(tmp_path),
                                                 model_path="stub"))
        for request in range(3):
            response = daemon.inspect(str(two_flow_pcap))
            lines = path.read_text().splitlines()
            assert response["rules"] == lines
            assert [parse_rule_line(line).rev for line in lines] == [
                6 + request, 1 + request]
        assert parse_rule_line(lines[0]).msg == "Seen before"

    def test_ids_mode_generates_alert_rules(self, two_flow_pcap):
        result = inspect_pcap(two_flow_pcap, StubPredictor(1),
                              InspectorConfig(mode="ids"))
        assert all(r.action == "alert" for r in result.rules)


class TestEve:
    def _alerts(self, result):
        return result.alerts

    def test_one_line_per_alert(self, two_flow_pcap, tmp_path):
        result = inspect_pcap(two_flow_pcap, StubPredictor(1), InspectorConfig())
        sink = tmp_path / "eve.json"
        emit_eve(result.alerts, sink)
        lines = sink.read_text().splitlines()
        assert len(lines) == 2
        parsed = json.loads(lines[0])
        assert parsed["event_type"] == "alert"
        assert parsed["alert"]["severity"] == 1

    def test_zero_alerts_zero_bytes(self, tmp_path):
        sink = tmp_path / "eve.json"
        sink.write_bytes(b"")
        emit_eve([], sink)
        assert sink.read_bytes() == b""

    def test_roundtrip_parse_back(self, two_flow_pcap, tmp_path):
        result = inspect_pcap(two_flow_pcap, StubPredictor(1), InspectorConfig())
        sink = tmp_path / "eve.json"
        emit_eve(result.alerts, sink)
        emit_eve(result.alerts, sink)  # append mode
        lines = [json.loads(l) for l in sink.read_text().splitlines()]
        assert len(lines) == 4
        assert lines[0] == lines[2]
        assert lines[0] == result.alerts[0].to_eve()

    def test_timestamp_has_microseconds(self, two_flow_pcap):
        result = inspect_pcap(two_flow_pcap, StubPredictor(1), InspectorConfig())
        stamp = result.alerts[0].to_eve()["timestamp"]
        assert "." in stamp and "+0000" in stamp


class TestRuleFile:
    def test_render_matches_template(self):
        rule = GeneratedRule(action="drop", src_ip="10.0.0.5", sid=3000001)
        assert rule.render() == (
            'drop ip 10.0.0.5 any -> $HOME_NET any (msg:"Webshell Attacking"; '
            'classtype:web-application-attack; sid:3000001; rev:1;)')

    def test_parse_roundtrip(self):
        rule = GeneratedRule(action="alert", src_ip="1.2.3.4", sid=77, rev=3)
        assert parse_rule_line(rule.render()) == rule

    def test_write_then_reparse(self, tmp_path):
        rules = [GeneratedRule("drop", "10.0.0.5", 3000001)]
        path = write_rules(rules, tmp_path)
        assert path.name == "webshell-generated.rules"
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert parse_rule_line(lines[0]).src_ip == "10.0.0.5"

    def test_empty_list_touches_nothing(self, tmp_path):
        assert write_rules([], tmp_path) is None
        assert list(tmp_path.iterdir()) == []

    def test_same_source_bumps_rev_not_sid(self, tmp_path):
        rules = [GeneratedRule("drop", "10.0.0.5", 3000001)]
        write_rules(rules, tmp_path)
        path = write_rules(rules, tmp_path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        parsed = parse_rule_line(lines[0])
        assert parsed.rev == 2
        assert parsed.sid == 3000001

    def test_new_source_gets_fresh_sid_on_collision(self, tmp_path):
        write_rules([GeneratedRule("drop", "10.0.0.5", 3000001)], tmp_path)
        path = write_rules([GeneratedRule("drop", "10.0.0.6", 3000001)], tmp_path)
        parsed = [parse_rule_line(l) for l in path.read_text().splitlines()]
        assert len({r.sid for r in parsed}) == 2

    def test_missing_directory_errors(self, tmp_path):
        with pytest.raises(Exception, match="does not exist"):
            write_rules([GeneratedRule("drop", "1.1.1.1", 1)], tmp_path / "nope")


class _Clock:
    """An injected clock: the time is whatever the test last set."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def _verdicts(src_ips):
    """One webshell-classified TCP flow per source."""
    n = len(src_ips)
    return Verdicts(list(src_ips), [4444] * n, ["10.255.0.1"] * n, [80] * n,
                    [6] * n, [0] * n, [1.0] * n, [1] * n)


class TestBlacklist:
    """The blacklist side of the source table: expiry, counts, eviction."""

    def test_expiry(self):
        clock = _Clock(100.0)
        table = SourceTable(10.0, clock=clock)
        table.hit("1.1.1.1", "drop")
        clock.t = 105.0
        assert "1.1.1.1" in table.blacklist()
        clock.t = 111.0
        assert "1.1.1.1" not in table.blacklist()

    def test_hit_refreshes_and_counts(self):
        clock = _Clock()
        table = SourceTable(10.0, clock=clock)
        table.hit("1.1.1.1", "drop")
        clock.t = 8.0
        table.hit("1.1.1.1", "drop")
        clock.t = 15.0
        entry = table.blacklist()["1.1.1.1"]
        assert entry.hit_count == 2
        assert (entry.first_seen, entry.expiry) == (0.0, 18.0)

    def test_expired_sources_are_evicted(self):
        clock = _Clock()
        table = SourceTable(10.0, clock=clock)
        for i in range(1000):
            clock.t = i * 10.0
            table.hit(f"10.{i // 250}.{i % 250}.1", "drop")
            assert len(table.rules) == 1
        clock.t = 9990.0
        assert list(table.blacklist()) == ["10.3.249.1"]

    def test_eviction_keeps_live_sources(self):
        clock = _Clock()
        table = SourceTable(10.0, clock=clock)
        for t, ip in ((0.0, "1.1.1.1"), (5.0, "2.2.2.2"),
                      (8.0, "1.1.1.1"),   # refreshed: now expires last
                      (16.0, "3.3.3.3")):  # 2.2.2.2 expired at 15
            clock.t = t
            table.hit(ip, "drop")
        assert [ip for ip, _ in table.rules] == ["1.1.1.1", "3.3.3.3"]
        assert table.rules[("1.1.1.1", "drop")].hit_count == 2
        clock.t = 18.5
        assert set(table.blacklist()) == {"3.3.3.3"}
        assert [ip for ip, _ in table.rules] == ["3.3.3.3"]

    def test_concurrent_hits_lose_no_update(self, tmp_path):
        # connection threads share one table through the daemon: hits,
        # blacklist reads, rule writes and evictions interleave with a
        # tiny switch interval. Every capture holds 9.9.9.9 and one
        # source of its thread's ten; the clock ticks once per reading,
        # so 9.9.9.9 (hit at least every 10 ticks) stays, and a thread's
        # source, back 40 or more ticks later, has expired each time
        captures = []
        for k in range(8):
            captures.append([])
            for j in range(10):
                path = tmp_path / f"c{k}_{j}.pcap"
                path.write_bytes(pcap_bytes([
                    (0, ethernet_ipv4_tcp("9.9.9.9", 4444, "10.255.0.1", 80, 40)),
                    (1, ethernet_ipv4_tcp(f"10.0.{k}.{j}", 4444, "10.255.0.1", 80, 40))]))
                captures[k].append(str(path))
        rules_dir = tmp_path / "rules"
        rules_dir.mkdir()
        daemon = InspectorDaemon(InspectorConfig(
            rules_dir=str(rules_dir), model_path="stub", blacklist_ttl_s=30))
        ticks = itertools.count()
        daemon.table.clock = lambda: float(next(ticks))
        replies, errors = [], []

        def worker(k):
            try:
                for i in range(30):
                    replies.append(daemon.handle_request(
                        {"op": "inspect", "pcap_path": captures[k][i % 10]}))
                    replies.append(daemon.handle_request({"op": "blacklist"}))
            except Exception as exc:  # a thread's error must fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and not [r for r in replies if "error" in r]
        assert daemon.table.rules[("9.9.9.9", "drop")].hit_count == 8 * 30
        assert all("9.9.9.9" in r["blacklist"] for r in replies if "blacklist" in r)
        # each return of a source took a new sid, and no sid went to two
        sources_of = {}
        for reply in replies:
            for alert in reply.get("alerts", []):
                sources_of.setdefault(alert["alert"]["signature_id"],
                                      set()).add(alert["src_ip"])
        assert len(sources_of) == 1 + 8 * 10 * 3
        assert all(len(ips) == 1 for ips in sources_of.values())
        # a blacklist read may have dropped sources since the last write;
        # the next write lists exactly the live ones
        daemon.inspect(captures[0][0])
        text = (rules_dir / "webshell-generated.rules").read_text()
        assert text == daemon.table.render()
        listed = [parse_rule_line(line) for line in text.splitlines()
                  if not line.startswith("# next-sid: ")]
        assert {r.src_ip for r in listed} == {ip for ip, _ in daemon.table.rules}
        assert len({r.sid for r in listed}) == len(listed)


class TestSourceTable:
    def test_unwritten_sources_expire_too(self):
        # no rules directory: sids are handed out, nothing is written
        clock = _Clock()
        config = InspectorConfig(blacklist_ttl_s=10)
        table = SourceTable(config.blacklist_ttl_s, config.sid_start, clock=clock)
        result = inspect_flows(_verdicts(["10.0.0.1", "10.0.0.2"]), config, table)
        assert [r.sid for r in result.rules] == [3000001, 3000002]
        clock.t = 10.0
        result = inspect_flows(_verdicts(["10.0.0.1"]), config, table)
        assert list(table.rules) == [("10.0.0.1", "drop")]
        assert [r.sid for r in result.rules] == [3000003]

    def test_a_hundred_thousand_sources_are_forgotten_one_ttl_later(self, tmp_path):
        clock = _Clock(1000.0)
        config = InspectorConfig(rules_dir=str(tmp_path), blacklist_ttl_s=60)
        table = SourceTable(config.blacklist_ttl_s, config.sid_start, clock=clock)

        def request(src_ips):
            write_rules(inspect_flows(_verdicts(src_ips), config, table).rules,
                        tmp_path, table)

        tracemalloc.start()
        try:
            request(["10.254.0.1"])
            gc.collect()
            baseline = tracemalloc.get_traced_memory()[0]
            request([f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}"
                     for i in range(100_000)])
            assert len(table.rules) == 100_001
            clock.t += 60
            request(["10.254.0.2"])
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert list(table.rules) == [("10.254.0.2", "drop")]
        assert list(table.blacklist()) == ["10.254.0.2"]
        text = (tmp_path / "webshell-generated.rules").read_text()
        assert text == GeneratedRule("drop", "10.254.0.2", 3100002).render() + "\n"
        assert grown < 10 * 100_000

    def test_a_source_back_after_expiry_gets_a_sid_above_every_earlier_one(
            self, tmp_path):
        clock = _Clock()
        table = SourceTable(10.0, 3000001, clock=clock)
        path = tmp_path / "webshell-generated.rules"

        def request(t, ip):
            clock.t = t
            table.hit(ip, "drop")
            write_rules([GeneratedRule("drop", ip, 0)], tmp_path, table)

        request(0.0, "1.1.1.1")   # sid 3000001
        request(5.0, "2.2.2.2")   # sid 3000002
        request(8.0, "1.1.1.1")   # refreshed: expires at 18
        request(16.0, "1.1.1.1")  # 2.2.2.2 expired at 15 and left the file
        assert path.read_text() == "# next-sid: 3000003\n" + GeneratedRule(
            "drop", "1.1.1.1", 3000001, rev=3).render() + "\n"
        reloaded = SourceTable.load(tmp_path, 3000001)
        assert reloaded.render() == path.read_text()
        assert reloaded.hit("2.2.2.2", "drop").sid == 3000003
        request(17.0, "2.2.2.2")
        assert table.rules[("2.2.2.2", "drop")].sid == 3000003
        # the highest sid is listed again: no next-sid line
        assert [parse_rule_line(line).sid for line in path.read_text().splitlines()] \
            == [3000001, 3000003]

    def test_a_rule_file_without_next_sid_loads_and_renders_unchanged(
            self, tmp_path):
        # a file of rule lines only, with no next-sid line, in
        # first-write order, sids not in order
        text = "".join(line + "\n" for line in (
            'drop ip 10.0.0.5 any -> $HOME_NET any (msg:"Webshell Attacking"; '
            'classtype:web-application-attack; sid:3000004; rev:2;)',
            'alert ip 10.0.0.6 any -> $HOME_NET any (msg:"Webshell Attacking"; '
            'classtype:web-application-attack; sid:3000001; rev:1;)',
            'drop ip 10.0.0.7 any -> $HOME_NET any (msg:"Seen before"; '
            'classtype:web-application-attack; sid:3000002; rev:7;)'))
        (tmp_path / "webshell-generated.rules").write_text(text)
        table = SourceTable.load(tmp_path, 3000001)
        assert table.render() == text
        assert table.next_sid == 3000005
        assert table.blacklist() == {}  # loaded, but not hit in this uptime
        path = write_rules([GeneratedRule("drop", "10.0.0.7", 0)], tmp_path, table)
        assert path.read_text() == text.replace("rev:7;", "rev:8;")

    def test_a_failed_rule_write_answers_an_error(self, tmp_path, two_flow_pcap,
                                                  caplog):
        rules_dir = tmp_path / "rules"
        rules_dir.mkdir()
        daemon = InspectorDaemon(InspectorConfig(rules_dir=str(rules_dir),
                                                 model_path="stub"))
        assert "error" not in daemon.inspect(str(two_flow_pcap))
        path = rules_dir / "webshell-generated.rules"
        path.unlink()
        path.mkdir()  # the write's os.replace now fails
        with caplog.at_level(logging.WARNING, logger="wsdetect.inspector"):
            reply = daemon.handle_request(
                {"op": "inspect", "pcap_path": str(two_flow_pcap)})
        assert set(reply) == {"error"} and "Is a directory" in reply["error"]
        [record] = [r for r in caplog.records if "failed" in r.getMessage()]
        assert record.exc_info is not None and issubclass(record.exc_info[0], OSError)
        assert [p.name for p in rules_dir.iterdir()] == [path.name]


class TestDaemon:
    @pytest.fixture
    def running_daemon(self, tmp_path):
        config = InspectorConfig(
            socket_path=str(tmp_path / "inspector.sock"),
            rules_dir=str(tmp_path), model_path="stub")
        with serving(config):
            yield config

    def _request(self, config, lines):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.connect(config.socket_path)
        client.sendall(("\n".join(lines) + "\n").encode())
        client.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = client.recv(65536)
            if not chunk:
                break
            data += chunk
        client.close()
        return [json.loads(l) for l in data.decode().splitlines()]

    def test_a_missing_rules_dir_is_warned_once_at_start(self, tmp_path, two_flow_pcap,
                                                          caplog):
        missing = tmp_path / "rules"
        with caplog.at_level(logging.WARNING, logger="wsdetect.inspector"):
            daemon = InspectorDaemon(InspectorConfig(rules_dir=str(missing),
                                                     model_path="stub"))
            replies = [daemon.inspect(str(two_flow_pcap)) for _ in range(2)]
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (f"rules directory {missing} does not exist: "
                                       "generated rules are not written")
        # the rules are still generated and answered, only not written
        assert [len(reply["rules"]) for reply in replies] == [2, 2]
        assert not missing.exists()

    def test_an_existing_rules_dir_is_not_warned(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="wsdetect.inspector"):
            InspectorDaemon(InspectorConfig(rules_dir=str(tmp_path), model_path="stub"))
        assert caplog.records == []

    def test_ping(self, running_daemon):
        assert self._request(running_daemon, ['{"op":"ping"}']) == [{"ok": True}]

    def test_inspect_equals_direct_call(self, running_daemon, two_flow_pcap):
        direct = inspect_pcap(two_flow_pcap, StubPredictor(1), running_daemon)
        responses = self._request(
            running_daemon,
            [json.dumps({"op": "inspect", "pcap_path": str(two_flow_pcap)})])
        response = responses[0]
        assert response["stats"]["flows"] == 2
        assert response["stats"]["webshell"] == 2
        assert response["alerts"] == [a.to_eve() for a in direct.alerts]
        assert response["rules"] == [r.render() for r in direct.rules]

    def test_malformed_then_next_request_still_served(self, running_daemon):
        responses = self._request(running_daemon, ["{", '{"op":"ping"}'])
        assert responses == [{"error": "parse"}, {"ok": True}]

    def test_overlong_request_line_refused(self, running_daemon):
        # 1 MB with no newline: one error reply, then the daemon closes
        # the connection instead of buffering the line
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(30)
        client.connect(running_daemon.socket_path)
        try:
            client.sendall(b"x" * 2**20)
        except (BrokenPipeError, ConnectionResetError):
            pass  # closed before it read everything
        reader = client.makefile("rb")
        assert json.loads(reader.readline()) == {"error": "request too long"}
        assert reader.readline() == b""
        reader.close()
        client.close()
        assert self._request(running_daemon, ['{"op":"ping"}']) == [{"ok": True}]

    def test_request_line_at_the_limit_served(self, running_daemon):
        head = '{"op": "ping", "pad": "'
        line = head + "x" * (MAX_REQUEST_BYTES - len(head) - 2) + '"}'
        assert len(line.encode()) == MAX_REQUEST_BYTES
        assert self._request(running_daemon, [line, line + " "]) == [
            {"ok": True}, {"error": "request too long"}]

    def test_unknown_op(self, running_daemon):
        responses = self._request(running_daemon, ['{"op":"dance"}'])
        assert "error" in responses[0]

    def test_deep_inspecting_off_refuses_inspect(self, tmp_path, two_flow_pcap):
        config = InspectorConfig(deep_inspecting=False, model_path="stub")
        daemon = InspectorDaemon(config)
        response = daemon.handle_request(
            {"op": "inspect", "pcap_path": str(two_flow_pcap)})
        assert "disabled" in response["error"]
        assert daemon.handle_request({"op": "ping"}) == {"ok": True}

    def test_blacklist_reported_after_inspection(self, running_daemon,
                                                 two_flow_pcap):
        self._request(running_daemon, [
            json.dumps({"op": "inspect", "pcap_path": str(two_flow_pcap)})])
        responses = self._request(running_daemon, ['{"op":"blacklist"}'])
        assert set(responses[0]["blacklist"]) == {"192.168.1.10", "192.168.1.20"}

    def test_concurrent_connections(self, running_daemon):
        results = []

        def worker():
            results.append(self._request(running_daemon, ['{"op":"ping"}']))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert results == [[{"ok": True}]] * 8

    def test_rules_written_through_daemon(self, running_daemon, two_flow_pcap,
                                          tmp_path):
        self._request(running_daemon, [
            json.dumps({"op": "inspect", "pcap_path": str(two_flow_pcap)})])
        rule_file = tmp_path / "webshell-generated.rules"
        assert rule_file.exists()
        assert len(rule_file.read_text().splitlines()) == 2


class _FeatureHashPredictor:
    """Verdicts that hang on every model input: p_webshell is a hash of
    the flow's categorical and continuous row, so a feature value that
    changes shows up as a changed verdict or probability."""

    def predict(self, dataset):
        p = np.array([zlib.crc32(cats.tobytes() + cont.tobytes()) / 2**32
                      for cats, cont in zip(dataset.categoricals, dataset.continuous)])
        return np.stack([1 - p, p], axis=1), (p >= 0.5).astype(np.intp)


def _session_capture(path, seed):
    """A few hundred packets of interleaved TCP and UDP sessions."""
    rng = random.Random(seed)
    frames, t = [], 1_700_000_000_000_000
    for _ in range(300):
        t += rng.choice([0, 50, 20_000, 1_500_000, 6_000_000])
        a, b = f"10.1.{rng.randint(0, 3)}.{rng.randint(1, 9)}", "10.0.0.2"
        sport, dport = rng.choice([4444, 5555, 6666]), rng.choice([80, 53])
        if rng.random() < 0.4:
            a, b, sport, dport = b, a, dport, sport
        if dport == 53 or sport == 53:
            frame = ethernet_ipv4_udp(a, sport, b, dport, rng.randint(0, 90))
        else:
            frame = ethernet_ipv4_tcp(a, sport, b, dport, rng.choice([0, 40, 1400]),
                                      flags=rng.choice([0x10, 0x18, 0x10, 0x11]))
        frames.append((t, frame))
    path.write_bytes(pcap_bytes(frames))
    return path


class TestDaemonConcurrency:
    def test_failure_logged_with_traceback(self, tmp_path, two_flow_pcap, caplog):
        cut = tmp_path / "cut.pcap"
        cut.write_bytes(two_flow_pcap.read_bytes()[:-5])
        daemon = InspectorDaemon(InspectorConfig(rules_dir=str(tmp_path),
                                                 model_path="stub"))
        with caplog.at_level(logging.WARNING, logger="wsdetect.inspector"):
            reply = daemon.inspect(str(cut))
        assert "truncated record body" in reply["error"]
        [record] = [r for r in caplog.records if "failed" in r.getMessage()]
        assert record.exc_info is not None and record.exc_info[0] is PcapError

    def test_threads_get_the_serial_replies(self, tmp_path, three_packet_pcap,
                                            two_flow_pcap):
        # connection threads share one daemon; with a tiny switch interval
        # every reply must still equal the serial one for its capture
        captures = [str(p) for p in (
            three_packet_pcap, two_flow_pcap,
            _session_capture(tmp_path / "a.pcap", 1),
            _session_capture(tmp_path / "b.pcap", 2))]
        daemon = InspectorDaemon(InspectorConfig(rules_dir=str(tmp_path)),
                                 model=_FeatureHashPredictor())

        def summary(reply):
            stats = {k: v for k, v in reply["stats"].items() if k != "ms"}
            return stats, [(a["src_ip"], a["src_port"], a["dest_ip"],
                            a["dest_port"], a["proto"], a["p_webshell"])
                           for a in reply["alerts"]]

        # the serial pass also gives every source its sid before the
        # threads run: sid assignment itself is not under test here
        serial = {path: summary(daemon.inspect(path)) for path in captures}
        assert sum(stats["webshell"] for stats, _ in serial.values()) > 0
        replies, errors = [], []

        def worker(k):
            try:
                for i in range(6):
                    path = captures[(k + i) % len(captures)]
                    replies.append((path, summary(daemon.inspect(path))))
            except Exception as exc:  # a thread's error must fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(replies) == 8 * 6
        for path, reply in replies:
            assert reply == serial[path], path
        lines = (tmp_path / "webshell-generated.rules").read_text().splitlines()
        sids = [parse_rule_line(line).sid for line in lines]
        assert len(sids) == len(set(sids))

    def test_new_sources_on_many_threads_get_distinct_sids(self, tmp_path):
        # every capture brings 100 sources no other capture has; with a
        # tiny switch interval, threads still never share a sid
        captures = []
        for k in range(24):
            frames = [(1_700_000_000_000_000 + j, ethernet_ipv4_tcp(
                f"10.{k}.{j}.1", 4444, "10.255.0.1", 80, 40)) for j in range(100)]
            path = tmp_path / f"new{k}.pcap"
            path.write_bytes(pcap_bytes(frames))
            captures.append(str(path))
        daemon = InspectorDaemon(InspectorConfig(rules_dir=str(tmp_path),
                                                 model_path="stub"))
        sids, errors = {}, []

        def worker(k):
            try:
                for path in captures[k::8]:
                    for alert in daemon.inspect(path)["alerts"]:
                        sids[alert["src_ip"]] = alert["alert"]["signature_id"]
            except Exception as exc:  # a thread's error must fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(sids) == 24 * 100
        assert len(set(sids.values())) == len(sids)
