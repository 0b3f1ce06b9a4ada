"""The daemon's inspection worker processes and its rule file: replies
equal to the in-process daemon, a worker's death and respawn, shutdown
on SIGINT and on the daemon's death, and rule files replaced whole."""

import contextlib
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import wsdetect.tensornet as tn
from tests.test_inspector import _session_capture, serving
from wsdetect.flowmeter import PcapError, assemble_flows, feature_matrix, read_pcap
from wsdetect.inspector import (
    GeneratedRule,
    InspectorConfig,
    InspectorDaemon,
    SourceTable,
    parse_rule_line,
    write_rules,
)
from wsdetect.inspector.worker import WorkerError
from wsdetect.trafficmodel import TabularConfig, TabularDnn

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="reads process state under /proc")

SRC = Path(__file__).resolve().parent.parent / "src"


def _ask(sock_path, *requests, timeout=60.0):
    """The replies to `requests`, sent in order on one connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.settimeout(timeout)
        conn.connect(str(sock_path))
        reader = conn.makefile("rb")
        replies = []
        for request in requests:
            conn.sendall((json.dumps(request) + "\n").encode())
            replies.append(json.loads(reader.readline()))
        reader.close()
    return replies


def _inspect(path):
    return {"op": "inspect", "pcap_path": str(path)}


def _without_ms(reply):
    if "stats" in reply:
        reply = dict(reply, stats={k: v for k, v in reply["stats"].items() if k != "ms"})
    return reply


def _alive(pid):
    """Whether process `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                kids.append(int(entry))
    return kids


def _reader_of(path, pids, timeout=10.0):
    """The one of `pids` that has `path` open, waiting for it: a process
    opening a FIFO counts as its reader before its open returns."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for pid in pids:
            try:
                fds = os.listdir(f"/proc/{pid}/fd")
            except OSError:
                continue
            for fd in fds:
                try:
                    if os.readlink(f"/proc/{pid}/fd/{fd}") == str(path):
                        return pid
                except OSError:
                    continue
        time.sleep(0.01)
    return None


def _open_writer(fifo, timeout=60.0):
    """A write end of `fifo`, once some process has opened it to read."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError:  # ENXIO: no reader yet
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


@pytest.fixture
def captures(tmp_path):
    return [_session_capture(tmp_path / f"c{k}.pcap", k) for k in range(4)]


@pytest.fixture
def dnn_path(tmp_path, captures):
    """An untrained DNN checkpoint whose verdicts on `captures` are mixed,
    normalized on their own features."""
    features = np.concatenate([feature_matrix(assemble_flows(read_pcap(c).packets))
                               for c in captures])
    model = TabularDnn(TabularConfig(hidden=(8, 8), embedding_dims=(2, 2), seed=1),
                       [{80: 1, 53: 2, 4444: 3}, {6: 1, 17: 2}],
                       features.mean(0), features.std(0) + 1.0)
    path = tmp_path / "dnn.bin"
    tn.save_model(model, path)
    return path


@pytest.fixture
def daemon_process(tmp_path):
    """`wsdetect inspect serve` as its own process, answering pings; it
    is killed at the end if a test left it running."""
    sock = tmp_path / "d.sock"
    rules = tmp_path / "rules"
    rules.mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "wsdetect.cli", "inspect", "serve", "--model", "stub",
         "--socket", str(sock), "--rules-dir", str(rules)],
        env=env, stdin=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while True:
        assert proc.poll() is None, "the daemon exited"
        try:
            if _ask(sock, {"op": "ping"}) == [{"ok": True}]:
                break
        except OSError:
            assert time.monotonic() < deadline, "the daemon did not answer"
            time.sleep(0.02)
    try:
        yield proc, sock
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_replies_equal_the_in_process_daemon(tmp_path, captures, dnn_path):
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(captures[0].read_bytes()[:-7])
    paths = [*captures, cut, tmp_path / "missing.pcap", *captures[::-1]]
    served_rules, direct_rules = tmp_path / "served", tmp_path / "direct"
    served_rules.mkdir()
    direct_rules.mkdir()
    config = InspectorConfig(socket_path=str(tmp_path / "w.sock"),
                             rules_dir=str(served_rules), model_path=str(dnn_path))
    direct = InspectorDaemon(InspectorConfig(rules_dir=str(direct_rules)),
                             model=tn.load_model(dnn_path))
    expected = [_without_ms(direct.inspect(str(p))) for p in paths]
    with serving(config):
        replies = _ask(config.socket_path, *map(_inspect, paths))
    assert [_without_ms(r) for r in replies] == expected
    webshell = [r["stats"]["webshell"] for r in expected if "stats" in r]
    assert 0 < sum(webshell) < sum(r["stats"]["flows"] for r in expected if "stats" in r)
    assert "truncated" in expected[4]["error"] and "No such file" in expected[5]["error"]
    name = "webshell-generated.rules"
    assert (served_rules / name).read_text() == (direct_rules / name).read_text()


def test_worker_failure_logged_with_its_traceback(tmp_path, captures, caplog):
    cut = tmp_path / "cut.pcap"
    cut.write_bytes(captures[0].read_bytes()[:-7])
    config = InspectorConfig(socket_path=str(tmp_path / "w.sock"),
                             rules_dir=str(tmp_path), model_path="stub")
    with caplog.at_level(logging.WARNING, logger="wsdetect.inspector"), serving(config):
        [reply] = _ask(config.socket_path, _inspect(cut))
    assert "truncated record body" in reply["error"]
    [record] = [r for r in caplog.records if "failed" in r.getMessage()]
    assert record.exc_info[0] is PcapError
    # the worker's frames, which the daemon's own traceback cannot show
    text = logging.Formatter().format(record)
    assert "in classify_pcap" in text and "in read_pcap" in text


def test_killed_worker_fails_its_request_and_is_replaced(tmp_path, captures, caplog):
    config = InspectorConfig(socket_path=str(tmp_path / "w.sock"),
                             rules_dir=str(tmp_path), model_path="stub")
    fifo = tmp_path / "stuck.pcap"
    os.mkfifo(fifo)
    with caplog.at_level(logging.WARNING, logger="wsdetect.inspector"), \
            serving(config) as server:
        before = server.pool.pids()
        assert len(before) == len(os.sched_getaffinity(0))
        stuck = []
        asker = threading.Thread(
            target=lambda: stuck.extend(_ask(config.socket_path, _inspect(fifo))))
        asker.start()
        writer = _open_writer(fifo)  # a worker is now reading the capture
        try:
            victim = _reader_of(fifo, before)
            assert victim is not None
            os.kill(victim, signal.SIGKILL)
            asker.join(timeout=60)
        finally:
            os.close(writer)
        assert not asker.is_alive()
        [reply] = stuck
        assert set(reply) == {"error"}
        assert f"worker {victim} was killed by SIGKILL" in reply["error"]
        [record] = [r for r in caplog.records if "failed" in r.getMessage()]
        assert record.exc_info[0] is WorkerError
        after = server.pool.pids()
        assert victim not in after and len(after) == len(before)
        replies = _ask(config.socket_path, *map(_inspect, captures * 2))
        assert all("error" not in r and r["stats"]["flows"] > 0 for r in replies)
    assert not _alive(victim)


def test_sigint_waits_for_every_worker_and_kills_a_stuck_one(tmp_path, daemon_process,
                                                             captures):
    proc, sock = daemon_process
    fifo = tmp_path / "stuck.pcap"
    os.mkfifo(fifo)
    assert "error" not in _ask(sock, _inspect(captures[0]))[0]
    workers = _children(proc.pid)
    assert len(workers) == len(os.sched_getaffinity(0))
    def ask_stuck():
        with contextlib.suppress(OSError, ValueError):  # no reply: the daemon stopped
            _ask(sock, _inspect(fifo), timeout=30)

    stuck = threading.Thread(target=ask_stuck, daemon=True)
    stuck.start()
    writer = _open_writer(fifo)  # one worker now blocks reading the capture
    try:
        started = time.monotonic()
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=30)
        waited = time.monotonic() - started
    finally:
        os.close(writer)
    # the stuck worker is killed after the bounded wait; every worker is
    # reaped by the daemon before it exits
    assert 4.0 < waited < 20.0
    assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]


def test_workers_exit_after_the_daemon_is_killed(daemon_process, captures):
    proc, sock = daemon_process
    assert "error" not in _ask(sock, _inspect(captures[0]))[0]
    workers = _children(proc.pid)
    assert workers and all(map(_alive, workers))
    proc.kill()
    proc.wait()
    deadline = time.monotonic() + 5.0
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not [pid for pid in workers if _alive(pid)]


def test_rule_file_readers_never_see_a_partial_file(tmp_path):
    path = tmp_path / "webshell-generated.rules"
    table = SourceTable(sid_start=3000001)
    write_rules([GeneratedRule("drop", f"10.0.0.{k}", 0) for k in range(50)],
                tmp_path, table)
    done = threading.Event()
    seen, bad = [], []

    def reader():
        # a whole file: at least the first 50 rules, each a whole line
        while not done.is_set():
            text = path.read_text()
            lines = text.count("\n")
            if lines < 50 or lines != text.count(";)\n") \
                    or lines != text.count("drop ip ") or not text.endswith("\n"):
                bad.append(text)
            seen.append(lines)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for k in range(1000):
            write_rules([GeneratedRule("drop", f"10.1.{k // 250}.{k % 250}", 0),
                         GeneratedRule("drop", f"10.0.0.{k % 50}", 0)], tmp_path, table)
    finally:
        done.set()
        thread.join(timeout=60)
    assert bad == []
    assert len(seen) > 10 and seen == sorted(seen)
    rules = [parse_rule_line(line) for line in path.read_text().splitlines()]
    assert len(rules) == 1050 and len({r.sid for r in rules}) == 1050
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
