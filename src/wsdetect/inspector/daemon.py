"""Local-socket daemon: newline-delimited JSON over a Unix stream socket.

Protocol, one JSON object per line:

  {"op": "ping"}                          -> {"ok": true}
  {"op": "inspect", "pcap_path": "..."}   -> {"alerts": [...], "rules": [...],
                                              "stats": {flows, webshell, benign,
                                                        packets, skipped_packets,
                                                        fragments, ms}}
  {"op": "blacklist"}                     -> {"blacklist": {ip: {first_seen,
                                                             hit_count,
                                                             expiry}, ...}}

An inspection whose capture cannot be classified, or whose rule file or
EVE sink cannot be written, answers {"error": "..."} and logs a warning
with the traceback. Malformed JSON answers {"error": "parse"} and the
connection stays up. A line longer than MAX_REQUEST_BYTES answers
{"error": "request too long"} and the connection is closed. Requests on
one connection are handled in order; connections are served
concurrently.

Processes: `serve` runs one parent and one inspection worker process per
usable core (see `wsdetect.inspector.worker`). The parent holds the
socket, one thread per connection, the EVE sink and one `SourceTable`,
the per-source state behind both the blacklist and the rule file; each
worker holds a copy of the model and runs `classify_pcap`, the
CPU-heavy half of an inspection, with one BLAS thread. So inspections
run in parallel instead of taking turns on one interpreter lock. Each
worker costs about 43 MB of memory on top of the parent's 40 MB. The
alerts, sids, rule-file write and EVE lines of a request, and the
`blacklist` op's read, are made in the parent under one lock.

The table forgets a source `blacklist_ttl_s` after its last hit, so the
parent's memory follows the sources seen within one TTL, not uptime;
the forgotten source's rule leaves the rule file at the next write.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import os
import socket
import socketserver
import threading
import time
from collections.abc import Callable, Iterator
from pathlib import Path

from wsdetect.inspector.config import InspectorConfig
from wsdetect.inspector.pipeline import (
    SourceTable,
    Verdicts,
    classify_pcap,
    emit_eve,
    inspect_flows,
    load_predictor,
    write_rules,
)

log = logging.getLogger("wsdetect.inspector")

# the longest request line the daemon reads, newline excluded
MAX_REQUEST_BYTES = 65536
# how long the rest of an overlong request is read and dropped
DRAIN_S = 1.0


class InspectorDaemon:
    """Shared state behind the socket server; also usable in-process.

    `classify` maps a capture path to its `Verdicts`: `serve` passes its
    worker pool's; by default the model (`model`, or the one at
    `config.model_path`) classifies in the calling thread.
    """

    def __init__(self, config: InspectorConfig, model=None,
                 classify: Callable[[str], Verdicts] | None = None):
        self.config = config
        if classify is None:
            if model is None:
                model = load_predictor(config.model_path)
            classify = functools.partial(classify_pcap, model=model)
        self.classify = classify
        self.table = SourceTable.load(config.rules_dir, config.sid_start,
                                      config.blacklist_ttl_s)
        if not Path(config.rules_dir).is_dir():
            log.warning("rules directory %s does not exist: generated rules "
                        "are not written", config.rules_dir)
        self._lock = threading.Lock()

    def handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True}
        if op == "blacklist":
            with self._lock:
                return {"blacklist": {
                    ip: {"first_seen": rule.first_seen,
                         "hit_count": rule.hit_count, "expiry": rule.expiry}
                    for ip, rule in self.table.blacklist().items()}}
        if op == "inspect":
            if not self.config.deep_inspecting:
                return {"error": "deep inspection is disabled by configuration"}
            pcap_path = request.get("pcap_path")
            if not pcap_path:
                return {"error": "inspect needs a pcap_path"}
            return self.inspect(pcap_path)
        return {"error": f"unknown op {op!r}"}

    def inspect(self, pcap_path: str) -> dict:
        started = time.perf_counter()
        config = self.config
        try:
            verdicts = self.classify(str(pcap_path))
            with self._lock:
                result = inspect_flows(verdicts, config, self.table)
                if result.rules and Path(config.rules_dir).is_dir():
                    write_rules(result.rules, config.rules_dir, self.table)
                if result.alerts and config.eve_path:
                    emit_eve(result.alerts, config.eve_path)
        except Exception as exc:
            log.warning("inspect %s failed: %s", pcap_path, exc, exc_info=True)
            return {"error": str(exc)}
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return {
            "alerts": [a.to_eve() for a in result.alerts],
            "rules": [r.render() for r in result.rules],
            "stats": result.stats(elapsed_ms),
        }


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        daemon: InspectorDaemon = self.server.daemon  # type: ignore[attr-defined]
        while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            if len(raw) > MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                self._refuse({"error": "request too long"})
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be an object")
            except ValueError:
                response = {"error": "parse"}
            else:
                response = daemon.handle_request(request)
            if not self._send(response):
                return

    def _refuse(self, response: dict) -> None:
        """Send `response`, then end the connection. Its unread input is
        read and dropped for up to DRAIN_S first: a socket closed with
        unread input resets the connection, and the client would lose
        the reply."""
        if not self._send(response):
            return
        conn = self.connection
        try:
            conn.shutdown(socket.SHUT_WR)
            conn.settimeout(DRAIN_S)
            deadline = time.monotonic() + DRAIN_S
            while time.monotonic() < deadline and conn.recv(MAX_REQUEST_BYTES):
                pass
        except OSError:  # a timeout, or the client went away
            pass

    def _send(self, response: dict) -> bool:
        try:
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
        except OSError:  # the client went away
            return False
        return True


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    allow_reuse_address = True
    daemon_threads = True


@contextlib.contextmanager
def running(config: InspectorConfig) -> Iterator[_UnixServer]:
    """The daemon's server, bound to config.socket_path, with its worker
    pool started; call `serve_forever` on it. On exit the workers are
    stopped and waited for, and the socket file is removed.

    The socket path must be free; a stale socket file left by an
    unclean shutdown is removed if nothing is listening on it. The model
    is loaded once here, so a bad model path fails before the socket is
    bound; the workers, started after, load their own copies.
    """
    path = config.socket_path
    if os.path.exists(path):
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
        except OSError:
            os.unlink(path)  # stale socket
        else:
            probe.close()
            raise OSError(f"socket {path} is already in use")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    load_predictor(config.model_path)
    # not imported with this module: `python -m wsdetect.inspector.worker`
    # imports the package first, and must not find the worker module there
    from wsdetect.inspector.worker import WorkerPool

    with _UnixServer(path, _Handler) as server:
        pool = None
        try:
            pool = WorkerPool(config.model_path, len(os.sched_getaffinity(0)))
            server.daemon = InspectorDaemon(  # type: ignore[attr-defined]
                config, classify=pool.classify)
            server.pool = pool  # type: ignore[attr-defined]
            log.info("inspector listening on %s, workers %s", path, pool.pids())
            yield server
        finally:
            if pool is not None:
                pool.close()
            if os.path.exists(path):
                os.unlink(path)


def serve(config: InspectorConfig) -> None:
    """Run the daemon on config.socket_path until interrupted."""
    with running(config) as server:
        server.serve_forever(poll_interval=0.2)
