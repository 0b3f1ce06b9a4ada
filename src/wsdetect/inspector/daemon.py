"""Local-socket daemon: newline-delimited JSON over a Unix stream socket.

Protocol, one JSON object per line:

  {"op": "ping"}                          -> {"ok": true}
  {"op": "inspect", "pcap_path": "..."}   -> {"alerts": [...], "rules": [...],
                                              "stats": {flows, webshell, benign,
                                                        packets, skipped_packets,
                                                        fragments, ms}}
  {"op": "blacklist"}                     -> {"blacklist": {ip: {...}, ...}}

Malformed JSON answers {"error": "parse"} and the connection stays up.
Requests on one connection are handled in order; connections are served
concurrently.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import socketserver
import threading
import time
from pathlib import Path

from wsdetect.inspector.config import InspectorConfig
from wsdetect.inspector.pipeline import (
    Blacklist,
    StubPredictor,
    _file_sids,
    emit_eve,
    inspect_pcap,
    write_rules,
)
from wsdetect.tensornet import load_model

log = logging.getLogger("wsdetect.inspector")


def load_predictor(model_path: str):
    """A model path, or "stub"/"stub:webshell"/"stub:benign" for the
    fixed-verdict predictor."""
    if model_path in ("stub", "stub:webshell"):
        return StubPredictor(forced_class=1)
    if model_path == "stub:benign":
        return StubPredictor(forced_class=0)
    return load_model(model_path)


class InspectorDaemon:
    """Shared state behind the socket server; also usable in-process."""

    def __init__(self, config: InspectorConfig, model=None):
        self.config = config
        self.model = model if model is not None else load_predictor(config.model_path)
        self.blacklist = Blacklist(ttl_s=config.blacklist_ttl_s)
        self.sid_for = _file_sids(config.rules_dir)
        self._write_lock = threading.Lock()

    def handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True}
        if op == "blacklist":
            return {"blacklist": {
                ip: {"first_seen": entry.first_seen,
                     "hit_count": entry.hit_count,
                     "expiry": entry.expiry}
                for ip, entry in self.blacklist.active().items()}}
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
        try:
            result = inspect_pcap(pcap_path, self.model, self.config,
                                  blacklist=self.blacklist, sid_for=self.sid_for)
        except Exception as exc:
            log.warning("inspect %s failed: %s", pcap_path, exc, exc_info=True)
            return {"error": str(exc)}
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._write_lock:
            if result.rules and Path(self.config.rules_dir).is_dir():
                write_rules(result.rules, self.config.rules_dir)
            if result.alerts and self.config.eve_path:
                emit_eve(result.alerts, self.config.eve_path)
        return {
            "alerts": [a.to_eve() for a in result.alerts],
            "rules": [r.render() for r in result.rules],
            "stats": result.stats(elapsed_ms),
        }


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        daemon: InspectorDaemon = self.server.daemon  # type: ignore[attr-defined]
        for raw in self.rfile:
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
            try:
                self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
                self.wfile.flush()
            except BrokenPipeError:
                return


class _UnixServer(socketserver.ThreadingUnixStreamServer):
    allow_reuse_address = True
    daemon_threads = True


def serve(config: InspectorConfig, model=None, ready: threading.Event | None = None):
    """Run the daemon on config.socket_path until interrupted.

    The socket path must be free; a stale socket file left by an
    unclean shutdown is removed if nothing is listening on it.
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

    daemon = InspectorDaemon(config, model=model)
    with _UnixServer(path, _Handler) as server:
        server.daemon = daemon  # type: ignore[attr-defined]
        log.info("inspector listening on %s", path)
        if ready is not None:
            ready.set()
        try:
            server.serve_forever(poll_interval=0.2)
        finally:
            if os.path.exists(path):
                os.unlink(path)
    return daemon
