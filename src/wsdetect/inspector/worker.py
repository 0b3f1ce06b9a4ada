"""Inspection worker processes: the daemon's `classify_pcap`, one process
per core.

A worker is ``python -m wsdetect.inspector.worker MODEL_PATH``. It loads
the model once, then reads one JSON string, a capture path, per line on
its standard input, and answers each on the standard output it was
started with: an 8-byte little-endian length, then a pickle of
``("ok", Verdicts)`` or ``("error", exception, traceback text)``. It
keeps that stream to itself and points file descriptor 1 at standard
error, so a stray print cannot corrupt a reply. It ignores SIGINT, which
a terminal sends to the whole process group: the daemon stops its
workers by closing their input. A worker exits at the end of its input,
so it cannot outlive a daemon that was killed.

`WorkerPool` is the daemon's side: one worker per slot, each lent to
one connection thread at a time.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import queue
import signal
import struct
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import wsdetect
from wsdetect.inspector.pipeline import (
    InspectorError,
    Verdicts,
    classify_pcap,
    load_predictor,
)

log = logging.getLogger("wsdetect.inspector")

_LENGTH = struct.Struct("<Q")

# the package's import root, which a worker must import the same package from
_IMPORT_ROOT = str(Path(wsdetect.__file__).resolve().parent.parent)


class WorkerError(InspectorError):
    """An inspection worker died, or broke the reply protocol."""


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a worker; set as the
    cause of the exception re-raised in the daemon, so a logged failure
    shows where in the worker it happened."""

    def __init__(self, text: str):
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return self.text


def _exit_status(returncode: int | None) -> str:
    if returncode is None:
        return "closed its output"
    if returncode < 0:
        try:
            return f"was killed by {signal.Signals(-returncode).name}"
        except ValueError:
            return f"was killed by signal {-returncode}"
    return f"exited with code {returncode}"


class _Worker:
    """One worker process and its two pipes."""

    def __init__(self, model_path: str):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [_IMPORT_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "wsdetect.inspector.worker", model_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)

    def classify(self, pcap_path: str) -> Verdicts:
        proc = self.proc
        try:
            proc.stdin.write(json.dumps(pcap_path).encode("utf-8") + b"\n")
            proc.stdin.flush()
            header = proc.stdout.read(_LENGTH.size)
            body = b""
            if len(header) == _LENGTH.size:
                size = _LENGTH.unpack(header)[0]
                body = proc.stdout.read(size)
                if len(body) != size:  # cut short: the worker died writing it
                    body = b""
        except (OSError, ValueError):  # a broken or closed pipe
            body = b""
        if not body:
            try:
                returncode = proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                returncode = None
            raise WorkerError(
                f"inspection worker {proc.pid} {_exit_status(returncode)} "
                f"while inspecting {pcap_path}")
        reply = pickle.loads(body)
        if reply[0] == "ok":
            return reply[1]
        _, exc, text = reply
        raise exc from _RemoteTraceback(text)

    def close_input(self) -> None:
        try:
            self.proc.stdin.close()
        except (OSError, ValueError):  # the worker is gone already
            pass

    def reap(self, deadline: float) -> None:
        """Wait for the process until `deadline`, then kill it."""
        try:
            self.proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class WorkerPool:
    """`size` worker processes. `classify` lends an idle one to the
    calling thread, and replaces a worker that dies. `close` ends every
    worker: it closes their input, waits for them until a deadline, then
    kills the ones still running."""

    def __init__(self, model_path: str, size: int):
        self.model_path = model_path
        self._idle: queue.SimpleQueue[_Worker] = queue.SimpleQueue()
        self._workers: list[_Worker] = []
        self._lock = threading.Lock()
        self._closed = False
        try:
            for _ in range(size):
                self._idle.put(self._spawn())
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> _Worker:
        worker = _Worker(self.model_path)
        self._workers.append(worker)
        return worker

    def classify(self, pcap_path: str) -> Verdicts:
        worker = self._idle.get()
        try:
            return worker.classify(pcap_path)
        except WorkerError:
            worker = self._replace(worker)
            raise
        finally:
            self._idle.put(worker)

    def _replace(self, dead: _Worker) -> _Worker:
        """A fresh worker for `dead`, which is killed if it still runs;
        after `close`, `dead` itself, so later calls fail fast."""
        dead.close_input()
        dead.reap(time.monotonic())
        with self._lock:
            if self._closed:
                return dead
            self._workers.remove(dead)
            fresh = self._spawn()
        log.warning("inspection worker %d replaced by %d", dead.proc.pid, fresh.proc.pid)
        return fresh

    def pids(self) -> list[int]:
        with self._lock:
            return [worker.proc.pid for worker in self._workers]

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            worker.close_input()
        deadline = time.monotonic() + timeout
        for worker in workers:
            worker.reap(deadline)


def main(argv: list[str] | None = None) -> int:
    [model_path] = sys.argv[1:] if argv is None else argv
    replies = os.dup(1)
    os.dup2(2, 1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    model = load_predictor(model_path)
    for line in sys.stdin.buffer:
        try:
            reply = ("ok", classify_pcap(json.loads(line), model))
        except Exception as exc:
            text = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that does not survive pickling
                exc = InspectorError(f"{type(exc).__name__}: {exc}")
            reply = ("error", exc, text)
        data = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(data)) + data)
        try:
            while view:
                view = view[os.write(replies, view):]
        except BrokenPipeError:  # the daemon is gone
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
