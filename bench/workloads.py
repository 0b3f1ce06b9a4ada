"""The four benchmark workloads and the checks on their outputs.

Each workload function takes the prepared inputs, a measuring time and
an optional tracer, and returns an `Outcome`. Every operation's output
is checked against the planted truth; an operation that crashes, gets
no reply or returns a wrong result counts as failed.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from hostspeed import HostSpeed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DAEMON_CLIENTS = 2  # closed loop, one connection per core of the reference machine
SLICE_S = 4.0
IDLE_S = 0.3


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)   # end-to-end
    reported: dict[str, tuple[float, str]] = field(default_factory=dict)  # all named metrics
    notes: dict[str, object] = field(default_factory=dict)
    layer_extra: dict[str, float] = field(default_factory=dict)
    ops: int = 0
    digest: str = ""
    trace: dict | None = None  # spans recorded outside this process

    def check(self, ok: bool, message: str) -> None:
        """Count one checked operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    def report(self, name: str, value: float, unit: str) -> None:
        self.reported[name] = (value, unit)


@dataclass
class Inputs:
    root: Path                # prepared input directory
    truth: dict
    work: Path                # scratch directory for the program's outputs
    size: str


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _loop(seconds: float, setup, op, tracer=None):
    """Time `state = setup()` then `op(state)`, at least once and then
    while another round fits in `seconds` at the median round so far.

    Set-up is sampled before every op, so its median, like the op's,
    spans the whole run. The host's speed is probed before the first
    round and after each one, outside the timed parts. With a tracer,
    rounds go two untraced, two traced, and so on; a traced op runs
    inside a root span "bench.op" and set-up is never traced. Returns
    (set-up times, op times, traced flags, host speed), times in seconds.
    """
    if tracer is not None:
        tracer.enabled = False
    speed = HostSpeed()
    start = time.perf_counter()
    speed.probe()
    setups: list[float] = []
    times: list[float] = []
    traced: list[bool] = []
    rounds: list[float] = []
    while True:
        on = tracer is not None and len(times) // 2 % 2 == 1
        t0 = time.perf_counter()
        state = setup()
        t1 = time.perf_counter()
        if on:
            tracer.enabled = True
            tracer.span("bench.op", op, state)
            tracer.enabled = False
        else:
            op(state)
        t2 = time.perf_counter()
        speed.probe()
        t3 = time.perf_counter()
        setups.append(t1 - t0)
        times.append(t2 - t1)
        traced.append(on)
        rounds.append(t3 - t0)
        if t3 - start + statistics.median(rounds) > seconds:
            return setups, times, traced, speed


def _overhead_pct(times: list[float]) -> float:
    """Tracing overhead from rounds in [plain, plain, traced, traced]
    groups: the median over groups of traced over plain time, as % above 1."""
    ratios = [(times[i + 2] + times[i + 3]) / (times[i] + times[i + 1])
              for i in range(0, len(times) - 3, 4)]
    return 100 * (statistics.median(ratios) - 1) if ratios else 0.0


def _host_factor(out: Outcome, speed: HostSpeed, weights: dict[str, float]) -> float:
    """Record the host's speed in `out` and return the factor that scales
    this run's times to the reference host (see hostspeed.py)."""
    factor = speed.factor(weights)
    out.notes.update(speed.notes())
    out.notes["host_factor"] = round(factor, 4)
    return factor


def _report_raw(out: Outcome, factor: float) -> None:
    """Print the timed end-to-end metrics unscaled too."""
    out.report("raw_setup_s", out.metrics["setup_s"] / factor, "s")
    out.report("raw_work_per_s", out.metrics["work_per_s"] * factor, "1/s")
    out.report("raw_op_p50_ms", out.metrics["op_p50_ms"] / factor, "ms")


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- inspect_bulk --------------------------------------------------------------

def inspect_bulk(inp: Inputs, seconds: float, tracer=None) -> Outcome:
    """`inspect once` in-process on one large capture, repeated."""
    import wsdetect.inspector as inspector
    from wsdetect.flowmeter import read_pcap
    from wsdetect.inspector import daemon, pipeline

    truth = inp.truth
    pcap = inp.root / truth["pcap"]
    rules_dir = inp.work / "rules"
    rules_dir.mkdir()
    eve = inp.work / "eve.json"
    overrides = {"model_path": str(inp.root / "dnn.bin"), "rules_dir": str(rules_dir)}
    attackers = {ip for ip, _ in truth["webshell"]}
    planted = {tuple(x) for x in truth["webshell"]}
    out = Outcome()

    def setup():
        config = inspector.load_config(None, overrides)
        return config, daemon.load_predictor(config.model_path)

    passes = []

    def one_pass(state):
        config, model = state
        result = inspector.inspect_pcap(pcap, model, config)
        pipeline.emit_eve(result.alerts, eve)
        if result.rules:
            inspector.write_rules(result.rules, config.rules_dir)
        passes.append(result)

    setup_times, times, traced, speed = _loop(seconds, setup, one_pass, tracer)
    # flowmeter and inspector in the interpreter, the DNN forward in BLAS
    factor = _host_factor(out, speed, {"py": 0.5, "blas": 0.5})
    setup_times, times = [t * factor for t in setup_times], [t * factor for t in times]

    for k, result in enumerate(passes):
        alerted = {(a.src_ip, a.src_port) for a in result.alerts}
        out.check(result.flows == truth["flows"]
                  and result.skipped_packets == truth["skipped"]
                  and {ip for ip, _ in alerted} <= attackers,
                  f"pass {k}: flows {result.flows}/{truth['flows']}, skipped "
                  f"{result.skipped_packets}/{truth['skipped']}, alerts to "
                  f"{sorted({ip for ip, _ in alerted} - attackers)[:5]}")
    capture = read_pcap(pcap)
    out.check(len(capture.packets) == truth["packets"] and capture.skipped == truth["skipped"],
              f"read_pcap: {len(capture.packets)} packets, {capture.skipped} skipped; "
              f"planted {truth['packets']}, {truth['skipped']}")
    first = passes[0]
    alerted = {(a.src_ip, a.src_port) for a in first.alerts}
    out.notes["dnn_agreement"] = round(1 - len(alerted ^ planted) / truth["flows"], 4)
    out.digest = _digest(sorted([a.src_ip, a.src_port, a.dest_ip, a.dest_port, a.proto]
                                for a in first.alerts))

    rate = statistics.median(truth["packets"] / t for t in times)
    out.ops = sum(traced)
    out.metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": _peak_rss_mb(),
                   "work_per_s": rate, "op_p50_ms": 1000 * statistics.median(times)}
    _report_raw(out, factor)
    out.report("pkts_per_s", rate, "1/s")
    out.report("flows_per_s", rate * truth["flows"] / truth["packets"], "1/s")
    rules_file = rules_dir / pipeline.RULE_FILE_NAME
    out.layer_extra = {
        "inspector.write_rules.file_rules": len(rules_file.read_text().splitlines())
        if rules_file.exists() else 0,
        "trace.overhead_pct": _overhead_pct(times)}
    return out


# --- inspect_daemon ----------------------------------------------------------

def _socket_address(path: Path) -> str:
    """Unix socket paths are limited to about 100 bytes; fall back to a
    path relative to the working directory, which client and daemon share."""
    text = str(path)
    return text if len(text.encode()) < 100 else os.path.relpath(text)


class _Daemon:
    """One `wsdetect inspect serve` process (or the traced launcher)."""

    def __init__(self, inp: Inputs, sock: str, trace_out: Path | None = None):
        args = ["inspect", "serve", "--model", str(inp.root / "dnn.bin"),
                "--socket", sock, "--rules-dir", str(inp.work / "rules"),
                "--eve", str(inp.work / "eve.json")]
        if trace_out is None:
            argv = [sys.executable, "-m", "wsdetect.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "serve_traced.py"), str(trace_out), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.sock = sock
        self.log = open(inp.work / "daemon.log", "ab")
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                     stdout=self.log, stderr=self.log)
        self.peak_rss_mb = 0.0

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with code {self.proc.returncode}")
            try:
                with _Client(self.sock) as client:
                    if client.ask({"op": "ping"}) == {"ok": True}:
                        return
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("daemon did not answer ping in time")

    def stop(self, timeout: float = 30.0) -> None:
        """SIGINT, as an operator's Ctrl-C; reap and record peak RSS."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + timeout
        usage = None
        while usage is None:
            try:
                pid, _, usage = os.wait4(self.proc.pid, os.WNOHANG)
            except ChildProcessError:  # already reaped by poll()
                break
            if pid == 0:
                usage = None
                if time.monotonic() > deadline:
                    self.proc.kill()
                    _, _, usage = os.wait4(self.proc.pid, 0)
                else:
                    time.sleep(0.01)
        if usage is not None:
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            self.proc.returncode = 0
        self.log.close()


class _Client:
    def __init__(self, sock: str):
        self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.conn.connect(sock)
        except OSError:
            self.conn.close()
            raise
        self.reader = self.conn.makefile("rb")

    def ask(self, request: dict):
        self.conn.sendall((json.dumps(request) + "\n").encode())
        line = self.reader.readline()
        return json.loads(line) if line else None

    def close(self) -> None:
        self.reader.close()
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


_RULE_LINE = re.compile(r"^(drop|alert) ip (\S+) any -> \$HOME_NET any .*sid:(\d+); rev:(\d+);\)$")


def _drive(inp: Inputs, sock: str, seconds: float, trace_out: Path | None,
           speed: HostSpeed):
    """Start one daemon, drive it for `seconds` with DAEMON_CLIENTS
    closed-loop connections, stop it. The clients pause every SLICE_S
    seconds while the host's speed is probed; the pauses are not counted
    in the elapsed time. Returns (start-up seconds, records of (request,
    sent, done, reply), elapsed seconds, peak RSS in MB).

    Before each probe the clients wait IDLE_S: an idle daemon's BLAS
    threads spin for a while after their last product, and would slow
    the BLAS unit."""
    requests = inp.truth["requests"]
    records = []
    counter = itertools.count()
    lock = threading.Lock()
    t0 = time.perf_counter()
    daemon = _Daemon(inp, sock, trace_out)
    try:
        daemon.wait_ready()
        started = time.perf_counter() - t0
        clients = [_Client(sock) for _ in range(DAEMON_CLIENTS)]

        def worker(client: _Client, deadline: float):
            while time.perf_counter() < deadline:
                with lock:
                    req = requests[next(counter) % len(requests)]
                sent = time.perf_counter()
                try:
                    reply = client.ask({"op": "inspect",
                                        "pcap_path": str(inp.root / req["pcap"])})
                except OSError:  # the daemon went away: counted as no reply
                    reply = None
                records.append((req, sent, time.perf_counter(), reply))
                if reply is None:
                    return

        try:
            elapsed = 0.0
            end = time.perf_counter() + seconds
            while (start := time.perf_counter()) < end:
                deadline = min(start + SLICE_S, end)
                threads = [threading.Thread(target=worker, args=(client, deadline))
                           for client in clients]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(SLICE_S + 120)
                elapsed += time.perf_counter() - start
                time.sleep(IDLE_S)
                speed.probe()
        finally:
            for client in clients:
                client.close()
    finally:
        daemon.stop()
    return started, records, elapsed, daemon.peak_rss_mb


def _served(records) -> dict:
    """Latencies and work of the good inspect replies among `records`."""
    ok = [(1000 * (done - sent), req, reply) for req, sent, done, reply in records
          if req["expect"] == "ok" and reply and "error" not in reply]
    return {"latency_ms": sorted(ms for ms, _, _ in ok),
            "handle_ms": [reply["stats"]["ms"] for _, _, reply in ok],
            "wait_ms": [ms - reply["stats"]["ms"] for ms, _, reply in ok],
            "packets": sum(req["packets"] for _, req, _ in ok),
            "flows": sum(req["flows"] for _, req, _ in ok),
            "errors": sum(1 for *_, reply in records if reply and "error" in reply)}


def inspect_daemon(inp: Inputs, seconds: float, tracer=None) -> Outcome:
    """`wsdetect inspect serve` in its own process, driven by a closed
    loop of DAEMON_CLIENTS connections.

    With a tracer, plain daemons and daemons started through
    serve_traced.py alternate in six segments, so the tracing overhead
    compares segments from the same minutes.
    """
    (inp.work / "rules").mkdir()
    sock = _socket_address(inp.work / "d.sock")
    out = Outcome()

    speed = HostSpeed()
    setup_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        probe = _Daemon(inp, sock)
        try:
            probe.wait_ready()
            setup_times.append(time.perf_counter() - t0)
        finally:
            probe.stop()
        speed.probe()
    plan = [(seconds, None)] if tracer is None else [
        (seconds / 6, inp.work / f"trace{k}.json" if k % 2 else None) for k in range(6)]
    segments = []
    for length, trace_out in plan:
        started, records, elapsed, peak = _drive(inp, sock, length, trace_out, speed)
        setup_times.append(started)
        segments.append((trace_out, records, elapsed, peak))

    digest_rows = {}
    for _, records, _, _ in segments:
        for req, _, _, reply in records:
            if reply is None:
                out.check(False, f"{req['pcap']}: no reply")
            elif req["expect"] == "ok":
                attackers = {ip for ip, _ in req["webshell"]}
                good = "error" not in reply and reply["stats"]["flows"] == req["flows"]
                alerted = {a["src_ip"] for a in reply.get("alerts", [])}
                out.check(good and alerted <= attackers,
                          f"{req['pcap']}: reply {str(reply)[:200]}")
                digest_rows.setdefault(req["pcap"], sorted(
                    [a["src_ip"], a["src_port"], a["dest_ip"], a["dest_port"]]
                    for a in reply.get("alerts", [])))
            else:
                wanted = "truncated" if req["expect"] == "truncated" else "No such file"
                out.check(set(reply) == {"error"} and wanted in reply["error"],
                          f"{req['pcap']}: expected a {req['expect']} error, "
                          f"got {str(reply)[:200]}")
    rules_file = inp.work / "rules" / "webshell-generated.rules"
    lines = rules_file.read_text().splitlines() if rules_file.exists() else []
    parsed = [_RULE_LINE.match(line) for line in lines]
    sids = [int(m.group(3)) for m in parsed if m]
    out.check(bool(lines) and all(parsed) and len(sids) == len(set(sids))
              and {m.group(2) for m in parsed} <= set(gen.ATTACKER_POOL),
              f"rules file: {len(lines)} lines, {len(sids) - len(set(sids))} duplicate sids")
    out.digest = _digest(digest_rows)

    plain = [seg for seg in segments if seg[0] is None]
    records = [r for seg in plain for r in seg[1]]
    served = _served(records)
    tail_pct, tail = _tail(served["latency_ms"])
    # flowmeter, trafficmodel and inspector in the interpreter, the DNN in BLAS
    factor = _host_factor(out, speed, {"py": 0.5, "blas": 0.5})
    elapsed = factor * sum(seg[2] for seg in plain)
    p50, tail = factor * statistics.median(served["latency_ms"]), factor * tail
    out.notes.update({"requests": len(records), "error_replies": served["errors"],
                      "tail_percentile": tail_pct, "latency_samples": len(served["latency_ms"])})
    out.metrics = {"setup_s": factor * statistics.median(setup_times),
                   "peak_rss_mb": max(seg[3] for seg in plain),
                   "work_per_s": len(records) / elapsed, "op_p50_ms": p50}
    _report_raw(out, factor)
    out.report("req_per_s", len(records) / elapsed, "1/s")
    out.report("pkts_per_s", served["packets"] / elapsed, "1/s")
    out.report("flows_per_s", served["flows"] / elapsed, "1/s")
    out.report("req_latency_p50_ms", p50, "ms")
    out.report("req_latency_tail_ms", tail, "ms")
    if tracer is not None:
        traced = [seg for seg in segments if seg[0] is not None]
        traced_records = [r for seg in traced for r in seg[1]]
        served = _served(traced_records)
        ratios = [(len(p[1]) / p[2]) / (len(t[1]) / t[2]) for p, t in zip(plain, traced)]
        out.ops = len(traced_records)
        out.layer_extra = {
            "inspector.daemon.handle_ms": statistics.median(served["handle_ms"]),
            "inspector.daemon.wait_ms": statistics.median(served["wait_ms"]),
            "inspector.daemon.errors": served["errors"] / max(len(traced_records), 1),
            "inspector.write_rules.file_rules": len(lines),
            "trace.overhead_pct": 100 * (statistics.median(ratios) - 1)}
        out.trace = _merge_traces([json.loads(seg[0].read_text()) for seg in traced])
    return out


def _merge_traces(traces: list[dict]) -> dict:
    """One trace from several processes' traces; span ids are renumbered
    apart so parents stay within their own process."""
    spans = []
    for k, trace in enumerate(traces):
        offset = k * 10 ** 9
        spans += [[sid + offset, parent + offset if parent else 0, *rest]
                  for sid, parent, *rest in trace["spans"]]
    return {"spans": spans, "gc_pause_s": sum(t["gc_pause_s"] for t in traces)}


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _tail(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile in TAIL_PERCENTILES with at least ten
    samples beyond it, and its value (nearest rank)."""
    n = len(sorted_values)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            rank = min(n - 1, math.ceil(pct / 100 * n) - 1)
            return pct, sorted_values[rank]
    return 100.0, sorted_values[-1]


# --- scan_src --------------------------------------------------------------------

def scan_src(inp: Inputs, seconds: float, tracer=None) -> Outcome:
    """`wsdetect predict src --rules` in-process, one call per chunk of files."""
    import wsdetect.srcmodel  # noqa: F401 - registers the CNN checkpoint kind, as the CLI does
    from wsdetect import cli
    from wsdetect.opcode import builtin_vocabulary
    from wsdetect.rulelang import load_rules_file
    from wsdetect.tensornet import load_model

    chunks = inp.truth["chunks"]
    model, rules = str(inp.root / "cnn.bin"), str(inp.root / "rules.yar")
    out = Outcome()

    def setup():
        load_model(model)
        load_rules_file(rules)
        builtin_vocabulary("php")

    calls = []

    def one_chunk(_):
        files = chunks[len(calls) % len(chunks)]
        stdout, stderr = io.StringIO(), io.StringIO()
        code = cli.run(["predict", "src", "--model", model, "--rules", rules,
                        *(str(inp.root / f["path"]) for f in files)], stdout, stderr)
        calls.append((files, code, stdout.getvalue(), stderr.getvalue()))

    setup_times, times, traced, speed = _loop(seconds, setup, one_chunk, tracer)
    # rulelang and opcode in the interpreter, the CNN forward in BLAS
    factor = _host_factor(out, speed, {"py": 0.5, "blas": 0.5})
    setup_times, times = [t * factor for t in setup_times], [t * factor for t in times]

    digests = {}
    for k, (files, code, stdout, stderr) in enumerate(calls):
        verdicts = {}
        for line in stdout.splitlines() + stderr.splitlines():
            row = json.loads(line)
            verdicts[Path(row["path"]).name] = row
        out.check(code == 3, f"call {k}: exit code {code}")
        for f in files:
            row = verdicts.get(Path(f["path"]).name, {})
            if not f["opcodes"]:
                ok = "no php opcode rows recognized" in row.get("error", "")
            elif f["rule"] is not None:
                ok = row.get("source") == "rules" and row.get("rules") == [f["rule"]]
            else:
                ok = row.get("source") == "cnn" and not row.get("rules") \
                    and 0.0 <= row.get("p_webshell", -1.0) <= 1.0
            out.check(ok, f"{f['path']}: {str(row)[:200]}")
        digests.setdefault(k % len(chunks), sorted(
            [Path(r["path"]).name, r.get("label", "error"), r.get("source")]
            for r in verdicts.values()))

    mb = [sum(f["bytes"] for f in files) / 1e6 for files, *_ in calls]
    out.ops = sum(len(call[0]) for call, on in zip(calls, traced) if on)
    out.layer_extra["trace.overhead_pct"] = _overhead_pct(times)
    out.digest = _digest(digests)
    out.notes["chunks_in_digest"] = len(digests)
    files_rate = statistics.median(len(c[0]) / t for c, t in zip(calls, times))
    out.metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": _peak_rss_mb(),
                   "work_per_s": files_rate, "op_p50_ms": 1000 * statistics.median(times)}
    _report_raw(out, factor)
    out.report("files_per_s", files_rate, "1/s")
    out.report("src_mb_per_s", statistics.median(m / t for m, t in zip(mb, times)), "MB/s")
    return out


# --- train_models -----------------------------------------------------------------

def train_models(inp: Inputs, seconds: float, tracer=None) -> Outcome:
    """One epoch of the opcode CNN and weighted DNN training at the
    TabularConfig defaults. The next fit is of the model with less
    time spent so far, so the cheaper DNN fit gets more samples."""
    from wsdetect.opcode import OciVector, builtin_vocabulary
    from wsdetect.srcmodel import CnnConfig, cnn_predict_batch, train_cnn
    from wsdetect.trafficmodel import TabularConfig, TabularDataset, dnn_predict, train_dnn

    seed = inp.truth["seed"]
    size = gen.SIZES[inp.size]
    vocab = builtin_vocabulary("php")
    rows, labels = gen.oci_rows(seed, size["oci_vectors"], len(vocab), 2000)
    vectors = [OciVector(r) for r in rows]
    cats, cont, flow_labels = gen.flow_rows(seed, size["flow_rows"])
    dataset = TabularDataset(cats, cont, flow_labels)
    cnn_config = CnnConfig.php(vocab_size=len(vocab), max_length=2000, epochs=1, seed=seed)
    dnn_config = TabularConfig(weighted=True, seed=seed)
    out = Outcome()
    fit_times = {"cnn": [], "dnn": []}
    histories = []
    verdicts = {}

    def setup():
        # everything a training call does before its first batch
        train_cnn(vectors, labels, CnnConfig.php(vocab_size=len(vocab), max_length=2000,
                                                 epochs=0, seed=seed), language="php",
                  vocab=vocab)
        train_dnn(dataset, TabularConfig(weighted=True, epochs=0, seed=seed))

    def one_fit(_):
        kind = "cnn" if sum(fit_times["cnn"]) <= sum(fit_times["dnn"]) else "dnn"
        t0 = time.perf_counter()
        if kind == "cnn":
            model, history = train_cnn(vectors, labels, cnn_config, language="php", vocab=vocab)
        else:
            model, history = train_dnn(dataset, dnn_config)
        fit_times[kind].append(time.perf_counter() - t0)
        histories.append((kind, history))
        if tracer is None and kind not in verdicts:  # outside fit_times; untraced runs only
            verdicts[kind] = (cnn_predict_batch(model, vectors[:8]).argmax(axis=1).tolist()
                              if kind == "cnn" else
                              dnn_predict(model, dataset.subset(range(256)))[1].tolist())

    setup_times, times, traced, speed = _loop(seconds, setup, one_fit, tracer)
    if not fit_times["dnn"]:  # a run too short for the second fit still covers both models
        one_fit(None)
    # the forward and backward passes and Adam are BLAS and numpy work
    factor = _host_factor(out, speed, {"blas": 1.0})
    setup_times, times = [t * factor for t in setup_times], [t * factor for t in times]
    fit_times = {kind: [t * factor for t in raw] for kind, raw in fit_times.items()}

    for k, (kind, history) in enumerate(histories):
        losses = [e.loss for e in history.epochs]
        want = cnn_config.epochs if kind == "cnn" else dnn_config.epochs
        out.check(len(history) == want and all(math.isfinite(x) for x in losses),
                  f"{kind} fit {k}: {len(history)}/{want} epochs, losses {losses}")
    out.digest = _digest(verdicts) if verdicts else ""

    cnn_rate = statistics.median(len(vectors) / t for t in fit_times["cnn"])
    dnn_rate = statistics.median(len(dataset) * dnn_config.epochs / t for t in fit_times["dnn"])
    out.ops = sum(traced)
    out.layer_extra["trace.overhead_pct"] = _overhead_pct(times)
    out.metrics = {"setup_s": statistics.median(setup_times), "peak_rss_mb": _peak_rss_mb(),
                   "work_per_s": cnn_rate,
                   "op_p50_ms": 1000 * statistics.median(fit_times["dnn"])}
    _report_raw(out, factor)
    out.report("cnn_train_samples_per_s", cnn_rate, "1/s")
    out.report("dnn_train_rows_per_s", dnn_rate, "1/s")
    return out


WORKLOADS = {"inspect_bulk": inspect_bulk, "inspect_daemon": inspect_daemon,
             "scan_src": scan_src, "train_models": train_models}
