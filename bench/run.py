"""The repository benchmark: one seeded workload per run.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed
in a child process (bench/prepare.py), then the workload runs against
the package's public entry points for S seconds and every output is
checked against what the generator planted; the times are scaled to
a reference host speed (see bench/hostspeed.py). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The full record, with the environment, the
verdict digest and every named metric, goes to bench/.work/results/.

With --trace 1 the tracer is installed and operations alternate, two
untraced and two traced; the per-layer metrics come from the traced
ones and trace.overhead_pct compares the two kinds.

See bench/README.md for the metrics, workloads and first numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "op_p50_ms": "ms"}


def _blas() -> dict:
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                info["threads"] = getter()
                return info
    return info


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wsdetect").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy as np

    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "commit": _commit(), "src_sha256": _source_digest()}


def _prepare(workload: str, seed: int, size: str, into: Path) -> dict:
    if workload == "train_models":
        return {"seed": seed}  # small inputs, generated in-process
    subprocess.run([sys.executable, str(BENCH / "prepare.py"), workload, str(seed), size,
                    str(into)], check=True, timeout=600)
    return json.loads((into / "truth.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "wsdetect" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'wsdetect'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from tracer import LAYER_METRICS, Tracer, install_package_hooks, layer_metrics
    from workloads import WORKLOADS, Inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = WORK / f"{tag}-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    env = environment(args)
    # SIGTERM unwinds like an error, so the `finally` blocks stop any daemon
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        truth = _prepare(args.workload, args.seed, args.size, scratch / "in")
        tracer = None
        if args.trace:
            tracer = Tracer()
            install_package_hooks(tracer)
        work = scratch / "out"
        work.mkdir(parents=True)
        outcome = run(Inputs(scratch / "in", truth, work, args.size), args.seconds, tracer)
        if not args.trace:
            metrics = {k: (outcome.metrics[k], unit) for k, unit in END_TO_END.items()}
        else:
            trace = outcome.trace or tracer.to_json()
            values = layer_metrics(trace, outcome.ops, outcome.layer_extra)
            metrics = {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}
            (WORK / "results").mkdir(parents=True, exist_ok=True)
            (WORK / "results" / f"{tag}.spans.json").write_text(json.dumps(trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ratio = outcome.failed / max(outcome.attempted, 1)
    named = {"ops_failed_ratio": (ratio, "ratio")}
    if not args.trace:  # a traced run's operations are half traced
        named.update(outcome.reported)
        named.update({k: (outcome.metrics[k], u) for k, u in END_TO_END.items()})
    print("env " + json.dumps(env))
    for name, (value, unit) in sorted(named.items()):
        print(f"e2e {name} {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"layer {name} {value:.6g} {unit}")
    for key, value in outcome.notes.items():
        print(f"note {key} {value}")
    if outcome.digest:
        print(f"digest {outcome.digest}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps({
        "env": env, "named": named, "metrics": metrics, "notes": outcome.notes,
        "digest": outcome.digest, "attempted": outcome.attempted, "failed": outcome.failed,
        "failures": outcome.failures, "time": time.time()}, indent=1, default=str))
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
