"""Run `wsdetect inspect serve` with the benchmark's tracer installed.

Usage: python3 bench/serve_traced.py TRACE_OUT inspect serve [ARGS...]

The traced daemon run starts the daemon through this launcher instead
of the `wsdetect` entry point. It wraps the package's layers, serves
until SIGINT exactly as `wsdetect inspect serve` does, then writes the
spans, counters and GC pause time to TRACE_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from tracer import Tracer, install_package_hooks  # noqa: E402


def main(argv: list[str]) -> int:
    from wsdetect import cli

    tracer = Tracer()
    install_package_hooks(tracer)
    try:
        return cli.run(argv[1:])
    finally:
        Path(argv[0]).write_text(json.dumps(tracer.to_json()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
