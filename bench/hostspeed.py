"""Host-speed probe: how fast the shared host ran during one run, and
the factor that scales the run's times to a reference speed.

The benchmark runs on a few cores of a shared host, whose speed drifts
by tens of percent over minutes as other tenants load its cores and
caches; medians within one run cannot remove a drift that lasts longer
than the run. So between its timed operations a run times two fixed
units of work that do not depend on the package under test: one of
interpreter work, one of BLAS work. Their medians are recorded with the
run (notes `host_py_unit_ms` and `host_blas_unit_ms`).

Each workload scales its times by `factor`: the product over the
units of (REFERENCE_S / median) raised to the workload's weight for
that unit, the weights summing to 1. A scaled time is a time on the
reference host at the reference speed. A change to the program moves a
scaled time as much as the raw one; a faster or slower minute of the
host moves the operations and the units together and cancels out. The
weights follow the kind of work the operations do: BLAS alone for
model training, half and half for the others (rule matching, parsing
and flow metering in the interpreter, the models in BLAS). The raw
times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import struct
import time

import numpy as np

# Median unit times on the reference host (2 cores of a shared x86-64
# VM, Python 3.11, numpy 2.4 with 2-thread scipy-openblas) over the
# ten-run sets recorded in README.md.
REFERENCE_S = {"py": 0.0055, "blas": 0.0030}

_BLOCK = bytes(range(256)) * 150
_ROW = struct.Struct("!HHI")
_ROWS = np.random.default_rng(0).standard_normal((1920, 400)).astype(np.float32)
_WEIGHTS = np.random.default_rng(1).standard_normal((400, 256)).astype(np.float32)


def _py_unit() -> int:
    """Struct unpacking, dict counting and integer arithmetic."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(0, len(_BLOCK) - 8, 4):
        a, b, c = _ROW.unpack_from(_BLOCK, i)
        key = (a ^ b) & 1023
        counts[key] = counts.get(key, 0) + 1
        total += c % 97
    return total + len(counts)


def _blas_unit() -> float:
    """A float32 matrix product of the size of one dense layer's batch."""
    return float((_ROWS @ _WEIGHTS)[0, 0])


class HostSpeed:
    """The unit timings of one run."""

    def __init__(self) -> None:
        self.units: dict[str, list[float]] = {"py": [], "blas": []}

    def probe(self, repeats: int = 3) -> None:
        """Time each unit `repeats` times, between two timed operations."""
        for _ in range(repeats):
            for kind, unit in (("py", _py_unit), ("blas", _blas_unit)):
                t0 = time.perf_counter()
                unit()
                self.units[kind].append(time.perf_counter() - t0)

    def notes(self) -> dict[str, float]:
        return {f"host_{kind}_unit_ms": round(1000 * statistics.median(times), 4)
                for kind, times in self.units.items() if times}

    def factor(self, weights: dict[str, float]) -> float:
        """Reference seconds per raw second in this run."""
        out = 1.0
        for kind, weight in weights.items():
            out *= (REFERENCE_S[kind] / statistics.median(self.units[kind])) ** weight
        return out
