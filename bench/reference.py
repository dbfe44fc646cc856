"""Machine-speed gauge: a fixed reference loop timed next to every measurement.

Shared virtual machines, such as the 2-vCPU one that defined this
benchmark, lend their CPUs to other work, and their speed drifts by 30% or
more over tens of seconds to minutes (a fixed pure-Python loop alone shows
it). The drift outlasts a run, so no median over a run removes it. The
benchmark therefore times this loop right before and right after each
measured batch and scales the batch time by REF_SECONDS over the loop's mean
time: the result is the duration at the speed the machine had when the
benchmark was defined. The raw durations are printed next to the scaled
ones. Set-up probes are not scaled (see run.py).

There are two loops, and each workload names the one whose mix resembles
its own: "interpreter" (small-matrix numpy calls and Python objects, like a
qubit loop round) and "dense" (contractions over a 64 x 64 grid of 8 x 8
blocks, like a qidN(8) round). Neither calls qproc, so a change to qproc
cannot move them.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

# Typical time of each reference loop on the machine that defined the
# benchmark (Intel Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6). They only set
# the scale and must never change once results are compared against them.
REF_SECONDS = {"interpreter": 0.006, "dense": 0.004}
REPEATS = 3

_A = (np.arange(16).reshape(4, 4) % 5 - 2.0) + 1j * (np.arange(16).reshape(4, 4) % 3 - 1.0)
_DENSE: dict[str, np.ndarray] = {}


@dataclass(frozen=True)
class _Record:
    index: int
    values: tuple


def interpreter_work() -> float:
    """Small-matrix numpy calls and Python objects, like a loop round of qproc."""
    acc = 0.0
    table = {}
    for i in range(150):
        b = _A @ np.conjugate(_A).T
        acc += float(np.vdot(b[0], b[1]).real) * 1e-6
        v = np.tensordot(b, _A[:, i % 4], axes=([1], [0]))
        acc += float(np.linalg.norm(v)) * 1e-6
        acc += float(np.linalg.svd(b[:3, :3], compute_uv=False)[0]) * 1e-6
        rec = _Record(i, tuple(x * 1.5 for x in range(12)))
        table[i % 17] = json.dumps({"i": rec.index, "v": list(rec.values)})
        acc += len(table[i % 17]) * 1e-9
    return acc


def dense_work() -> float:
    """Contractions of a 64 x 64 grid of 8 x 8 blocks, like a qidN(8) round."""
    if not _DENSE:
        grid = np.arange(64 * 64 * 8 * 8, dtype=float).reshape(64, 64, 8, 8)
        _DENSE["blocks"] = np.cos(grid) + 1j * np.sin(0.5 * grid)
        _DENSE["basis"] = np.exp(2j * np.pi * np.outer(np.arange(64), np.arange(64)) / 64) / 8
        _DENSE["amps"] = np.exp(1j * np.arange(64)) / 8
    acc = 0.0
    for _ in range(4):
        a_j = np.tensordot(_DENSE["blocks"], _DENSE["amps"], axes=([1], [0]))
        ops = np.tensordot(np.conjugate(_DENSE["basis"]), a_j, axes=([1], [0]))
        for op in ops:
            amp = op @ _DENSE["amps"][:8]
            acc += float(np.vdot(amp, amp).real) * 1e-9
    return acc


WORK = {"interpreter": interpreter_work, "dense": dense_work}


def reference_seconds(kind: str) -> float:
    """Fastest of REPEATS timings of one reference loop."""
    work = WORK[kind]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


class Gauge:
    """Scales durations to the reference machine speed, using one reference loop."""

    def __init__(self, kind: str):
        self.kind = kind
        self._last = reference_seconds(kind)
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        """Scale a duration that has just ended, using the loop timed before and after it."""
        now = reference_seconds(self.kind)
        factor = REF_SECONDS[self.kind] / ((self._last + now) / 2)
        self._last = now
        self.factors.append(factor)
        return seconds * factor
