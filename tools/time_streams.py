"""Time batch stream derivation in-process, in ns per stream.

    PYTHONPATH=src python tools/time_streams.py [--against OTHER/streams.py] [--rounds 15] [--repeat 50]

Cases: `pcg64_states` alone and `first_uniforms` (states plus one PCG64
step) on one 2000-stream point (single-shot-sweep's trials per point, one
short pass) and on one full CHUNK pass, and, where `points` is supported,
on single-shot-sweep's bz grid (12 points of 2000 streams) in passes that
span points. With --against, the streams module in that file is timed as
well, case by case in turn within each round, so both see the same drift of
a shared machine. Each case reads the best of --repeat runs per round;
the median over rounds is printed. The seed is a 31-bit int, as the
benchmark draws them.
"""
import argparse
import importlib.util
import inspect
import statistics
import time

from qproc import streams

SEED, POINT, GRID = 1234567891, 5, range(12)


def _load(path: str):
    spec = importlib.util.spec_from_file_location("other_streams", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cases(module):
    """(label, streams per run, run) for every case the module supports."""
    out = []
    for layer in ("pcg64_states", "first_uniforms"):
        fn = getattr(module, layer)
        for label, n in (("2000-stream point", 2000), (f"full pass ({module.CHUNK})", module.CHUNK)):
            out.append((f"{layer} {label}", n, lambda fn=fn, n=n: fn((SEED, POINT), range(1, n + 1))))
        if "points" in inspect.signature(fn).parameters:
            out.append((f"{layer} 12 x 2000 spanning", 2000 * len(GRID), lambda fn=fn: fn((SEED,), range(1, 2001), points=GRID)))
    return out


def _best_ns(run, n: int, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter_ns()
        for _ in run():  # consume the generator: the work happens per pass
            pass
        best = min(best, time.perf_counter_ns() - t0)
    return best / n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="another streams.py to time side by side")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--repeat", type=int, default=50)
    args = parser.parse_args()
    modules = {"this": streams, **({"against": _load(args.against)} if args.against else {})}
    cases = {name: _cases(module) for name, module in modules.items()}
    readings: dict = {}
    for _ in range(args.rounds):
        for name, module_cases in cases.items():
            for label, n, run in module_cases:
                readings.setdefault((label, name), []).append(_best_ns(run, n, args.repeat))
    for (label, name), values in readings.items():
        print(f"{label:34s} {name:8s} {statistics.median(values):7.1f} ns/stream")


if __name__ == "__main__":
    main()
