"""Time the `sample` trace writer in-process: `sample_json` plus `_write_text` per family.

    PYTHONPATH=src python tools/time_json.py [--against OTHER/src] [--rounds 7] [--repeat 5]

Payloads have the shape of the benchmark's sample commands: qid2 at 8
rounds, qidn n_dim 3 at 5, diagonal at 6, bz (z 0.8, two program qubits) at
6 and bz_haar at 1, each at 300 trials, and qidn n_dim 8 at 3 rounds and
200 trials. Each package writes a payload of its own `run_sample` (the
payloads are made before timing starts) to a file in a temporary directory,
in ms per file. Next to each time, the floor: float.__repr__ of the
payload's distinct floats, those of each distinct program, each distinct
round's probability, the config and the summary, which any writer of the
file must format.

With --against, the qproc package under that source directory is loaded as
a second package and timed as well. Within each round every payload is
timed for each package and for the floor in turn, and the one that goes
first alternates from round to round, so all see the same drift of a
shared machine. Each case reads the best of --repeat runs per round; the
median over rounds is printed.
"""
import argparse
import importlib
import os
import statistics
import sys
import tempfile

import numpy as np

import qproc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from time_nodes import _best, _interleaved, _load  # noqa: E402

PAYLOADS = (
    ("qid2", "qid2", {}, 8, 300),
    ("qidn3", "qidn", {"n_dim": 3}, 5, 300),
    ("diagonal", "diagonal", {}, 6, 300),
    ("bz", "bz", {"z": 0.8, "n_program": 2}, 6, 300),
    ("bz_haar", "bz_haar", {}, 1, 300),
    ("qidN(8)", "qidn", {"n_dim": 8}, 3, 200),
)


def _floats(value, out: list) -> None:
    """Append the floats of a params, config or summary value to out, as the JSON text holds them."""
    if isinstance(value, dict):
        for v in value.values():
            _floats(v, out)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _floats(v, out)
    elif isinstance(value, np.ndarray):
        out += np.asarray(value, dtype=complex).reshape(-1).view(float).tolist()
    elif isinstance(value, complex):
        out += (value.real, value.imag)
    elif isinstance(value, float):
        out.append(value)


def _distinct_floats(payload: dict) -> list[float]:
    out: list[float] = []
    programs, rounds = {}, {}
    for t in payload["traces"]:
        for r in t.rounds:
            rounds[id(r)] = r
            programs[id(r.program)] = r.program
    for p in programs.values():
        _floats(p.params, out)
    out += [r.probability for r in rounds.values()]
    _floats(payload["config"], out)
    _floats(payload["summary"], out)
    return out


def _cases(package, directory: str):
    """({label: run}, {label: floor run}) of every payload, on the package's cli."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    runs, floors = {}, {}
    for label, experiment, params, rounds, trials in PAYLOADS:
        cfg = cli.ExperimentConfig(experiment, params=params, max_rounds=rounds, trials=trials, seed=5)
        payload = cli.run_sample(cfg)
        path = os.path.join(directory, f"{package.__name__}-{label}.json")
        floats = _distinct_floats(payload)
        runs[label] = lambda p=payload, path=path: cli._write_text(path, cli.sample_json(p))
        floors[label] = lambda f=floats: list(map(float.__repr__, f))
    return runs, floors


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="another source directory holding a qproc package, to time side by side")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    packages = {"this": qproc, **({"against": _load(args.against)} if args.against else {})}
    with tempfile.TemporaryDirectory() as directory:
        cases = {name: _cases(package, directory) for name, package in packages.items()}
        runs = {name: cases[name][0] for name in packages}
        runs["floor"] = cases["this"][1]  # both packages write the same file
        readings = _interleaved(runs, args.rounds, lambda run: _best(run, args.repeat) * 1e3)
    for label, *_ in PAYLOADS:
        line = "  ".join(f"{name} {statistics.median(readings[label, name]):7.2f}" for name in (*packages, "floor"))
        print(f"{label:10s} {line} ms")


if __name__ == "__main__":
    main()
