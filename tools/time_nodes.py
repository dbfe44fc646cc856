"""Time outcome-tree node work in-process: the qid2 encode, a Haar single-shot pass and exact chain walks.

    PYTHONPATH=src python tools/time_nodes.py [--against OTHER/src] [--rounds 7] [--repeat 5]

Cases:
- the qid2 rule's `next_program` on a stack of K Haar-random residuals (the
  inverses and the SU(2) encode of K nodes), in us per node, at K = 1, 4, 20
  and 100; on a version whose rules take one residual, K calls;
- `cli.run_sample` of a bz_haar config of one full stream pass (4096 trials,
  one round each), in us per trial;
- `exact_walk` on a fresh tree of four loops whose trees collapse to chains,
  in ms per walk: qid2 at n = 200, u1 at n = 60, qidN(2) at k = 16 and the
  dim-7 diagonal processor at n = 20.

With --against, the qproc package under that source directory is loaded as
a second package and timed as well, case by case in turn within each round,
so both see the same drift of a shared machine. Each case reads the best of
--repeat runs per round; the median over rounds is printed.
"""
import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time

import numpy as np

import qproc


def _load(src: str):
    """The qproc package under the source directory src, imported under another name."""
    root = os.path.join(src, "qproc")
    spec = importlib.util.spec_from_file_location("qproc_against", os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _cases(package):
    """(label, unit, the factor from a run's seconds to the unit, run) for every case, on the package's modules."""
    loops, zoo, qlinalg, streams = package.loops, package.zoo, package.qlinalg, package.streams
    cli = importlib.import_module(f"{package.__name__}.cli")
    out = []
    rng = streams.derive_stream(11)
    proc, rule, target = zoo.qid2(), loops.qid2_rule(), qlinalg.su2_exp(np.array([0.2, -0.5, 0.9]))
    residuals = np.array([qlinalg.random_unitary(2, rng) for _ in range(100)])
    try:
        stacks = isinstance(rule.next_program(proc, target, residuals[:2]), list)
    except (TypeError, ValueError):  # a rule of one residual at a time
        stacks = False
    for k in (1, 4, 20, 100):
        stack = residuals[:k].copy()
        if stacks:
            run = lambda stack=stack: rule.next_program(proc, target, stack)  # noqa: E731
        else:
            run = lambda stack=stack: [rule.next_program(proc, target, r) for r in stack]  # noqa: E731
        out.append((f"qid2 next_program K={k}", "us/node", 1e6 / k, run))
    cfg = cli.ExperimentConfig("bz_haar", max_rounds=1, trials=streams.CHUNK, seed=3)
    out.append((f"bz_haar sample, {streams.CHUNK} trials", "us/trial", 1e6 / streams.CHUNK, lambda: cli.run_sample(cfg)))
    psi2 = np.array([0.6, 0.8], dtype=complex)
    chains = (
        ("qid2 n=200", (zoo.qid2(), target, loops.qid2_rule(), psi2), 200),
        ("u1 n=60", (zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule(), psi2), 60),
        ("qidN(2) k=16", (zoo.qidN(2), qlinalg.random_unitary(2, streams.derive_stream(7, 2)), loops.qidN_rule(), np.ones(2) / np.sqrt(2)), 16),
        ("diagonal dim 7 n=20", (zoo.qudit_diagonal_processor(7), np.diag(np.exp(2j * np.pi * np.arange(7) / 7)), loops.diagonal_rule(), np.ones(7) / np.sqrt(7)), 20),
    )
    for label, args, n in chains:
        out.append((f"exact walk {label}", "ms/walk", 1e3, lambda args=args, n=n: loops.exact_walk(loops.OutcomeTree(*args), n)))
    return out


def _best(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="another source directory holding a qproc package, to time side by side")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    packages = {"this": qproc, **({"against": _load(args.against)} if args.against else {})}
    cases = {name: _cases(package) for name, package in packages.items()}
    readings: dict = {}
    for _ in range(args.rounds):
        for name, package_cases in cases.items():
            for label, unit, scale, run in package_cases:
                readings.setdefault((label, unit, name), []).append(_best(run, args.repeat) * scale)
    for (label, unit, name), values in readings.items():
        print(f"{label:36s} {name:8s} {statistics.median(values):9.2f} {unit}")


if __name__ == "__main__":
    main()
