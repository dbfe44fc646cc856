"""Time outcome-tree node work in-process: lone-node stages, the qid2 encode, a Haar single-shot pass and exact chain walks.

    PYTHONPATH=src python tools/time_nodes.py [--against OTHER/src] [--rounds 7] [--repeat 5]

Cases:
- the stages of one lone chain node, in us per call (a run is a hundred
  calls in a row): the rule's `next_program` on the residual of the root's
  first failure child, for the qid2, u1, qidN(2) and dim-7 diagonal loops
  below, and, on the qid2 node, `branch_operators` of its program, its exact
  entry (`_fold` of one round), its collapse test (`_state_independent`, on
  a stack of one where a lone node's test took one) and the `tree.child`
  step that builds it;
- the qid2 rule's `next_program` on a stack of K Haar-random residuals (the
  inverses and the SU(2) encode of K nodes), in us per node, at K = 1, 4, 20
  and 100; on a version whose rules take one residual, K calls;
- `cli.run_sample` of a bz_haar config of one full stream pass (4096 trials,
  one round each), in us per trial;
- `exact_walk` on a fresh tree of the loops whose trees collapse to chains
  in exact-grid's sweeps, in ms per walk: qid2 at n = 200, u1 at n = 60,
  qidN(2), qidN(3) and qidN(4) at k = 16 on Haar targets, and the dim-3, 5
  and 7 diagonal processors at n = 20;
- `exact_walk` on a fresh tree of loops that enumerate their trees below the
  first node that does not collapse, in ms per walk: exact-grid's qidn k = 24
  (target seed 7) and dim-3 diagonal n = 30 sweep points, where rounding
  drift breaks the collapse, the dim-5 diagonal entries [0.8, 1.2, 1.0, 0.9,
  1.1] at n = 6 and 8, and qidN(2) on diag(0.1, 1) at k = 12.

With --against, the qproc package under that source directory is loaded as
a second package and timed as well. Within each round every case is timed
for both packages in turn, and the package that goes first alternates from
round to round, so both see the same drift of a shared machine. Each case
reads the best of --repeat runs per round; the median over rounds is
printed.
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


def _chains(package) -> list:
    """(label, OutcomeTree arguments, rounds) of each chain loop."""
    loops, zoo, qlinalg, streams = package.loops, package.zoo, package.qlinalg, package.streams
    psi2 = np.array([0.6, 0.8], dtype=complex)
    qid2 = ("qid2 n=200", (zoo.qid2(), qlinalg.su2_exp(np.array([0.2, -0.5, 0.9])), loops.qid2_rule(), psi2), 200)
    u1 = ("u1 n=60", (zoo.u1_cnot(), zoo.u1_operator(0.3), loops.u1_rule(), psi2), 60)
    qidn = [
        (f"qidN({d}) k=16", (zoo.qidN(d), qlinalg.random_unitary(d, streams.derive_stream(7, d)), loops.qidN_rule(), np.ones(d) / np.sqrt(d)), 16)
        for d in (2, 3, 4)
    ]
    diagonal = [
        (f"diagonal dim {d} n=20", (zoo.qudit_diagonal_processor(d), np.diag(np.exp(2j * np.pi * np.arange(d) / d)), loops.diagonal_rule(), np.ones(d) / np.sqrt(d)), 20)
        for d in (3, 5, 7)
    ]
    return [qid2, u1, *qidn, *diagonal]


def _enumerations(package) -> list:
    """(label, OutcomeTree arguments, rounds) of each loop whose exact walk enumerates a subtree, from the uniform state."""
    loops, zoo = package.loops, package.zoo
    families = importlib.import_module(f"{package.__name__}.cli")._FAMILIES

    def sweep(name, params):  # a sweep point's (processor, target, rule), with the family's defaults
        proc, rule, target = families[name].build({**families[name].sweep, **params}, (0, 0, 0))
        return proc, target, rule

    def uniform(loop):
        d = loop[0].data_dim
        return (*loop, np.ones(d) / np.sqrt(d))

    entries = uniform((zoo.qudit_diagonal_processor(5), np.diag([0.8, 1.2, 1.0, 0.9, 1.1]), loops.diagonal_rule()))
    return [
        ("qidn k=24 seed 7", uniform(sweep("qidn", {"n_dim": 2, "target_seed": 7})), 24),
        ("diagonal dim 3 n=30", uniform(sweep("diagonal", {"dim": 3})), 30),
        *[(f"diagonal entries n={n}", entries, n) for n in (6, 8)],
        ("qidN(2) diag(0.1, 1) k=12", uniform((zoo.qidN(2), np.diag([0.1, 1.0]), loops.qidN_rule())), 12),
    ]


def _stages(package, chains: dict) -> list:
    """(label, unit, factor, run) of each lone-node stage, on the first failure child of each chain loop's root; a run
    calls the stage `_CALLS` times."""
    loops = package.loops
    stacks = hasattr(loops.OutcomeTree, "children")  # rules and stages take (K, ...) stacks
    out = []
    for name, label in (("qid2", "qid2 n=200"), ("u1", "u1 n=60"), ("qidN(2)", "qidN(2) k=16"), ("diagonal dim 7", "diagonal dim 7 n=20")):
        proc, target, rule, psi = chains[label]
        tree = loops.OutcomeTree(proc, target, rule, psi)
        node = tree.child(tree.root, tree._fail_idx[0], retain=False)
        residual = node.residual[None] if stacks else node.residual
        out.append((f"lone next_program {name}", "us", 1e6 / _CALLS, _calls(lambda rule=rule, proc=proc, target=target, r=residual: rule.next_program(proc, target, r))))
        if name == "qid2":
            out += _qid2_stages(package, tree, node)
    return out


def _calls(stage):
    """A run of `_CALLS` calls of stage, so that one reading spans milliseconds, not the timer's grain."""

    def run():
        for _ in range(_CALLS):
            stage()

    return run


_CALLS = 100


def _qid2_stages(package, tree, node) -> list:
    """The lone qid2 node's branch operators, exact entry, collapse test and the child step that builds it."""
    loops, processor = package.loops, package.processor
    proc, program, ops, state, fail = tree.proc, node.program, node.ops, tree.psi, tree._fail_idx
    out = [("lone branch_operators qid2", "us", 1e6 / _CALLS, _calls(lambda: processor.branch_operators(proc, program, tree.basis)))]

    def entry():  # a walk of one round from the node: its exact entry, made afresh
        node.exact = None
        loops._fold(tree, node, state, 1)

    amps = np.einsum("bij,j->bi", ops, state)
    probs = np.einsum("bi,bi->b", np.conjugate(amps), amps).real
    stacked = hasattr(loops, "_entries") and not hasattr(loops, "_head")  # a version whose lone collapse test took a stack of one
    out.append(("lone exact entry qid2", "us", 1e6 / _CALLS, _calls(entry)))
    out.append(("lone _state_independent qid2", "us", 1e6 / _CALLS, _calls(lambda: loops._state_independent(ops[None] if stacked else ops, probs[None] if stacked else probs))))
    out.append(("lone tree.child qid2", "us", 1e6 / _CALLS, _calls(lambda: tree.child(tree.root, fail[0], retain=False))))
    return out


def _cases(package):
    """(label, unit, the factor from a run's seconds to the unit, run) for every case, on the package's modules."""
    loops, zoo, qlinalg, streams = package.loops, package.zoo, package.qlinalg, package.streams
    cli = importlib.import_module(f"{package.__name__}.cli")
    chains = _chains(package)
    out = _stages(package, {label: args for label, args, _ in chains})
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
    for label, args, n in chains + _enumerations(package):
        out.append((f"exact walk {label}", "ms/walk", 1e3, lambda args=args, n=n: loops.exact_walk(loops.OutcomeTree(*args), n)))
    return out


def _best(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved(cases: dict, rounds: int, read) -> dict:
    """{(label, package): readings}: per round, each label's `read(case)` for every package that has it, the package
    order alternating from round to round. `cases` maps each package's name to its cases, each keyed by its label
    in cases[name][label]."""
    names = list(cases)
    labels = list(dict.fromkeys(label for name in names for label in cases[name]))
    readings: dict = {}
    for r in range(rounds):
        order = names if r % 2 == 0 else names[::-1]
        for label in labels:
            for name in order:
                if label in cases[name]:
                    readings.setdefault((label, name), []).append(read(cases[name][label]))
    return readings


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="another source directory holding a qproc package, to time side by side")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    packages = {"this": qproc, **({"against": _load(args.against)} if args.against else {})}
    cases = {name: {label: (unit, scale, run) for label, unit, scale, run in _cases(package)} for name, package in packages.items()}
    readings = _interleaved(cases, args.rounds, lambda case: _best(case[2], args.repeat) * case[1])
    for (label, name), values in readings.items():
        print(f"{label:36s} {name:8s} {statistics.median(values):9.2f} {cases[name][label][0]}")


if __name__ == "__main__":
    main()
