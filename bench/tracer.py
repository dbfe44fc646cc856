"""Outside-in tracer: wraps qproc's public functions from the benchmark's side.

`Tracer.install` replaces each traced function at every name it is bound to
inside the qproc package (a function imported with `from .x import f` is
bound in several modules), and methods on their classes. Each call records a
span (label, start, end, parent, batch) in flat in-memory arrays; nothing is
written until `save`. `uninstall` restores every original, so an untraced
run executes qproc exactly as shipped.

Self time is a span's duration minus the part of its interval that its child
spans cover (`self_times`). `per_layer` turns the spans into the benchmark's
per-layer metrics.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

from stats import percentile, tail_percentile

# Traced function label -> unit of its reported self time. Labels name the
# layer module and the function; ProgramBasis/ProgramState time their
# __post_init__ validation and next_program is CorrectionRule.next_program.
REPORTED = {
    "streams.derive_stream": "us",
    "processor.decompose": "us",
    "processor.branch_operators": "us",
    "processor.select_branch": "us",
    "processor.ProgramBasis": "us",
    "processor.ProgramState": "us",
    "processor.assemble": "s",
    "zoo.qid_network": "s",
    "zoo.program_for": "us",
    "zoo.su2_program": "us",
    "zoo.geometric_program": "us",
    "zoo.diagonal_program": "us",
    "qlinalg.su2_log": "us",
    "qlinalg.inverse": "us",
    "qlinalg.random_state": "us",
    "loops.run_loop": "us",
    "loops.next_program": "us",
    "loops.exact_success": "ms",
    "cli.trace_to_dict": "us",
    "cli.reproduce_table": "ms",
    "cli.run_verification": "ms",
}
# Traced only to attribute time: the per-command root span and the two
# spans whose difference is trace serialisation.
UNREPORTED = ("cli.main", "cli.cmd_sample", "cli.run_sample")

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

DERIVED = (
    ("loops.run_loop.p50_us", "us", "lower"),
    ("loops.run_loop.p99_us", "us", "lower"),
    ("loops.exact_success.nodes", "count", "lower"),
    ("loops.exact_success.depth_sum", "count", "lower"),
    ("loops.rounds_per_trial", "rounds", "lower"),
    ("loops.round_yield", "ratio", "higher"),
    ("cli.serialize_us_per_trace", "us", "lower"),
    ("cli.out_bytes_per_trace", "B", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for label, unit in REPORTED.items():
        specs.append((f"{label}.calls", "count", "lower"))
        specs.append((f"{label}.self_{unit}", unit, "lower"))
    return specs + list(DERIVED)


def targets():
    """(label, owner, attribute) for every traced function."""
    from qproc import cli, loops, processor, qlinalg, streams, zoo

    owners = {"streams": streams, "processor": processor, "zoo": zoo, "qlinalg": qlinalg, "loops": loops, "cli": cli}
    methods = {
        "processor.ProgramBasis": (processor.ProgramBasis, "__post_init__"),
        "processor.ProgramState": (processor.ProgramState, "__post_init__"),
        "loops.next_program": (loops.CorrectionRule, "next_program"),
    }
    out = []
    for label in (*REPORTED, *UNREPORTED):
        if label in methods:
            out.append((label, *methods[label]))
        else:
            module, name = label.split(".")
            out.append((label, owners[module], name))
    return out


def _observe_run_loop(tracer, args, kwargs, trace):
    tracer.observed["run_loop"].append((tracer.batch, trace.rounds_used, int(trace.succeeded)))


def _observe_exact_success(tracer, args, kwargs, result):
    n = kwargs["n"] if "n" in kwargs else args[3]
    tracer.observed["exact_success"].append((tracer.batch, int(n)))


def _observe_run_sample(tracer, args, kwargs, payload):
    tracer.observed["run_sample"].append((tracer.batch, len(payload["traces"])))


OBSERVERS = {
    "loops.run_loop": _observe_run_loop,
    "loops.exact_success": _observe_exact_success,
    "cli.run_sample": _observe_run_sample,
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.label: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("q")
        self.batches: array = array("i")
        self.batch = 0  # set by run.py: which batch the following spans belong to
        self.observed: dict[str, list] = defaultdict(list)
        self.bindings: dict[str, list[str]] = defaultdict(list)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn, observe):
        lid = len(self.labels)
        self.labels.append(label)
        lab, start, end, parent, batches, stack = self.label, self.start, self.end, self.parent, self.batches, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            lab.append(lid)
            parent.append(stack[-1])
            batches.append(self.batch)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name == "qproc" or name.startswith("qproc.")]
        for label, owner, attr in targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original, OBSERVERS.get(label))
            if isinstance(owner, type):
                sites = [(owner, f"{owner.__name__}.{attr}")]
            else:
                sites = [(m, f"{m.__name__}.{attr}") for m in modules if getattr(m, attr, None) is original]
            for site, where in sites:
                self._patched.append((site, attr, original))
                setattr(site, attr, wrapper)
                self.bindings[label].append(where)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def save(self, path) -> None:
        """Write every span as gzipped tab-separated text: index, label, start, end, parent, batch."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tlabel\tstart_s\tend_s\tparent\tbatch\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.labels[self.label[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.batches[i]}\n")


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals, clipped to it."""
    kids = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in children):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def per_layer(tracer: Tracer, counted: set[int], out_bytes: int, overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics and a note for each one that is absent.

    `.calls` and the loop/tree counts cover only the spans in `counted`
    batches, a fixed amount of work, so they repeat exactly for a seed; the
    self times and percentiles average over every traced span.
    """
    labels = tracer.labels
    names = [labels[i] for i in tracer.label]
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls = defaultdict(int)
    self_sum = defaultdict(float)
    self_n = defaultdict(int)
    inclusive = defaultdict(float)
    run_loop_us = []
    nodes = 0
    inside_exact = [False] * len(names)
    for i, name in enumerate(names):
        p = tracer.parent[i]
        inside_exact[i] = p >= 0 and (inside_exact[p] or names[p] == "loops.exact_success")
        if tracer.batches[i] in counted:
            calls[name] += 1
            if name == "loops.next_program" and inside_exact[i]:
                nodes += 1
        self_sum[name] += selfs[i]
        self_n[name] += 1
        duration = tracer.end[i] - tracer.start[i]
        inclusive[name] += duration
        if name == "loops.run_loop":
            run_loop_us.append(duration * 1e6)

    metrics, absent = {}, []
    for label, unit in REPORTED.items():
        metrics[f"{label}.calls"] = (calls[label], "count")
        mean = self_sum[label] / self_n[label] * _SCALE[unit] if self_n[label] else 0.0
        metrics[f"{label}.self_{unit}"] = (mean, unit)
        if not self_n[label]:
            absent.append(f"{label}: not called on this workload")

    n_loops = len(run_loop_us)
    tail = tail_percentile(n_loops)
    metrics["loops.run_loop.p50_us"] = (percentile(run_loop_us, 50) if tail else 0.0, "us")
    metrics["loops.run_loop.p99_us"] = (percentile(run_loop_us, 99) if tail and tail >= 99 else 0.0, "us")
    if tail is None or tail < 99:
        absent.append(f"loops.run_loop.p99_us: {n_loops} trajectories, fewer than the 1000 that put 10 beyond p99")

    metrics["loops.exact_success.nodes"] = (nodes, "count")
    depths = sum(n for b, n in tracer.observed["exact_success"] if b in counted)
    metrics["loops.exact_success.depth_sum"] = (depths, "count")

    loops_counted = [(r, s) for b, r, s in tracer.observed["run_loop"] if b in counted]
    rounds = sum(r for r, _ in loops_counted)
    metrics["loops.rounds_per_trial"] = (rounds / len(loops_counted) if loops_counted else 0.0, "rounds")
    metrics["loops.round_yield"] = (sum(s for _, s in loops_counted) / rounds if rounds else 0.0, "ratio")
    if not loops_counted:
        absent.append("loops.rounds_per_trial, loops.round_yield: no loop trajectories on this workload")

    traces_all = sum(n for _, n in tracer.observed["run_sample"])
    traces_counted = sum(n for b, n in tracer.observed["run_sample"] if b in counted)
    serialize = (inclusive["cli.cmd_sample"] - inclusive["cli.run_sample"]) / traces_all * 1e6 if traces_all else 0.0
    metrics["cli.serialize_us_per_trace"] = (serialize, "us")
    metrics["cli.out_bytes_per_trace"] = (out_bytes / traces_counted if traces_counted else 0.0, "B")
    if not traces_all:
        absent.append("cli.serialize_us_per_trace, cli.out_bytes_per_trace: no sample command on this workload")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics, absent
