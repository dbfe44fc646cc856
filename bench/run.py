"""qproc benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One process calls `qproc.cli.main(argv)` for
every command of the workload (see workloads.py) and checks every output
against the digests recorded in golden.json.

--trace 0 measures the end-to-end metrics with no wrappers installed:
  setup_s          median over fresh processes of `import qproc.cli` plus the
                   workload's commands cut to 1 trial or 1 grid point (probe.py)
  wall_s           median wall time of one full batch of the workload's
                   commands, run in this process after an in-process set-up pass
                   and a warm-up batch, scaled to reference machine speed
                   (reference.py)
  throughput_per_s completed units per second of wall_s: sampled trials
                   (printed as trials_per_s) or exact evaluations, one per
                   sweep point or reproduce row (printed as points_per_s)
  peak_rss_mb      ru_maxrss of this process after the set-up pass and one
                   full batch, read before the reference loop of the
                   machine-speed gauge allocates anything (reference.py)
failed_frac (failed / attempted commands) is printed and carried by the
`attempted` and `failed` fields of the result.

--trace 1 wraps each layer's public functions (tracer.py), runs the set-up
pass and traced batches for half the time, then untraced batches, and
reports the per-layer metrics and the tracing overhead. Spans are written to
.bench_out/spans-<workload>.tsv.gz.

--workload all runs every workload, each in its own process. --heldout uses
the held-out input variant instead of the seed.

The last line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import check, collect, expected_digest, load_golden, materialise, negative_control, run_command
from stats import median, percentile, tail_percentile
from tracer import Tracer, per_layer
from workloads import HELDOUT, WORKLOADS, variant_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
MIN_BATCHES = 3
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def source_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """Digest of every file under src/qproc, which identifies the code measured."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "qproc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(blas_cap: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads_cap": blas_cap,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": source_commit(),
        "src_digest": source_digest(),
    }


class Session:
    """Runs commands of one workload variant in this process and counts failures."""

    def __init__(self, main, golden: dict, workload: str, variant: str, workdir: Path):
        self.main, self.golden, self.workload, self.variant = main, golden, workload, variant
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []

    def expected(self, cmd_id: str) -> str | None:
        return expected_digest(self.golden, self.workload, self.variant, cmd_id)

    def record(self, outcome) -> None:
        self.attempted += 1
        why = check(outcome, self.expected(outcome.cmd_id))
        if why:
            self.failures.append(f"{outcome.cmd_id}: {why}")

    def prepare(self, cmds) -> list:
        return [(cmd, materialise(cmd, self.workdir)) for cmd in cmds]

    def run(self, prepared) -> tuple[float, list]:
        """Run a batch; returns the summed time inside qproc.cli.main and the outcomes."""
        outcomes = [run_command(self.main, cmd, argv, self.workdir) for cmd, argv in prepared]
        for o in outcomes:
            self.record(o)
        return sum(o.seconds for o in outcomes), outcomes

    def probe_setup(self, setup_cmds, k: int) -> float:
        """Time `import qproc.cli` plus the cut commands in a fresh process."""
        pdir = self.workdir / f"probe{k}"
        pdir.mkdir()
        argv_file = pdir / "argv.json"
        argv_file.write_text(json.dumps([materialise(c, pdir) for c in setup_cmds]))
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), str(argv_file)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(pdir),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for cmd, rc in zip(setup_cmds, result["rcs"]):
            self.record(collect(cmd, rc, "", pdir))
        shutil.rmtree(pdir)
        return result["seconds"]

    def negative_control(self, ran) -> bool:
        """A one-byte change to a passing output must count as failed."""
        for cmd, o in ran:
            expected = self.expected(o.cmd_id)
            if cmd.output is not None and o.rc == 0 and o.digest == expected:
                return negative_control(self.workdir / cmd.output, expected)
        return False


def measure(session: Session, wl, variant: str, seconds: float) -> dict:
    from reference import REF_SECONDS, Gauge  # imports numpy: only after cap_blas_threads

    setup_cmds = wl.setup_commands(variant)
    session.run(session.prepare(setup_cmds))
    full = session.prepare(wl.commands(variant))
    session.run(full)  # warm-up: processors and caches that the cut commands did not reach
    # Read before the reference loop allocates anything; later batches repeat this work.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, raw_walls, units, setups = [], [], [], []
    gauge = Gauge(wl.gauge)
    start = time.perf_counter()
    # Set-up probes are spread evenly over the run, so that they sample the
    # machine in the same states as the batches do. They are not scaled by the
    # gauge: import-dominated start-up does not follow the reference loops.
    while len(walls) < MIN_BATCHES or time.perf_counter() < start + seconds:
        if len(setups) < SETUP_PROBES and time.perf_counter() >= start + len(setups) * seconds / SETUP_PROBES:
            setups.append(session.probe_setup(setup_cmds, len(setups)))
            continue
        wall, outcomes = session.run(full)
        raw_walls.append(wall)
        walls.append(gauge.scale(wall))
        units.append(sum(o.units for o in outcomes))
    while len(setups) < SETUP_PROBES:
        setups.append(session.probe_setup(setup_cmds, len(setups)))
    speed = f"machine speed factor {median(gauge.factors):.3f} ({wl.gauge} reference loop, {REF_SECONDS[wl.gauge] * 1e3:g} ms at definition)"
    return {
        "ran": [(cmd, o) for (cmd, _), o in zip(full, outcomes)],
        "metrics": {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "throughput_per_s": median(u / w for u, w in zip(units, walls)),
            "peak_rss_mb": peak_rss_mb,
        },
        "notes": {
            "setup_s": f"median of {len(setups)} fresh processes",
            "wall_s": _timing_note(walls) + f"; raw {median(raw_walls):.4f} s; {speed}",
            "throughput_per_s": f"{units[0]} {wl.unit}s per batch; raw {median(u / w for u, w in zip(units, raw_walls)):.6g}/s",
            "peak_rss_mb": "ru_maxrss of the benchmark process after the set-up pass and one full batch",
        },
    }


def _timing_note(walls) -> str:
    tail = tail_percentile(len(walls))
    note = f"median of {len(walls)} batches"
    if tail is None:
        return note + "; too few batches for a percentile with 10 beyond it"
    return note + f"; p{tail:g} {percentile(walls, tail):.4f} s"


def trace(session: Session, wl, variant: str, seconds: float) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        tracer.batch = 0
        _, setup_outcomes = session.run(session.prepare(wl.setup_commands(variant)))
        full = session.prepare(wl.commands(variant))
        traced = []
        while not traced or time.perf_counter() < start + seconds / 2:
            tracer.batch = len(traced) + 1
            wall, outcomes = session.run(full)
            traced.append(wall)
            if tracer.batch == 1:
                first_batch = outcomes
    finally:
        tracer.uninstall()
    warm = traced[1:] or traced  # batch 1 also fills caches the set-up pass did not reach
    untraced = [session.run(full)[0] for _ in range(len(warm))]
    counted = {0, 1}
    out_bytes = sum(o.out_bytes for o in setup_outcomes + first_batch if o.cmd_id.startswith("sample"))
    metrics, absent = per_layer(tracer, counted, out_bytes, median(warm) / median(untraced))
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}.tsv.gz"
    tracer.save(spans_path)
    nodes, depths = metrics["loops.exact_success.nodes"][0], metrics["loops.exact_success.depth_sum"][0]
    notes = {
        "exact_success": f"{nodes} tree nodes for requested depths summing to {depths}"
        + (" (the collapse of congruent subtrees missed)" if nodes > depths else ""),
        "bindings": {label: sites for label, sites in tracer.bindings.items()},
        "absent": absent,
        "spans": f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}",
        "batches": f"{len(traced)} traced and {len(untraced)} untraced batches; "
        f"traced {median(warm):.4f} s vs untraced {median(untraced):.4f} s per warm batch",
    }
    return {"metrics_with_units": metrics, "notes": notes, "ran": [(cmd, o) for (cmd, _), o in zip(full, first_batch)]}


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    variant = HELDOUT if args.heldout else variant_for(args.seed)
    import qproc.cli

    if Path(qproc.cli.__file__).resolve().parents[1] != SRC.resolve():
        print(f"error: imported qproc from {qproc.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    golden = load_golden()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        session = Session(qproc.cli.main, golden, wl.name, variant, workdir)
        if args.trace:
            report = trace(session, wl, variant, args.seconds)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["metrics_with_units"].items()}
        else:
            report = measure(session, wl, variant, args.seconds)
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in report["metrics"].items()}
        control_ok = session.negative_control(report["ran"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(session.failures)
    print(f"workload {wl.name}  seed {args.seed}  input variant {variant}  trace {args.trace}")
    print(f"  why: {wl.why}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
        for key, value in report["notes"].items():
            print(f"  {key}: {json.dumps(value) if not isinstance(value, str) else value}")
    else:
        for name, m in metrics.items():
            shown = f"{wl.unit}s_per_s" if name == "throughput_per_s" else name
            print(f"  {shown:<16} {m['value']:>14.6g} {m['unit']:<4} {report['notes'][name]}")
        frac = failed / session.attempted
        print(f"  {'failed_frac':<16} {frac:>14.6g} ratio ({failed} failed / {session.attempted} attempted)")
    print(f"  negative control (one flipped byte counted as failed): {'ok' if control_ok else 'NOT DETECTED'}")
    for why in session.failures[:20]:
        print(f"  FAILED {why}")
    print("machine: " + json.dumps(machine_facts(args.blas_cap)))
    result = {"correct": failed == 0 and control_ok, "attempted": session.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so no workload warms another's caches."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--heldout"] if args.heldout else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true", help="use the held-out input variant")
    args = parser.parse_args(argv)
    if not (SRC / "qproc" / "__init__.py").is_file():
        print(f"error: qproc sources not found under {SRC}", file=sys.stderr)
        return 2
    args.blas_cap = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
