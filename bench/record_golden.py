"""Record the output digests the benchmark's correctness gate compares against.

    python3 bench/record_golden.py [--workload NAME]

Runs every command of every input variant once, in this process, and writes
golden.json. A digest that is the same for every variant is stored once as a
string. Re-record only when an output change is intended; a performance
change must leave every digest as it is. Commands that exit non-zero get no
digest, so the gate keeps failing them.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from gate import GOLDEN_PATH, materialise, run_command
from workloads import WORKLOADS, all_variants


def record(workload, main, workdir: Path) -> dict:
    per_cmd: dict[str, dict[str, str]] = {}
    for variant in all_variants():
        for cmd in workload.setup_commands(variant) + workload.commands(variant):
            outcome = run_command(main, cmd, materialise(cmd, workdir), workdir)
            if outcome.rc != 0:
                print(f"{workload.name} variant {variant}: {cmd.id} exited {outcome.rc}; not recorded", file=sys.stderr)
                continue
            per_cmd.setdefault(cmd.id, {})[variant] = outcome.digest
    return {cid: (next(iter(d.values())) if len(set(d.values())) == 1 and len(d) == len(all_variants()) else d)
            for cid, d in per_cmd.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="re-record one workload only")
    args = parser.parse_args()
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import qproc.cli

    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=run.OUT_DIR))
    try:
        for name in [args.workload] if args.workload else list(WORKLOADS):
            golden[name] = record(WORKLOADS[name], qproc.cli.main, workdir)
            print(f"{name}: {len(golden[name])} commands recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
