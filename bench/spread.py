"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME [--seeds 0-9] [--seconds 10]

Runs bench/run.py once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between its first and third
quartile as a share of the median, next to the bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, relative_iqr

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=str(HERE.parent))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result ({result['failed']} failed)", file=sys.stderr)
            return 1
        line = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            line.append(f"{name}={values[name][-1]:.5g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = relative_iqr(xs) if len(xs) >= 2 else float("nan")
        print(f"{args.workload} {m['name']:<18} median {median(xs):.5g} {m['unit']:<4} "
              f"spread {spread:.4f} (bound {m['bound']}, a third {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
