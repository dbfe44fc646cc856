"""Correctness gate: run one qproc command in-process and check what it wrote.

A command fails when it exits non-zero (the CLI's own checks: `sample --tol`
3-sigma, sweep/reproduce deviations, verify) or raises, or when the digest
of its output differs from the digest recorded in `golden.json` when the
benchmark was defined. Byte-identical output is the project's hard gate for
every performance change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import Command

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def expected_digest(golden: dict, workload: str, variant: str, cmd_id: str) -> str | None:
    """Recorded digest: a plain string when it does not depend on the variant."""
    entry = golden.get(workload, {}).get(cmd_id)
    if isinstance(entry, dict):
        return entry.get(variant)
    return entry


@dataclass
class Outcome:
    cmd_id: str
    rc: object  # exit code, or "exception"
    digest: str
    units: int  # trials or points the command completed
    out_bytes: int
    seconds: float = 0.0  # time inside qproc.cli.main
    detail: str = ""


def materialise(cmd: Command, workdir: Path) -> list[str]:
    """The argv for `qproc.cli.main`, writing the config file into workdir."""
    argv = [cmd.sub]
    if cmd.config is not None:
        cfg_path = workdir / f"{cmd.id.replace(':', '_')}.config.json"
        cfg_path.write_text(json.dumps(cmd.config))
        argv += ["--config", str(cfg_path)]
    if cmd.output is not None:
        argv += ["--out", str(workdir / cmd.output)]
    return argv + list(cmd.extra)


def count_units(cmd: Command, output: bytes) -> int:
    """Sampled trials for trial workloads, evaluated rows for exact ones."""
    if cmd.sub == "sample":
        return int(cmd.config["trials"])
    if cmd.sub in ("sweep", "reproduce"):
        rows = max(output.count(b"\n") - 1, 0)
        trials = int(cmd.config.get("trials", 1)) if cmd.config else 1
        return rows * trials if trials > 1 else rows
    return 0


def collect(cmd: Command, rc, stdout: str, workdir: Path, seconds: float = 0.0, detail: str = "") -> Outcome:
    """The outcome of a finished command: its output is the --out file, or stdout for verify."""
    if cmd.output is None:
        data = stdout.encode()
    else:
        path = workdir / cmd.output
        data = path.read_bytes() if path.exists() else b""
    return Outcome(cmd.id, rc, digest_bytes(data), count_units(cmd, data), len(data), seconds, detail)


def run_command(main, cmd: Command, argv: list[str], workdir: Path) -> Outcome:
    """Run `main(argv)` in this process, timing only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # noqa: BLE001 - a crashing command is a counted failure
            rc = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return collect(cmd, rc, out.getvalue(), workdir, seconds, err.getvalue().strip()[-300:])


def check(outcome: Outcome, expected: str | None) -> str | None:
    """Why the command counts as failed, or None when it passed."""
    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.detail}"
    if expected is None:
        return "no digest recorded"
    if outcome.digest != expected:
        return f"digest {outcome.digest[:12]} != recorded {expected[:12]}"
    return None


def negative_control(path: Path, expected: str) -> bool:
    """True when flipping one byte of a passing output makes the gate fail it."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    flipped = Outcome("negative-control", 0, digest_bytes(bytes(data)), 0, len(data))
    return check(flipped, expected) is not None
