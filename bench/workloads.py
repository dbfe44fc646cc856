"""The four benchmark workloads: seeded qproc configs and the commands that use them.

Every workload is a closed loop: one process issues one `qproc` command
after another, each waiting for the previous one. A workload is a list of
`Command`s (one "batch"); run.py runs the batch repeatedly and times
each repetition.

Inputs come from the benchmark seed. `variant_for(seed)` folds the seed onto
`POOL` recorded variants, so that every output has a digest recorded at the
commit that defined the benchmark (see `golden.json`); `HELDOUT` is one more
variant that tuning runs never use, kept for confirming a claimed gain on
unseen inputs. The CLI only ever sees the generated config files.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

POOL = 32
HELDOUT = "heldout"


def variant_for(seed: int) -> str:
    return str(seed % POOL)


@dataclass(frozen=True)
class Command:
    """One `qproc` invocation.

    `config` is written to a JSON file and passed as `--config`; `output` is
    the file name passed as `--out` (None for `verify`, whose stdout is the
    checked output). `extra` holds further flags.
    """

    id: str
    sub: str
    config: dict | None = None
    extra: tuple[str, ...] = ()
    output: str | None = None

    def cut(self) -> "Command | None":
        """The set-up form: 1 trial or 1 grid point, or None when it cannot be cut."""
        if self.sub == "sample":
            return replace(self, id=self.id + ":cut", config={**self.config, "trials": 1}, extra=())
        if self.sub == "sweep":
            grid = {k: v[:1] for k, v in self.config["grid"].items()}
            return replace(self, id=self.id + ":cut", config={**self.config, "grid": grid, "trials": 1})
        return None  # reproduce and verify have no smaller form


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # "trial" or "point": what throughput counts
    build: object = field(repr=False)  # random.Random -> list[Command]
    gauge: str = "interpreter"  # reference loop that tracks machine speed (reference.py)

    def commands(self, variant: str) -> list[Command]:
        return self.build(random.Random(f"{self.name}:{variant}"))

    def setup_commands(self, variant: str) -> list[Command]:
        return [c for c in (cmd.cut() for cmd in self.commands(variant)) if c is not None]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _sample(cid: str, experiment: str, params: dict, max_rounds: int, trials: int, rng) -> Command:
    cfg = {"experiment": experiment, "params": params, "max_rounds": max_rounds, "trials": trials, "seed": _seed(rng)}
    # --tol 0 leaves the CLI's own 3-sigma check as the only tolerance.
    return Command(cid, "sample", cfg, ("--tol", "0"), f"{cid}.json")


def _sweep(cid: str, experiment: str, grid: dict, trials: int, rng, params: dict | None = None) -> Command:
    cfg = {"experiment": experiment, "params": params or {}, "grid": grid, "trials": trials, "seed": _seed(rng)}
    return Command(cid, "sweep", cfg, (), f"{cid}.csv")


# loop-trajectories: a trial is 2-4 rounds of next_program -> decompose ->
# select_branch plus trace serialisation, so a shared outcome tree,
# boundary-only validation or streamed traces would show here. It is also the
# code path of the three 10^5-trial acceptance tests that dominate tier-1.
LOOP_TRIALS = 300


def _loop_trajectories(rng: random.Random) -> list[Command]:
    families = (
        ("qid2", "qid2", {}, 8),
        ("qidn3", "qidn", {"n_dim": 3}, 5),
        ("diagonal", "diagonal", {}, 6),
        ("bz", "bz", {"z": 0.8, "n_program": 2}, 6),
        ("bz_haar", "bz_haar", {}, 1),
    )
    return [_sample(f"sample-{cid}", exp, params, rounds, LOOP_TRIALS, rng) for cid, exp, params, rounds in families]


# single-shot-sweep: decompose runs once per point and each shot is one
# derive_stream plus one select_branch, so stream derivation is nearly all
# of it. Loops and serialisation are bypassed: an optimisation of those
# layers must show no change here.
SHOTS_PER_POINT = 2000
_Z = [0.25, 0.5, 1.0, 2.0]


def _single_shot_sweep(rng: random.Random) -> list[Command]:
    return [
        _sweep("sweep-bz", "bz", {"z": _Z, "n_program": [2, 4, 8]}, SHOTS_PER_POINT, rng),
        _sweep("sweep-b0", "b0", {"z": _Z, "dim": [2, 3, 5]}, SHOTS_PER_POINT, rng),
    ]


# exact-grid: no RNG and no traces, so nearly all time is in exact_success
# tree nodes. qidn at n_dim 2, k 24 and diagonal at dim 3, n 30 sit just past
# the depth where exact_success stops collapsing congruent subtrees (rounding
# drift breaks _state_independent), so the node count exceeds the requested
# depth there; the benchmark is meant to show that. How far past the collapse
# a target drifts depends strongly on the Haar target (48 to 602 nodes at k 24
# over ten target seeds), so the k 24 point keeps the CLI's default target
# seed 7, the 602-node case, and the run-to-run spread reflects the code, not
# the draw. The k <= 16 grid, where every target collapses, takes its Haar
# targets from the benchmark seed.
QIDN_TARGETS = 2
QIDN_K24_TARGET_SEED = 7


def _exact_grid(rng: random.Random) -> list[Command]:
    targets = [_seed(rng) for _ in range(QIDN_TARGETS)]
    cmds = [
        _sweep("sweep-qid2", "qid2", {"n": [1, 2, 5, 10, 20, 50, 100, 200]}, 1, rng),
        _sweep("sweep-u1", "u1", {"n": [1, 2, 5, 10, 20, 40, 60]}, 1, rng),
        _sweep("sweep-qidn", "qidn", {"n_dim": [2, 3, 4], "k": [1, 2, 4, 8, 16], "target_seed": targets}, 1, rng),
        _sweep("sweep-qidn-k24", "qidn", {"n_dim": [2], "k": [24], "target_seed": [QIDN_K24_TARGET_SEED]}, 1, rng),
        _sweep("sweep-diagonal", "diagonal", {"dim": [3, 5, 7], "n": [1, 2, 5, 10, 20]}, 1, rng),
        _sweep("sweep-diagonal-n30", "diagonal", {"dim": [3], "n": [30]}, 1, rng),
    ]
    tables = ("u1", "vmc3", "bz", "qutrit", "b0", "qid2", "qidN", "limits")
    cmds += [Command(f"reproduce-{t}", "reproduce", None, ("--table", t), f"reproduce-{t}.csv") for t in tables]
    cmds.append(Command("verify", "verify"))
    return cmds


# wide-qudit: the same layers as loop-trajectories but with a 64-dim program,
# so flops dominate rather than interpreter overhead. Its set-up is
# dominated by qidN(8) construction (assemble, qid_network), which no other
# workload exercises at size; it also catches a tiny-dimension optimisation
# that slows large dimensions.
WIDE_TRIALS = 200


def _wide_qudit(rng: random.Random) -> list[Command]:
    return [_sample("sample-qidn8", "qidn", {"n_dim": 8}, 3, WIDE_TRIALS, rng)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("loop-trajectories", "corrected-loop sampling over five families: loops, decompose, serialisation", "trial", _loop_trajectories),
        Workload("single-shot-sweep", "single-shot sweeps: stream derivation and select_branch, loops bypassed", "trial", _single_shot_sweep),
        Workload("exact-grid", "exact sweeps, all reproduce tables and verify: exact_success tree nodes, no RNG", "point", _exact_grid),
        Workload("wide-qudit", "qidN(8) sampling: 64-dim flops and large-processor set-up", "trial", _wide_qudit, gauge="dense"),
    )
}


def all_variants() -> list[str]:
    return [str(v) for v in range(POOL)] + [HELDOUT]
