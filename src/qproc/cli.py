"""Command-line harness: verify invariants, reproduce quoted values, sweep, sample.

Subcommands
-----------
verify     run the invariant suites of every module; exit 0 iff all pass.
reproduce  write a CSV comparing computed probabilities with their quoted
           reference values (columns: quantity, params, computed, empirical,
           paper_value, deviation, note).
sweep      grid sweep over declared parameter ranges, one CSV row per point.
sample     Monte Carlo loop trajectories, written as a JSON trace file.
list       show known tables and experiment ids.

Determinism: every random draw comes from a PCG64 stream derived as
SeedSequence([seed, experiment_index, trial_index + 1]); index 0 is reserved
for per-experiment auxiliary draws. Identical seeds give byte-identical
output files. Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import io
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from typing import Callable

import numpy as np

from . import loops, qlinalg, zoo
from .processor import (
    ProcessorDefinition,
    ProgramBasis,
    ProgramState,
    branch_operators,
    decompose,
    select_branch,
)
from .qlinalg import dagger, phase_distance, random_state, random_unitary, su2_exp
from .streams import derive_stream

ENV_OUT_DIR = "QPROC_OUT_DIR"

REPRODUCE_TABLES = ("u1", "vmc3", "bz", "qutrit", "b0", "qid2", "qidN", "limits")
SWEEP_EXPERIMENTS = ("u1", "diagonal", "qid2", "qidn", "bz", "b0")
SAMPLE_EXPERIMENTS = ("u1", "bz", "bz_haar", "diagonal", "qid2", "qidn")

# Deterministic defaults used when a config does not pin them.
_DEFAULT_ALPHA = 0.3
_DEFAULT_MU = (0.2, -0.5, 0.9)
_DEFAULT_PHASES = (0.0, 0.9, -0.4)
_PSI2 = np.array([0.6, 0.8], dtype=complex)


class UsageError(ValueError):
    """Bad table name, experiment id or config contents (exit code 2)."""


# ---------------------------------------------------------------------------
# Result rows and CSV output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    quantity: str
    params: str
    computed: float
    paper_value: float | None = None
    note: str = ""
    empirical: float | None = None  # sampled frequency, when a sweep asks for trials

    @property
    def deviation(self) -> float | None:
        if self.paper_value is None:
            return None
        return abs(self.computed - self.paper_value)


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def rows_to_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["quantity", "params", "computed", "empirical", "paper_value", "deviation", "note"])
    for r in rows:
        writer.writerow(
            [r.quantity, r.params, _fmt(r.computed), _fmt(r.empirical), _fmt(r.paper_value), _fmt(r.deviation), r.note]
        )
    return buf.getvalue()


def _resolve_out(out: str | None, default_name: str) -> str:
    if out:
        return out
    return os.path.join(os.environ.get(ENV_OUT_DIR, "."), default_name)


def _write_text(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    max_rounds: int = 1
    trials: int = 1
    seed: int = 0
    experiment_index: int = 0
    grid: dict = field(default_factory=dict)
    tol: float | None = None

    def __post_init__(self):
        for name in ("max_rounds", "trials", "seed", "experiment_index"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise UsageError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise UsageError("trials must be at least 1")
        if self.max_rounds < 1:
            raise UsageError("max_rounds must be at least 1")
        if self.seed < 0 or self.experiment_index < 0:
            raise UsageError("seed and experiment_index must be non-negative")
        if self.tol is not None and (isinstance(self.tol, bool) or not isinstance(self.tol, (int, float))):
            raise UsageError(f"tol must be a number, got {self.tol!r}")
        for name in ("params", "grid"):
            if not isinstance(getattr(self, name), dict):
                raise UsageError(f"{name} must be a JSON object")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise UsageError("config must be a JSON object")
        known = {"experiment", "params", "max_rounds", "trials", "seed", "experiment_index", "grid", "tol"}
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in d:
            raise UsageError("config must name an experiment")
        return cls(**d)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "params": _jsonify(self.params),
            "max_rounds": self.max_rounds,
            "trials": self.trials,
            "seed": self.seed,
            "experiment_index": self.experiment_index,
        }


def _jsonify(x):
    """Plain-JSON form: complex -> [re, im], arrays -> nested lists."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.ndarray):
        return [_jsonify(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def _as_complex(v) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    return complex(v)


# Config values are checked once, where they are read, and a bad one is a
# UsageError (exit 2), not a numpy or zoo error deep inside a run.

def _is_real(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


def _real(v, name: str) -> float:
    if not _is_real(v):
        raise UsageError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def _integer(v, name: str, minimum: int) -> int:
    if not (_is_real(v) and isinstance(v, numbers.Integral) and v >= minimum):
        raise UsageError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def _complex(v, name: str) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        ok = _is_real(v[0]) and _is_real(v[1])
    else:
        ok = _is_real(v) or (isinstance(v, complex) and cmath.isfinite(v))
    if not ok:
        raise UsageError(f"{name} must be a finite number or an [re, im] pair, got {v!r}")
    return _as_complex(v)


def _real_vector(v, name: str, length: int | None = None) -> np.ndarray:
    if not (isinstance(v, (list, tuple)) and (length is None or len(v) == length) and all(map(_is_real, v))):
        size = "" if length is None else f"{length} "
        raise UsageError(f"{name} must be a list of {size}finite numbers, got {v!r}")
    return np.asarray(v, dtype=float)


def _complex_vector(v, name: str, length: int | None = None) -> np.ndarray:
    if not (isinstance(v, (list, tuple)) and (length is None or len(v) == length)):
        size = "" if length is None else f"{length} "
        raise UsageError(f"{name} must be a list of {size}numbers, got {v!r}")
    return np.array([_complex(e, name) for e in v])


# ---------------------------------------------------------------------------
# Trace serialization (JSON schema used by `sample`)
# ---------------------------------------------------------------------------

def program_params_to_json(program: ProgramState) -> dict:
    return {"encoding": program.encoding, **_jsonify(dict(program.params))}


def program_from_params(obj: dict) -> ProgramState:
    """Rebuild a ProgramState from its serialized parameters."""
    enc = obj["encoding"]
    if enc == "u1":
        if obj.get("program_qubits") == 2:
            return zoo.vmc3_program(obj["alpha"])
        return zoo.u1_program(obj["alpha"])
    if enc == "geometric":
        return zoo.geometric_program(_as_complex(obj["z"]), obj["n_program"])
    if enc == "diagonal":
        return zoo.diagonal_program([_as_complex(e) for e in obj["entries"]])
    if enc == "su2":
        return zoo.su2_program(obj["mu"])
    if enc == "weyl":
        n = obj["n_dim"]
        d = np.array([[_as_complex(obj["d"][m][k]) for k in range(n)] for m in range(n)])
        k = np.zeros(n * n, dtype=complex)
        for m in range(n):
            for j in range(n):
                k += d[m, j] * zoo.bell_state(m, j, n)
        return ProgramState(ket=k, encoding="weyl", params={"d": d, "scale": obj["scale"], "n_dim": n})
    raise UsageError(f"cannot rebuild a program with encoding {enc!r}")


def trace_to_dict(
    trace: loops.LoopTrace, program_params: Callable[[ProgramState], dict] = program_params_to_json
) -> dict:
    """Plain-JSON form of one trace; `program_params` renders each round's program."""
    return {
        "rounds": [
            {
                "program_params": program_params(r.program),
                "outcome": r.outcome,
                "prob": r.probability,
            }
            for r in trace.rounds
        ],
        "succeeded": trace.succeeded,
        "status": trace.status,
        "rounds_used": trace.rounds_used,
    }


def trace_from_dict(obj: dict) -> loops.LoopTrace:
    rounds = tuple(
        loops.LoopRound(
            program=program_from_params(r["program_params"]),
            outcome=r["outcome"],
            probability=r["prob"],
            post_state=None,
        )
        for r in obj["rounds"]
    )
    return loops.LoopTrace(rounds=rounds, succeeded=obj["succeeded"], status=obj["status"])


def _json_float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


# Scalar renderers that match json's own: ASCII-escaped strings, float repr.
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    float: _json_float,
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
}


def _json_at(value, pad: str) -> str:
    """json.dumps(value, indent=2) for a value nested `len(pad)` spaces in.

    Raw newlines cannot occur inside JSON strings, so shifting every line
    break by `pad` is exact.
    """
    scalar = _SCALAR_JSON.get(value.__class__)
    if scalar is not None:
        return scalar(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


_PAD_ROUND = " " * 10
_PAD_TRACE = " " * 6
_ROUND_JSON = (
    '\n        {\n          "program_params": %s,\n          "outcome": %s,\n          "prob": %s\n        }'
)
_TRACE_JSON = (
    '\n    {\n      "rounds": [%s],\n      "succeeded": %s,\n      "status": %s,\n      "rounds_used": %s\n    }'
)


def sample_json(payload: dict) -> str:
    """The text of json.dumps(payload, indent=2) + "\\n" for a `run_sample` payload.

    json's indenting encoder runs in pure Python. This writer renders the
    config and summary through json.dumps, each distinct program_params
    dict once, and the per-round and per-trace fields from fixed templates,
    so the bytes are the same at a fraction of the cost. It relies on the
    payload's key order: config, traces, summary; rounds, succeeded, status,
    rounds_used; program_params, outcome, prob.
    """
    # Keyed by id: the payload keeps every dict alive while this runs.
    params_text: dict[int, str] = {}

    def round_json(r: dict) -> str:
        params = params_text.get(id(r["program_params"]))
        if params is None:
            params = params_text[id(r["program_params"])] = _json_at(r["program_params"], _PAD_ROUND)
        return _ROUND_JSON % (params, _json_at(r["outcome"], _PAD_ROUND), _json_at(r["prob"], _PAD_ROUND))

    traces = []
    for t in payload["traces"]:
        rounds = ",".join(map(round_json, t["rounds"]))
        traces.append(
            _TRACE_JSON
            % (
                rounds + "\n      " if rounds else "",
                _json_at(t["succeeded"], _PAD_TRACE),
                _json_at(t["status"], _PAD_TRACE),
                _json_at(t["rounds_used"], _PAD_TRACE),
            )
        )
    body = ",".join(traces) + "\n  " if traces else ""
    return (
        '{\n  "config": ' + _json_at(payload["config"], "  ")
        + ',\n  "traces": [' + body
        + '],\n  "summary": ' + _json_at(payload["summary"], "  ")
        + "\n}\n"
    )


# ---------------------------------------------------------------------------
# Loop experiment setups
# ---------------------------------------------------------------------------

@dataclass
class _LoopSetup:
    proc: ProcessorDefinition
    rule: loops.CorrectionRule
    target: np.ndarray
    psi: np.ndarray | None  # None: draw a Haar-random state per trial
    exact: float


def _uniform_state(dim: int) -> np.ndarray:
    return np.ones(dim, dtype=complex) / np.sqrt(dim)


def _config_state(p: dict, dim: int) -> np.ndarray:
    """The config's data state `psi` (default: uniform superposition), normalized."""
    try:
        psi = np.asarray(p["psi"], dtype=complex) if "psi" in p else _uniform_state(dim)
    except (TypeError, ValueError):
        raise UsageError("params.psi must be a list of numbers") from None
    if psi.shape != (dim,):
        raise UsageError(f"params.psi must hold {dim} amplitudes for this processor, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)) or not np.any(psi):
        raise UsageError("params.psi must be a finite, non-zero vector")
    return qlinalg.normalize(psi)


def _loop_setup(cfg: ExperimentConfig) -> _LoopSetup:
    p = cfg.params
    aux = derive_stream(cfg.seed, cfg.experiment_index, 0)
    if cfg.experiment == "u1":
        alpha = _real(p.get("alpha", _DEFAULT_ALPHA), "alpha")
        proc, rule, target = zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(alpha)
    elif cfg.experiment == "bz":
        z = _complex(p.get("z", 0.8), "z")
        n_program = _integer(p.get("n_program", 2), "n_program", 2)
        proc, rule, target = zoo.cyclic_shift_processor(n_program), loops.bz_rule(), zoo.bz_operator(z)
    elif cfg.experiment == "bz_haar":
        if cfg.max_rounds != 1:
            raise UsageError("bz_haar averages single-shot success; set max_rounds to 1")
        z = _complex(p.get("z", np.sqrt(0.5)), "z")
        n_program = _integer(p.get("n_program", 4), "n_program", 2)
        proc, rule, target = zoo.cyclic_shift_processor(n_program), loops.bz_rule(), zoo.bz_operator(z)
        exact = zoo.closed_form("bz_finite", z=z, n_program=n_program).value
        return _LoopSetup(proc=proc, rule=rule, target=target, psi=None, exact=exact)
    elif cfg.experiment == "diagonal":
        if "entries" in p:
            entries = _complex_vector(p["entries"], "entries")
        else:
            entries = np.exp(1j * _real_vector(p.get("phases", _DEFAULT_PHASES), "phases"))
        proc = zoo.qudit_diagonal_processor(len(entries))
        rule, target = loops.diagonal_rule(len(entries)), np.diag(entries)
    elif cfg.experiment == "qid2":
        mu = _real_vector(p.get("mu", _DEFAULT_MU), "mu", 3)
        proc, rule, target = zoo.qid2(), loops.qid2_rule(), su2_exp(mu)
    elif cfg.experiment == "qidn":
        n_dim = _integer(p.get("n_dim", 2), "n_dim", 2)
        spec_target = p.get("target", "haar")
        if spec_target == "haar":
            target = random_unitary(n_dim, aux)
        elif isinstance(spec_target, list) and len(spec_target) == n_dim:
            target = np.array([_complex_vector(row, "target row", n_dim) for row in spec_target])
        else:
            raise UsageError(f'target must be "haar" or a list of {n_dim} rows, got {spec_target!r}')
        proc, rule = zoo.qidN(n_dim), loops.qidN_rule(n_dim)
    else:
        raise UsageError(f"unknown sample experiment: {cfg.experiment!r} (known: {SAMPLE_EXPERIMENTS})")
    psi = _config_state(p, proc.data_dim)
    exact = loops.exact_success(proc, target, rule, cfg.max_rounds, psi=psi)
    return _LoopSetup(proc=proc, rule=rule, target=target, psi=psi, exact=exact)


def run_sample(cfg: ExperimentConfig) -> dict:
    """Run the configured trajectories and return the JSON payload.

    Rounds that ran the same program share one program_params dict.
    """
    setup = _loop_setup(cfg)
    policy = loops.LoopPolicy(max_rounds=cfg.max_rounds)
    tree = loops.OutcomeTree(setup.proc, setup.target, setup.rule)
    # One program_params dict per distinct program. The entry keeps its
    # program alive: programs of nodes past the tree's retention cap are
    # rebuilt and freed, and a freed program's id can be reused.
    params_memo: dict[int, tuple[ProgramState, dict]] = {}

    def program_params(program: ProgramState) -> dict:
        entry = params_memo.get(id(program))
        if entry is None:
            entry = params_memo[id(program)] = (program, program_params_to_json(program))
        return entry[1]

    traces = []
    successes = 0
    for t in range(cfg.trials):
        rng = derive_stream(cfg.seed, cfg.experiment_index, t + 1)
        psi = setup.psi if setup.psi is not None else random_state(setup.proc.data_dim, rng)
        trace = loops.run_loop(setup.proc, psi, setup.target, setup.rule, policy, rng, tree=tree)
        successes += trace.succeeded
        traces.append(trace_to_dict(trace, program_params))
    empirical = successes / cfg.trials
    summary = {
        "trials": cfg.trials,
        "successes": successes,
        "empirical": empirical,
        "exact": setup.exact,
        "three_sigma": 3.0 * float(np.sqrt(setup.exact * (1 - setup.exact) / cfg.trials)),
    }
    return {"config": cfg.to_dict(), "traces": traces, "summary": summary}


# ---------------------------------------------------------------------------
# Reproduction tables
# ---------------------------------------------------------------------------

def _table_u1() -> list[ResultRow]:
    alpha = _DEFAULT_ALPHA
    proc, rule = zoo.u1_cnot(), loops.u1_rule()
    target = zoo.u1_operator(alpha)
    dec = decompose(proc, _PSI2, zoo.u1_program(alpha))
    rows = [
        ResultRow("u1_single_round_success", f"alpha={alpha}", dec.by_label("0").probability, 0.5),
        ResultRow("u1_two_round_success", f"alpha={alpha}", loops.exact_success(proc, target, rule, 2, psi=_PSI2), 0.75),
    ]
    for n in (3, 10, 20):
        rows.append(
            ResultRow(
                "u1_loop_success",
                f"alpha={alpha},n={n}",
                loops.exact_success(proc, target, rule, n, psi=_PSI2),
                1 - 0.5**n,
            )
        )
    chain = zoo.u1_operator(2 * alpha) @ zoo.u1_operator(-alpha)
    rows.append(ResultRow("u1_correction_identity", f"alpha={alpha}", phase_distance(chain, target), 0.0))
    return rows


def _vmc3_branch_deviation(program_builder: Callable[[float], ProgramState], n_grid: int = 64) -> float:
    """Worst distance of 2 * (success branch) from U(alpha), phase-blind, over a grid."""
    proc = zoo.vmc3()
    basis = ProgramBasis.computational(proc.program_dim)
    worst = 0.0
    for alpha in np.linspace(0.0, 2 * np.pi, n_grid, endpoint=False):
        ops = branch_operators(proc, program_builder(alpha), basis)
        for j in range(3):
            worst = max(worst, phase_distance(2 * ops[j], zoo.u1_operator(alpha)))
    return worst


def _table_vmc3() -> list[ResultRow]:
    proc = zoo.vmc3()
    probs = []
    for alpha in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
        dec = decompose(proc, _PSI2, zoo.vmc3_program(alpha))
        probs.append(sum(b.probability for b in dec.branches[:3]))
    rows = [
        ResultRow("vmc3_success_min", "alpha grid 64", float(np.min(probs)), 0.75),
        ResultRow("vmc3_success_max", "alpha grid 64", float(np.max(probs)), 0.75),
        ResultRow("vmc3_branch_proportionality", "product program", _vmc3_branch_deviation(zoo.vmc3_program), 0.0),
        ResultRow(
            "vmc3_branch_proportionality",
            "phase-ramp program",
            _vmc3_branch_deviation(zoo.vmc3_phase_ramp_program),
            0.0,
            note="erratum: published phase formula swaps two program amplitudes; product encoding verified by circuit oracle",
        ),
    ]
    return rows


def _bz_oracle(z: complex, n_program: int, psi: np.ndarray) -> float:
    dec = decompose(zoo.cyclic_shift_processor(n_program), psi, zoo.geometric_program(z, n_program))
    return sum(b.probability for b in dec.branches[:-1])


def _table_bz() -> list[ResultRow]:
    z_half = np.sqrt(0.5)
    rows = [
        ResultRow(
            "bz_state_averaged_success",
            "|z|^2=0.5,n_program=4",
            zoo.closed_form("bz_finite", z=z_half, n_program=4).value,
            0.7,
        ),
        ResultRow("bz_unit_modulus_success", "|z|=1,n_program=4", _bz_oracle(1.0, 4, _PSI2), 0.75),
    ]
    z, n = 0.5, 3
    alpha2 = float(abs(_PSI2[0]) ** 2)
    corrected = zoo.closed_form("bz_finite", z=z, n_program=n, alpha2=alpha2).value
    mod2 = abs(z) ** 2
    printed = 1 - (1 - mod2) * (alpha2 * mod2 ** (n - 1) + (1 - alpha2)) / (mod2**n - 1)
    rows.append(
        ResultRow(
            "bz_success_formula",
            f"z={z},n_program={n},psi=(0.6,0.8)",
            corrected,
            printed,
            note="erratum: formula as printed exceeds 1 for |z|<1; corrected denominator matches branch-sum oracle",
        )
    )
    rows.append(
        ResultRow("bz_oracle_agreement", f"z={z},n_program={n},psi=(0.6,0.8)", _bz_oracle(z, n, _PSI2), corrected)
    )
    return rows


def _table_qutrit() -> list[ResultRow]:
    proc, rule = zoo.qudit_diagonal_processor(3), loops.diagonal_rule(3)
    target = np.diag(np.exp(1j * np.asarray(_DEFAULT_PHASES)))
    psi = _uniform_state(3)
    dec = decompose(proc, psi, zoo.diagonal_program(np.diagonal(target)))
    rows = [ResultRow("qutrit_per_round_success", "unitary diagonal target", dec.by_label("0").probability, 1 / 3)]
    for n in (5, 10, 20):
        rows.append(
            ResultRow(
                "qutrit_loop_success",
                f"n={n}",
                loops.exact_success(proc, target, rule, n, psi=psi),
                1 - (2 / 3) ** n,
            )
        )
    return rows


def _b0_oracle(z: complex, dim: int, n_program: int, psi: np.ndarray) -> float:
    dec = decompose(zoo.amp_modifier_processor(dim, n_program), psi, zoo.geometric_program(z, n_program))
    return sum(b.probability for b in dec.branches[:-1])


def _table_b0() -> list[ResultRow]:
    rows = []
    for dim in (2, 3, 5):
        rows.append(
            ResultRow(
                "b0_unit_modulus_success",
                f"dim={dim},n_program=5,|z|=1",
                _b0_oracle(1.0, dim, 5, _uniform_state(dim)),
                4 / 5,
            )
        )
    psi = _uniform_state(3)
    z, n = 0.7, 4
    bnorm2 = float(np.linalg.norm(zoo.b0_operator(z, 3) @ psi) ** 2)
    rows.append(
        ResultRow(
            "b0_oracle_agreement",
            f"dim=3,n_program={n},z={z}",
            _b0_oracle(z, 3, n, psi),
            zoo.closed_form("b0_qudit", z=z, n_program=n, bnorm2=bnorm2).value,
        )
    )
    return rows


def _table_qid2() -> list[ResultRow]:
    proc, rule, basis = zoo.qid2(), loops.qid2_rule(), zoo.qid2_basis()
    mu = np.asarray(_DEFAULT_MU)
    target = su2_exp(mu)
    dec = decompose(proc, _PSI2, zoo.su2_program(mu), basis)
    probs = dec.probabilities()
    mu_label = f"mu={tuple(float(x) for x in mu)}"
    rows = [
        ResultRow("qid2_outcome_probability_min", mu_label, float(probs.min()), 0.25),
        ResultRow("qid2_outcome_probability_max", mu_label, float(probs.max()), 0.25),
        ResultRow("qid2_one_loop_success", "rounds=2", loops.exact_success(proc, target, rule, 2, psi=_PSI2), 7 / 16),
    ]
    for n in (5, 40):
        rows.append(
            ResultRow(
                "qid2_loop_success", f"rounds={n}", loops.exact_success(proc, target, rule, n, psi=_PSI2), 1 - 0.75**n
            )
        )
    rows.append(
        ResultRow(
            "qid2_failure_after_30_loops",
            "rounds=30",
            1 - loops.exact_success(proc, target, rule, 30, psi=_PSI2),
            1e-4,
            note="approx: reference quotes the failure only to order of magnitude (~1e-4); exact value (3/4)^30",
        )
    )
    return rows


def _table_qidn() -> list[ResultRow]:
    rows = []
    for n_dim, k in ((2, 1), (2, 2), (3, 1), (3, 5)):
        proc, rule = zoo.qidN(n_dim), loops.qidN_rule(n_dim)
        target = random_unitary(n_dim, derive_stream(7, n_dim))
        rows.append(
            ResultRow(
                "qidn_loop_success",
                f"n_dim={n_dim},k={k}",
                loops.exact_success(proc, target, rule, k, psi=_uniform_state(n_dim)),
                1 - (1 - 1 / n_dim**2) ** k,
            )
        )
    return rows


def _table_limits() -> list[ResultRow]:
    alpha2 = float(abs(_PSI2[0]) ** 2)
    rows = []
    for z in (0.5, 0.95, 2.0):
        finite = zoo.closed_form("bz_finite", z=z, n_program=200, alpha2=alpha2).value
        limit = zoo.closed_form("bz_limit", z=z, alpha2=alpha2).value
        side = "|z|<1" if z < 1 else "|z|>1"
        rows.append(
            ResultRow(
                "bz_limit_surrogate",
                f"z={z},n_program=200,{side}",
                finite,
                limit,
                note="approx: finite-program surrogate for the infinite-program limit",
            )
        )
    psi = _uniform_state(3)
    for z in (0.5, 2.0):
        bnorm2 = float(np.linalg.norm(zoo.b0_operator(z, 3) @ psi) ** 2)
        finite = zoo.closed_form("b0_qudit", z=z, n_program=200, bnorm2=bnorm2).value
        limit = bnorm2 if z <= 1 else bnorm2 / abs(z) ** 2
        rows.append(
            ResultRow(
                "b0_limit_surrogate",
                f"z={z},dim=3,n_program=200",
                finite,
                limit,
                note="approx: finite-program surrogate for the infinite-program limit",
            )
        )
    return rows


_TABLE_BUILDERS = {
    "u1": _table_u1,
    "vmc3": _table_vmc3,
    "bz": _table_bz,
    "qutrit": _table_qutrit,
    "b0": _table_b0,
    "qid2": _table_qid2,
    "qidN": _table_qidn,
    "limits": _table_limits,
}


def reproduce_table(table: str) -> list[ResultRow]:
    if table not in _TABLE_BUILDERS:
        raise UsageError(f"unknown table: {table!r} (known: {', '.join(REPRODUCE_TABLES)})")
    return _TABLE_BUILDERS[table]()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _single_shot_runner(proc, xi, psi, fail_label):
    dec = decompose(proc, psi, xi)

    def run_one(rng):
        return select_branch(dec, rng).label != fail_label

    return run_one


def _loop_runner(proc, rule, target, psi, rounds):
    policy = loops.LoopPolicy(max_rounds=rounds)
    tree = loops.OutcomeTree(proc, target, rule)

    def run_one(rng):
        return loops.run_loop(proc, psi, target, rule, policy, rng, tree=tree).succeeded

    return run_one


def _sweep_point(experiment: str, merged: dict):
    """(quantity, exact value, closed-form reference, success sampler) for one grid point."""
    if experiment == "u1":
        n = _integer(merged["n"], "n", 1)
        proc, rule = zoo.u1_cnot(), loops.u1_rule()
        target = zoo.u1_operator(_real(merged.get("alpha", _DEFAULT_ALPHA), "alpha"))
        psi = _uniform_state(2)
        computed = loops.exact_success(proc, target, rule, n, psi=psi)
        closed = zoo.closed_form("u1_loop", n=n).value
        return "u1_loop_success", computed, closed, _loop_runner(proc, rule, target, psi, n)
    if experiment == "diagonal":
        dim = _integer(merged.get("dim", 3), "dim", 2)
        n = _integer(merged["n"], "n", 1)
        proc, rule = zoo.qudit_diagonal_processor(dim), loops.diagonal_rule(dim)
        target = np.diag(np.exp(2j * np.pi * np.arange(dim) / dim))
        psi = _uniform_state(dim)
        computed = loops.exact_success(proc, target, rule, n, psi=psi)
        closed = zoo.closed_form("diagonal_loop", dim=dim, n=n).value
        return "diagonal_loop_success", computed, closed, _loop_runner(proc, rule, target, psi, n)
    if experiment == "qid2":
        n = _integer(merged["n"], "n", 1)
        proc, rule = zoo.qid2(), loops.qid2_rule()
        target = su2_exp(_real_vector(merged.get("mu", _DEFAULT_MU), "mu", 3))
        psi = _uniform_state(2)
        computed = loops.exact_success(proc, target, rule, n, psi=psi)
        closed = zoo.closed_form("qid2_loop", n=n).value
        return "qid2_loop_success", computed, closed, _loop_runner(proc, rule, target, psi, n)
    if experiment == "qidn":
        n_dim, k = _integer(merged.get("n_dim", 2), "n_dim", 2), _integer(merged["k"], "k", 1)
        proc, rule = zoo.qidN(n_dim), loops.qidN_rule(n_dim)
        target = random_unitary(n_dim, derive_stream(_integer(merged.get("target_seed", 7), "target_seed", 0), n_dim))
        psi = _uniform_state(n_dim)
        computed = loops.exact_success(proc, target, rule, k, psi=psi)
        closed = zoo.closed_form("qidn_loop", n_dim=n_dim, k=k).value
        return "qidn_loop_success", computed, closed, _loop_runner(proc, rule, target, psi, k)
    if experiment == "bz":
        z = _complex(merged["z"], "z")
        n_program = _integer(merged.get("n_program", 2), "n_program", 2)
        psi = _config_state(merged, 2) if "psi" in merged else _PSI2
        computed = _bz_oracle(z, n_program, psi)
        closed = zoo.closed_form("bz_finite", z=z, n_program=n_program, alpha2=float(abs(psi[0]) ** 2)).value
        runner = _single_shot_runner(zoo.cyclic_shift_processor(n_program), zoo.geometric_program(z, n_program), psi, str(n_program - 1))
        return "bz_single_shot_success", computed, closed, runner
    if experiment == "b0":
        z = _complex(merged["z"], "z")
        dim = _integer(merged.get("dim", 3), "dim", 2)
        n_program = _integer(merged.get("n_program", 2), "n_program", 2)
        psi = _uniform_state(dim)
        bnorm2 = float(np.linalg.norm(zoo.b0_operator(z, dim) @ psi) ** 2)
        computed = _b0_oracle(z, dim, n_program, psi)
        closed = zoo.closed_form("b0_qudit", z=z, n_program=n_program, bnorm2=bnorm2).value
        runner = _single_shot_runner(zoo.amp_modifier_processor(dim, n_program), zoo.geometric_program(z, n_program), psi, str(n_program - 1))
        return "b0_single_shot_success", computed, closed, runner
    raise UsageError(f"unknown sweep experiment: {experiment!r} (known: {SWEEP_EXPERIMENTS})")


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per grid point, iterated in declared key order.

    With trials > 1 each point also gets a sampled success frequency in the
    empirical column, drawn from streams (seed, point index, trial index).
    """
    if not cfg.grid:
        raise UsageError("sweep config must declare a grid")
    keys = list(cfg.grid)
    for k in keys:
        if not isinstance(cfg.grid[k], list):
            raise UsageError(f"grid.{k} must be a list of values, got {cfg.grid[k]!r}")
    rows = []
    for index, values in enumerate(itertools.product(*(cfg.grid[k] for k in keys))):
        point = dict(zip(keys, values))
        quantity, computed, closed, run_one = _sweep_point(cfg.experiment, {**cfg.params, **point})
        empirical = None
        if cfg.trials > 1:
            hits = sum(run_one(derive_stream(cfg.seed, index, t + 1)) for t in range(cfg.trials))
            empirical = hits / cfg.trials
        label = ",".join(f"{k}={v}" for k, v in point.items())
        rows.append(ResultRow(quantity, label, computed, closed, empirical=empirical))
    return rows


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

# Constructors exercised by `verify`; tests may append entries to inject
# deliberately corrupted processors (negative control).
PROCESSOR_CATALOG: list[tuple[str, Callable[[], ProcessorDefinition]]] = [
    ("u1_cnot", zoo.u1_cnot),
    ("vmc3", zoo.vmc3),
    ("cyclic_shift(4)", lambda: zoo.cyclic_shift_processor(4)),
    ("qudit_diagonal(3)", lambda: zoo.qudit_diagonal_processor(3)),
    ("amp_modifier(3,4)", lambda: zoo.amp_modifier_processor(3, 4)),
    ("qid2", zoo.qid2),
    ("qidN(2)", lambda: zoo.qidN(2)),
    ("qidN(3)", lambda: zoo.qidN(3)),
]


def _check_su2_roundtrip():
    rng = derive_stream(11)
    for _ in range(25):
        mu = rng.uniform(-1, 1, size=3)
        mu *= rng.uniform(0.05, np.pi - 0.05) / np.linalg.norm(mu)
        rec, phase = qlinalg.su2_log(su2_exp(mu))
        assert np.linalg.norm(rec - mu) <= 1e-9 and abs(phase) <= 1e-9, f"su2 round trip failed for {mu}"


def _check_inverse_roundtrip():
    rng = derive_stream(12)
    for dim in (2, 3, 5):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) + 3 * np.eye(dim)
        assert np.linalg.norm(m @ qlinalg.inverse(m) - np.eye(dim)) <= 1e-9, "inverse round trip failed"


def _check_processor(label: str, proc: ProcessorDefinition):
    g = proc.global_unitary()
    assert qlinalg.is_unitary(g, tol=1e-9), f"{label}: G is not unitary"
    rng = derive_stream(13)
    for _ in range(10):
        psi = random_state(proc.data_dim, rng)
        xi = ProgramState(ket=random_state(proc.program_dim, rng))
        dec = decompose(proc, psi, xi)
        assert abs(sum(b.probability for b in dec.branches) - 1.0) <= 1e-9, f"{label}: probabilities do not sum to 1"
        joint = sum(
            np.kron(b.operator @ psi, np.eye(proc.program_dim)[j]) for j, b in enumerate(dec.branches)
        )
        assert np.linalg.norm(joint - g @ np.kron(psi, xi.ket)) <= 1e-10, f"{label}: reconstruction failed"


def _check_vmc3_success():
    proc = zoo.vmc3()
    for alpha in np.linspace(0, 2 * np.pi, 16, endpoint=False):
        dec = decompose(proc, _PSI2, zoo.vmc3_program(alpha))
        p = sum(b.probability for b in dec.branches[:3])
        assert abs(p - 0.75) <= 1e-12, f"vmc3 success {p} != 3/4 at alpha={alpha}"
    assert _vmc3_branch_deviation(zoo.vmc3_program, n_grid=16) <= 1e-9, "vmc3 branches not proportional to U(alpha)"


def _check_bz_closed_form():
    rng = derive_stream(14)
    for _ in range(20):
        z = complex(rng.uniform(0.3, 1.7), rng.uniform(-0.5, 0.5))
        n = int(rng.integers(2, 9))
        psi = random_state(2, rng)
        closed = zoo.closed_form("bz_finite", z=z, n_program=n, alpha2=float(abs(psi[0]) ** 2)).value
        assert abs(closed - _bz_oracle(z, n, psi)) <= 1e-10, "bz closed form disagrees with branch-sum oracle"


def _check_qid2_probabilities():
    proc, basis = zoo.qid2(), zoo.qid2_basis()
    rng = derive_stream(15)
    for _ in range(5):
        mu = rng.uniform(-1.2, 1.2, size=3)
        dec = decompose(proc, random_state(2, rng), zoo.su2_program(mu), basis)
        assert np.abs(dec.probabilities() - 0.25).max() <= 1e-12, "qid2 outcome probabilities != 1/4"


def _check_sigma_conjugation():
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            if j == k:
                continue
            lhs = qlinalg.PAULIS[j] @ qlinalg.PAULIS[k] @ qlinalg.PAULIS[j]
            assert np.abs(lhs + qlinalg.PAULIS[k]).max() <= 1e-15, "sigma_j sigma_k sigma_j != -sigma_k"


def _check_qid_network_action():
    for n in (2, 3):
        net = zoo.qid_network(n)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    src = a * n * n + b * n + c
                    dst = ((a - b + c) % n) * n * n + ((b + a) % n) * n + ((c + a) % n)
                    assert net[dst, src] == 1.0, f"network action wrong on |{a}{b}{c}> for N={n}"


def _check_weyl_identities():
    for n in (2, 3):
        for m1 in range(n):
            for n1 in range(n):
                u1 = zoo.weyl(m1, n1, n)
                for m2 in range(n):
                    for n2 in range(n):
                        u2 = zoo.weyl(m2, n2, n)
                        tr = np.trace(dagger(u2) @ u1)
                        want = n if (m1, n1) == (m2, n2) else 0.0
                        assert abs(tr - want) <= 1e-10, "weyl orthogonality failed"
                        conj = dagger(u2) @ u1 @ u2
                        phase = np.exp(2j * np.pi * (m1 * n2 - n1 * m2) / n)
                        assert np.abs(conj - phase * u1).max() <= 1e-10, "weyl conjugation relation failed"


def _check_qidn_covariance():
    for n in (2, 3):
        net = zoo.qid_network(n)
        rng = derive_stream(16, n)
        psi = random_state(n, rng)
        for m in range(n):
            for k in range(n):
                xi = zoo.bell_state(m, k, n)
                out = net @ np.kron(psi, xi)
                want = np.kron(zoo.weyl(m, k, n) @ psi, xi)
                assert np.linalg.norm(out - want) <= 1e-10, f"covariance failed for (m,n)=({m},{k}), N={n}"


def _check_phi_basis():
    for n in (2, 3):
        basis = zoo.phi_basis(n)
        for r in range(n):
            for s in range(n):
                head = np.zeros(n, dtype=complex)
                head[(-r) % n] = 1.0
                tail = np.array([np.exp(2j * np.pi * ((j + r) % n) * s / n) for j in range(n)])
                tail = np.exp(-2j * np.pi * r * s / n) * tail / np.sqrt(n)
                factored = np.kron(head, np.exp(2j * np.pi * r * s / n) * tail)
                assert phase_distance(basis.vectors[r * n + s], factored) <= 1e-10, "phi basis not factorizable"


def _check_correction_soundness():
    cases = []
    rng = derive_stream(17)
    cases.append(("u1", zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(0.7)))
    cases.append(("bz", zoo.cyclic_shift_processor(2), loops.bz_rule(), zoo.bz_operator(0.8 + 0.2j)))
    cases.append(("diagonal", zoo.qudit_diagonal_processor(3), loops.diagonal_rule(3), np.diag([1.0, 0.6, 0.3 + 0.4j])))
    cases.append(("qid2", zoo.qid2(), loops.qid2_rule(), su2_exp([0.2, -0.5, 0.9])))
    cases.append(("qidN(3)", zoo.qidN(3), loops.qidN_rule(3), random_unitary(3, rng)))
    for label, proc, rule, target in cases:
        basis = rule.basis_for(proc)
        success = rule.success_labels(proc)
        first = rule.next_program(proc, target, np.eye(proc.data_dim))
        ops = branch_operators(proc, first, basis)
        for idx, lab in enumerate(basis.labels):
            if lab in success:
                continue
            if np.linalg.norm(ops[idx]) < 1e-12:
                continue
            corrected = rule.next_program(proc, target, ops[idx])
            next_ops = branch_operators(proc, corrected, basis)
            sidx = next(i for i, l in enumerate(basis.labels) if l in success)
            composite = next_ops[sidx] @ ops[idx]
            scale = qlinalg.proportionality_scale(composite, target, tol=1e-8)
            assert scale is not None and 0 < abs(scale) <= 1 + 1e-9, f"{label}: correction after {lab} unsound"


def _check_loop_closed_forms():
    checks = [
        (zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(0.4), 6, 1 - 0.5**6),
        (zoo.qid2(), loops.qid2_rule(), su2_exp([0.3, 0.1, -0.8]), 6, 1 - 0.75**6),
        (zoo.qudit_diagonal_processor(3), loops.diagonal_rule(3), np.diag(np.exp(1j * np.array([0.1, 1.0, -0.6]))), 6, 1 - (2 / 3) ** 6),
        (zoo.qidN(2), loops.qidN_rule(2), random_unitary(2, derive_stream(18)), 5, 1 - 0.75**5),
        (zoo.qidN(3), loops.qidN_rule(3), random_unitary(3, derive_stream(19)), 4, 1 - (8 / 9) ** 4),
    ]
    for proc, rule, target, n, want in checks:
        got = loops.exact_success(proc, target, rule, n)
        assert abs(got - want) <= 1e-12, f"exact_success {got} != {want} for {proc.label}"


def _check_loop_post_states():
    # Non-unitary targets may legitimately exhaust the budget (their success
    # probability does not converge to 1), so proportionality is only
    # asserted on trajectories that did succeed.
    rng = derive_stream(20)
    cases = [
        (zoo.qid2(), loops.qid2_rule(), su2_exp([0.2, -0.5, 0.9])),
        (zoo.cyclic_shift_processor(2), loops.bz_rule(), zoo.bz_operator(0.8)),
    ]
    for proc, rule, target in cases:
        successes = 0
        for _ in range(10):
            psi = random_state(proc.data_dim, rng)
            trace = loops.run_loop(proc, psi, target, rule, loops.LoopPolicy(max_rounds=50), rng)
            if not trace.succeeded:
                continue
            successes += 1
            want = qlinalg.normalize(target @ psi)
            assert phase_distance(trace.rounds[-1].post_state, want) <= 1e-8, "post state not proportional to target psi"
        assert successes > 0, f"no successful trajectory for {proc.label}"


def verification_checks() -> list[tuple[str, str, Callable[[], None]]]:
    checks: list[tuple[str, str, Callable[[], None]]] = [
        ("qlinalg", "su2 log/exp round trip", _check_su2_roundtrip),
        ("qlinalg", "inverse round trip", _check_inverse_roundtrip),
    ]
    for label, factory in PROCESSOR_CATALOG:
        checks.append(
            ("processors", f"{label}: completeness + reconstruction", lambda label=label, factory=factory: _check_processor(label, factory()))
        )
    checks += [
        ("constructions", "vmc3 success 3/4 and branch proportionality", _check_vmc3_success),
        ("constructions", "B(z) closed form vs branch-sum oracle", _check_bz_closed_form),
        ("constructions", "qid2 outcome probabilities 1/4", _check_qid2_probabilities),
        ("constructions", "sigma conjugation identity", _check_sigma_conjugation),
        ("constructions", "distributor network basis action", _check_qid_network_action),
        ("constructions", "weyl orthogonality + conjugation", _check_weyl_identities),
        ("constructions", "distributor covariance", _check_qidn_covariance),
        ("constructions", "phi basis factorization", _check_phi_basis),
        ("loops", "correction soundness", _check_correction_soundness),
        ("loops", "exact_success closed forms", _check_loop_closed_forms),
        ("loops", "post states proportional to target", _check_loop_post_states),
    ]
    return checks


def run_verification() -> tuple[list[tuple[str, str, bool, str]], bool]:
    results = []
    ok_all = True
    for suite, name, fn in verification_checks():
        try:
            fn()
            results.append((suite, name, True, ""))
        except Exception as exc:  # noqa: BLE001 - any failure must flip the exit code
            ok_all = False
            results.append((suite, name, False, str(exc)))
    return results, ok_all


# ---------------------------------------------------------------------------
# Subcommand entry points
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    results, ok_all = run_verification()
    width = max(len(f"{suite}: {name}") for suite, name, _, _ in results)
    for suite, name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        line = f"{f'{suite}: {name}':<{width}}  {status}"
        if detail:
            line += f"  ({detail})"
        print(line)
    for entry in zoo.ERRATA:
        print(f"errata: {entry['id']:<28}  {entry['status']}")
    print("verification:", "OK" if ok_all else "FAILED")
    return 0 if ok_all else 1


def cmd_reproduce(args) -> int:
    rows = reproduce_table(args.table)
    out = _resolve_out(args.out, f"reproduce_{args.table}.csv")
    _write_text(out, rows_to_csv(rows))
    tol = args.tol if args.tol is not None else 1e-9
    bad = [r for r in rows if r.deviation is not None and r.deviation > tol and not r.note]
    print(f"wrote {len(rows)} rows to {out}")
    if bad:
        for r in bad:
            print(f"unflagged deviation {r.deviation:.3e} in {r.quantity} ({r.params})", file=sys.stderr)
        return 1
    return 0


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise UsageError("this subcommand requires --config <json path>")
    cfg = ExperimentConfig.from_file(args.config)
    overrides = {"seed": args.seed, "trials": args.trials, "tol": args.tol}
    # replace() re-runs the config checks on the overridden values
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = run_sweep(cfg)
    out = _resolve_out(args.out, f"sweep_{cfg.experiment}.csv")
    _write_text(out, rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {out}")
    tol = cfg.tol if cfg.tol is not None else 1e-9
    bad = [r for r in rows if r.deviation is not None and r.deviation > tol]
    if bad:
        for r in bad:
            print(f"deviation {r.deviation:.3e} above {tol:.1e} in {r.quantity} ({r.params})", file=sys.stderr)
        return 1
    return 0


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    payload = run_sample(cfg)
    out = _resolve_out(args.out, f"sample_{cfg.experiment}.json")
    _write_text(out, sample_json(payload))
    s = payload["summary"]
    print(
        f"wrote {cfg.trials} traces to {out}: empirical={s['empirical']:.6f} "
        f"exact={s['exact']:.6f} (3 sigma {s['three_sigma']:.6f})"
    )
    if cfg.tol is not None and abs(s["empirical"] - s["exact"]) > max(cfg.tol, s["three_sigma"]):
        print("empirical frequency outside the requested tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_list(args) -> int:
    print("reproduce tables: " + ", ".join(REPRODUCE_TABLES))
    print("sweep experiments: " + ", ".join(SWEEP_EXPERIMENTS))
    print("sample experiments: " + ", ".join(SAMPLE_EXPERIMENTS))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qproc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all invariant suites")
    p_verify.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("reproduce", help="write a reference-value comparison CSV")
    p_rep.add_argument("--table", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--tol", type=float, default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    for name, func, help_text in (
        ("sweep", cmd_sweep, "grid sweep to CSV"),
        ("sample", cmd_sample, "Monte Carlo trajectories to JSON"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--tol", type=float, default=None)
        p.set_defaults(func=func)

    p_list = sub.add_parser("list", help="show known tables and experiments")
    p_list.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, zoo.InvalidParameter, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
