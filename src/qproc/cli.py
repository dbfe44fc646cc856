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
import functools
import io
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator

import numpy as np

from . import loops, qlinalg, zoo
from .processor import (
    ProcessorDefinition,
    ProgramBasis,
    ProgramState,
    branch_operators,
    decompose,
    inverse_cdf_many,
)
from .qlinalg import dagger, phase_distance, random_state, random_unitary, su2_exp
from .streams import CHUNK, derive_stream, first_uniforms, reseeded, trial_indices, uniform_draws

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
    """The output path; one that is a directory is rejected now, before any run."""
    path = out or os.path.join(os.environ.get(ENV_OUT_DIR, "."), default_name)
    if os.path.isdir(path):
        raise UsageError(f"output path {path!r} is a directory")
    return path


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces to path in order, each as soon as it is produced."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:  # a parent that is a file, no permission, a full disk
        raise UsageError(f"cannot write {path!r}: {exc}") from None


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
        maxima = {"max_rounds": _MAX_ROUNDS, "trials": _MAX_TRIALS}
        for name, minimum in (("max_rounds", 1), ("trials", 1), ("seed", 0), ("experiment_index", 0)):
            setattr(self, name, _integer(getattr(self, name), name, minimum, maxima.get(name)))
        if self.tol is not None:
            _tolerance(self.tol)
        for name in ("params", "grid"):
            if not isinstance(getattr(self, name), dict):
                raise UsageError(f"{name} must be a JSON object")
        for k, v in self.grid.items():
            if not isinstance(v, list):
                raise UsageError(f"grid.{k} must be a list of values, got {v!r}")
        points = math.prod(len(v) for v in self.grid.values())
        if points > _MAX_POINTS:
            raise UsageError(f"grid has {points} points, above {_MAX_POINTS}")
        if points * self.trials > _MAX_TRIALS:
            raise UsageError(f"grid of {points} points at {self.trials} trials each asks for {points * self.trials} sweep trials, above {_MAX_TRIALS}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise UsageError("config must be a JSON object")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in d:
            raise UsageError("config must name an experiment")
        return cls(**d)

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
        if x.dtype.kind == "c":  # the same floats as complex.real and .imag
            return np.stack((x.real, x.imag), axis=-1).tolist()
        return [_jsonify(v) for v in x.tolist()]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, dict):
        return {k: _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


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


def _tolerance(v) -> float:
    if _real(v, "tol") < 0:
        raise UsageError(f"tol must be non-negative, got {v!r}")
    return float(v)


def _integer(v, name: str, minimum: int, maximum: int | None = None) -> int:
    """v as an int; any size is exact, so it is not taken through float like `_is_real`."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
        raise UsageError(f"{name} must be an integer >= {minimum}, got {v!r}")
    if maximum is not None and v > maximum:
        raise UsageError(f"{name} must be at most {maximum}, got {v!r}")
    return int(v)


def _complex(v, name: str) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2 and _is_real(v[0]) and _is_real(v[1]):
        return complex(v[0], v[1])
    if _is_real(v) or (isinstance(v, complex) and cmath.isfinite(v)):
        return complex(v)
    raise UsageError(f"{name} must be a finite number or an [re, im] pair, got {v!r}")


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


_TINY = math.sqrt(sys.float_info.min)  # below this modulus a square leaves the normal float range


def _direction(v: np.ndarray, name: str) -> np.ndarray:
    """v, of which only the direction is read, checked for a non-zero, finite 2-norm.

    If every |v_i| is below _TINY (about 1.5e-154), where the 2-norm
    underflows, v is first divided by its largest modulus m, both scaled by
    2**600 (numpy multiplies by 1/m, which overflows for a subnormal m). Other vectors keep their bits.
    """
    with np.errstate(over="ignore"):  # an overflowing modulus or norm is inf, reported below
        m = np.abs(v).max(initial=0.0)  # an empty v has no direction, reported below
        v = v * 2.0**600 / (m * 2.0**600) if 0 < m < _TINY else v
        norm = float(np.linalg.norm(v))
    if not 0 < norm < np.inf:
        raise UsageError(f"{name} must have a non-zero 2-norm within float range (each |entry| below about 1.3e154)")
    return v


# The largest processor a config may ask for: program dimension N times data
# dimension D, checked before anything is built. The block grid has (N D)^2
# entries: cyclic_shift_processor(512), a 0/1 grid checked as a permutation,
# assembles in about 0.02 s, and a process that builds it peaks at 60 MB RSS
# (2 vCPUs, numpy 2.4.6; 0.22 s and 67 MB when `assemble` formed the
# completeness products of every grid, 118 MB when it formed G densely).
_MAX_SIZE = 1024

# The largest round budget a config may ask for: `sample`'s `max_rounds` and
# a loop sweep's `n` (`k` for qidn). The exact walk takes about 0.13 ms per
# round even where its tree collapses to a chain, so a qid2 walk of 10^4
# rounds takes 1.1-2.0 s (2 vCPUs, numpy 2.4.6) and one of 10^20 would never
# end. The tests, the benchmark and README ask for at most 2000.
_MAX_ROUNDS = 10_000

# The most trials a config may ask for: `sample`'s, and a sweep's over all its
# points (grid points x trials per point). A qid2 sample at max_rounds 8 writes
# about 1.2 kB per trace (10^5 trials write 117 MB in about 12 s on 2 vCPUs), so
# 10^6 trials write about 1.2 GB in a few minutes, and 10^12 would run for years
# before writing a byte; a sweep's 10^6 loop trials take about a minute at the
# benchmark's 14.5k trials/s. The tests, CI, the benchmark and README ask for at
# most 10^5 trials (a sample), 10 times below the cap, and a sweep of at most
# 12 points x 2000 trials = 24000 (the benchmark), 41 times below it.
_MAX_TRIALS = 10**6

# The most points a sweep grid may hold, the product of its lists' lengths.
# Exact sweeps run at about 600-700 points/s (2 vCPUs, numpy 2.4.6), so 10^4
# points take about 15 s; ten keys of ten values each would take months. The
# tests, CI, the benchmark and README ask for at most 30, a 333rd of the cap.
_MAX_POINTS = 10_000


def _check_size(program_dim: int, data_dim: int, what: str) -> None:
    if program_dim * data_dim > _MAX_SIZE:
        raise UsageError(f"{what} asks for a processor of size N*D = {program_dim * data_dim}, above {_MAX_SIZE}")


# ---------------------------------------------------------------------------
# Trace serialization (JSON schema used by `sample`)
# ---------------------------------------------------------------------------

def program_params_to_json(program: ProgramState) -> dict:
    return {"encoding": program.encoding, **_jsonify(dict(program.params))}


def round_to_dict(r: loops.LoopRound) -> dict:
    """Plain-JSON form of one round, as `sample_json` writes it."""
    return {"program_params": program_params_to_json(r.program), "outcome": r.outcome, "prob": r.probability}


def trace_to_dict(trace: loops.LoopTrace) -> dict:
    """Plain-JSON form of one trace, as `sample_json` writes it."""
    return {
        "rounds": [round_to_dict(r) for r in trace.rounds],
        "succeeded": trace.succeeded,
        "status": trace.status,
        "rounds_used": trace.rounds_used,
    }


class _NoTemplate(Exception):
    """A value that no template reproduces exactly; `_render` writes it with json.dumps."""


def _layout(value, args: list):
    """A hashable layout of value, whose scalars are appended to args in text order.

    A layout is a %-format slot ("%r" for a finite float, "%d" for an int,
    "%s" for a string, which goes to args already JSON-encoded), a literal
    ("true", "false", "null"), ("list", item layouts), ("dict", keys, value
    layouts) or ("grid", shape), the floats of a complex array as `_jsonify`
    nests its [re, im] pairs; a complex is the list of its two parts.
    Classes are matched exactly, so numpy scalars, float and str subclasses,
    non-finite floats and empty containers raise _NoTemplate (and non-str
    keys do in `_template`).
    """
    cls = value.__class__
    if cls is float:
        if not math.isfinite(value):
            raise _NoTemplate
        args.append(value)
        return "%r"
    if cls is str:
        args.append(encode_basestring_ascii(value))
        return "%s"
    if cls is int:
        args.append(value)
        return "%d"
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if cls is list or cls is tuple:
        if not value:
            raise _NoTemplate
        return ("list", tuple([_layout(v, args) for v in value]))
    if cls is dict:
        if not value:
            raise _NoTemplate
        return ("dict", tuple(value), tuple([_layout(v, args) for v in value.values()]))
    if cls is complex:
        return _layout([value.real, value.imag], args)
    if cls is np.ndarray and value.dtype.kind == "c":
        # [re, im] pairs in C order; no copy of a C-contiguous complex128 array, and widening or byte-swapping is exact
        items = np.asarray(value, dtype=np.complex128, order="C").reshape(-1).view(np.float64).tolist()
        # A finite sum means no inf or nan; an overflowing one only costs the fallback.
        if not items or not math.isfinite(sum(items)):
            raise _NoTemplate
        args += items
        return ("grid", value.shape + (2,))
    raise _NoTemplate


def _template(layout, pad: str) -> str:
    """json.dumps(indent=2) text of a value of this layout nested `len(pad)` spaces in, one %-slot per scalar."""
    if layout.__class__ is str:
        return layout
    inner = pad + "  "
    kind = layout[0]
    if kind == "grid":
        shape = layout[1]
        item = _template(("grid", shape[1:]), inner) if len(shape) > 1 else "%r"
        items, brackets = [item] * shape[0], "[]"
    elif kind == "list":
        items, brackets = [_template(item, inner) for item in layout[1]], "[]"
    else:
        keys, brackets = layout[1], "{}"
        # json.dumps turns a non-str key into a string (1 to "1", True to "true"); a key's own "%" is not a slot
        if not all(k.__class__ is str for k in keys):
            raise _NoTemplate
        items = [encode_basestring_ascii(k).replace("%", "%%") + ": " + _template(v, inner) for k, v in zip(keys, layout[2])]
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _render(frame: str, values: tuple, pad: str, templates: dict) -> str:
    """frame % (json.dumps(_jsonify(v), indent=2) of each value, nested `len(pad)` spaces in).

    The frame is a fixed text with one %s per value and no other %. The
    values' layouts select a template, kept in `templates` by (frame,
    layouts, pad), and one %-format fills it with their scalars; %r of a
    float is float.__repr__, json's own float form. Values that no template
    reproduces go through `_jsonify` and json.dumps: raw newlines cannot
    occur inside JSON strings, so shifting every line break by `pad` is
    exact.
    """
    args: list = []
    try:
        layouts = tuple([_layout(v, args) for v in values])
        template = templates.get((frame, layouts, pad))
        if template is None:
            template = templates[frame, layouts, pad] = frame % tuple([_template(layout, pad) for layout in layouts])
    except _NoTemplate:
        return frame % tuple([json.dumps(_jsonify(v), indent=2).replace("\n", "\n" + pad) for v in values])
    return template % tuple(args)


# Text of about this many characters leaves `sample_json` as one piece; only tests change it.
TEXT_CHUNK = 1 << 16

# Frames of the trace file, each filled by `_render`; the head of every trace
# but the first, and of every round but a trace's first, follows a comma.
_HEAD = '{\n  "config": %s,\n  "traces": ['
_TRACE_HEAD = '\n    {\n      "rounds": ['
_NEXT_TRACE_HEAD = "," + _TRACE_HEAD
_ROUND_HEAD = '\n        {\n          "program_params": '
_NEXT_ROUND_HEAD = "," + _ROUND_HEAD
_PAD_ROUND = " " * 10
_ROUND_TAIL = ',\n          "outcome": %s,\n          "prob": %s\n        }'
_PAD_TRACE = " " * 6
_TRACE_TAIL = '],\n      "succeeded": %s,\n      "status": %s,\n      "rounds_used": %s\n    }'
_TAIL = '],\n  "summary": %s\n}\n'


def sample_json(payload: dict) -> Iterator[str]:
    """json.dumps({**payload, "traces": [trace_to_dict(t) for t in payload["traces"]]}, indent=2) + "\\n" in pieces.

    The pieces are the config head, then the traces in chunks of whole
    traces, each yielded once it reaches `TEXT_CHUNK` characters (so a
    chunk exceeds that by less than its last trace's text, and only the
    last chunk is shorter), then the summary tail; `cmd_sample` writes each
    piece before the next is made. A chunk is one join of texts rendered
    once per command: the fixed trace and round heads, each distinct
    program's params, each distinct LoopRound's outcome/prob tail and each
    distinct (succeeded, status, rounds_used) trace tail. With a fixed data
    state the outcome tree hands trajectories of one outcome history the
    same round objects, so a repeated trace costs a few list appends and
    copies no text until its chunk is joined. Every value is rendered by
    `_render`; a program's params and its encoding are one value. It relies
    on the payload's key order: config, traces, summary.
    """
    render = functools.partial(_render, templates={})
    # Keyed by id: the payload keeps every round and program alive while this runs.
    params_text: dict[int, str] = {}
    tail_text: dict[int, str] = {}
    trace_tail: dict[tuple, str] = {}

    def params_json(program: ProgramState) -> str:
        text = params_text[id(program)] = render("%s", ({"encoding": program.encoding, **program.params},), _PAD_ROUND)
        return text

    def tail_json(r: loops.LoopRound) -> str:
        text = tail_text[id(r)] = render(_ROUND_TAIL, (r.outcome, r.probability), _PAD_ROUND)
        return text

    traces = payload["traces"]
    yield render(_HEAD, (payload["config"],), "  ")
    chunk: list[str] = []
    append, extend = chunk.append, chunk.extend
    size, head, head_chars = 0, _TRACE_HEAD, len(_NEXT_ROUND_HEAD)
    for t in traces:
        append(head)
        first = len(chunk)
        for r in t.rounds:
            params = params_text.get(id(r.program)) or params_json(r.program)
            tail = tail_text.get(id(r)) or tail_json(r)
            extend((_NEXT_ROUND_HEAD, params, tail))
            size += head_chars + len(params) + len(tail)
        if len(chunk) > first:
            chunk[first] = _ROUND_HEAD
            size -= 1
        key = (t.succeeded, t.status, t.rounds_used)
        tail = trace_tail.get(key)
        if tail is None:
            tail = trace_tail[key] = ("\n      " if t.rounds_used else "") + render(_TRACE_TAIL, key, _PAD_TRACE)
        append(tail)
        size += len(head) + len(tail)
        head = _NEXT_TRACE_HEAD
        if size >= TEXT_CHUNK:
            yield "".join(chunk)
            chunk.clear()
            size = 0
    if chunk:
        yield "".join(chunk)
    yield ("\n  " if traces else "") + render(_TAIL, (payload["summary"],), "  ")


# ---------------------------------------------------------------------------
# Families: one entry per construction, shared by sample, sweep, reproduce
# and verify
# ---------------------------------------------------------------------------

def _uniform_state(dim: int) -> np.ndarray:
    return np.ones(dim, dtype=complex) / np.sqrt(dim)


def _config_state(p: dict, dim: int) -> np.ndarray:
    """The config's data state `psi` (default: uniform superposition), normalized.

    Amplitudes are numbers or [re, im] pairs, as for every complex field.
    """
    psi = _complex_vector(p["psi"], "params.psi", dim) if "psi" in p else _uniform_state(dim)
    return qlinalg.normalize(_direction(psi, "params.psi"))


_Setup = tuple[ProcessorDefinition, loops.CorrectionRule | None, np.ndarray]


def _u1(p: dict, aux: tuple) -> _Setup:
    return zoo.u1_cnot(), loops.u1_rule(), zoo.u1_operator(_real(p.get("alpha", _DEFAULT_ALPHA), "alpha"))


def _bz(p: dict, aux: tuple) -> _Setup:
    z = _complex(p["z"], "z")
    n_program = _integer(p.get("n_program", 2), "n_program", 2)
    _check_size(n_program, 2, f"n_program={n_program}")
    return zoo.cyclic_shift_processor(n_program), loops.bz_rule(), zoo.bz_operator(z)


def _b0(p: dict, aux: tuple) -> _Setup:
    z = _complex(p["z"], "z")
    dim = _integer(p.get("dim", 3), "dim", 2)
    n_program = _integer(p.get("n_program", 2), "n_program", 2)
    _check_size(n_program, dim, f"dim={dim}, n_program={n_program}")
    return zoo.amp_modifier_processor(dim, n_program), None, zoo.b0_operator(z, dim)


def _diagonal(p: dict, aux: tuple) -> _Setup:
    dim = _integer(p.get("dim", 3), "dim", 2)
    _check_size(dim, dim, f"dim={dim}")
    length = dim if "dim" in p else None  # given entries or phases must match a given dim
    if "entries" in p:
        entries = _complex_vector(p["entries"], "entries", length)
    elif "phases" in p:
        entries = np.exp(1j * _real_vector(p["phases"], "phases", length))
    else:
        entries = np.exp(2j * np.pi * np.arange(dim) / dim)
    _check_size(len(entries), len(entries), f"{len(entries)} entries")
    entries = _direction(entries, "entries")  # zoo.diagonal_program divides by their 2-norm
    return zoo.qudit_diagonal_processor(len(entries)), loops.diagonal_rule(), np.diag(entries)


def _qid2(p: dict, aux: tuple) -> _Setup:
    mu = _real_vector(p.get("mu", _DEFAULT_MU), "mu", 3)
    with np.errstate(over="ignore", invalid="ignore"):  # a |mu| past float range gives nan, rejected below
        target = su2_exp(mu)
    # np.sinc loses precision at huge |mu|; su2_log, which the rule calls, needs unitarity within 1e-8.
    if not qlinalg.is_unitary(target, 1e-8):
        raise UsageError(f"mu = {mu.tolist()} gives a target that is not unitary within 1e-8 (|mu| too large)")
    return zoo.qid2(), loops.qid2_rule(), target


def _qidn(p: dict, aux: tuple) -> _Setup:
    n_dim = _integer(p.get("n_dim", 2), "n_dim", 2)
    _check_size(n_dim**2, n_dim, f"n_dim={n_dim}")
    target = p.get("target", "haar")
    if target == "haar":
        stream = (_integer(p["target_seed"], "target_seed", 0), n_dim) if "target_seed" in p else aux
        target = random_unitary(n_dim, derive_stream(*stream))
    elif isinstance(target, list) and len(target) == n_dim:
        target = np.array([_complex_vector(row, "target row", n_dim) for row in target])
        with np.errstate(over="ignore"):  # an overflowing norm is reported below
            norm = float(np.linalg.norm(target))
        if not 1e-12 <= norm < np.inf:  # the bounds of zoo.program_for
            raise UsageError(f"target must have a Frobenius norm in [1e-12, inf), got {norm!r}")
    else:
        raise UsageError(f'target must be "haar" or a list of {n_dim} rows, got {target!r}')
    return zoo.qidN(n_dim), loops.qidN_rule(), target


def _loop_law(proc, target, psi, rounds) -> float | None:
    with np.errstate(over="ignore"):  # a norm past float range is inf there: not unitary, no warning
        if loops.unitary_scale(target) is None:
            return None
    return zoo.loop_success(proc.program_dim, rounds)


def _bz_law(proc, target, psi, rounds) -> float:
    alpha2 = None if psi is None else float(abs(psi[0]) ** 2)
    return zoo.geometric_success(target[1, 1], proc.program_dim, zoo.bz_norm2(target[1, 1], alpha2))


def _b0_law(proc, target, psi, rounds) -> float:
    return zoo.geometric_success(target[0, 0], proc.program_dim, float(np.linalg.norm(target @ psi) ** 2))


@dataclass(frozen=True)
class _Family:
    """How every command runs one construction.

    `build(params, aux)` turns config params, after the command's defaults,
    into (processor, correction rule, target); `aux` keys the stream of a
    Haar target drawn without a `target_seed`. `params` are all the keys
    that `build` and the data state read (see `_load_config`); without `psi`,
    `sample` runs one round per Haar-random psi, against the state-averaged law. `law(proc, target, psi,
    rounds)` is the closed-form reference of a sweep, by default the loop law
    of the processor's program dimension, or None (no reference) for a
    target that is not proportional to a unitary, to which that law does not
    apply. It never reads the rule's success labels: a wrong label set would
    move the exact value and the reference together, and the check would
    pass silently.
    """

    build: Callable[[dict, tuple], _Setup]
    params: tuple[str, ...]
    law: Callable[..., float] = _loop_law
    rounds: str = "n"  # sweep key of the round budget
    # sweep: one shot of this program (the last outcome fails) instead of the loop
    shot: Callable[[ProcessorDefinition, np.ndarray], ProgramState] | None = None
    sample: dict = field(default_factory=dict)  # defaults of `sample`
    sweep: dict = field(default_factory=dict)  # defaults of `sweep`
    excludes: tuple[tuple[str, str], ...] = ()  # (key, other): build ignores other if key is given, unless as a str


_FAMILIES = {
    "u1": _Family(_u1, ("alpha", "psi")),
    "bz": _Family(
        _bz,
        ("z", "n_program", "psi"),
        _bz_law,
        shot=lambda proc, target: zoo.geometric_program(target[1, 1], proc.program_dim),
        sample={"z": 0.8},
        sweep={"psi": _PSI2.tolist()},
    ),
    "bz_haar": _Family(_bz, ("z", "n_program"), _bz_law, sample={"z": np.sqrt(0.5), "n_program": 4}),
    "diagonal": _Family(
        _diagonal, ("entries", "phases", "dim", "psi"), sample={"phases": _DEFAULT_PHASES}, excludes=(("entries", "phases"),)
    ),
    "qid2": _Family(_qid2, ("mu", "psi")),
    "qidn": _Family(
        _qidn, ("n_dim", "target", "target_seed", "psi"), rounds="k", sweep={"target_seed": 7}, excludes=(("target", "target_seed"),)
    ),
    "b0": _Family(
        _b0, ("z", "dim", "n_program", "psi"), _b0_law, shot=lambda proc, target: zoo.geometric_program(target[0, 0], proc.program_dim)
    ),
}


def _loop_setup(cfg: ExperimentConfig) -> tuple[loops.OutcomeTree, float]:
    """(outcome tree, exact success) of the sampled loop.

    The tree's psi is the data state of every trial, or None for a
    Haar-random state per trial; the exact value is walked on the tree the
    trials then share.
    """
    family = _FAMILIES[cfg.experiment]
    haar = "psi" not in family.params
    if haar and cfg.max_rounds != 1:
        raise UsageError(f"{cfg.experiment} averages single-shot success; set max_rounds to 1")
    p = {**family.sample, **cfg.params}
    proc, rule, target = family.build(p, (cfg.seed, cfg.experiment_index, 0))
    if haar:
        return loops.OutcomeTree(proc, target, rule), family.law(proc, target, None, 1)
    tree = loops.OutcomeTree(proc, target, rule, _config_state(p, proc.data_dim))
    return tree, loops.exact_walk(tree, cfg.max_rounds)


def run_sample(cfg: ExperimentConfig) -> dict:
    """Run the configured trajectories: the payload that `sample_json` writes, one LoopTrace per trial.

    The trials of each stream pass (`CHUNK` streams) are sampled together:
    from a fixed data state by `loops.run_trials`, and from a Haar-random
    state per trial by `loops.run_loops`. A Haar trial draws its state and
    then the uniform of its one round (`_loop_setup` requires max_rounds 1)
    from its own stream.
    """
    tree, exact = _loop_setup(cfg)
    entropy, ks = (cfg.seed, cfg.experiment_index), trial_indices(cfg.trials)
    if tree.psi is None:
        dim, rngs, traces = tree.proc.data_dim, reseeded(entropy, ks), []
        for _ in range(0, cfg.trials, CHUNK):
            states, uniforms = [], []
            for rng in itertools.islice(rngs, CHUNK):
                states.append(random_state(dim, rng))
                uniforms.append(rng.random())
            traces += loops.run_loops(tree, np.array(states), cfg.max_rounds, uniforms.__getitem__)
    else:
        traces = [t for n, draw in uniform_draws(entropy, ks) for t in loops.run_trials(tree, cfg.max_rounds, n, draw)]
    successes = sum(t.succeeded for t in traces)
    empirical = successes / cfg.trials
    summary = {
        "trials": cfg.trials,
        "successes": successes,
        "empirical": empirical,
        "exact": exact,
        # an exact value rounded past 1 (bz can read 1 + 4e-16) has no variance, not a nan one
        "three_sigma": 3.0 * float(np.sqrt(max(exact * (1 - exact), 0.0) / cfg.trials)),
    }
    return {"config": cfg.to_dict(), "traces": traces, "summary": summary}


# ---------------------------------------------------------------------------
# Reproduction tables
# ---------------------------------------------------------------------------

def _table_u1() -> list[ResultRow]:
    alpha = _DEFAULT_ALPHA
    proc, _, target = _FAMILIES["u1"].build({"alpha": alpha}, ())
    dec = decompose(proc, _PSI2, zoo.u1_program(alpha))
    params = {"psi": _PSI2.tolist()}
    loop = ExperimentConfig("u1", params=params, grid={"alpha": [alpha], "n": [3, 10, 20]})
    two_rounds = _sweep_point("u1", {**params, "alpha": alpha, "n": 2}, ())[1]
    rows = [
        ResultRow("u1_single_round_success", f"alpha={alpha}", dec.by_label("0").probability, 0.5),
        ResultRow("u1_two_round_success", f"alpha={alpha}", two_rounds, 0.75),
        *run_sweep(loop),
    ]
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
        target = zoo.u1_operator(alpha)
        for j in range(3):
            worst = max(worst, phase_distance(2 * ops[j], target))
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


def _table_bz() -> list[ResultRow]:
    z_half = np.sqrt(0.5)
    rows = [
        ResultRow(
            "bz_state_averaged_success", "|z|^2=0.5,n_program=4", zoo.geometric_success(z_half, 4, zoo.bz_norm2(z_half)), 0.7
        ),
        ResultRow(
            "bz_unit_modulus_success", "|z|=1,n_program=4", _sweep_point("bz", {"z": 1.0, "n_program": 4}, ())[1], 0.75
        ),
    ]
    # The sweep's single shot on the default psi = (0.6, 0.8): oracle and corrected closed form.
    z, n = 0.5, 3
    _, oracle, corrected, _ = _sweep_point("bz", {"z": z, "n_program": n}, ())
    alpha2 = float(abs(_PSI2[0]) ** 2)
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
    rows.append(ResultRow("bz_oracle_agreement", f"z={z},n_program={n},psi=(0.6,0.8)", oracle, corrected))
    return rows


def _table_qutrit() -> list[ResultRow]:
    proc, rule, target = _FAMILIES["diagonal"].build({"phases": _DEFAULT_PHASES}, ())
    psi = _uniform_state(3)
    dec = decompose(proc, psi, zoo.diagonal_program(np.diagonal(target)))
    tree = loops.OutcomeTree(proc, target, rule, psi)
    rows = [ResultRow("qutrit_per_round_success", "unitary diagonal target", dec.by_label("0").probability, 1 / 3)]
    for n in (5, 10, 20):
        rows.append(ResultRow("qutrit_loop_success", f"n={n}", loops.exact_walk(tree, n), 1 - (2 / 3) ** n))
    return rows


def _table_b0() -> list[ResultRow]:
    rows = []
    for dim in (2, 3, 5):
        rows.append(
            ResultRow(
                "b0_unit_modulus_success",
                f"dim={dim},n_program=5,|z|=1",
                _sweep_point("b0", {"z": 1.0, "dim": dim, "n_program": 5}, ())[1],
                4 / 5,
            )
        )
    z, n = 0.7, 4
    _, oracle, closed, _ = _sweep_point("b0", {"z": z, "dim": 3, "n_program": n}, ())
    rows.append(ResultRow("b0_oracle_agreement", f"dim=3,n_program={n},z={z}", oracle, closed))
    return rows


def _table_qid2() -> list[ResultRow]:
    proc, rule, target = _FAMILIES["qid2"].build({}, ())
    mu = np.asarray(_DEFAULT_MU)
    dec = decompose(proc, _PSI2, zoo.su2_program(mu), rule.basis_for(proc))
    probs = dec.probabilities()
    mu_label = f"mu={tuple(float(x) for x in mu)}"
    tree = loops.OutcomeTree(proc, target, rule, _PSI2)
    rows = [
        ResultRow("qid2_outcome_probability_min", mu_label, float(probs.min()), 0.25),
        ResultRow("qid2_outcome_probability_max", mu_label, float(probs.max()), 0.25),
        ResultRow("qid2_one_loop_success", "rounds=2", loops.exact_walk(tree, 2), 7 / 16),
    ]
    for n in (5, 40):
        rows.append(ResultRow("qid2_loop_success", f"rounds={n}", loops.exact_walk(tree, n), 1 - 0.75**n))
    rows.append(
        ResultRow(
            "qid2_failure_after_30_loops",
            "rounds=30",
            1 - loops.exact_walk(tree, 30),
            1e-4,
            note="approx: reference quotes the failure only to order of magnitude (~1e-4); exact value (3/4)^30",
        )
    )
    return rows


def _table_qidn() -> list[ResultRow]:
    # The sweep's default Haar target (target_seed 7) and uniform data state.
    return [
        *run_sweep(ExperimentConfig("qidn", grid={"n_dim": [2], "k": [1, 2]})),
        *run_sweep(ExperimentConfig("qidn", grid={"n_dim": [3], "k": [1, 5]})),
    ]


def _table_limits() -> list[ResultRow]:
    alpha2 = float(abs(_PSI2[0]) ** 2)
    rows = []
    for z in (0.5, 0.95, 2.0):
        bnorm2 = zoo.bz_norm2(z, alpha2)
        finite, limit = zoo.geometric_success(z, 200, bnorm2), zoo.geometric_limit(z, bnorm2)
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
        finite, limit = zoo.geometric_success(z, 200, bnorm2), zoo.geometric_limit(z, bnorm2)
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

def _single_shot_hits(dec):
    """Hit counter of one shot per stream, on a piece of first uniforms: each draws a branch; the last one fails."""
    fail, probs = len(dec.branches) - 1, dec.probability_tuple
    return lambda r: int(np.count_nonzero(inverse_cdf_many(probs, r) != fail))


def _loop_hits(tree, rounds):
    """Hit counter of one loop per stream, on an (n, draw) piece of uniform draws."""
    return lambda piece: sum(t.succeeded for t in loops.run_trials(tree, rounds, *piece))


def _sweep_point(experiment: str, merged: dict, aux: tuple, trees: dict | None = None):
    """(quantity, exact value, closed-form reference, hit counter) for one grid point.

    The hit counter counts the successful trials of one piece of the point's
    streams: first uniforms (`streams.first_uniforms`) at a single-shot
    point, (n, draw) at a loop point (`streams.uniform_draws`). A loop point
    walks the OutcomeTree that `trees` holds for its loop, built on first
    use: points that differ only in the round budget share it, keyed by
    everything the set-up reads but the round key (experiment, other params,
    target and psi bytes).
    """
    family = _FAMILIES[experiment]
    p = {**family.sweep, **merged}
    rounds = 1 if family.shot else _integer(p[family.rounds], family.rounds, 1, _MAX_ROUNDS)
    proc, rule, target = family.build(p, aux)
    psi = _config_state(p, proc.data_dim) if "psi" in p else _uniform_state(proc.data_dim)
    if family.shot:
        dec = decompose(proc, psi, family.shot(proc, target))
        computed, hits = sum(b.probability for b in dec.branches[:-1]), _single_shot_hits(dec)
    else:
        trees = {} if trees is None else trees
        others = repr(sorted((k, v) for k, v in p.items() if k != family.rounds))
        key = (experiment, others, target.tobytes(), psi.tobytes())
        tree = trees.get(key)
        if tree is None:
            tree = trees[key] = loops.OutcomeTree(proc, target, rule, psi)
        computed, hits = loops.exact_walk(tree, rounds), _loop_hits(tree, rounds)
    kind = "single_shot" if family.shot else "loop"
    return f"{experiment}_{kind}_success", computed, family.law(proc, target, psi, rounds), hits


def run_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """One row per grid point, iterated in declared key order.

    With trials > 1 each point also gets a sampled success frequency in the
    empirical column, drawn from streams (seed, point index, trial index).
    Every point's streams come from one run of passes that span points
    (`streams.first_uniforms` or `uniform_draws` with points), and each point
    counts its hits over its pieces of them. Loop points that differ only in
    the round budget share one outcome tree (see `_sweep_point`), for this
    call only.
    """
    trees: dict = {}
    if not cfg.grid:
        raise UsageError("sweep config must declare a grid")
    rows, counters = [], []
    for index, values in enumerate(itertools.product(*cfg.grid.values())):
        point = dict(zip(cfg.grid, values))
        quantity, computed, closed, hits = _sweep_point(cfg.experiment, {**cfg.params, **point}, (cfg.seed, index, 0), trees)
        label = ",".join(f"{k}={v}" for k, v in point.items())
        rows.append(ResultRow(quantity, label, computed, closed))
        counters.append(hits)
    if cfg.trials > 1:
        counts = [0] * len(rows)
        pieces = first_uniforms if _FAMILIES[cfg.experiment].shot else uniform_draws
        for index, piece in pieces((cfg.seed,), trial_indices(cfg.trials), points=range(len(rows))):
            counts[index] += counters[index](piece)
        rows = [replace(row, empirical=count / cfg.trials) for row, count in zip(rows, counts)]
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
        # Branch j's amplitudes are column j: the entry at (a, j) is the joint's a*N + j.
        joint = np.stack([b.operator @ psi for b in dec.branches], axis=1).reshape(-1)
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
        _, oracle, closed, _ = _sweep_point("bz", {"z": z, "n_program": n, "psi": psi.tolist()}, ())
        assert abs(closed - oracle) <= 1e-10, "bz closed form disagrees with branch-sum oracle"


def _check_qid2_probabilities():
    proc, basis = zoo.qid2(), zoo.qid2_basis()
    rng = derive_stream(15)
    for _ in range(5):
        mu = rng.uniform(-1.2, 1.2, size=3)
        dec = decompose(proc, random_state(2, rng), zoo.su2_program(mu), basis)
        assert np.abs(dec.probabilities() - 0.25).max() <= 1e-12, "qid2 outcome probabilities != 1/4"


def _check_sigma_conjugation():
    for j, k in itertools.permutations((1, 2, 3), 2):
        lhs = qlinalg.PAULIS[j] @ qlinalg.PAULIS[k] @ qlinalg.PAULIS[j]
        assert np.abs(lhs + qlinalg.PAULIS[k]).max() <= 1e-15, "sigma_j sigma_k sigma_j != -sigma_k"


def _shift_on(n: int, control: int, target: int, sign: int) -> np.ndarray:
    """zoo.conditional_shift between qudits (control, target) of three, as an N^3 x N^3 matrix."""
    order = [control, target, 3 - control - target]
    axes = np.argsort(order)
    op = np.kron(zoo.conditional_shift(n, sign), np.eye(n)).reshape([n] * 6)
    return op.transpose(*axes, *(axes + 3)).reshape(n**3, n**3)


def _check_qid_network_action():
    for n in (2, 3):
        circuit = _shift_on(n, 2, 0, +1) @ _shift_on(n, 1, 0, -1) @ _shift_on(n, 0, 2, +1) @ _shift_on(n, 0, 1, +1)
        assert np.array_equal(zoo.qid_network(n), circuit), f"network is not D_31 D_21^dag D_13 D_12 for N={n}"


def _check_weyl_identities():
    for n in (2, 3):
        for m1, n1, m2, n2 in itertools.product(range(n), repeat=4):
            u1, u2 = zoo.weyl(m1, n1, n), zoo.weyl(m2, n2, n)
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
        for m, k in itertools.product(range(n), repeat=2):
            xi = zoo.bell_state(m, k, n)
            out = net @ np.kron(psi, xi)
            want = np.kron(zoo.weyl(m, k, n) @ psi, xi)
            assert np.linalg.norm(out - want) <= 1e-10, f"covariance failed for (m,n)=({m},{k}), N={n}"


def _check_phi_basis():
    for n in (2, 3):
        basis = zoo.phi_basis(n)
        for r, s in itertools.product(range(n), repeat=2):
            head = np.zeros(n, dtype=complex)
            head[(-r) % n] = 1.0
            tail = np.array([np.exp(2j * np.pi * ((j + r) % n) * s / n) for j in range(n)])
            tail = np.exp(-2j * np.pi * r * s / n) * tail / np.sqrt(n)
            factored = np.kron(head, np.exp(2j * np.pi * r * s / n) * tail)
            assert phase_distance(basis.vectors[r * n + s], factored) <= 1e-10, "phi basis not factorizable"


def _check_correction_soundness():
    cases = [
        ("u1", {"alpha": 0.7}),
        ("bz", {"z": 0.8 + 0.2j}),
        ("diagonal", {"entries": [1.0, 0.6, 0.3 + 0.4j]}),
        ("qid2", {"mu": [0.2, -0.5, 0.9]}),
        ("qidn", {"n_dim": 3, "target": random_unitary(3, derive_stream(17)).tolist()}),
    ]
    for experiment, params in cases:
        proc, rule, target = _FAMILIES[experiment].build(params, ())
        basis = rule.basis_for(proc)
        success = rule.success_labels(proc)
        first = rule.next_program(proc, target, np.eye(proc.data_dim))
        ops = branch_operators(proc, first, basis)
        for idx, lab in enumerate(basis.labels):
            if lab in success or np.linalg.norm(ops[idx]) < 1e-12:
                continue
            corrected = rule.next_program(proc, target, ops[idx])
            next_ops = branch_operators(proc, corrected, basis)
            sidx = next(i for i, l in enumerate(basis.labels) if l in success)
            composite = next_ops[sidx] @ ops[idx]
            scale = qlinalg.proportionality_scale(composite, target, tol=1e-8)
            assert scale is not None and 0 < abs(scale) <= 1 + 1e-9, f"{proc.label}: correction after {lab} unsound"


def _check_loop_closed_forms():
    checks = [
        ("u1", {"alpha": 0.4}, 6),
        ("qid2", {"mu": [0.3, 0.1, -0.8]}, 6),
        ("diagonal", {"phases": [0.1, 1.0, -0.6]}, 6),
        ("qidn", {"n_dim": 2, "target": random_unitary(2, derive_stream(18)).tolist()}, 5),
        ("qidn", {"n_dim": 3, "target": random_unitary(3, derive_stream(19)).tolist()}, 4),
    ]
    for experiment, params, n in checks:
        family = _FAMILIES[experiment]
        proc, rule, target = family.build(params, ())
        got, want = loops.exact_success(proc, target, rule, n), family.law(proc, target, None, n)
        assert abs(got - want) <= 1e-12, f"exact_success {got} != {want} for {proc.label}"


def _check_loop_post_states():
    # Non-unitary targets may legitimately exhaust the budget (their success
    # probability does not converge to 1), so proportionality is only
    # asserted on trajectories that did succeed.
    rng = derive_stream(20)
    for experiment, params in (("qid2", {"mu": [0.2, -0.5, 0.9]}), ("bz", {"z": 0.8})):
        proc, rule, target = _FAMILIES[experiment].build(params, ())
        tree = loops.OutcomeTree(proc, target, rule)
        successes = 0
        for _ in range(10):
            psi = random_state(proc.data_dim, rng)
            trace = loops.run_loop(tree, psi, 50, rng)
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
    tol = _tolerance(args.tol) if args.tol is not None else 1e-9
    out = _resolve_out(args.out, f"reproduce_{args.table}.csv")
    rows = reproduce_table(args.table)
    _write_text(out, [rows_to_csv(rows)])
    bad = [r for r in rows if r.deviation is not None and r.deviation > tol and not r.note]
    print(f"wrote {len(rows)} rows to {out}")
    if bad:
        for r in bad:
            print(f"unflagged deviation {r.deviation:.3e} in {r.quantity} ({r.params})", file=sys.stderr)
        return 1
    return 0


# Per command: the experiments it runs and the config keys it would silently ignore.
_COMMAND_CONFIGS = {
    "sweep": (SWEEP_EXPERIMENTS, {"max_rounds", "experiment_index"}),
    "sample": (SAMPLE_EXPERIMENTS, {"grid"}),
}


def _load_config(args) -> ExperimentConfig:
    if not args.config:
        raise UsageError("this subcommand requires --config <json path>")
    try:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise UsageError(f"cannot read config {args.config!r}: {exc}") from None
    cfg = ExperimentConfig.from_dict(raw)
    experiments, unread = _COMMAND_CONFIGS[args.command]
    if cfg.experiment not in experiments:
        raise UsageError(f"unknown {args.command} experiment: {cfg.experiment!r} (known: {experiments})")
    family = _FAMILIES[cfg.experiment]
    reads = [*family.params, *([family.rounds] if args.command == "sweep" and not family.shot else [])]
    given = {**{k: [v] for k, v in cfg.params.items()}, **cfg.grid}  # not the defaults, which never trip a check
    stray = sorted(unread.intersection(raw)) or sorted(given.keys() - set(reads))
    if stray:
        raise UsageError(f"{args.command} {cfg.experiment} does not read {stray} (params it reads: {reads})")
    for key, other in family.excludes:
        if other in given and not all(isinstance(v, str) for v in given.get(key, ())):
            raise UsageError(f"{cfg.experiment} reads {key} and ignores {other}; give one of them")
    overrides = {"seed": args.seed, "trials": args.trials, "tol": args.tol}
    # replace() re-runs the config checks on the overridden values
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _resolve_out(args.out, f"sweep_{cfg.experiment}.csv")
    rows = run_sweep(cfg)
    _write_text(out, [rows_to_csv(rows)])
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
    out = _resolve_out(args.out, f"sample_{cfg.experiment}.json")
    payload = run_sample(cfg)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one in the process.

    It binds no handler: `main` looks up cmd_<command> when it runs, so a
    handler replaced after the first call (a tracer's wrapper) is the one
    that runs.
    """
    parser = argparse.ArgumentParser(prog="qproc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", help="run all invariant suites")

    p_rep = sub.add_parser("reproduce", help="write a reference-value comparison CSV")
    p_rep.add_argument("--table", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--tol", type=float, default=None)

    for name, help_text in (("sweep", "grid sweep to CSV"), ("sample", "Monte Carlo trajectories to JSON")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--tol", type=float, default=None)

    sub.add_parser("list", help="show known tables and experiments")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (UsageError, zoo.InvalidParameter, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: missing config key {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
