"""Fuzz `sample` and `sweep` with configs drawn from each family's declared params keys.

Each value is usually valid, and otherwise at a boundary, of a wrong type
or non-finite; some configs also give an unknown or misspelled key. Every
`main` call returns 0, 1 or 2 and raises nothing; an exit 2 writes one
`error:` line and no output file; a given key outside the family's
declaration always exits 2.

The draws stay small: round budgets of at most 3, at most 3 trials, and
processors far below the size cap except just past it, where nothing is
built; likewise a round budget of 10^20, far past its cap. A non-unitary
loop walks (N-1)^n nodes, so N stays at most 9 (qidN(3)) and n at most 3.

A given value past a bound is drawn in about one config in 80, so the 200
draws may hold none of them: each one also runs as an explicit case that
must exit 2. The huge seed is past no bound (a seed may have any size), and
its explicit cases must exit 0.
"""
import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import cli

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
WRONG = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.just({"re": 1}), NON_FINITE)
REAL = st.floats(-2.5, 2.5, allow_nan=False)
COMPLEX = st.one_of(REAL, st.lists(REAL, min_size=2, max_size=2))
HUGE_OR_TINY = st.sampled_from([0, 1e-160, 1e160, 1e300])
# Per integer key, the values past its bound that are drawn (the size cap, cli._MAX_ROUNDS).
PAST = {
    "n_program": [513, 2**70],
    "dim": [33, 2**70],
    "n_dim": [11, 2**70],
    "n": [10**20],
    "k": [10**20],
    "max_rounds": [10**20],
}
HUGE_SEED = 2**1100  # a seed of any size from 0 is valid


def _mostly(valid, edge):
    """valid, except about one draw in eight from edge (hypothesis favours the ends of a range, so not 0 or 7)."""
    return st.integers(0, 7).flatmap(lambda i: edge if i == 5 else valid)


def _integer(low, high, past=()):
    """An integer in [low, high]; else low - 1, the given values past a bound, or a wrong type."""
    return _mostly(st.integers(low, high), st.one_of(st.sampled_from([low - 1, *past, float(low), True, str(low)]), WRONG))


def _vector(element, sizes):
    edge = st.one_of(st.just([]), st.lists(st.one_of(HUGE_OR_TINY, NON_FINITE, WRONG), min_size=1, max_size=3), WRONG)
    return _mostly(st.sampled_from(sizes).flatmap(lambda n: st.lists(element, min_size=n, max_size=n)), edge)


def _rows(n):
    return st.lists(st.lists(COMPLEX, min_size=n, max_size=n), min_size=n, max_size=n)


# One value strategy per declared key; a key missing here fails the test below.
VALUES = {
    "alpha": _mostly(REAL, st.one_of(HUGE_OR_TINY, WRONG)),
    "z": _mostly(COMPLEX, st.one_of(HUGE_OR_TINY, st.lists(HUGE_OR_TINY, min_size=2, max_size=2), WRONG)),
    "n_program": _integer(2, 4, past=PAST["n_program"]),
    "dim": _integer(2, 4, past=PAST["dim"]),
    "psi": _vector(COMPLEX, [2, 3]),
    "entries": _vector(COMPLEX, [2, 3, 4]),
    "phases": _vector(REAL, [2, 3, 4]),
    "mu": _vector(REAL, [3]) | st.just([1e200, 0, 0]),
    "n_dim": _integer(2, 3, past=PAST["n_dim"]),
    "target": _mostly(st.just("haar") | _rows(2) | _rows(3), st.one_of(_rows(1), st.just([[0, 0], [0, 0]]), WRONG)),
    "target_seed": _integer(0, 2**64, past=[HUGE_SEED]),
    "n": _integer(1, 3, past=PAST["n"]),
    "k": _integer(1, 3, past=PAST["k"]),
}

# Keys no family reads, and misspellings of keys that some family reads.
STRAY_KEYS = st.one_of(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8),
    st.sampled_from(sorted(VALUES)).map(lambda k: k[1:] + k[0]),
    st.sampled_from(sorted(VALUES)).map(str.upper),
    st.sampled_from(["alpah", "n_programs", "entry", "targetseed", "rounds"]),
)


def _reads(command, family):
    return [*family.params, *([family.rounds] if command == "sweep" and not family.shot else [])]


def _some(keys, value, min_size=0):
    return st.lists(st.sampled_from(keys), unique=True, min_size=min_size, max_size=3).flatmap(
        lambda chosen: st.fixed_dictionaries({k: value(k) for k in chosen})
    )


@st.composite
def configs(draw):
    command = draw(st.sampled_from(["sample", "sweep"]))
    experiment = draw(st.sampled_from(cli.SAMPLE_EXPERIMENTS if command == "sample" else cli.SWEEP_EXPERIMENTS))
    keys = _reads(command, cli._FAMILIES[experiment])
    if draw(st.integers(0, 3)) == 0:
        keys = keys + [draw(STRAY_KEYS)]
    value = lambda k: VALUES.get(k, REAL)  # noqa: E731
    config = {"experiment": experiment, "params": draw(_some(keys, value))}
    if command == "sweep":
        config["grid"] = draw(_some(keys, lambda k: st.lists(value(k), max_size=2), min_size=1))
    else:
        config["max_rounds"] = draw(_integer(1, 1 if experiment == "bz_haar" else 3, past=PAST["max_rounds"]))
    config["trials"] = draw(_integer(1, 3))
    config["seed"] = draw(_integer(0, 2**64, past=[HUGE_SEED]))
    if draw(st.integers(0, 3)) == 0:
        config["tol"] = draw(_mostly(st.floats(0, 1), WRONG))
    return command, config


def test_every_declared_key_has_a_value_strategy():
    for command in ("sample", "sweep"):
        for family in cli._FAMILIES.values():
            assert set(_reads(command, family)) <= set(VALUES)


def _run(command, config) -> tuple[int, str]:
    """main's exit code and stderr on this config; checks what holds for every code."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", cfg_path, "--out", out])
        assert code in (0, 1, 2)
        assert os.path.exists(out) == (code != 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return code, err.getvalue()


@settings(max_examples=200)
@given(case=configs())
def test_cli_exit_codes_on_drawn_configs(case):
    command, config = case
    family = cli._FAMILIES[config["experiment"]]
    stray = (set(config["params"]) | set(config.get("grid", ()))) - set(_reads(command, family))
    code, _ = _run(command, config)
    if stray:
        assert code == 2


# For each key in PAST, the smallest configs that read it: (command, experiment, where the key goes, other grid keys).
_READERS = {
    "n_program": [("sample", "bz", "params", {}), ("sweep", "bz", "grid", {"z": [0.5]})],
    "dim": [("sample", "diagonal", "params", {}), ("sweep", "diagonal", "grid", {"n": [1]})],
    "n_dim": [("sample", "qidn", "params", {}), ("sweep", "qidn", "grid", {"k": [1]})],
    "n": [("sweep", "qid2", "grid", {})],
    "k": [("sweep", "qidn", "grid", {})],
    "max_rounds": [("sample", "qid2", "top", {})],
}


@pytest.mark.parametrize(
    "key, value, command, experiment, where, grid",
    [(key, v, *reader) for key, values in PAST.items() for v in values for reader in _READERS[key]],
)
def test_values_past_a_bound_exit_2(key, value, command, experiment, where, grid):
    config = {"experiment": experiment, "grid": dict(grid)} if command == "sweep" else {"experiment": experiment}
    if where == "top":
        config[key] = value
    elif where == "grid":
        config["grid"][key] = [value]
    else:
        config["params"] = {key: value}
    code, err = _run(command, config)
    assert code == 2 and key in err and str(value) in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("sample", {"experiment": "u1", "seed": HUGE_SEED}),
        ("sweep", {"experiment": "u1", "grid": {"n": [1]}, "seed": HUGE_SEED}),
        ("sample", {"experiment": "qidn", "params": {"target_seed": HUGE_SEED}}),
        ("sweep", {"experiment": "qidn", "grid": {"k": [1], "target_seed": [HUGE_SEED]}}),
    ],
    ids=["sample-seed", "sweep-seed", "sample-target_seed", "sweep-target_seed"],
)
def test_huge_seeds_run(command, config):
    assert _run(command, config)[0] == 0
