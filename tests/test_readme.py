"""README's example configs run, and its lists of tables, experiments and params keys are the CLI's."""
import json
import re
from pathlib import Path

from qproc.cli import _FAMILIES, REPRODUCE_TABLES, SAMPLE_EXPERIMENTS, SWEEP_EXPERIMENTS, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _listed(label: str) -> list[tuple[str, ...]]:
    return [tuple(names.split(", ")) for names in re.findall(label + r": `([^`]*)`", README)]


def test_readme_lists_are_the_cli_lists():
    assert _listed("Tables") == [REPRODUCE_TABLES]
    assert _listed("Experiments") == [SWEEP_EXPERIMENTS, SAMPLE_EXPERIMENTS]  # the sweep paragraph comes first


def test_readme_example_configs_run(tmp_path):
    sweep, sample = (json.loads(block) for block in re.findall(r"```json\n(.*?)```", README, re.S))
    assert (sweep["experiment"], sample["experiment"]) == ("bz", "qidn")
    sweep_cfg, sample_cfg = tmp_path / "sweep.json", tmp_path / "sample.json"
    sweep_cfg.write_text(json.dumps(sweep))
    sample_cfg.write_text(json.dumps(sample))

    assert main(["sweep", "--config", str(sweep_cfg), "--out", str(tmp_path / "sweep.csv")]) == 0
    points = 1
    for values in sweep["grid"].values():
        points *= len(values)
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + points

    # The example asks for 10^5 trials; fewer run the same config.
    assert main(["sample", "--config", str(sample_cfg), "--trials", "300", "--out", str(tmp_path / "traces.json")]) == 0
    summary = json.loads((tmp_path / "traces.json").read_text())["summary"]
    assert summary["trials"] == 300 and abs(summary["empirical"] - summary["exact"]) <= summary["three_sigma"]


def test_readme_key_table_is_each_familys_declaration():
    """Each row's keys column, plus `psi` for every experiment but the one README names, is what the family declares."""
    (no_psi,) = re.findall(r"Every experiment but `(\w+)` also reads `psi`", README)
    rows = re.findall(r"^\| `(\w+)`[^|]* \| ([^|]*) \|", README, re.M)
    assert [experiment for experiment, _ in rows] == list(_FAMILIES)
    for experiment, keys in rows:
        listed = set(re.findall(r"`([a-z_0-9]+)`", keys)) | ({"psi"} if experiment != no_psi else set())
        assert listed == set(_FAMILIES[experiment].params), experiment
