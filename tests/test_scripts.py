"""Smoke runs of the experiment scripts on tiny inputs."""

from __future__ import annotations

import csv
import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_asymptotic_experiment_profiles_every_subset_size(tmp_path, capsys):
    out = tmp_path / "profiles.csv"
    script = load_script("asymptotic_experiment")
    assert script.main(["--min-points", "3", "--max-points", "4", "--trials", "1",
                        "--seed", "5", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [(r["n_points"], r["subset_size"]) for r in rows] == [
        ("3", "1"), ("3", "2"), ("3", "3"), ("4", "1"), ("4", "2"), ("4", "3"), ("4", "4")]
    for r in rows:
        if r["subset_size"] == r["n_points"]:
            assert float(r["k_star"]) == 1.0 and float(r["max_deviation"]) == 0.0
    assert "wrote 7 rows" in capsys.readouterr().out


def test_scripts_reject_bad_arguments(tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert load_script("asymptotic_experiment").main(["--min-points", "5", "--max-points", "4",
                                                      "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("error:") == 1
