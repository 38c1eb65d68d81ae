"""The package namespace: its public names, and what each entry point loads."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krext

SRC = str(Path(krext.__file__).resolve().parents[1])

PUBLIC = {
    "__version__",
    "ContractError", "MalformedInputError", "SolverError", "JsonParseError",
    "FiniteMetricSpace", "Subspace", "Violation",
    "validate_metric", "require_valid_metric", "restrict",
    "subspace_from_labels", "doubling_estimate",
    "SignedMeasure", "total_variation", "jordan_decompose", "freespace_moment_bound",
    "TransportResult", "w1", "kr_norm", "verify_duality",
    "RandomProjection", "GentlePartition", "SynthesisResult", "ProfileEntry",
    "identity_projection", "gentle_constant", "weighted_tv_constant",
    "projection_constant", "gentle_to_projection", "projection_to_gentle",
    "uniform_discrete_projection", "uniform_discrete_bound",
    "synthesize_min_k", "asymptotic_profile", "retract_l1_ball",
    "PointFunction", "lip_norm", "mcshane_extend", "extend_by_projection",
    "operator_norm",
}


# ---------------------------------------------------------------------------
# the name table


def test_all_lists_the_public_names():
    assert set(krext.__all__) == PUBLIC
    assert len(krext.__all__) == len(PUBLIC)


def test_each_name_is_the_object_of_the_module_that_defines_it():
    assert krext.kr_norm is krext.transport.kr_norm
    assert krext.SignedMeasure is krext.measures.SignedMeasure
    for name in PUBLIC - {"__version__"}:
        obj = getattr(krext, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name


def test_dir_covers_the_public_names():
    assert PUBLIC <= set(dir(krext))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from krext import *", namespace)
    assert PUBLIC <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        krext.nope
    with pytest.raises(ImportError):
        exec("from krext import nope", {})


def test_from_import_of_a_submodule_returns_the_submodule():
    from krext import transport
    assert transport is sys.modules["krext.transport"]


# ---------------------------------------------------------------------------
# what a fresh interpreter loads


def loaded_after(code: str, cwd: Path) -> set[str]:
    """The krext modules, and numpy, that a fresh interpreter holds after code."""
    probe = code + (
        "\nimport sys"
        "\nprint(*sorted(m for m in sys.modules if m == 'numpy' or m.split('.')[0] == 'krext'))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": SRC}, check=True)
    return set(done.stdout.split())


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "space.json").write_text(json.dumps({
        "labels": ["a", "b", "c"], "basepoint": "a",
        "dist": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]],
    }))
    (tmp_path / "mu.json").write_text(json.dumps({"space": "space.json",
                                                  "coeff": {"b": 1.0, "c": -1.0}}))
    return tmp_path


def test_importing_the_package_loads_no_submodule_and_no_numpy(workdir):
    assert loaded_after("import krext", workdir) == {"krext"}


def test_a_submodule_reached_as_an_attribute_loads_on_first_use(workdir):
    loaded = loaded_after("import krext\nassert krext.optim.__name__ == 'krext.optim'", workdir)
    assert loaded == {"krext", "krext.errors", "krext.optim", "numpy"}


@pytest.mark.parametrize("sub", ["validate", "doubling"])
def test_validate_and_doubling_load_only_the_metric_layer(workdir, sub):
    code = f"import krext.cli\nassert krext.cli.main([{sub!r}, 'space.json', '--out', 'o.json']) == 0"
    loaded = loaded_after(code, workdir)
    assert loaded == {"krext", "krext.cli", "krext.errors", "krext.io", "krext.metric", "numpy"}
    assert (workdir / "o.json").exists()


def test_krnorm_loads_no_projection_or_extension_layer(workdir):
    code = "import krext.cli\nassert krext.cli.main(['krnorm', 'space.json', 'mu.json', '--out', 'o.json']) == 0"
    loaded = loaded_after(code, workdir)
    assert "krext.transport" in loaded
    assert not loaded & {"krext.projections", "krext.extension"}


def test_only_report_loads_the_families_module(workdir):
    report = "import krext.cli\nassert krext.cli.main(['report', 'space.json', '--sizes', '2,3', '--out', 'r.json']) == 0"
    assert "krext.families" in loaded_after(report, workdir)
    assert len(json.loads((workdir / "r.json").read_text())["rows"]) == 2
    krnorm = "import krext.cli\nassert krext.cli.main(['krnorm', 'space.json', 'mu.json', '--out', 'o.json']) == 0"
    assert "krext.families" not in loaded_after(krnorm, workdir)
