"""JSON serialization layer and the command-line interface."""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import krext.cli as cli
import krext.projections
import krext.io as kio
from krext import (
    ContractError,
    JsonParseError,
    MalformedInputError,
    PointFunction,
    RandomProjection,
    SignedMeasure,
    SolverError,
    gentle_constant,
    gentle_to_projection,
    identity_projection,
    projection_constant,
    projection_to_gentle,
    subspace_from_labels,
    uniform_discrete_bound,
    uniform_discrete_projection,
    weighted_tv_constant,
)
from test_metric import three_point


@pytest.fixture
def files(tmp_path):
    """Write the canonical three-point space plus companions to disk."""
    space = three_point()
    paths = {"dir": tmp_path}

    def put(name, obj):
        p = tmp_path / name
        kio.write_json(p, obj)
        paths[name] = str(p)
        return p

    put("space.json", kio.dump_space(space))
    put("mu.json", {"space": "space.json", "coeff": {"b": 1.0, "c": -1.0}})
    put("eta.json", {"space": "space.json", "coeff": {"a": 0.5, "b": 0.5}})
    put("nu.json", {"space": "space.json", "coeff": {"c": 1.0}})
    put("f.json", {"space": "space.json", "dim": 1, "norm": "abs",
                   "values": {"a": 0.0, "b": 1.0}})
    paths["space"] = space
    return paths


# ---------------------------------------------------------------------------
# serialization primitives


def test_round12_repairs_float_noise():
    assert kio.round12(0.1 + 0.2) == 0.3
    assert kio.round12(0.0) == 0.0
    assert kio.round12(1.5) == 1.5
    assert kio.round_floats({"a": [0.1 + 0.2, 1]}) == {"a": [0.3, 1]}


def test_to_json_text_is_stable():
    text = kio.to_json_text({"b": 2.0, "a": 1.0})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # keys sorted


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    kio.atomic_write(target, "new\n")
    assert target.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.json"
        kio.atomic_write(fresh, "new\n")
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
        kept = tmp_path / "kept.json"
        kept.write_text("old")
        kept.chmod(0o640)
        kio.atomic_write(kept, "new\n")
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640
        assert kept.read_text() == "new\n"
    finally:
        os.umask(old)


def test_json_parse_error_carries_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": [,]}')
    with pytest.raises(JsonParseError) as err:
        kio.read_json(bad)
    assert str(bad) in str(err.value)
    assert ":1:" in str(err.value)


def test_missing_file_is_a_contract_error(tmp_path):
    with pytest.raises(ContractError):
        kio.read_json(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# round trips


def test_space_round_trip(files):
    space = kio.load_space(files["space.json"])
    assert space == files["space"]
    assert kio.load_space(kio.dump_space(space)) == space


def test_measure_round_trip(files):
    space = files["space"]
    mu = SignedMeasure(space, {1: 1.0, 2: -1.0})
    again = kio.load_measure(kio.dump_measure(mu), expected_space=space)
    assert again == mu


def test_function_round_trips(files):
    space = files["space"]
    scalar = PointFunction(space, np.array([[0.0], [1.0], [2.0]]), norm="abs")
    out = kio.dump_function(scalar)
    assert kio.load_function(out, expected_space=space).values.tolist() == [[0.0], [1.0], [2.0]]
    vec = PointFunction(space, np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5]]), norm="euclid")
    back = kio.load_function(kio.dump_function(vec), expected_space=space)
    assert back.norm == "euclid"
    assert np.array_equal(back.values, vec.values)


def test_subset_function_parsing(files):
    space = files["space"]
    sub = subspace_from_labels(space, ["a", "b"])
    f = kio.load_function(files["f.json"], expected_space=space, subspace=sub)
    assert f.space.labels == ("a", "b")
    extra = dict(kio.read_json(files["f.json"]))
    extra["space"] = kio.dump_space(space)  # inline: dict sources have no base dir
    extra["values"] = {"a": 0.0, "b": 1.0, "c": 2.0}
    with pytest.raises(MalformedInputError):
        kio.load_function(extra, expected_space=space, subspace=sub)


def test_projection_round_trip_and_default_member_rows(files):
    space = files["space"]
    sub = subspace_from_labels(space, ["a", "b"])
    raw = {
        "space": kio.dump_space(space),
        "subset": ["a", "b"],
        "strong": True,
        "rows": {"c": {"a": 0.4, "b": 0.6}},  # member rows may be omitted
    }
    p = kio.load_projection(raw)
    assert p.rows[0].coeff == {0: 1.0}
    assert p.rows[2].coeff == {0: 0.4, 1: 0.6}
    again = kio.load_projection(kio.dump_projection(p))
    assert again.rows == p.rows and again.strong == p.strong


def test_gentle_round_trip(files):
    space = files["space"]
    sub = subspace_from_labels(space, ["a", "b"])
    rows = (
        SignedMeasure.dirac(space, 0),
        SignedMeasure.dirac(space, 1),
        SignedMeasure(space, {0: 0.4, 1: 0.6}),
    )
    g = projection_to_gentle(RandomProjection(sub, rows, strong=True))
    back = kio.load_gentle(kio.dump_gentle(g), expected_space=space)
    assert np.array_equal(back.weights, g.weights)
    assert np.array_equal(back.psi, g.psi)
    assert back.gamma == g.gamma


def test_vector_forms(tmp_path):
    p = tmp_path / "y.json"
    p.write_text("[2.0, 0.5]\n")
    assert kio.load_vector(str(p)).tolist() == [2.0, 0.5]
    q = tmp_path / "y2.json"
    kio.write_json(q, {"y": [1.0, 1.0, 1.0]})
    assert kio.load_vector(str(q)).tolist() == [1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# strict schemas


def test_unknown_keys_rejected(files):
    obj = kio.dump_space(files["space"])
    obj["comment"] = "hi"
    with pytest.raises(MalformedInputError, match="comment"):
        kio.load_space(obj)


def test_bool_is_not_a_number(files):
    with pytest.raises(MalformedInputError):
        kio.load_measure({"space": kio.dump_space(files["space"]), "coeff": {"b": True}})


def test_unknown_label_rejected(files):
    with pytest.raises(ContractError, match="z"):
        kio.load_measure({"space": kio.dump_space(files["space"]), "coeff": {"z": 1.0}})


def test_measure_bound_to_wrong_space(files):
    other = kio.dump_space(files["space"])
    other["dist"][0][1] = other["dist"][1][0] = 1.25
    measure = {"space": other, "coeff": {"b": 1.0}}
    with pytest.raises(ContractError, match="different space"):
        kio.load_measure(measure, expected_space=files["space"])


def test_nonsquare_distance_rejected():
    with pytest.raises(MalformedInputError):
        kio.load_space({"labels": ["a", "b"], "basepoint": "a", "dist": [[0.0, 1.0]]})


# ---------------------------------------------------------------------------
# the command line: exit codes


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_krnorm_example(files, capsys):
    code, out, err = run_cli(capsys, "krnorm", files["space.json"], files["mu.json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["value"] == 1.5
    assert payload["gap"] == 0.0
    assert payload["plan"] == [{"from": "b", "to": "c", "mass": 1.0}]


def test_cli_is_a_thin_wrapper(files, capsys):
    code, out, _ = run_cli(capsys, "tvconst", files["space.json"], proj_file(files))
    assert code == 0
    space = files["space"]
    p = kio.load_projection(proj_file(files), expected_space=space)
    expected = kio.to_json_text({
        "weighted_tv_constant": float(weighted_tv_constant(p)),
        "projection_constant": float(projection_constant(p, tol=1e-9)),
    })
    assert out == expected  # byte-identical to the library route


def proj_file(files) -> str:
    path = files["dir"] / "p.json"
    if not path.exists():
        kio.write_json(path, {
            "space": "space.json",
            "subset": ["a", "b"],
            "strong": True,
            "rows": {"c": {"a": 0.4, "b": 0.6}},
        })
    return str(path)


def test_cli_gentle2proj_is_a_thin_wrapper(files, capsys):
    path = files["dir"] / "g.json"
    p = kio.load_projection(proj_file(files), expected_space=files["space"])
    kio.write_json(path, {**kio.dump_gentle(projection_to_gentle(p)), "space": "space.json"})
    code, out, _ = run_cli(capsys, "gentle2proj", files["space.json"], str(path))
    assert code == 0
    g = kio.load_gentle(str(path), expected_space=files["space"])
    q = gentle_to_projection(g)
    assert out == kio.to_json_text({
        "projection": kio.dump_projection(q),
        "gentle_constant": float(gentle_constant(g)),
        "projection_constant": float(projection_constant(q, tol=1e-9)),
    })


def test_cli_proj2gentle_is_a_thin_wrapper(files, capsys):
    code, out, _ = run_cli(capsys, "proj2gentle", files["space.json"], proj_file(files))
    assert code == 0
    p = kio.load_projection(proj_file(files), expected_space=files["space"])
    g = projection_to_gentle(p)
    assert out == kio.to_json_text({
        "gentle": kio.dump_gentle(g),
        "weighted_tv_constant": float(weighted_tv_constant(p)),
        "gentle_constant": float(gentle_constant(g)),
    })


def test_cli_udp_is_a_thin_wrapper(files, capsys):
    code, out, _ = run_cli(capsys, "udp", files["space.json"], "--subset", "a,c", "--eps", "2", "--t0", "a")
    assert code == 0
    space = files["space"]
    subset = subspace_from_labels(space, ["a", "c"])
    p = uniform_discrete_projection(space, subset, eps=2.0, t0=0, tol=1e-9)
    assert out == kio.to_json_text({
        "projection": kio.dump_projection(p),
        "bound": float(uniform_discrete_bound(space, subset, 2.0)),
        "projection_constant": float(projection_constant(p, tol=1e-9)),
    })


def test_cli_udp_on_a_subset_that_is_not_separated_exits_one(files, capsys):
    # d(a, b) = 1 < eps = 2
    code, out, err = run_cli(capsys, "udp", files["space.json"], "--subset", "a,b", "--eps", "2", "--t0", "a")
    assert code == 1 and out == ""
    assert "subset is not 2.0-separated" in err


def test_cli_validate_failure_exits_one(files, capsys, tmp_path):
    broken = kio.dump_space(files["space"])
    broken["dist"][0][2] = broken["dist"][2][0] = 3.0  # triangle now fails
    bad = tmp_path / "broken.json"
    kio.write_json(bad, broken)
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["violations"][0]["kind"] == "triangle"


def test_cli_krnorm_on_a_broken_triangle_exits_one(files, capsys, tmp_path):
    broken = kio.dump_space(files["space"])
    broken["dist"][0][2] = broken["dist"][2][0] = 3.0  # d(a,c) > d(a,b) + d(b,c)
    kio.write_json(tmp_path / "broken.json", broken)
    kio.write_json(tmp_path / "ac.json", {"space": "broken.json", "coeff": {"a": 1.0, "c": -1.0}})
    code, out, err = run_cli(capsys, "krnorm", str(tmp_path / "broken.json"), str(tmp_path / "ac.json"))
    assert code == 1 and out == ""
    assert "triangle violated at (a,b,c)" in err


def test_cli_usage_error_is_64(files, capsys):
    code, _, err = run_cli(capsys, "krnorm")  # missing arguments
    assert code == 64 and "usage" in err.lower()
    code, _, _ = run_cli(capsys, "frobnicate", files["space.json"])
    assert code == 64


def test_cli_parse_error_is_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "doubling", str(bad))
    assert code == 65
    assert f"{bad}:1:" in err


def test_cli_contract_error_is_1(files, capsys):
    code, _, err = run_cli(capsys, "w1", files["space.json"], files["mu.json"], files["eta.json"])
    assert code == 1  # signed measure fed to the nonnegative transport route
    assert "error:" in err


def test_cli_solver_error_is_2(files, capsys, monkeypatch):
    def boom(*a, **k):
        raise SolverError("synthetic failure")
    monkeypatch.setattr(krext.projections, "synthesize_min_k", boom)
    code, _, err = run_cli(capsys, "synthesize", files["space.json"], "--subset", "a,b")
    assert code == 2 and "synthetic failure" in err


BIG = "1" + "0" * 400  # an integer literal past the largest float


@pytest.mark.parametrize("argv, content, code, named", [
    (("validate", "{in}"), b'{"labels": ["a\xff"], "basepoint": "a", "dist": [[0]]}',
     1, ("{in}",)),
    # Python limits int literals to 4300 digits; where it does not, float() overflows
    (("validate", "{in}"), b'{"labels": ["a"], "basepoint": "a", "dist": [[%s]]}' % (b"1" * 5000),
     1, ("{in}", "dist[0][0]")),
    (("validate", "{in}"), b"[" * 100_000 + b"]" * 100_000, 1, ("{in}",)),
    (("validate", "{in}"), b'{"labels": ["a", "b"], "basepoint": "a", '
                           b'"dist": [[0, %s], [%s, 0]]}' % (BIG.encode(), BIG.encode()),
     1, ("dist[0][1]",)),
    (("retract", "{in}"), b"[%s]" % BIG.encode(), 1, ("vector[0]",)),
    (("report", "{space}", "--sizes", "2", "--seed", "-1"), b"", 64, ("--seed",)),
], ids=["invalid-utf8", "5000-digit-int", "deep-nesting", "400-digit-distance",
        "400-digit-vector", "negative-seed"])
def test_cli_reports_unreadable_input_without_a_traceback(files, capsys, tmp_path,
                                                         argv, content, code, named):
    # each of these inputs once ended in a Python traceback
    path = tmp_path / "in.json"
    path.write_bytes(content)
    fill = {"in": str(path), "space": files["space.json"]}
    got, _, err = run_cli(capsys, *(a.format(**fill) for a in argv))
    assert got == code
    assert "Traceback" not in err
    assert any(n.format(**fill) in err for n in named)


def test_cli_krnorm_on_a_measure_whose_total_variation_overflows_exits_one(files, capsys, tmp_path):
    big = tmp_path / "big.json"
    kio.write_json(big, {"space": "space.json", "coeff": {"b": 1e308, "c": 1e308}})
    code, _, err = run_cli(capsys, "krnorm", files["space.json"], str(big))
    assert code == 1 and "overflows" in err


def test_readme_command_block_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    names = set()
    for line in block.splitlines():
        line = line.split("#", 1)[0].replace("[", "").replace("]", "")
        words = [w.split("|", 1)[0] for w in line.split()]
        assert words[0] == "krext", line
        names.add(parser.parse_args(words[1:]).command)
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert names == set(sub.choices)


def test_cli_out_writes_file(files, capsys, tmp_path):
    dest = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "doubling", files["space.json"], "--out", str(dest)
    )
    assert code == 0 and out == ""
    assert json.loads(dest.read_text()) == {"doubling_estimate": 3}


@pytest.mark.parametrize("dest", ["missing/x.json", "folder"])
def test_cli_out_that_cannot_be_written_is_a_contract_error(files, capsys, dest):
    (files["dir"] / "folder").mkdir()
    before = sorted(files["dir"].rglob("*"))
    code, out, err = run_cli(
        capsys, "doubling", files["space.json"], "--out", str(files["dir"] / dest)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write")
    assert sorted(files["dir"].rglob("*")) == before  # no temp file left behind


def test_cli_tol_env_and_flag(files, capsys, monkeypatch):
    monkeypatch.setenv("KREXT_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "doubling", files["space.json"])
    assert code == 1 and "KREXT_TOL" in err
    code, _, _ = run_cli(capsys, "doubling", files["space.json"], "--tol", "1e-8")
    assert code == 0  # the flag wins over a broken environment value


@pytest.mark.parametrize("env, flag", [
    (None, "inf"), (None, "nan"), (None, "0"), (None, "1"), ("inf", None),
    (None, "1e-16"), ("1e-16", None),
])
def test_cli_rejects_a_tolerance_outside_the_open_unit_interval(files, capsys, monkeypatch, env, flag):
    # masses 1 and 2: any tolerance of 1 or more would accept the mismatch
    heavy = files["dir"] / "heavy.json"
    kio.write_json(heavy, {"space": "space.json", "coeff": {"c": 2.0}})
    if env is not None:
        monkeypatch.setenv("KREXT_TOL", env)
    argv = ["w1", files["space.json"], files["nu.json"], str(heavy)]
    code, out, err = run_cli(capsys, *argv, *(["--tol", flag] if flag else []))
    assert code == 1 and out == ""
    assert "tolerance" in err and ("KREXT_TOL" if env else "--tol") in err


def test_cli_takes_a_tight_tolerance(files, capsys, monkeypatch):
    monkeypatch.setenv("KREXT_TOL", "1e-12")
    code, out, _ = run_cli(capsys, "krnorm", files["space.json"], files["mu.json"])
    assert code == 0
    code, flag_out, _ = run_cli(capsys, "krnorm", files["space.json"], files["mu.json"],
                                "--tol", "1e-12")
    assert code == 0 and flag_out == out and json.loads(out)["value"] == 1.5
    code, floor_out, _ = run_cli(capsys, "krnorm", files["space.json"], files["mu.json"],
                                 "--tol", "1e-15")
    assert code == 0 and floor_out == out


def test_cli_retract(tmp_path, capsys):
    y = tmp_path / "y.json"
    y.write_text("[2.0, 0.5]\n")
    code, out, _ = run_cli(capsys, "retract", str(y))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"g": 1.0, "r": [1.0, 0.0]}


def test_cli_retract_on_entries_whose_sum_overflows_exits_one(tmp_path, capsys):
    y = tmp_path / "y.json"
    y.write_text("[1e308, 1e308]\n")
    code, out, err = run_cli(capsys, "retract", str(y))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "sum overflows" in err


def test_cli_report_is_deterministic(files, capsys):
    argv = ("report", files["space.json"], "--seed", "7", "--sizes", "2,3")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0

    def strip(text):
        rows = json.loads(text)["rows"]
        return [{k: v for k, v in r.items() if k != "runtime_ms"} for r in rows]

    assert strip(out1) == strip(out2)
    assert [r["subset_size"] for r in strip(out1)] == [2, 3]


def test_cli_report_csv(files, capsys):
    code, out, _ = run_cli(
        capsys, "report", files["space.json"], "--seed", "3", "--sizes", "2",
        "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header.split(",") == [
        "n_points", "subset_size", "K_strong", "K_signed",
        "tv_const", "udp_bound", "doubling_est", "runtime_ms",
    ]


def test_cli_shiftbase_then_extend(files, capsys, tmp_path):
    off = tmp_path / "off.json"
    kio.write_json(off, {"space": "space.json", "dim": 1, "norm": "abs",
                         "values": {"a": 2.0, "b": 3.0, "c": 4.0}})
    code, _, err = run_cli(capsys, "extend", files["space.json"], id_proj(files), str(off))
    assert code == 1 and "basepoint" in err
    shifted = tmp_path / "shifted.json"
    code, _, _ = run_cli(capsys, "shiftbase", files["space.json"], str(off),
                         "--out", str(shifted))
    assert code == 0
    assert json.loads(shifted.read_text())["values"] == {"a": [0.0], "b": [1.0], "c": [2.0]}
    code, out, _ = run_cli(capsys, "extend", files["space.json"], id_proj(files), str(shifted))
    assert code == 0
    assert json.loads(out)["lip_norm"] == 1.0


def id_proj(files) -> str:
    path = files["dir"] / "id.json"
    if not path.exists():
        kio.write_json(path, kio.dump_projection(identity_projection(files["space"])))
    return str(path)


def test_cli_mcshane(files, capsys):
    code, out, _ = run_cli(
        capsys, "mcshane", files["space.json"], files["f.json"], "--subset", "a,b"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["function"]["values"]["c"] == [2.0]
    assert payload["lip_norm"] == 1.0


def test_cli_synthesize(files, capsys):
    code, out, _ = run_cli(
        capsys, "synthesize", files["space.json"], "--subset", "a,b", "--mode", "strong"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k_star"] == 1.0
    assert payload["projection"]["rows"]["c"] == {"b": 1.0}


def test_cli_asymptotic(files, capsys):
    code, out, _ = run_cli(
        capsys, "asymptotic", files["space.json"], "--order", "a,c,b"
    )
    assert code == 0
    profile = json.loads(out)["profile"]
    assert [e["size"] for e in profile] == [1, 2, 3]
    assert profile[-1]["k_star"] == 1.0
    assert profile[0]["deviations"] == {"a": 0.0, "b": 1.0, "c": 2.0}
