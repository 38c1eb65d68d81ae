"""JSON formats for every value the command line reads or writes.

Schemas are strict: unknown keys are rejected, labels must be strings,
and numbers must be actual numbers (booleans are not).  A measure,
function, projection, or partition file names its space either inline
or as a path relative to the file itself; when the caller already
holds the space, the referenced one must match it.

Writes go through a temp file and an atomic rename; a path that cannot
be written is a contract error.  Serialized floats are rounded to 12
significant digits, below every solver tolerance and above float noise.
"""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, JsonParseError, MalformedInputError
from .metric import FiniteMetricSpace, Subspace

if TYPE_CHECKING:
    from .extension import PointFunction
    from .measures import SignedMeasure
    from .projections import GentlePartition, RandomProjection

__all__ = [
    "read_json", "round12", "round_floats", "to_json_text",
    "atomic_write", "write_json",
    "load_space", "dump_space",
    "load_measure", "dump_measure",
    "load_function", "dump_function",
    "load_projection", "dump_projection",
    "load_gentle", "dump_gentle",
    "load_vector",
]


def read_json(path: str | Path):
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise JsonParseError(str(path), exc.lineno, exc.colno, exc.msg) from exc
    except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
        raise MalformedInputError(f"cannot decode {path}: {exc}") from None


def round12(x: float) -> float:
    """Round to 12 significant digits for serialization."""
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def round_floats(obj):
    if isinstance(obj, float):
        return round12(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def to_json_text(obj) -> str:
    return json.dumps(round_floats(obj), indent=2, sort_keys=True) + "\n"


def atomic_write(path: str | Path, text: str) -> None:
    """Replace path by text through a new file beside it and a rename.

    The result has the mode a plain open would give: an existing file
    keeps its own, a new one gets 0o666 less the umask.
    """
    path = Path(path)
    tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                if path.is_file():
                    os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # its message would name the temp file
        raise ContractError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_json(path: str | Path, obj) -> None:
    atomic_write(path, to_json_text(obj))


# ---------------------------------------------------------------------------
# schema helpers


def _check_keys(obj, what: str, required: tuple[str, ...]):
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = [k for k in required if k not in keys]
    if missing:
        raise MalformedInputError(f"{what} is missing key(s): {', '.join(missing)}")
    unknown = sorted(keys - set(required))
    if unknown:
        raise MalformedInputError(f"{what} has unknown key(s): {', '.join(unknown)}")


def _as_number(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedInputError(f"{what} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise MalformedInputError(f"{what} is too large for a float") from None


def _as_label(v, what: str) -> str:
    if not isinstance(v, str) or not v:
        raise MalformedInputError(f"{what} must be a nonempty string, got {v!r}")
    return v


def _number_list(v, what: str) -> list[float]:
    if not isinstance(v, list):
        raise MalformedInputError(f"{what} must be a list of numbers")
    return [_as_number(t, f"{what}[{i}]") for i, t in enumerate(v)]


def _number_rows(v, what: str, n_rows: int, width: int, shape: str) -> list[list[float]]:
    """n_rows lists of width numbers; each row is read, then its length checked."""
    if not isinstance(v, list) or len(v) != n_rows:
        raise MalformedInputError(f"{what} must {shape}")
    rows = []
    for i, row in enumerate(v):
        rows.append(_number_list(row, f"{what}[{i}]"))
        if len(rows[-1]) != width:
            raise MalformedInputError(f"{what}[{i}] has {len(rows[-1])} entries, expected {width}")
    return rows


def _label_index(space: FiniteMetricSpace, label, what: str) -> int:
    return space.index(_as_label(label, what))


def _label_numbers(space: FiniteMetricSpace, v, what: str, label_what: str,
                   key: str) -> dict[int, float]:
    """A {label: number} object as {point index: number}."""
    if not isinstance(v, dict):
        raise MalformedInputError(f"{what} must be an object of label: number")
    return {_label_index(space, k, label_what): _as_number(t, f"{key}[{k!r}]")
            for k, t in v.items()}


# ---------------------------------------------------------------------------
# spaces


def _parse_space(obj) -> FiniteMetricSpace:
    _check_keys(obj, "space", ("labels", "basepoint", "dist"))
    raw = obj["labels"]
    if not isinstance(raw, list) or not raw:
        raise MalformedInputError("space labels must be a nonempty list")
    labels = tuple(_as_label(v, f"labels[{i}]") for i, v in enumerate(raw))
    bp_label = _as_label(obj["basepoint"], "basepoint")
    if bp_label not in labels:
        raise MalformedInputError(f"basepoint {bp_label!r} is not among the labels")
    n = len(labels)
    dist = _number_rows(obj["dist"], "dist", n, n, "be a row-major square matrix")
    return FiniteMetricSpace(labels, np.array(dist), labels.index(bp_label))


def load_space(source, base_dir: Path | None = None) -> FiniteMetricSpace:
    if isinstance(source, dict):
        return _parse_space(source)
    path = Path(source)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return _parse_space(read_json(path))


def dump_space(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "basepoint": space.labels[space.basepoint],
        "dist": [[float(v) for v in row] for row in space.dist],
    }


def _read_bound(source, what: str, keys: tuple[str, ...],
                expected: FiniteMetricSpace | None) -> tuple[dict, FiniteMetricSpace]:
    """A dependent object with exactly keys, and the space its "space" key
    binds it to: inline, or a path anchored at the folder of the file."""
    if isinstance(source, dict):
        obj, base_dir = source, None
    else:
        path = Path(source)
        obj, base_dir = read_json(path), path.parent
    _check_keys(obj, what, keys)
    if not isinstance(obj["space"], (str, dict)):
        raise MalformedInputError(f"{what} space must be a file path or an inline object")
    space = load_space(obj["space"], base_dir=base_dir)
    if expected is not None and space != expected:
        raise ContractError(f"the {what} is bound to a different space than the one given")
    return obj, space


# ---------------------------------------------------------------------------
# measures


def load_measure(source, expected_space: FiniteMetricSpace | None = None) -> SignedMeasure:
    from .measures import SignedMeasure

    obj, space = _read_bound(source, "measure", ("space", "coeff"), expected_space)
    coeff = _label_numbers(space, obj["coeff"], "measure coeff", "coefficient label", "coeff")
    return SignedMeasure(space, coeff)


def dump_measure(mu: SignedMeasure) -> dict:
    space = mu.space
    return {
        "space": dump_space(space),
        "coeff": {space.labels[i]: float(c) for i, c in mu.coeff.items()},
    }


# ---------------------------------------------------------------------------
# functions


def load_function(source, expected_space: FiniteMetricSpace | None = None,
                  subspace: Subspace | None = None) -> PointFunction:
    """Read a function file; with a subspace, values cover its members only."""
    from .extension import PointFunction

    obj, space = _read_bound(source, "function", ("space", "dim", "norm", "values"),
                             expected_space)
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise MalformedInputError(f"dim must be a positive integer, got {dim!r}")
    norm = obj["norm"]
    values_raw = obj["values"]
    if not isinstance(values_raw, dict):
        raise MalformedInputError("function values must be an object of label: value")

    if subspace is not None:
        if subspace.parent != space:
            raise ContractError("the function is bound to a different space than the subset's")
        domain_space = subspace.to_space()
        wanted = [space.labels[m] for m in subspace.members]
    else:
        domain_space = space
        wanted = list(space.labels)
    missing = [lab for lab in wanted if lab not in values_raw]
    if missing:
        raise MalformedInputError(f"function values missing for: {', '.join(repr(m) for m in missing)}")
    extra = sorted(set(values_raw) - set(wanted))
    if extra:
        raise MalformedInputError(f"function has values for points outside its domain: {', '.join(repr(e) for e in extra)}")

    rows = []
    for lab in wanted:
        v = values_raw[lab]
        if isinstance(v, list):
            vec = _number_list(v, f"values[{lab!r}]")
            if len(vec) != dim:
                raise MalformedInputError(
                    f"values[{lab!r}] has {len(vec)} coordinates, expected dim = {dim}"
                )
        else:
            if dim != 1:
                raise MalformedInputError(f"values[{lab!r}] must be a list of {dim} numbers")
            vec = [_as_number(v, f"values[{lab!r}]")]
        rows.append(vec)
    return PointFunction(domain_space, np.array(rows), norm if isinstance(norm, str) else str(norm))


def dump_function(f: PointFunction) -> dict:
    space = f.space
    return {
        "space": dump_space(space),
        "dim": f.dim,
        "norm": f.norm,
        "values": {
            space.labels[i]: [float(v) for v in f.values[i]]
            for i in range(space.n)
        },
    }


# ---------------------------------------------------------------------------
# projections


def _parse_subset(space: FiniteMetricSpace, raw, what: str) -> Subspace:
    if not isinstance(raw, list) or not raw:
        raise MalformedInputError(f"{what} subset must be a nonempty list of labels")
    idx = sorted(_label_index(space, v, f"{what} subset label") for v in raw)
    if len(set(idx)) != len(idx):
        raise MalformedInputError(f"{what} subset repeats a label")
    return Subspace(space, tuple(idx))


def load_projection(source, expected_space: FiniteMetricSpace | None = None) -> RandomProjection:
    from .measures import SignedMeasure
    from .projections import RandomProjection

    obj, space = _read_bound(source, "projection", ("space", "subset", "strong", "rows"),
                             expected_space)
    subset = _parse_subset(space, obj["subset"], "projection")
    strong = obj["strong"]
    if not isinstance(strong, bool):
        raise MalformedInputError("projection strong flag must be a boolean")
    rows_raw = obj["rows"]
    if not isinstance(rows_raw, dict):
        raise MalformedInputError("projection rows must be an object of label: {label: number}")
    known = set(space.labels)
    for k in rows_raw:
        if k not in known:
            raise MalformedInputError(f"projection rows mention unknown point {k!r}")
    member_set = set(subset.members)
    rows = []
    for x in range(space.n):
        lab = space.labels[x]
        if lab not in rows_raw:
            if x in member_set:
                rows.append(SignedMeasure.dirac(space, x))
                continue
            raise MalformedInputError(f"projection rows missing exterior point {lab!r}")
        coeff = _label_numbers(space, rows_raw[lab], f"row {lab!r}",
                               f"row {lab!r} support label", f"rows[{lab!r}]")
        rows.append(SignedMeasure(space, coeff))
    return RandomProjection(subset, tuple(rows), strong)


def dump_projection(p: RandomProjection) -> dict:
    space = p.space
    return {
        "space": dump_space(space),
        "subset": [space.labels[m] for m in p.subset.members],
        "strong": p.strong,
        "rows": {
            space.labels[x]: {
                space.labels[m]: float(c) for m, c in p.rows[x].coeff.items()
            }
            for x in range(space.n)
        },
    }


# ---------------------------------------------------------------------------
# gentle partitions


def load_gentle(source, expected_space: FiniteMetricSpace | None = None) -> GentlePartition:
    from .projections import GentlePartition

    obj, space = _read_bound(source, "gentle partition",
                             ("space", "subset", "P", "psi", "gamma"), expected_space)
    subset = _parse_subset(space, obj["subset"], "gentle partition")
    P = _number_list(obj["P"], "P")
    psi = _number_rows(obj["psi"], "psi", len(P), space.n, "have one row per entry of P")
    gamma_raw = obj["gamma"]
    if not isinstance(gamma_raw, list) or len(gamma_raw) != len(P):
        raise MalformedInputError("gamma must assign a member label per entry of P")
    gamma = tuple(_label_index(space, v, f"gamma[{i}]") for i, v in enumerate(gamma_raw))
    return GentlePartition(subset, np.array(P), np.array(psi), gamma)


def dump_gentle(g: GentlePartition) -> dict:
    space = g.space
    return {
        "space": dump_space(space),
        "subset": [space.labels[m] for m in g.subset.members],
        "P": [float(w) for w in g.weights],
        "psi": [[float(v) for v in row] for row in g.psi],
        "gamma": [space.labels[m] for m in g.gamma],
    }


# ---------------------------------------------------------------------------
# plain vectors


def load_vector(source) -> np.ndarray:
    obj = read_json(source) if not isinstance(source, (list, dict)) else source
    if isinstance(obj, dict):
        _check_keys(obj, "vector", ("y",))
        obj = obj["y"]
    vec = _number_list(obj, "vector")
    return np.array(vec, dtype=float)
