"""Span tracing of krext from outside the package.

A traced pass replaces each public module-level function of the krext
layers by a wrapper that records a span (name, start, end, parent) and
a few counts taken from its arguments and result.  The wrapper is
installed under every name that a krext module, or the benchmark, uses
to look the function up, so calls between modules are caught too.
``numpy.linalg.solve`` is wrapped as well; only the calls made inside a
``solve_lp`` span are recorded, as basis solves.  Nothing is wrapped
outside a traced pass, and spans are recorded only while an operation
is active, so the benchmark's own output checks stay out of the trace.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Layer modules and the public functions traced in each.  measures gets
# no span: its calls are many and tiny, so they stay in the caller's
# self time.  io.round12 and io.round_floats are left out for the same
# reason (round_floats recurses once per serialized value).
TRACED = {
    "metric": ("validate_metric", "require_valid_metric", "restrict",
               "subspace_from_labels", "doubling_estimate"),
    "optim": ("solve_flow", "solve_lp"),
    "transport": ("w1", "kr_norm", "verify_duality"),
    "projections": ("identity_projection", "gentle_constant", "gentle_to_projection",
                    "projection_constant", "weighted_tv_constant", "projection_to_gentle",
                    "uniform_discrete_projection", "uniform_discrete_bound",
                    "synthesize_min_k", "asymptotic_profile", "retract_l1_ball"),
    "extension": ("lip_norm", "mcshane_extend", "extend_by_projection", "operator_norm"),
    "io": ("read_json", "to_json_text", "atomic_write", "write_json",
           "load_space", "dump_space", "load_measure", "dump_measure",
           "load_function", "dump_function", "load_projection", "dump_projection",
           "load_gentle", "dump_gentle", "load_vector"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)

BASIS_SOLVE = "optim.basis_solve"
CONVERSIONS = ("gentle_to_projection", "projection_to_gentle",
               "gentle_constant", "weighted_tv_constant")


class Tracer:
    """Keeps spans in memory as [name, start, end, parent, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._lp_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        attrs_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            is_lp = name == "optim.solve_lp"
            tracer._lp_depth += is_lp
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.spans[idx][4]["error"] = 1
                raise
            else:
                if attrs_of is not None:
                    tracer.spans[idx][4].update(attrs_of(args, kwargs, result))
                return result
            finally:
                tracer._lp_depth -= is_lp
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_solve(self, fn):
        tracer = self

        def traced_solve(a, b, *args, **kwargs):
            if tracer._lp_depth <= 0:
                return fn(a, b, *args, **kwargs)
            idx = tracer.begin(BASIS_SOLVE, {"m": int(np.shape(a)[0])})
            try:
                return fn(a, b, *args, **kwargs)
            finally:
                tracer.end(idx)

        traced_solve.__wrapped__ = fn
        return traced_solve

    # -- patching ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under every name it is looked up by."""
        modules = [importlib.import_module(f"krext.{layer}") for layer in LAYERS]
        holders = [importlib.import_module("krext"), *modules]
        for layer, module in zip(LAYERS, modules):
            for fname in TRACED[layer]:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, wrapper)
        self._patch(np.linalg, "solve", self._wrap_solve(np.linalg.solve))

    def _patch(self, holder, key: str, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patches):
            setattr(holder, key, value)
        self._patches.clear()

    # -- export ------------------------------------------------------

    def graft(self, spans: list[list], parent: int) -> None:
        """Append spans recorded in a child process under one of ours."""
        base = len(self.spans)
        for name, start, end, par, attrs in spans:
            self.spans.append([name, start, end, parent if par < 0 else par + base, attrs])


def _flow_attrs(args, kwargs, res):
    problem = args[0]
    return {"arcs": len(problem.arcs), "nodes": int(problem.n_nodes),
            "flow_arcs": sum(1 for f in res.flow_int if f > 0)}


def _lp_attrs(args, kwargs, res):
    rows, cols = args[0].A.shape
    return {"rows": int(rows), "cols": int(cols), "iterations": int(res.iterations),
            "nonoptimal": int(res.status != "optimal")}


def _read_attrs(args, kwargs, res):
    return {"bytes": Path(args[0]).stat().st_size}


_ATTRS = {
    "optim.solve_flow": _flow_attrs,
    "optim.solve_lp": _lp_attrs,
    "io.read_json": _read_attrs,
}


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list[list], untraced_s: float) -> dict[str, float]:
    """Every per-layer metric, from the spans of one traced pass.

    Root spans are named "op".  An op that ran a CLI child process has
    the child's spans grafted under it and carries a "child" attribute;
    its self time is then start-up: process spawn, interpreter start and
    imports, everything outside cli.main.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[str, float] = defaultdict(float)
    op_s = startup_s = 0.0
    for (name, start, end, _, attrs), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                sums[f"{name}.{key}"] += value
        if name == "op":
            op_s += end - start
            if attrs.get("child"):
                startup_s += s
        elif name == BASIS_SOLVE:
            sums["flops"] += 2.0 / 3.0 * attrs["m"] ** 3

    def total(prefix: str, names) -> float:
        return sum(self_s[f"{prefix}.{n}"] for n in names)

    layer_self = {layer: total(layer, TRACED[layer]) for layer in LAYERS}
    layer_self["optim"] += self_s[BASIS_SOLVE]
    layer_self["cli"] += startup_s
    bench_self = self_s["op"] - startup_s
    io_load = [f for f in TRACED["io"] if f.startswith("load_") or f == "read_json"]
    io_dump = [f for f in TRACED["io"] if f not in io_load]

    m = {
        "optim.solve_flow.calls": calls["optim.solve_flow"],
        "optim.solve_flow.self_s": self_s["optim.solve_flow"],
        "optim.solve_flow.arcs": sums["optim.solve_flow.arcs"],
        "optim.solve_flow.nodes": sums["optim.solve_flow.nodes"],
        "optim.solve_flow.flow_arcs": sums["optim.solve_flow.flow_arcs"],
        "transport.kr_norm.calls": calls["transport.kr_norm"],
        "transport.w1.calls": calls["transport.w1"],
        "transport.self_s": total("transport", ("kr_norm", "w1")),
        "transport.verify_duality.self_s": self_s["transport.verify_duality"],
        "optim.solve_lp.calls": calls["optim.solve_lp"],
        "optim.solve_lp.self_s": self_s["optim.solve_lp"],
        "optim.solve_lp.iterations": sums["optim.solve_lp.iterations"],
        "optim.solve_lp.rows": sums["optim.solve_lp.rows"],
        "optim.solve_lp.cols": sums["optim.solve_lp.cols"],
        "optim.solve_lp.nonoptimal": sums["optim.solve_lp.nonoptimal"],
        "optim.solve_lp.errors": sums["optim.solve_lp.error"],
        "optim.basis_solves": calls[BASIS_SOLVE],
        "optim.basis_solve_s": self_s[BASIS_SOLVE],
        "optim.basis_solve_flops_computed": sums["flops"],
        "projections.synthesize_min_k.self_s": self_s["projections.synthesize_min_k"],
        "projections.projection_constant.calls": calls["projections.projection_constant"],
        "projections.projection_constant.self_s": self_s["projections.projection_constant"],
        "projections.asymptotic_profile.self_s": self_s["projections.asymptotic_profile"],
        "projections.conversions.self_s": total("projections", CONVERSIONS),
        "extension.operator_norm.self_s": self_s["extension.operator_norm"],
        "extension.mcshane_extend.self_s": self_s["extension.mcshane_extend"],
        "extension.extend_by_projection.self_s": self_s["extension.extend_by_projection"],
        "extension.lip_norm.self_s": self_s["extension.lip_norm"],
        "metric.validate_metric.calls": calls["metric.validate_metric"],
        "metric.validate_metric.self_s": self_s["metric.validate_metric"],
        "metric.doubling_estimate.self_s": self_s["metric.doubling_estimate"],
        "io.load_s": total("io", io_load),
        "io.dump_s": total("io", io_dump),
        "io.bytes_read": sums["io.read_json.bytes"],
        "io.bytes_written": sums["op.bytes_written"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.startup_s": startup_s,
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["layer.bench.self_s"] = bench_self
    m["trace.op_s"] = op_s
    m["trace.layer_frac"] = sum(layer_self.values()) / op_s if op_s > 0 else 0.0
    m["trace.overhead_frac"] = op_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    return m


PER_LAYER_UNITS = {
    ".calls": "count", ".arcs": "count", ".nodes": "count", ".flow_arcs": "count",
    ".iterations": "count", ".rows": "count", ".cols": "count",
    ".nonoptimal": "count", ".errors": "count", "basis_solves": "count",
    "flops_computed": "flop", "bytes_read": "B", "bytes_written": "B",
    "_frac": "ratio", "_s": "s",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def main_child(argv: list[str], out: str) -> int:
    """Run krext.cli.main traced in this process and write its spans to out."""
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("krext.cli")
    idx = tracer.begin("cli.main")
    try:
        code = cli.main.__wrapped__(argv)
    finally:
        tracer.end(idx)
        tracer.uninstall()
        Path(out).write_text(json.dumps(tracer.spans))
    return code
