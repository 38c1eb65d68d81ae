"""The three workloads: their inputs, operations and output checks.

Each workload builds its inputs from the seed in ``setup`` and yields an
endless cyclic schedule of operations.  An operation is one timed call
(``run``) plus an untimed check of its output (``check``), which returns
None when the output is right, or a reason.  Checks never trust the
call they check: they recompute what they compare against, from another
route where one exists.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from krext import SignedMeasure, Subspace, FiniteMetricSpace
from krext import extension, metric, projections, transport
from krext import io as kio

import gen

try:
    from scipy.optimize import linprog
except ImportError:  # scipy is an optional oracle, not a krext dependency
    linprog = None

# relative agreement demanded of two certified values of one quantity;
# the library certifies each to 1e-9 of the problem scale
AGREE = 1e-8


@dataclass
class Op:
    kind: str
    props: dict
    run: Callable[[bool], object]
    check: Callable[[object], str | None]


class Failure(Exception):
    """An operation that was refused or raised; not a wrong answer."""


def close(a: float, b: float, rel: float = AGREE) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# transport


@dataclass
class TransportInstance:
    key: int
    kind: str                       # "kr" or "w1"
    geometry: str
    sparse: bool
    space: FiniteMetricSpace
    measures: tuple[SignedMeasure, ...]

    def props(self, scale: float) -> dict:
        return {"n": self.space.n, "kind": self.kind, "geometry": self.geometry,
                "support": len(self.measures[0].support), "sparse": self.sparse,
                "scale": scale, "rescaled": scale != 1.0, "signed": self.kind == "kr"}


def _rescaled(inst: TransportInstance, s: float) -> tuple[SignedMeasure, ...]:
    sp = inst.space
    space = FiniteMetricSpace(sp.labels, sp.dist * s, sp.basepoint)
    return tuple(SignedMeasure(space, mu.coeff) for mu in inst.measures)


def _solve(kind: str, measures):
    return transport.kr_norm(*measures) if kind == "kr" else transport.w1(*measures)


def _transport_lp_value(space: FiniteMetricSpace, supplies: np.ndarray) -> float:
    """Transport cost on the complete graph, by scipy's LP solver."""
    n = space.n
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    A = np.zeros((n, len(arcs)))
    for k, (i, j) in enumerate(arcs):
        A[i, k] += 1.0
        A[j, k] -= 1.0
    keep = [i for i in range(n) if i != space.basepoint]
    cost = [space.dist[i, j] for i, j in arcs]
    res = linprog(cost, A_eq=A[keep], b_eq=supplies[keep], bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"scipy linprog: {res.message}")
    return float(res.fun)


class Transport:
    """kr_norm and w1 on full and sparse supports, with a scale sweep."""

    name = "transport"
    SIZES = (40, 70, 100)
    GEOMETRIES = ("euclid", "repaired")
    # Timed scales stop at 1e-8: below it the flow solver's fixed 2**-60
    # quantization grid loses the distances, and kr_norm/w1 return wrong
    # values with a zero gap (ROADMAP, scale-correct numeric core).  Those
    # operations would make every run incorrect, so they run once per run
    # in `probe`, untimed, and are reported as a known defect.
    SCALES = tuple(10.0 ** k for k in range(-8, 16) if k != 0)
    PROBE_SCALES = tuple(10.0 ** k for k in range(-25, -8))
    # A quarter of the operations are reruns at the next scales, all on
    # the n=70 sparse instances: those sit mid-way in the op-time ranking,
    # so the median op falls inside one group of like operations rather
    # than in the gap between two, where it would jump between runs.
    RESCALED_N = 70
    RESCALES = 2             # reruns per n=70 sparse instance
    # Every schedule cycle runs each combination once, on instances made
    # fresh for that cycle (between operations, untimed): a run of k
    # cycles averages over k instances of each combination, so its
    # figures depend little on the seed.  A round is one cycle.
    POOL = 1
    ORACLE_MAX_N = 40

    def setup(self, seed: int, workdir: Path) -> list[TransportInstance]:
        self.combos = list(itertools.product(self.SIZES, self.GEOMETRIES, (False, True), ("kr", "w1")))
        self.seed = seed
        self.unit_value: dict[int, float] = {}
        self.checked_once: set[int] = set()
        self.sampled = len(self.combos)
        return self._cycle(0)

    def _cycle(self, c: int) -> list[TransportInstance]:
        cycle = []
        for j, (n, geometry, sparse, kind) in enumerate(self.combos):
            rng = gen.rng_for(self.seed, c, j)
            space = (gen.euclid_space(rng, n) if geometry == "euclid"
                     else gen.repaired_space(rng, n))
            if kind == "kr":
                measures = (gen.signed_measure(rng, space, sparse),)
            else:
                measures = (gen.probability(rng, space, sparse), gen.probability(rng, space, sparse))
            cycle.append(TransportInstance(c * len(self.combos) + j, kind, geometry, sparse,
                                           space, measures))
        return cycle

    def schedule(self, first: list[TransportInstance]) -> "itertools.Iterator[Op]":
        scales = itertools.cycle(self.SCALES)
        for c in itertools.count():
            for inst in first if c == 0 else self._cycle(c):
                yield self._op(inst, 1.0, inst.measures)
                for _ in range(self._reruns(inst)):
                    s = next(scales)
                    yield self._op(inst, s, _rescaled(inst, s))

    def _reruns(self, inst: TransportInstance) -> int:
        return self.RESCALES if inst.sparse and inst.space.n == self.RESCALED_N else 0

    def cycle_len(self, first: list[TransportInstance]) -> int:
        return sum(1 + self._reruns(inst) for inst in first)

    def _op(self, inst: TransportInstance, scale: float, measures) -> Op:
        return Op(inst.kind, inst.props(scale),
                  lambda traced: _solve(inst.kind, measures),
                  lambda res: self._check(inst, scale, res))

    def _check(self, inst: TransportInstance, scale: float, res) -> str | None:
        ok, msg = transport.verify_duality(res)
        if not ok:
            return f"certificate: {msg}"
        if scale != 1.0:
            ref = self.unit_value.get(inst.key)
            if ref is None:
                ref = _solve(inst.kind, inst.measures).value
            if not close(res.value, scale * ref):
                return (f"homogeneity: value {res.value!r} at scale {scale:g}, "
                        f"expected {scale * ref!r}")
            return None
        self.unit_value[inst.key] = res.value
        if inst.key >= self.sampled or inst.key in self.checked_once:
            return None
        self.checked_once.add(inst.key)
        return self._check_sample(inst, res)

    def probe(self, first: list[TransportInstance]) -> list[str]:
        """Rerun the smallest kr instance at each scale below the timed range.

        Returns one line per wrong answer; these operations are not part
        of the measured mix and do not count as attempted.
        """
        inst = next(i for i in first if i.kind == "kr")
        ref = _solve(inst.kind, inst.measures).value
        found = []
        for s in self.PROBE_SCALES:
            try:
                res = _solve(inst.kind, _rescaled(inst, s))
            except Exception as exc:
                found.append(f"{inst.kind} n={inst.space.n} at scale {s:g} raised "
                             f"{type(exc).__name__}: {exc}")
                continue
            if not close(res.value, s * ref):
                found.append(f"{inst.kind} n={inst.space.n} at scale {s:g}: value {res.value!r}, "
                             f"expected {s * ref!r}, reported gap {res.gap!r}")
        return found

    def _check_sample(self, inst: TransportInstance, res) -> str | None:
        """Dirac isometry on one pair, and the scipy oracle on small spaces.

        Run once for each instance of the first cycle, which covers
        every size, geometry, support and kind.
        """
        space = inst.space
        rng = gen.rng_for(self.seed, inst.key, 7)
        x, y = (int(i) for i in rng.choice(space.n, size=2, replace=False))
        diff = SignedMeasure(space, {x: 1.0, y: -1.0})
        got = transport.kr_norm(diff).value
        if not close(got, space.d(x, y)):
            return f"Dirac isometry: kr(d{x} - d{y}) = {got!r}, d = {space.d(x, y)!r}"
        if linprog is not None and space.n <= self.ORACLE_MAX_N:
            supplies = inst.measures[0].as_vector()
            if inst.kind == "w1":
                supplies = supplies - inst.measures[1].as_vector()
            want = _transport_lp_value(space, supplies)
            if not close(res.value, want, 1e-7):
                return f"scipy oracle: value {res.value!r}, linprog {want!r}"
        return None


# ---------------------------------------------------------------------------
# synthesis


@dataclass
class SynthesisInstance:
    key: int
    space: FiniteMetricSpace
    subset: Subspace | None      # None for an asymptotic profile


class Synthesis:
    """Minimal projection constants by the dense simplex, checked by transport."""

    name = "synthesis"
    SIZES = ((8, 3), (9, 4), (10, 4), (10, 5), (11, 4))
    PROFILE_N = 8
    POOL = 4
    ORACLE_MAX_N = 9

    def setup(self, seed: int, workdir: Path) -> list[list[SynthesisInstance]]:
        pool = []
        for c in range(self.POOL):
            cycle = []
            for j, (n, m) in enumerate(self.SIZES):
                rng = gen.rng_for(seed, c, j)
                space = gen.euclid_space(rng, n)
                cycle.append(SynthesisInstance(len(cycle) + 100 * c, space, gen.subset(rng, space, m)))
            rng = gen.rng_for(seed, c, len(self.SIZES))
            cycle.append(SynthesisInstance(len(cycle) + 100 * c,
                                           gen.euclid_space(rng, self.PROFILE_N), None))
            pool.append(cycle)
        self.strong_k: dict[int, float] = {}
        self.oracle_done: set[tuple[int, str]] = set()
        return pool

    def schedule(self, pool):
        for c in itertools.count():
            for inst in pool[c % self.POOL]:
                if inst.subset is None:
                    yield self._profile_op(inst)
                else:
                    yield self._synth_op(inst, "strong")
                    yield self._synth_op(inst, "signed")

    def cycle_len(self, pool) -> int:
        return 2 * len(self.SIZES) + 1

    def _synth_op(self, inst: SynthesisInstance, mode: str) -> Op:
        props = {"n": inst.space.n, "m": inst.subset.size, "mode": mode,
                 "signed": mode == "signed", "instance": inst.key}
        return Op("synthesize_min_k", props,
                  lambda traced: projections.synthesize_min_k(inst.space, inst.subset, mode=mode),
                  lambda res: self._check_synth(inst, mode, res))

    def _check_synth(self, inst: SynthesisInstance, mode: str, res) -> str | None:
        k = res.k_star
        if not (math.isfinite(k) and k >= 1.0 - 1e-9):
            return f"K* = {k!r}, but a subset with two members forces K* >= 1"
        kp = projections.projection_constant(res.projection)
        if not close(k, kp, 1e-7):
            return f"K* = {k!r} but projection_constant of its projection = {kp!r}"
        if mode == "strong":
            self.strong_k[inst.key] = k
        elif inst.key in self.strong_k and k > self.strong_k[inst.key] * (1 + 1e-7):
            return f"signed K* = {k!r} exceeds strong K* = {self.strong_k[inst.key]!r}"
        return self._oracle(inst, mode, k)

    def _oracle(self, inst: SynthesisInstance, mode: str, k: float) -> str | None:
        """Solve the LP that synthesize_min_k builds with scipy, on small instances."""
        if linprog is None or inst.space.n > self.ORACLE_MAX_N or (inst.key, mode) in self.oracle_done:
            return None
        self.oracle_done.add((inst.key, mode))
        captured = []
        original = projections.solve_lp

        def capture(lp, *args, **kwargs):
            captured.append(lp)
            return original(lp, *args, **kwargs)

        projections.solve_lp = capture
        try:
            projections.synthesize_min_k(inst.space, inst.subset, mode=mode)
        finally:
            projections.solve_lp = original
        want = _scipy_lp_value(captured[0])
        if not close(k, want, 1e-7):
            return f"scipy oracle: K* = {k!r}, linprog {want!r}"
        return None

    def _profile_op(self, inst: SynthesisInstance) -> Op:
        props = {"n": inst.space.n, "mode": "profile", "signed": False, "instance": inst.key}
        return Op("asymptotic_profile", props,
                  lambda traced: projections.asymptotic_profile(inst.space),
                  lambda entries: self._check_profile(inst, entries))

    def _check_profile(self, inst: SynthesisInstance, entries) -> str | None:
        n = inst.space.n
        if [e.size for e in entries] != list(range(1, n + 1)):
            return "profile sizes are not 1..n"
        for e in entries:
            bad = [x for x in e.members if e.deviations[x] != 0.0]
            if bad:
                return f"member deviation nonzero at size {e.size}: points {bad}"
            floor = 0.0 if e.size == 1 else 1.0 - 1e-9
            if not (math.isfinite(e.k_star) and e.k_star >= floor):
                return f"K* = {e.k_star!r} at size {e.size}"
        if not close(entries[-1].k_star, 1.0, 1e-9):
            return f"K* of the full set is {entries[-1].k_star!r}, not 1"
        mid = entries[n // 2]
        want = projections.synthesize_min_k(inst.space, Subspace(inst.space, mid.members)).k_star
        if not close(mid.k_star, want, 1e-7):
            return f"K* at size {mid.size} is {mid.k_star!r}, a direct synthesis gives {want!r}"
        return None


def _scipy_lp_value(lp) -> float:
    """Optimum of a krext LinearProgram by scipy; raises if scipy finds none."""
    eq = [i for i, s in enumerate(lp.senses) if s == "=="]
    le = [i for i, s in enumerate(lp.senses) if s == "<="]
    ge = [i for i, s in enumerate(lp.senses) if s == ">="]
    A_ub = np.vstack([lp.A[le], -lp.A[ge]])
    b_ub = np.concatenate([lp.b[le], -lp.b[ge]])
    bounds = [(None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
              for lo, hi in zip(lp.lb, lp.ub)]
    sign = -1.0 if lp.maximize else 1.0
    res = linprog(sign * lp.c, A_ub=A_ub, b_ub=b_ub, A_eq=lp.A[eq], b_eq=lp.b[eq],
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"scipy linprog: {res.message}")
    return sign * float(res.fun)


# ---------------------------------------------------------------------------
# command-line toolkit


def _write(path: Path, obj) -> None:
    # full float precision, so the files hold exactly the generated values
    path.write_text(json.dumps(obj))


def _approx(got, want, where: str = "") -> str | None:
    """Compare a parsed payload with the keys of an expected one."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object"
        for k, v in want.items():
            if k not in got:
                return f"{where}.{k}: missing"
            reason = _approx(got[k], v, f"{where}.{k}")
            if reason:
                return reason
        return None
    if isinstance(want, (list, tuple)):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: expected a list of {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            reason = _approx(g, w, f"{where}[{i}]")
            if reason:
                return reason
        return None
    if isinstance(want, float):
        # the CLI prints 12 significant digits
        ok = isinstance(got, (int, float)) and abs(got - want) <= 1e-9 * max(abs(want), 1e-12)
    else:
        ok = got == want
    return None if ok else f"{where}: got {got!r}, library gives {want!r}"


@dataclass
class Command:
    sub: str
    args: list[str]
    n: int
    reference: Callable[[], dict]
    out: bool = False
    compare: Callable[[dict, dict], str | None] = _approx
    expected: dict | None = field(default=None, repr=False)


def _values(f) -> dict:
    return {"values": {f.space.labels[i]: [float(v) for v in f.values[i]] for i in range(f.space.n)}}


def _check_report(got: dict, want: dict) -> str | None:
    """Report rows sample their own subsets; check what does not depend on which."""
    rows = got.get("rows")
    if not isinstance(rows, list) or len(rows) != len(want["sizes"]):
        return "report: wrong number of rows"
    for row, size in zip(rows, want["sizes"]):
        if row.get("subset_size") != size or row.get("doubling_est") != want["doubling"]:
            return f"report row {size}: size or doubling estimate differs from the library"
        ks, kg = row["K_strong"], row["K_signed"]
        tol = 1e-9 * max(1.0, ks)
        if not (1.0 - tol <= kg <= ks + tol and ks <= min(row["tv_const"], row["udp_bound"]) + tol):
            return f"report row {size}: needs 1 <= K_signed <= K_strong <= min(tv_const, udp_bound)"
    return None


class Toolkit:
    """One krext CLI process per operation, on small JSON files."""

    name = "toolkit"
    POOL = 1
    TIMEOUT_S = 120

    def setup(self, seed: int, workdir: Path) -> list[Command]:
        workdir.mkdir(parents=True, exist_ok=True)
        self.dir = w = workdir
        rng = gen.rng_for(seed)
        sp30, sp20, sp12 = (gen.euclid_space(rng, n) for n in (30, 20, 12))
        sp8, sp7 = gen.euclid_space(rng, 8), gen.euclid_space(rng, 7)
        for name, sp in (("s30", sp30), ("s20", sp20), ("s12", sp12), ("s8", sp8), ("s7", sp7)):
            _write(w / f"{name}.json", kio.dump_space(sp))

        def measure_file(name, mu, space_file):
            _write(w / name, {"space": space_file, "coeff": kio.dump_measure(mu)["coeff"]})

        measure_file("mu.json", gen.signed_measure(rng, sp30, sparse=False), "s30.json")
        measure_file("pa.json", gen.probability(rng, sp30, sparse=True), "s30.json")
        measure_file("pb.json", gen.probability(rng, sp30, sparse=False), "s30.json")

        sub8 = gen.subset(rng, sp30, 8)
        sub_labels = [sp30.labels[m] for m in sub8.members]
        _write(w / "f.json", {"space": "s30.json", "dim": 1, "norm": "abs",
                              "values": {lab: float(v) for lab, v in
                                         zip(sub_labels, rng.uniform(-3, 3, sub8.size))}})

        sub4 = gen.subset(rng, sp12, 4)
        proj = gen.strong_projection(rng, sub4)
        _write(w / "proj.json", dict(kio.dump_projection(proj), space="s12.json"))
        local = sub4.to_space()
        vals = rng.uniform(-2, 2, size=(local.n, 2))
        vals[local.basepoint] = 0.0
        _write(w / "fext.json", {"space": "s12.json", "dim": 2, "norm": "sup",
                                 "values": {local.labels[i]: vals[i].tolist() for i in range(local.n)}})
        gentle = gen.gentle_partition(rng, gen.subset(rng, sp12, 4), outcomes=6)
        _write(w / "gentle.json", dict(kio.dump_gentle(gentle), space="s12.json"))

        udp_sub = gen.subset(rng, sp20, 5)
        eps = min(sp20.d(a, b) for a in udp_sub.members for b in udp_sub.members if a < b)
        udp_labels = ",".join(sp20.labels[m] for m in udp_sub.members)
        t0 = sp20.labels[udp_sub.members[0]]
        syn_sub = gen.subset(rng, sp8, 3)
        syn_labels = ",".join(sp8.labels[m] for m in syn_sub.members)
        y = rng.uniform(0.0, 0.3, size=30)
        _write(w / "y.json", {"y": y.tolist()})
        report_seed = int(rng.integers(1 << 16))

        def load(kind, *names):
            loader = getattr(kio, f"load_{kind}")
            return loader(str(w / names[0]), *(kio.load_space(str(w / n)) for n in names[1:]))

        def mcshane_ref():
            space = load("space", "s30.json")
            sub = metric.subspace_from_labels(space, sub_labels)
            f = kio.load_function(str(w / "f.json"), expected_space=space, subspace=sub)
            out = extension.mcshane_extend(sub, f)
            return {"function": _values(out), "lip_norm": extension.lip_norm(out)}

        def extend_ref():
            p = load("projection", "proj.json", "s12.json")
            f = kio.load_function(str(w / "fext.json"), expected_space=p.space, subspace=p.subset)
            out = extension.extend_by_projection(p, f)
            return {"function": _values(out), "lip_norm": extension.lip_norm(out)}

        def udp_ref():
            space = load("space", "s20.json")
            sub = metric.subspace_from_labels(space, udp_labels.split(","))
            p = projections.uniform_discrete_projection(space, sub, eps=eps, t0=space.index(t0))
            return {"bound": projections.uniform_discrete_bound(space, sub, eps),
                    "projection_constant": projections.projection_constant(p)}

        def gentle2proj_ref():
            g = load("gentle", "gentle.json", "s12.json")
            return {"gentle_constant": projections.gentle_constant(g),
                    "projection_constant":
                        projections.projection_constant(projections.gentle_to_projection(g))}

        def proj2gentle_ref():
            p = load("projection", "proj.json", "s12.json")
            return {"weighted_tv_constant": projections.weighted_tv_constant(p),
                    "gentle_constant": projections.gentle_constant(projections.projection_to_gentle(p))}

        def tvconst_ref():
            p = load("projection", "proj.json", "s12.json")
            return {"weighted_tv_constant": projections.weighted_tv_constant(p),
                    "projection_constant": projections.projection_constant(p)}

        def synth_ref():
            space = load("space", "s8.json")
            sub = metric.subspace_from_labels(space, syn_labels.split(","))
            return {"k_star": projections.synthesize_min_k(space, sub).k_star}

        def profile_ref():
            entries = projections.asymptotic_profile(load("space", "s7.json"))
            return {"profile": [{"size": e.size, "k_star": e.k_star} for e in entries]}

        def retract_ref():
            g, r = projections.retract_l1_ball(kio.load_vector(str(w / "y.json")))
            return {"g": float(g), "r": [float(v) for v in r]}

        return [
            Command("validate", ["s30.json"], 30, lambda: {"valid": True, "violations": []}),
            Command("doubling", ["s20.json"], 20, lambda: {
                "doubling_estimate": metric.doubling_estimate(load("space", "s20.json"))}),
            Command("krnorm", ["s30.json", "mu.json"], 30, lambda: {
                "value": transport.kr_norm(load("measure", "mu.json", "s30.json")).value}, out=True),
            Command("w1", ["s30.json", "pa.json", "pb.json"], 30, lambda: {
                "value": transport.w1(load("measure", "pa.json", "s30.json"),
                                      load("measure", "pb.json", "s30.json")).value}),
            Command("mcshane", ["s30.json", "f.json", "--subset", ",".join(sub_labels)], 30,
                    mcshane_ref, out=True),
            Command("extend", ["s12.json", "proj.json", "fext.json"], 12, extend_ref),
            Command("udp", ["s20.json", "--subset", udp_labels, "--eps", repr(eps), "--t0", t0],
                    20, udp_ref, out=True),
            Command("tvconst", ["s12.json", "proj.json"], 12, tvconst_ref),
            Command("gentle2proj", ["s12.json", "gentle.json"], 12, gentle2proj_ref, out=True),
            Command("proj2gentle", ["s12.json", "proj.json"], 12, proj2gentle_ref),
            Command("synthesize", ["s8.json", "--subset", syn_labels], 8, synth_ref, out=True),
            Command("asymptotic", ["s7.json"], 7, profile_ref),
            Command("retract", ["y.json"], 30, retract_ref, out=True),
            Command("report", ["s8.json", "--sizes", "2,3", "--seed", str(report_seed)], 8,
                    lambda: {"sizes": [2, 3],
                             "doubling": metric.doubling_estimate(load("space", "s8.json"))},
                    compare=_check_report),
        ]

    def schedule(self, commands: list[Command]):
        for i in itertools.count():
            yield self._op(commands[i % len(commands)], i)

    def cycle_len(self, commands) -> int:
        return len(commands)

    def _op(self, cmd: Command, i: int) -> Op:
        props = {"n": cmd.n, "subcommand": cmd.sub, "out": cmd.out, "signed": cmd.sub == "krnorm"}
        return Op(f"cli.{cmd.sub}", props, lambda traced: self._spawn(cmd, i, traced),
                  lambda res: self._check(cmd, res))

    def _spawn(self, cmd: Command, i: int, traced: bool) -> dict:
        out_name = f"out{i}.json" if cmd.out else None
        argv = [cmd.sub, *cmd.args] + (["--out", out_name] if out_name else [])
        spans_path = self.dir / f"spans{i}.json"
        if traced:
            prefix = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans_path)]
        else:
            prefix = [sys.executable, "-m", "krext.cli"]
        proc = subprocess.run(prefix + argv, cwd=self.dir, capture_output=True,
                              text=True, timeout=self.TIMEOUT_S)
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise Failure(f"exit code {proc.returncode}: {last[0]}")
        text = proc.stdout
        if out_name:
            text = (self.dir / out_name).read_text()
            (self.dir / out_name).unlink()
        result = {"text": text, "bytes_written": len(text.encode())}
        if traced:
            result["spans"] = json.loads(spans_path.read_text())
            spans_path.unlink()
        return result

    def _check(self, cmd: Command, res: dict) -> str | None:
        try:
            payload = json.loads(res["text"])
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if cmd.expected is None:
            cmd.expected = cmd.reference()
        return cmd.compare(payload, cmd.expected)


WORKLOADS = {w.name: w for w in (Transport, Synthesis, Toolkit)}
