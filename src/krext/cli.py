"""Command-line surface: one subcommand per public operation.

Every subcommand is a thin wrapper — it loads JSON inputs, calls the
library, and serializes the result with 12-significant-digit rounding,
so values printed here are byte-identical to direct library calls run
through the same serializer.  Exit codes: 0 success, 1 contract error,
2 solver failure, 64 usage error, 65 malformed JSON (with line/column).

The default tolerance is 1e-9; the environment variable KREXT_TOL
overrides it, and an explicit --tol flag overrides both.  Every
tolerance is relative, so it must be finite and in [1e-15, 1).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import io as kio
from .errors import ContractError, JsonParseError, SolverError, check_tol
from .metric import Subspace, doubling_estimate, subspace_from_labels, validate_metric

if TYPE_CHECKING:
    from .transport import TransportResult

__all__ = ["main"]

_REPORT_COLUMNS = (
    "n_points", "subset_size", "K_strong", "K_signed",
    "tv_const", "udp_bound", "doubling_est", "runtime_ms",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _comma_labels(text: str) -> list[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of labels")
    return parts


def _comma_ints(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p.strip()]


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:  # argparse's own message for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="krext", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="solver/check tolerance (default 1e-9, or KREXT_TOL)")
    common.add_argument("--out", default=None,
                        help="write the result to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, help, *files):
        p = sub.add_parser(name, parents=[common], help=help)
        for f in files:
            p.add_argument(f)
        p.set_defaults(handler=handler)
        return p

    command("validate", _cmd_validate,
            "check the metric axioms, report every violation", "space")
    command("doubling", _cmd_doubling,
            "greedy upper bound on the doubling constant", "space")
    command("w1", _cmd_w1,
            "Wasserstein-1 distance between two measures of equal mass", "space", "mu", "eta")
    command("krnorm", _cmd_krnorm, "dual-Lipschitz norm of a signed measure", "space", "mu")
    p = command("mcshane", _cmd_mcshane,
                "largest L-Lipschitz extension of a scalar function off a subset", "space", "f")
    p.add_argument("--subset", type=_comma_labels, required=True,
                   help="subset labels, comma separated (must contain the basepoint)")
    p.add_argument("--L", type=float, default=None,
                   help="Lipschitz budget (default: the function's own constant)")
    command("extend", _cmd_extend,
            "linear extension of a subset function through a projection", "space", "proj", "f")
    command("gentle2proj", _cmd_gentle2proj,
            "projection induced by a gentle partition, with both constants", "space", "gentle")
    command("proj2gentle", _cmd_proj2gentle,
            "gentle partition encoding a strong projection", "space", "proj")
    command("tvconst", _cmd_tvconst,
            "weighted total-variation constant of a projection", "space", "proj")
    p = command("udp", _cmd_udp, "two-atom projection for an eps-separated subset", "space")
    p.add_argument("--subset", type=_comma_labels, required=True)
    p.add_argument("--eps", type=float, required=True,
                   help="separation scale; members must be at least eps apart")
    p.add_argument("--t0", required=True, help="reference member label")
    p = command("synthesize", _cmd_synthesize,
                "minimal projection constant onto a subset, by cutting planes", "space")
    p.add_argument("--subset", type=_comma_labels, required=True)
    p.add_argument("--mode", choices=("strong", "signed"), default="strong")
    p = command("asymptotic", _cmd_asymptotic,
                "minimal constants along a growing chain of subsets", "space")
    p.add_argument("--order", type=_comma_labels, default=None,
                   help="point labels in join order, basepoint first "
                        "(default: input order, basepoint moved to the front)")
    command("retract", _cmd_retract,
            "retract a nonnegative vector onto the l1 unit ball", "vector")
    p = command("report", _cmd_report, "comparison table over seeded random subsets", "space")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sizes", type=_comma_ints, default=None,
                   help="subset sizes to sample (default 2..min(n,5))")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    command("shiftbase", _cmd_shiftbase,
            "subtract the basepoint value from a function file", "space", "f")
    return parser


# ---------------------------------------------------------------------------
# handlers; each returns (payload-or-text, exit code) and imports the
# library functions it calls, so a subcommand loads only what it runs


def _transport_payload(res: TransportResult) -> dict:
    labels = res.space.labels
    plan = [
        {"from": labels[i], "to": labels[j], "mass": float(m)}
        for (i, j), m in sorted(res.plan.items())
    ]
    return {
        "value": float(res.value),
        "plan": plan,
        "potentials": {labels[i]: float(g) for i, g in enumerate(res.potentials)},
        "gap": float(res.gap),
    }


def _cmd_validate(args, tol):
    space = kio.load_space(args.space)
    report = validate_metric(space, tol=tol)
    payload = {
        "valid": not report,
        "violations": [
            {
                "kind": v.kind,
                "points": [space.labels[i] for i in v.indices],
                "excess": float(v.excess),
            }
            for v in report
        ],
    }
    return payload, (0 if not report else 1)


def _cmd_doubling(args, tol):
    space = kio.load_space(args.space)
    return {"doubling_estimate": int(doubling_estimate(space))}, 0


def _cmd_w1(args, tol):
    from .transport import w1

    space = kio.load_space(args.space)
    mu = kio.load_measure(args.mu, expected_space=space)
    eta = kio.load_measure(args.eta, expected_space=space)
    return _transport_payload(w1(mu, eta, tol=tol)), 0


def _cmd_krnorm(args, tol):
    from .transport import kr_norm

    space = kio.load_space(args.space)
    mu = kio.load_measure(args.mu, expected_space=space)
    return _transport_payload(kr_norm(mu, tol=tol)), 0


def _cmd_mcshane(args, tol):
    from .extension import lip_norm, mcshane_extend

    space = kio.load_space(args.space)
    subset = subspace_from_labels(space, args.subset)
    f = kio.load_function(args.f, expected_space=space, subspace=subset)
    out = mcshane_extend(subset, f, L=args.L, tol=tol)
    return {"function": kio.dump_function(out), "lip_norm": float(lip_norm(out))}, 0


def _cmd_extend(args, tol):
    from .extension import extend_by_projection, lip_norm

    space = kio.load_space(args.space)
    proj = kio.load_projection(args.proj, expected_space=space)
    f = kio.load_function(args.f, expected_space=space, subspace=proj.subset)
    out = extend_by_projection(proj, f)
    return {"function": kio.dump_function(out), "lip_norm": float(lip_norm(out))}, 0


def _cmd_gentle2proj(args, tol):
    from .projections import gentle_constant, gentle_to_projection, projection_constant

    space = kio.load_space(args.space)
    g = kio.load_gentle(args.gentle, expected_space=space)
    p = gentle_to_projection(g)
    return {
        "projection": kio.dump_projection(p),
        "gentle_constant": float(gentle_constant(g)),
        "projection_constant": float(projection_constant(p, tol=tol)),
    }, 0


def _cmd_proj2gentle(args, tol):
    from .projections import gentle_constant, projection_to_gentle, weighted_tv_constant

    space = kio.load_space(args.space)
    p = kio.load_projection(args.proj, expected_space=space)
    g = projection_to_gentle(p)
    return {
        "gentle": kio.dump_gentle(g),
        "weighted_tv_constant": float(weighted_tv_constant(p)),
        "gentle_constant": float(gentle_constant(g)),
    }, 0


def _cmd_tvconst(args, tol):
    from .projections import projection_constant, weighted_tv_constant

    space = kio.load_space(args.space)
    p = kio.load_projection(args.proj, expected_space=space)
    return {
        "weighted_tv_constant": float(weighted_tv_constant(p)),
        "projection_constant": float(projection_constant(p, tol=tol)),
    }, 0


def _cmd_udp(args, tol):
    from .projections import (
        projection_constant, uniform_discrete_bound, uniform_discrete_projection,
    )

    space = kio.load_space(args.space)
    subset = subspace_from_labels(space, args.subset)
    t0 = space.index(args.t0)
    p = uniform_discrete_projection(space, subset, eps=args.eps, t0=t0, tol=tol)
    return {
        "projection": kio.dump_projection(p),
        "bound": float(uniform_discrete_bound(space, subset, args.eps)),
        "projection_constant": float(projection_constant(p, tol=tol)),
    }, 0


def _cmd_synthesize(args, tol):
    from .projections import synthesize_min_k

    space = kio.load_space(args.space)
    subset = subspace_from_labels(space, args.subset)
    res = synthesize_min_k(space, subset, mode=args.mode, tol=tol)
    return {
        "k_star": float(res.k_star),
        "projection": kio.dump_projection(res.projection),
    }, 0


def _cmd_asymptotic(args, tol):
    from .projections import asymptotic_profile

    space = kio.load_space(args.space)
    order = None
    if args.order is not None:
        order = [space.index(l) for l in args.order]
    entries = asymptotic_profile(space, order=order, tol=tol)
    profile = [
        {
            "size": int(e.size),
            "members": [space.labels[m] for m in e.members],
            "k_star": float(e.k_star),
            "deviations": {
                space.labels[x]: float(v) for x, v in sorted(e.deviations.items())
            },
        }
        for e in entries
    ]
    return {"profile": profile}, 0


def _cmd_retract(args, tol):
    from .projections import retract_l1_ball

    y = kio.load_vector(args.vector)
    g, r = retract_l1_ball(y)
    return {"g": float(g), "r": [float(v) for v in r]}, 0


def _cmd_shiftbase(args, tol):
    from .extension import PointFunction

    space = kio.load_space(args.space)
    raw = kio.read_json(args.f)
    values = raw.get("values") if isinstance(raw, dict) else None
    subset = None
    if isinstance(values, dict) and set(values) != set(space.labels):
        # the file covers a subset; the loader checks it is a valid one
        idx = sorted(space.index(l) for l in values if l in space.labels)
        subset = Subspace(space, tuple(idx))
    f = kio.load_function(args.f, expected_space=space, subspace=subset)
    shifted = f.values - f.values[f.space.basepoint]
    out = PointFunction(f.space, shifted, f.norm)
    dumped = kio.dump_function(out)
    dumped["space"] = kio.dump_space(space)  # keep the parent space binding
    return dumped, 0


def _report_rows(space, sizes, seed: int, tol: float) -> list[dict]:
    import time

    import numpy as np

    from .families import random_subset
    from .projections import synthesize_min_k, uniform_discrete_bound, weighted_tv_constant

    rng = np.random.default_rng(seed)
    n = space.n
    doubl = int(doubling_estimate(space))
    rows = []
    for size in sizes:
        if not (2 <= size <= n):
            raise ContractError(
                f"report subset size {size} out of range [2, {n}]"
            )
        subset = random_subset(rng, space, size)
        start = time.perf_counter()
        strong = synthesize_min_k(space, subset, mode="strong", tol=tol)
        signed = synthesize_min_k(space, subset, mode="signed", tol=tol)
        tv = weighted_tv_constant(strong.projection)
        within = space.dist[np.ix_(subset.members, subset.members)]
        eps = float(within[np.triu_indices(size, 1)].min())
        bound = uniform_discrete_bound(space, subset, eps)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        rows.append({
            "n_points": n,
            "subset_size": int(size),
            "K_strong": float(strong.k_star),
            "K_signed": float(signed.k_star),
            "tv_const": float(tv),
            "udp_bound": float(bound),
            "doubling_est": doubl,
            "runtime_ms": float(elapsed_ms),
        })
    return rows


def _cmd_report(args, tol):
    space = kio.load_space(args.space)
    sizes = args.sizes if args.sizes is not None else list(range(2, min(space.n, 5) + 1))
    rows = _report_rows(space, sizes, seed=args.seed, tol=tol)
    if args.format == "csv":
        import csv
        from io import StringIO

        buf = StringIO()
        writer = csv.DictWriter(buf, fieldnames=_REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(kio.round_floats(row))
        return buf.getvalue(), 0
    return {"rows": rows}, 0


# ---------------------------------------------------------------------------


def _tolerance(args) -> float:
    """--tol, else KREXT_TOL, else 1e-9, checked by check_tol under its source's name."""
    tol, source = args.tol, "--tol"
    if tol is None:
        env = os.environ.get("KREXT_TOL")
        if env is None:
            return 1e-9
        try:
            tol, source = float(env), "KREXT_TOL"
        except ValueError:
            raise ContractError(f"KREXT_TOL must be a number, got {env!r}") from None
    return check_tol(tol, source)


def main(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # usage error (64) or --help (0)
            return int(exc.code or 0)
        payload, code = args.handler(args, _tolerance(args))
        text = payload if isinstance(payload, str) else kio.to_json_text(payload)
        if args.out is not None:
            kio.atomic_write(args.out, text)
        else:
            sys.stdout.write(text)
        return code
    except JsonParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 65
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
