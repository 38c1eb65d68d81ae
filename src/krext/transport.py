"""Optimal transport values on finite pointed metric spaces.

Two entry points.  ``w1`` compares two nonnegative measures of equal
mass and returns the usual earth-mover value together with a coupling.
``kr_norm`` takes an arbitrary signed measure and returns its dual-Lip
norm, i.e. the largest integral against functions that are 1-Lipschitz
and vanish at the basepoint; the basepoint absorbs whatever mass does
not cancel.  Both report certifying potentials and the duality gap.

Both rely on the triangle inequality: a detour through a third point
never beats the direct arc, so the flow problem holds only the support
and the arcs from its positive to its negative part, and the plan is
read straight off the arc flows.  Potentials off the sinks come from
the c-transform g(x) = min over sinks v of g(v) + d(x, v), McShane's
formula, which is 1-Lipschitz on a metric.  The certificate rechecks
every pair of the whole space; on a space that breaks the triangle
inequality a failed certificate is reported as a ContractError naming
the triangle.

Cost per call on an n-point space whose measure has support k: the
interpreted work (supplies, the flow problem and its solve, the plan,
the marginals) grows with k and the at most k^2/4 arcs, next to a few
O(n) vector operations; two array passes grow faster with n: the
c-transform, O(n * sinks), and the certificate's recheck of every
pair, O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SolverError, check_tol
from .measures import SignedMeasure, total_variation
from .metric import FiniteMetricSpace, require_valid_metric
from .optim import FlowProblem, solve_flow

__all__ = ["TransportResult", "w1", "kr_norm", "verify_duality"]


@dataclass(frozen=True)
class TransportResult:
    """Value, witness plan, and dual certificate of a transport solve.

    kind is "w1" or "kr".  For "w1" the plan is a coupling: row sums
    reproduce mu and column sums reproduce eta (diagonal entries are
    mass that stays put).  For "kr" the plan moves mu to zero, with the
    basepoint supplying or absorbing the uncancelled mass.  potentials
    is a vector g with g(basepoint) = 0 and |g_i - g_j| <= d(i, j);
    gap is |value - sum_i coeff_i g_i|.
    """

    kind: str
    space: FiniteMetricSpace
    value: float
    plan: dict[tuple[int, int], float]
    potentials: np.ndarray
    gap: float
    mu: SignedMeasure
    eta: SignedMeasure | None = None


def _transport(space: FiniteMetricSpace, supplies: np.ndarray,
               tol: float) -> tuple[float, dict[tuple[int, int], float], np.ndarray]:
    """Cheapest transport of a balanced supply vector along direct arcs.

    Only the support enters the flow problem, with one arc from every
    source to every sink.  Returns the cost, the plan {(source, sink):
    mass}, and potentials on every point: the c-transform
    g(x) = min over sinks v of g(v) + d(x, v), shifted to vanish at the
    basepoint.
    """
    # the largest supply comes last, where _quantize_balanced puts the
    # rounding of its running sums, so no point changes sides; ties keep
    # index order, as a stable sort over every point would have them
    support = supplies.nonzero()[0]
    nodes = support[np.argsort(np.abs(supplies[support]), kind="stable")]
    node_supplies = supplies[nodes]
    # the points of the positive and of the negative part
    sources, sinks = nodes[node_supplies > 0.0], nodes[node_supplies < 0.0]
    d = space.dist
    res = solve_flow(FlowProblem(node_supplies, d[sources[:, None], sinks]), tol=tol)
    if not sinks.size:
        return res.cost, {}, np.zeros(space.n)

    # arc k runs from sources[k // |sinks|] to sinks[k % |sinks|]
    used = (res.flow > 0.0).nonzero()[0]
    plan = dict(zip(zip(sources[used // sinks.size].tolist(), sinks[used % sinks.size].tolist()),
                    res.flow[used].tolist()))
    g = (res.potentials[node_supplies < 0.0] + d[:, sinks]).min(axis=1)
    g -= g[space.basepoint]
    return res.cost, plan, g


def w1(mu: SignedMeasure, eta: SignedMeasure, tol: float = 1e-9) -> TransportResult:
    """Earth-mover distance between nonnegative measures of equal mass.

    The mass that mu and eta share stays put on the diagonal; the rest
    moves from points where mu exceeds eta to points where eta exceeds mu.
    """
    check_tol(tol)
    if mu.space != eta.space:
        raise ContractError("measures live on different spaces")
    if not mu.is_nonnegative() or not eta.is_nonnegative():
        raise ContractError(
            "w1 needs nonnegative measures on both sides; "
            "compare signed measures with kr_norm of their difference"
        )
    m_mu, m_eta = mu.mass(), eta.mass()
    if abs(m_mu - m_eta) > tol * max(m_mu, m_eta):
        raise ContractError(f"w1 needs equal masses, got {m_mu!r} vs {m_eta!r}")

    space = mu.space
    diff = mu.as_vector() - eta.as_vector()
    # the mass check allows a drift up to tol; the largest entry takes it
    # before the sides are read off, so every source keeps a sink to feed
    supplies = diff.copy()
    supplies[np.abs(diff).argmax()] -= math.fsum(diff.tolist())
    value, plan, g = _transport(space, supplies, tol)
    # mass both measures hold stays put; their coefficients are positive
    shared = eta.coeff
    plan.update({(i, i): min(c, shared[i]) for i, c in mu.coeff.items() if i in shared})

    dual = math.fsum((diff * g).tolist())
    out = TransportResult("w1", space, value, plan, g, abs(value - dual), mu, eta)
    _certify(out, tol)
    return out


def kr_norm(mu: SignedMeasure, tol: float = 1e-9) -> TransportResult:
    """Dual-Lipschitz norm of a signed measure, basepoint fixed at zero.

    Equals the least cost of transporting mu to the zero measure when
    the basepoint may emit or swallow mass for free.  The plan runs from
    the positive part (with the basepoint if it must emit) to the
    negative part (with the basepoint if it must swallow).  For point
    masses, kr_norm(dirac(x) - dirac(y)) is exactly d(x, y).
    """
    check_tol(tol)
    space = mu.space
    bp = space.basepoint
    coeff = mu.as_vector()
    supplies = coeff.copy()
    supplies[bp] = -math.fsum(c for i, c in mu.coeff.items() if i != bp)
    value, plan, g = _transport(space, supplies, tol)
    dual = math.fsum((coeff * g).tolist())
    out = TransportResult("kr", space, value, plan, g, abs(value - dual), mu, None)
    _certify(out, tol)
    return out


def _certify(result: TransportResult, tol: float) -> None:
    ok, msg = verify_duality(result, tol=tol)
    if not ok:
        # a broken triangle is the usual cause: name it as a bad input
        require_valid_metric(result.space, tol)
        raise SolverError(f"transport certificate failed: {msg}")


def verify_duality(result: TransportResult, tol: float = 1e-9) -> tuple[bool, str]:
    """Recheck a transport result from scratch.

    Returns (True, "ok") or (False, reason); the reason names the first
    broken condition: a value, gap, potential or plan mass that is not
    finite, a potential pair that stretches farther than the distance, a
    nonzero basepoint value, a negative or misaligned plan, marginals
    that miss the measures, or a primal/dual value mismatch.
    """
    check_tol(tol)
    space = result.space
    n = space.n
    d = space.dist
    g = np.asarray(result.potentials, dtype=float)
    # each tolerance is in the units of what it bounds: distances,
    # masses, or costs; none has a unit floor, so all stay relative
    diam = float(space.diameter)
    mass = total_variation(result.mu)
    if result.eta is not None:
        mass = max(mass, total_variation(result.eta))
    tol_d = tol * diam
    tol_m = tol * mass
    keys = list(result.plan)
    fv = np.array(list(result.plan.values()), dtype=float)

    # NaN fails every comparison below, so non-finite numbers are refused first
    if not (math.isfinite(result.value) and math.isfinite(result.gap)):
        return False, f"value {result.value!r} or gap {result.gap!r} is not finite"
    if not np.isfinite(g).all():
        i = int(np.isfinite(g).argmin())
        return False, f"potential at {space.labels[i]!r} is {float(g[i])!r}, not finite"
    if not np.isfinite(fv).all():
        k = int(np.isfinite(fv).argmin())
        return False, f"plan entry {keys[k]} is {float(fv[k])!r}, not finite"

    if abs(float(g[space.basepoint])) > tol_d:
        return False, f"potential at the basepoint is {float(g[space.basepoint]):.3e}, not 0"
    # excess[i, j] = g_i - g_j - d(i, j): +inf arises only where the true value
    # passes every finite distance, a stretch the check reports, and -inf only
    # on the safe side
    with np.errstate(over="ignore"):
        excess = np.subtract.outer(g, g)
        excess -= d
    np.fill_diagonal(excess, -np.inf)
    stretched = excess > tol_d
    if stretched.any():
        i, j = np.argwhere(stretched)[0]   # row-major order
        a, bl = space.labels[i], space.labels[j]
        return False, (
            f"potential stretches pair ({a!r}, {bl!r}) by {excess[i, j]:.3e} beyond their distance"
        )

    ij = np.array(keys, dtype=np.int64).reshape(-1, 2)
    # one all-good check, where a negative index reads as a huge unsigned
    # one; the scan names the first offender
    if not (ij.view(np.uint64).max(initial=0) < n and fv.min(initial=0.0) >= -tol_m):
        outside = ~np.all((ij >= 0) & (ij < n), axis=1)
        broken = np.flatnonzero(outside | (fv < -tol_m))
        if broken.size:
            k = int(broken[0])
            i, j = keys[k]
            if outside[k]:
                return False, f"plan entry ({i}, {j}) indexes outside the space"
            return False, f"plan entry ({i}, {j}) is negative: {fv[k]:.3e}"
    src, dst = ij[:, 0], ij[:, 1]

    plan_cost = math.fsum((fv * d[src, dst]).tolist())
    # tol_m * diam, not tol * (mass * diam): the product overflows to inf at
    # distances near the largest float, which would pass any value
    tol_c = max(tol * abs(result.value), tol_m * diam)
    if abs(plan_cost - result.value) > tol_c:
        return False, (
            f"plan cost {plan_cost!r} disagrees with the reported value {result.value!r}"
        )

    coeff = result.mu.as_vector()
    if result.kind == "w1":
        if result.eta is None:
            return False, "a w1 result must carry both measures"
        eta = result.eta.as_vector()
        row = np.bincount(src, weights=fv, minlength=n)
        col = np.bincount(dst, weights=fv, minlength=n)
        bad_row = np.abs(row - coeff) > tol_m
        bad_col = np.abs(col - eta) > tol_m
        missed = (bad_row | bad_col).nonzero()[0]
        if missed.size:
            i = int(missed[0])
            if bad_row[i]:
                return False, f"plan row {i} sums to {float(row[i])!r}, expected mu = {result.mu[i]!r}"
            return False, f"plan column {i} sums to {float(col[i])!r}, expected eta = {result.eta[i]!r}"
    else:
        # out-flow minus in-flow per node, each an exactly rounded sum;
        # a node the plan does not touch has divergence 0.0
        terms: dict[int, list[float]] = {}
        for (a, b), m in result.plan.items():
            terms.setdefault(a, []).append(m)
            terms.setdefault(b, []).append(0.0 - m)
        div = np.zeros(n)
        div[list(terms)] = [math.fsum(t) for t in terms.values()]
        off = np.abs(div - coeff) > tol_m
        off[space.basepoint] = False
        missed = off.nonzero()[0]
        if missed.size:
            i = int(missed[0])
            return False, (
                f"plan divergence at node {i} is {float(div[i])!r}, "
                f"expected coefficient {result.mu[i]!r}"
            )

    if result.kind == "w1":
        coeff = coeff - eta
    dual = math.fsum((coeff * g).tolist())
    if abs(dual - result.value) > tol_c:
        return False, f"duality gap {abs(dual - result.value):.3e} exceeds tolerance"
    return True, "ok"
