"""Gentle partitions of unity, random projections, and their calculus.

A random projection assigns to every point x of the ambient space a
measure rows[x] supported on a subset M, with rows[x] = delta_x inside
M.  Its quality is the least K with dual-Lip distance between rows at
most K*d(x, y) for all pairs; strong projections carry probability
measures.  A gentle partition is the density-side picture: a finite
probability space (Omega, P), a nonnegative density matrix psi, and an
anchor map gamma into M.  The two pictures convert into each other.

Every computation reads a projection through its coefficient matrix
coeffs, of shape (n, |M|), so the constants, conversions and synthesis
are array expressions.  The round trip projection -> partition ->
projection is coefficient-exact: the partition weights are dyadic
(powers of two), so dividing and re-multiplying coefficients by them
loses nothing, and each push-forward sum has a single nonzero term.  The
constants are plain floating-point sums over members, not exactly
rounded ones; gentle_constant of the encoding of a projection still
equals its weighted_tv_constant bit for bit, because both go through
one helper with term-by-term equal inputs.

Also here: the explicit two-atom construction for uniformly discrete
subsets, minimal-K synthesis by cutting planes whose cuts are kr_norm
potentials, the asymptotic subset-growth experiment, and the
water-filling retraction onto the nonnegative l1 ball.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, SolverError, check_tol
from .measures import SignedMeasure
from .metric import FiniteMetricSpace, Subspace
from .optim import LinearProgram, solve_lp
from .transport import TransportResult, kr_norm

__all__ = [
    "GentlePartition",
    "RandomProjection",
    "SynthesisResult",
    "ProfileEntry",
    "identity_projection",
    "gentle_constant",
    "gentle_to_projection",
    "projection_constant",
    "weighted_tv_constant",
    "projection_to_gentle",
    "uniform_discrete_projection",
    "uniform_discrete_bound",
    "synthesize_min_k",
    "asymptotic_profile",
    "retract_l1_ball",
]

# absolute slack for checks on O(1) probabilities, whose constructors take no tol
_VALID_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GentlePartition:
    """Finite probability space with anchored densities over a subset.

    weights is the probability vector P over Omega; psi[w, x] >= 0 is
    the density of outcome w at point x; gamma[w] is the anchor of w, a
    member of the subset.  Columns of exterior points average to one
    under P.  Columns of member points are either identically zero or
    push forward to the point mass at that member — both encode the
    same induced projection row delta_x, and the second form is what
    projection_to_gentle produces so that the round trip is exact.
    weights and psi are stored as read-only copies.
    """

    subset: Subspace
    weights: np.ndarray
    psi: np.ndarray
    gamma: tuple[int, ...]

    def __post_init__(self):
        sub = self.subset
        space = sub.parent
        n = space.n
        # copies, so marking them read-only leaves the caller's arrays alone
        weights = np.array(self.weights, dtype=float)
        psi = np.array(self.psi, dtype=float)
        gamma = tuple(int(g) for g in self.gamma)
        if weights.ndim != 1 or weights.size == 0:
            raise ContractError("weights must be a nonempty vector")
        k = weights.size
        if psi.shape != (k, n):
            raise ContractError(f"psi must have shape ({k}, {n}), got {psi.shape}")
        if len(gamma) != k:
            raise ContractError("gamma must assign an anchor to every outcome")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(psi))):
            raise ContractError("weights and psi must be finite")
        if np.any(weights < -_VALID_TOL):
            raise ContractError("weights must be nonnegative")
        total = math.fsum(float(w) for w in weights)
        if abs(total - 1.0) > _VALID_TOL:
            raise ContractError(f"weights must sum to 1, got {total!r}")
        if np.any(psi < -_VALID_TOL):
            w, x = map(int, np.argwhere(psi < -_VALID_TOL)[0])
            raise ContractError(f"psi[{w}, {x}] = {psi[w, x]!r} is negative")
        members = np.array(sub.members)
        outside = np.flatnonzero(~np.isin(gamma, members))
        if outside.size:
            w = int(outside[0])
            raise ContractError(f"gamma[{w}] = {gamma[w]} is not a subset member")
        avg = weights @ psi
        push = _anchor_matrix(members, gamma) @ (weights[:, None] * psi)   # (|M|, n)
        is_member = np.isin(np.arange(n), members)
        vanish = (np.abs(avg) <= _VALID_TOL) & (np.max(np.abs(psi), axis=0) <= _VALID_TOL)
        # a member column may instead push forward to the point mass at itself
        off = np.abs(push - (members[:, None] == np.arange(n))) > _VALID_TOL
        bad_member = is_member & ~vanish & off.any(axis=0)
        bad_exterior = ~is_member & (np.abs(avg - 1.0) > _VALID_TOL)
        bad = np.flatnonzero(bad_member | bad_exterior)
        if bad.size:
            x = int(bad[0])
            if bad_member[x]:
                a = int(np.argmax(off[:, x]))
                raise ContractError(
                    f"member column {x} must vanish or push forward to its "
                    f"own point mass; anchor {int(members[a])} collects {float(push[a, x])!r}"
                )
            raise ContractError(
                f"exterior column {x} must average to 1 under P, got {float(avg[x])!r}"
            )
        weights.setflags(write=False)
        psi.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "gamma", gamma)

    @property
    def space(self) -> FiniteMetricSpace:
        return self.subset.parent

    @property
    def n_outcomes(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class RandomProjection:
    """One measure per point of the space, each supported in the subset.

    rows[x] is exactly the point mass at x for subset members.  When
    strong is set, every row must be a probability measure.  coeffs is
    the same data as a read-only (n, |M|) array, coeffs[x, k] =
    rows[x](members[k]), derived from the rows on construction.
    """

    subset: Subspace
    rows: tuple[SignedMeasure, ...]
    strong: bool
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sub = self.subset
        space = sub.parent
        n = space.n
        rows = tuple(self.rows)
        if len(rows) != n:
            raise ContractError(f"need one row per point, got {len(rows)} for {n}")
        members = set(sub.members)
        for x, row in enumerate(rows):
            if row.space != space:
                raise ContractError(f"row {x} lives on a different space")
            for i in row.support:
                if i not in members:
                    raise ContractError(
                        f"row {x} puts mass on point {space.labels[i]!r} outside the subset"
                    )
            if x in members and row.coeff != {x: 1.0}:
                raise ContractError(
                    f"row for subset member {space.labels[x]!r} must be exactly its point mass"
                )
            if self.strong:
                if not row.is_nonnegative(_VALID_TOL):
                    raise ContractError(f"strong projection row {x} has a negative coefficient")
                if abs(row.mass() - 1.0) > _VALID_TOL:
                    raise ContractError(
                        f"strong projection row {x} has mass {row.mass()!r}, expected 1"
                    )
        coeffs = np.array([row.as_vector() for row in rows])[:, list(sub.members)]
        coeffs.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def space(self) -> FiniteMetricSpace:
        return self.subset.parent


def _from_coeffs(subset: Subspace, coeffs: np.ndarray, strong: bool) -> RandomProjection:
    """The projection with row x = sum_k coeffs[x, k] * delta(members[k]).

    Member rows are set to their point masses whatever coeffs holds there.
    """
    c = np.array(coeffs, dtype=float)
    c[list(subset.members)] = np.eye(subset.size)
    space = subset.parent
    rows = tuple(SignedMeasure(space, dict(zip(subset.members, r))) for r in c.tolist())
    return RandomProjection(subset, rows, strong)


def _anchor_matrix(members: Sequence[int], gamma: Sequence[int]) -> np.ndarray:
    """One-hot (|M|, outcomes) matrix: entry [k, w] is 1 when gamma[w] = members[k]."""
    return (np.asarray(members)[:, None] == np.asarray(gamma)).astype(float)


def identity_projection(space: FiniteMetricSpace) -> RandomProjection:
    """The projection onto M = X: every row is its own point mass."""
    return _from_coeffs(Subspace(space, tuple(range(space.n))), np.eye(space.n), strong=True)


# ---------------------------------------------------------------------------
# constants


def _max_weighted_variation(d: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """Max over x != y of sum_k w[k, x] * |v[k, x] - v[k, y]| / d(x, y); 0 on a point."""
    total = (w[:, :, None] * np.abs(v[:, :, None] - v[:, None, :])).sum(axis=0)
    off = ~np.eye(d.shape[0], dtype=bool)
    return float(np.max(total[off] / d[off], initial=0.0))


def gentle_constant(g: GentlePartition) -> float:
    """Least K for which the partition is K-gentle.

    Maximum over ordered pairs x != y of
    sum_w P(w) * d(gamma(w), x) * |psi(w, x) - psi(w, y)| / d(x, y).
    """
    d = g.space.dist
    return _max_weighted_variation(d, g.weights[:, None] * d[list(g.gamma)], g.psi)


def weighted_tv_constant(p: RandomProjection) -> float:
    """Maximum over ordered pairs of the d(., x)-weighted variation quotient.

    sum over members m of d(m, x) * |rows[x](m) - rows[y](m)|, divided
    by d(x, y); dominates the dual-Lip quotient of projection_constant.
    """
    d = p.space.dist
    return _max_weighted_variation(d, d[list(p.subset.members)], p.coeffs.T)


def _difference_quotients(p: RandomProjection, tol: float,
                          solved: dict[bytes, TransportResult]
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bytes]]:
    """The pairs x < y whose rows differ, with kr_norm(rows[x] - rows[y]) / d(x, y).

    Returns x, y, the quotients and each pair's key, the bytes of its row
    difference.  solved maps keys to kr_norm results and is filled as
    needed, so pairs with equal differences share one solve.
    """
    space = p.space
    x, y = np.triu_indices(space.n, 1)
    diff = p.coeffs[x] - p.coeffs[y]
    differ = diff.any(axis=1)
    x, y, diff = x[differ], y[differ], diff[differ]
    keys = [c.tobytes() for c in diff]
    for key, c in zip(keys, diff):
        if key not in solved:
            mu = SignedMeasure(space, dict(zip(p.subset.members, c.tolist())))
            solved[key] = kr_norm(mu, tol=tol)
    values = np.array([solved[key].value for key in keys])
    return x, y, values / space.dist[x, y], keys


def projection_constant(p: RandomProjection, tol: float = 1e-9) -> float:
    """Least K with dual-Lip distance between rows at most K*d(x, y).

    Evaluated as the max over unordered pairs of kr_norm of the row
    difference, divided by the point distance.  Pairs whose rows differ
    by the same coefficient vector share one solve.
    """
    check_tol(tol)
    quotients = _difference_quotients(p, tol, {})[2]
    return float(quotients.max(initial=0.0))


# ---------------------------------------------------------------------------
# conversions


def gentle_to_projection(g: GentlePartition) -> RandomProjection:
    """Push the densities forward through the anchor map.

    rows[x](m) = sum of P(w)*psi(w, x) over outcomes anchored at m, for
    exterior x; member rows are set to their point masses directly.
    The result is strong, and its projection constant never exceeds the
    gentle constant.
    """
    push = _anchor_matrix(g.subset.members, g.gamma) @ (g.weights[:, None] * g.psi)
    return _from_coeffs(g.subset, push.T, strong=True)


def _dyadic_weights(k: int) -> np.ndarray:
    """k powers of two summing to exactly 1, largest first: for 2^p <= k < 2^(p+1),
    2^(p+1) - k copies of 2^-p, then 2(k - 2^p) copies of 2^-(p+1)."""
    p = k.bit_length() - 1
    big = 2 ** (p + 1) - k
    return np.repeat(np.ldexp(1.0, [-p, -p - 1]), [big, k - big])


def projection_to_gentle(p: RandomProjection) -> GentlePartition:
    """Express a strong projection as densities over its own subset.

    Omega is the member list, anchored by the identity; the weights are
    dyadic so that psi(m, x) = rows[x](m)/P(m) scales by exact powers
    of two.  Every column is encoded this way — member columns carry
    their own point mass rather than zeros — which makes the gentle
    constant of the result agree with weighted_tv_constant(p) term by
    term, and the round trip through gentle_to_projection reproduce the
    coefficients bit for bit.
    """
    if not p.strong:
        raise ContractError("only strong projections admit a density form here")
    P = _dyadic_weights(p.subset.size)
    return GentlePartition(p.subset, P, p.coeffs.T / P[:, None], p.subset.members)


# ---------------------------------------------------------------------------
# explicit construction for separated subsets


def _check_subset_of(space: FiniteMetricSpace, subset: Subspace) -> None:
    if subset.parent != space:
        raise ContractError("subset belongs to a different space")


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ContractError("eps must be a positive real")


def uniform_discrete_projection(space: FiniteMetricSpace, subset: Subspace,
                                eps: float, t0: int,
                                tol: float = 1e-9) -> RandomProjection:
    """Two-atom rows for an eps-separated subset.

    A point within eps/2 of some member t splits its mass between the
    reference member t0 and t, in proportion (2/eps)*[d(x,t) at t0,
    eps/2 - d(x,t) at t]; points near no member map entirely to t0.
    The projection constant is bounded by 2*max(D, eps)/eps where D is
    the subset diameter.
    """
    check_tol(tol)
    _check_subset_of(space, subset)
    _check_eps(eps)
    members = np.array(subset.members)
    try:
        t0 = operator.index(t0)
    except TypeError:
        raise ContractError(f"reference point must be an integer index, got {t0!r}") from None
    if t0 not in subset.members:
        raise ContractError(f"reference point {t0} is not a subset member")
    d = space.dist
    i, j = np.triu_indices(members.size, 1)
    close = np.flatnonzero(d[members[i], members[j]] < eps - tol * eps)
    if close.size:
        a, b = members[i[close[0]]], members[j[close[0]]]
        raise ContractError(
            f"subset is not {eps!r}-separated: d({space.labels[a]!r}, "
            f"{space.labels[b]!r}) = {float(d[a, b])!r}"
        )
    # nearest member strictly inside its eps/2 ball, if any (ties: lowest index)
    near = d[:, members]
    t = np.argmin(near, axis=1)
    dt = near[np.arange(space.n), t]
    split = (dt < eps / 2.0) & (members[t] != t0)
    c0 = (2.0 / eps) * dt
    coeffs = np.zeros((space.n, members.size))
    coeffs[:, subset.members.index(t0)] = np.where(split, c0, 1.0)
    # 1 - c0 equals (2/eps)*(eps/2 - d) and keeps the mass at exactly 1
    coeffs[split, t[split]] = 1.0 - c0[split]
    return _from_coeffs(subset, coeffs, strong=True)


def uniform_discrete_bound(space: FiniteMetricSpace, subset: Subspace, eps: float) -> float:
    """The 2*max(D, eps)/eps guarantee for the two-atom construction."""
    _check_subset_of(space, subset)
    _check_eps(eps)
    members = list(subset.members)
    diam = float(np.max(space.dist[np.ix_(members, members)]))
    return 2.0 * max(diam, eps) / eps


# ---------------------------------------------------------------------------
# minimal-K synthesis


@dataclass(frozen=True)
class SynthesisResult:
    k_star: float
    projection: RandomProjection


def synthesize_min_k(space: FiniteMetricSpace, subset: Subspace,
                     mode: str = "strong", tol: float = 1e-9) -> SynthesisResult:
    """Minimize K over all projections onto the subset, by Kelley's cutting planes.

    K* is the least, over projections, of the max over pairs of
    kr_norm(rows[x] - rows[y]) / d(x, y).  The potential f that kr_norm
    certifies for a row difference gives the cut
    sum_a f(a) * (rows[x](a) - rows[y](a)) <= K * d(x, y), valid for every
    projection and tight at the current one.  From the nearest-member
    retraction and K_lb = 1, each round adds the cut of every pair whose
    quotient exceeds K_lb*(1 + tol); the master LP, min K over the cuts
    with K >= 1 as a bound, then gives the next projection and, as a
    relaxation, the next K_lb.  Once no pair is violated, the largest
    quotient, the projection's projection_constant, is returned as K*.
    The potentials vanish at the basepoint, so no cut sees an exterior
    row's basepoint coefficient: the master holds only the others, and the
    basepoint's is 1 minus their sum, which gives every row mass 1.
    Signed mode leaves the others free; strong mode keeps them nonnegative
    with their sum at most 1, so that the basepoint's share is too.
    """
    check_tol(tol)
    if mode not in ("strong", "signed"):
        raise ContractError(f"mode must be 'strong' or 'signed', got {mode!r}")
    _check_subset_of(space, subset)
    n = space.n
    strong = mode == "strong"
    # K* is dimensionless: the master lives on d / 2^e, 2^e the least power of
    # two above the diameter, and kr_norm's values and potentials scale
    # exactly with the metric, so under d -> 2^k d every LP is the same bit for bit
    e = math.frexp(space.diameter)[1]
    d = np.ldexp(space.dist, -e)
    members = list(subset.members)
    m = len(members)
    base = members.index(space.basepoint)
    others = [k for k in range(m) if k != base]
    exterior = np.array(subset.complement(), dtype=int)
    n_ext = exterior.size
    # variables: K >= 1, then one coefficient per (exterior point, member
    # other than the basepoint); first[x] is the first column of exterior point x
    n_vars = 1 + n_ext * (m - 1)
    first = np.full(n, -1)
    first[exterior] = 1 + (m - 1) * np.arange(n_ext)
    c = np.zeros(n_vars)
    c[0] = 1.0
    lb = np.zeros(n_vars)
    lb[0] = 1.0
    if not strong:
        lb[1:] = -np.inf
    # rows: in strong mode, the others of each exterior row sum to at most 1,
    # the slack being its basepoint coefficient; then the cuts
    rows = [*np.hstack([np.zeros((n_ext, 1)), np.kron(np.eye(n_ext), np.ones(m - 1))])] if strong else []
    rhs = [1.0] * len(rows)
    # the first projection is the nearest-member retraction (ties: the lowest index)
    coeffs = (np.argmin(d[:, members], axis=1)[:, None] == np.arange(m)).astype(float)
    k_lb = 1.0
    solved: dict[bytes, TransportResult] = {}
    held: set[tuple[int, int, bytes]] = set()
    while True:
        p = _from_coeffs(subset, coeffs, strong)
        x, y, quotients, keys = _difference_quotients(p, tol, solved)
        violated = np.flatnonzero(quotients > k_lb * (1.0 + tol))
        if not violated.size:
            return SynthesisResult(float(quotients.max(initial=0.0)), p)
        for i in violated.tolist():
            xi, yi, key = int(x[i]), int(y[i]), keys[i]
            # the master's solution meets every cut it holds, up to round-off
            if (xi, yi, key) in held:
                raise SolverError(f"synthesis master violates its own cut for pair "
                                  f"({xi}, {yi}) on |X|={n}, |M|={m}, mode={mode}")
            held.add((xi, yi, key))
            f = np.ldexp(solved[key].potentials, -e)
            row = np.zeros(n_vars)
            row[0] = -d[xi, yi]
            bound = 0.0
            for point, sign in ((xi, 1.0), (yi, -1.0)):
                if first[point] < 0:   # a member's row is its own point mass
                    bound -= sign * f[point]
                else:
                    row[first[point]:first[point] + m - 1] = sign * f[members][others]
            rows.append(row)
            rhs.append(bound)
        res = solve_lp(LinearProgram(c, np.array(rows), ("<=",) * len(rows), np.array(rhs), lb), tol=tol)
        if res.status != "optimal":
            raise SolverError(f"synthesis master LP ended {res.status} on |X|={n}, |M|={m}, mode={mode}")
        k_lb = res.objective
        coeffs[np.ix_(exterior, others)] = res.x[1:].reshape(n_ext, m - 1)
        coeffs[exterior, base] = 1.0 - coeffs[np.ix_(exterior, others)].sum(axis=1)


# ---------------------------------------------------------------------------
# asymptotic subset growth


@dataclass(frozen=True)
class ProfileEntry:
    """deviations[x] is the dual-Lip distance from rows[x] to delta_x: a strong row has one
    coupling to a point mass, so it is sum_m rows[x](m) * d(m, x), 0.0 for members."""
    size: int
    members: tuple[int, ...]
    k_star: float
    deviations: dict[int, float]


def asymptotic_profile(space: FiniteMetricSpace,
                       order: Sequence[int] | None = None,
                       tol: float = 1e-9) -> list[ProfileEntry]:
    """Synthesize minimal strong projections along a growing chain of subsets.

    order is a permutation of the points starting at the basepoint; the
    k-th subset consists of its first k entries.  Each entry reports
    the minimal K and, per point, the dual-Lip distance between its row
    and its own point mass.  A strong row has one coupling to that point
    mass, so the distance is sum_m rows[x](m) * d(m, x), with no transport
    solve: exactly 0.0 for members, and everywhere at full size.
    """
    check_tol(tol)
    n = space.n
    if order is None:
        order = [space.basepoint] + [x for x in range(n) if x != space.basepoint]
    try:
        order = [operator.index(x) for x in order]
    except TypeError:
        raise ContractError(f"order must hold integer indices, got {order!r}") from None
    if sorted(order) != list(range(n)):
        raise ContractError("order must be a permutation of all point indices")
    if order[0] != space.basepoint:
        raise ContractError("order must start at the basepoint")
    entries: list[ProfileEntry] = []
    for k in range(1, n + 1):
        members = tuple(sorted(order[:k]))
        sub = Subspace(space, members)
        res = synthesize_min_k(space, sub, "strong", tol=tol)
        deviations = (res.projection.coeffs * space.dist[:, members]).sum(axis=1)
        entries.append(ProfileEntry(k, members, res.k_star, dict(enumerate(deviations.tolist()))))
    return entries


# ---------------------------------------------------------------------------
# water-filling retraction onto the nonnegative l1 ball


def retract_l1_ball(y: Sequence[float] | np.ndarray) -> tuple[float, np.ndarray]:
    """Shift a nonnegative vector down uniformly until its positive part fits.

    Returns (g, r) with g the least t >= 0 such that sum_i (y_i - t)+
    is at most 1, found by the descending breakpoint scan, and
    r = (y - g*e)+.  Vectors already in the ball come back unchanged
    with g = 0.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ContractError("expected a flat vector")
    if y.size and not np.all(np.isfinite(y)):
        raise ContractError("entries must be finite")
    neg = np.nonzero(y < 0.0)[0]
    if neg.size:
        i = int(neg[0])
        raise ContractError(f"entry {i} is negative ({y[i]!r}); the domain is y >= 0")
    try:
        total = math.fsum(y.tolist())
    except OverflowError:   # fsum raises where the exact sum passes the largest float
        raise ContractError("the entries' sum overflows a float") from None
    if total <= 1.0:
        return 0.0, y.copy()
    s = np.sort(y)[::-1]
    css = np.cumsum(s)
    ks = np.arange(1, y.size + 1, dtype=float)
    ts = (css - 1.0) / ks
    hit = np.nonzero(s > ts)[0]
    g = float(ts[hit[-1]])
    g = max(g, 0.0)
    return g, np.maximum(y - g, 0.0)
