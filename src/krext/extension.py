"""Lipschitz norms, the inf-convolution extension, and linear extension.

Functions live on a space as dense value arrays, scalar or
finite-vector valued.  mcshane_extend produces the pointwise-largest
L-Lipschitz extension of a scalar function off a subset; member values
are copied verbatim so the restriction is exact.  extend_by_projection
applies a random projection linearly, as the product of its
coefficient matrix with the values: a plain floating-point sum, not an
exactly rounded one, though member values still reproduce exactly since
member rows are point masses.  operator_norm evaluates the induced
operator's norm by a direct LP over the unit ball of basepoint-vanishing
Lipschitz functions on the subset — an independent route that must
agree with projection_constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SolverError, check_tol
from .metric import FiniteMetricSpace, Subspace
from .optim import LinearProgram, solve_lp
from .projections import RandomProjection

__all__ = ["PointFunction", "lip_norm", "mcshane_extend",
           "extend_by_projection", "operator_norm"]

_NORMS = ("abs", "sup", "euclid")


@dataclass(frozen=True)
class PointFunction:
    """Values at every point of a space, with a target-norm tag.

    values has shape (n, dim); scalar input of shape (n,) is accepted
    and stored as (n, 1).  The tag fixes how value differences are
    measured: "abs" for scalars, "sup" or "euclid" for vectors.
    """

    space: FiniteMetricSpace
    values: np.ndarray
    norm: str = "abs"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals.reshape(-1, 1)
        if vals.ndim != 2 or vals.shape[0] != self.space.n or vals.shape[1] < 1:
            raise ContractError(
                f"values must have shape ({self.space.n}, dim>=1), got {np.shape(self.values)}"
            )
        if not np.all(np.isfinite(vals)):
            raise ContractError("values must be finite")
        if self.norm not in _NORMS:
            raise ContractError(f"norm tag must be one of {_NORMS}, got {self.norm!r}")
        if self.norm == "abs" and vals.shape[1] != 1:
            raise ContractError("tag 'abs' is for scalar values; use 'sup' or 'euclid'")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def scalar(cls, space: FiniteMetricSpace, values) -> "PointFunction":
        return cls(space, np.asarray(values, dtype=float).reshape(-1), "abs")

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])


def lip_norm(f: PointFunction) -> float:
    """Largest pairwise value-difference-to-distance ratio; 0 on a point."""
    return _worst_pair(f)[2]


def _worst_pair(f: PointFunction) -> tuple[int, int, float]:
    """The first pair (i, j), i < j, attaining lip_norm, and that ratio."""
    i, j = np.triu_indices(f.space.n, 1)
    diff = f.values[i] - f.values[j]
    if f.norm == "sup":
        size = np.max(np.abs(diff), axis=1)
    elif f.norm == "euclid":
        size = np.sqrt(np.sum(diff * diff, axis=1))
    else:
        size = np.abs(diff[:, 0])
    q = size / f.space.dist[i, j]
    if not np.any(q > 0.0):
        return 0, 0, 0.0
    k = int(np.argmax(q))
    return int(i[k]), int(j[k]), float(q[k])


def mcshane_extend(subspace: Subspace, f: PointFunction,
                   L: float | None = None, tol: float = 1e-9) -> PointFunction:
    """Largest L-Lipschitz scalar extension off the subset.

    Exterior values are min over members m of f(m) + L*d(x, m);
    member values are copied unchanged.  L defaults to the Lipschitz
    constant of f and may not fall below it.
    """
    check_tol(tol)
    msp = subspace.to_space()
    if f.space != msp:
        raise ContractError("the function must live on the subset's induced space")
    if f.dim != 1:
        raise ContractError("only scalar functions extend this way; extend coordinates separately")
    i, j, lip = _worst_pair(f)
    if L is None:
        L = lip
    L = float(L)
    if not (math.isfinite(L) and L >= 0):
        raise ContractError("L must be a finite nonnegative real")
    if L < lip - tol * lip:
        la, lb = msp.labels[i], msp.labels[j]
        raise ContractError(
            f"L = {L!r} is below the Lipschitz constant {lip!r}; "
            f"the pair ({la!r}, {lb!r}) already needs {lip!r}"
        )
    members = list(subspace.members)
    vals = f.values[:, 0]
    out = np.min(vals + L * subspace.parent.dist[:, members], axis=1)
    out[members] = vals
    return PointFunction.scalar(subspace.parent, out)


def extend_by_projection(upsilon: RandomProjection, f: PointFunction) -> PointFunction:
    """Apply a projection linearly: result(x) = sum_m rows[x](m) * f(m).

    The function must live on the subset's induced space and vanish at
    the basepoint in every coordinate (the pairing only sees functions
    normalized that way).  Member values reproduce exactly since member
    rows are point masses.
    """
    sub = upsilon.subset
    msp = sub.to_space()
    if f.space != msp:
        raise ContractError("the function must live on the projection subset's induced space")
    if np.any(f.values[msp.basepoint] != 0.0):
        raise ContractError(
            "the function must vanish at the basepoint in every coordinate; "
            "shift it by its basepoint value first"
        )
    return PointFunction(sub.parent, upsilon.coeffs @ f.values, f.norm)


def operator_norm(upsilon: RandomProjection, tol: float = 1e-9) -> float:
    """Norm of the induced extension operator, by direct LP.

    For each pair (x, y) maximizes sum_m (rows[x](m) - rows[y](m))*f(m)
    over functions f on the subset with pairwise slopes at most 1 and
    f(basepoint) = 0, then divides by d(x, y) and takes the maximum.
    Agrees with projection_constant, which evaluates the same quantity
    through transport flows.
    """
    check_tol(tol)
    # the quotients are dimensionless: every LP lives on d / 2^e, 2^e the least
    # power of two above the ambient diameter, as in synthesize_min_k, so that
    # solve_lp sees data of order one and under d -> 2^k d poses the same LPs
    # bit for bit
    e = math.frexp(upsilon.space.diameter)[1]
    dist = np.ldexp(upsilon.space.dist, -e)
    msp = upsilon.subset.to_space()
    sub = np.ldexp(msp.dist, -e)
    free = np.flatnonzero(np.arange(msp.n) != msp.basepoint)
    # one row f(i) - f(j) <= d(i, j) per ordered pair of free members
    i, j = np.nonzero(~np.eye(free.size, dtype=bool))
    slopes = np.eye(free.size)
    A = slopes[i] - slopes[j]
    b = sub[free[i], free[j]]
    bound = sub[free, msp.basepoint]
    objectives: dict[bytes, float] = {}   # pairs with equal c share one LP
    best = 0.0
    for x, y in zip(*np.triu_indices(upsilon.space.n, 1)):
        c = (upsilon.coeffs[x] - upsilon.coeffs[y])[free]
        if not np.any(c):
            continue
        key = c.tobytes()
        if key not in objectives:
            lp = LinearProgram(c=c, A=A, senses=("<=",) * b.size, b=b, lb=-bound, ub=bound,
                               maximize=True)
            res = solve_lp(lp, tol=tol)
            if res.status != "optimal":
                raise SolverError(f"pair LP unexpectedly {res.status}")
            objectives[key] = res.objective
        best = max(best, objectives[key] / float(dist[x, y]))
    return best
