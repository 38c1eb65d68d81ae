"""Lipschitz norms, the inf-convolution extension, and linear extension.

Functions live on a space as dense value arrays, scalar or
finite-vector valued.  mcshane_extend produces the pointwise-largest
L-Lipschitz extension of a scalar function off a subset; member values
are copied verbatim so the restriction is exact.  extend_by_projection
applies a random projection linearly, row by row.  operator_norm
evaluates the induced operator's norm by a direct LP over the unit ball
of basepoint-vanishing Lipschitz functions on the subset — an
independent route that must agree with projection_constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SolverConfig
from .errors import ContractError, SolverError
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

    def diff_norm(self, i: int, j: int) -> float:
        v = self.values[i] - self.values[j]
        if self.norm == "sup":
            return float(np.max(np.abs(v)))
        if self.norm == "euclid":
            return math.sqrt(math.fsum(float(t) * float(t) for t in v))
        return abs(float(v[0]))


def lip_norm(f: PointFunction) -> float:
    """Largest pairwise value-difference-to-distance ratio; 0 on a point."""
    return _worst_pair(f)[2]


def _worst_pair(f: PointFunction) -> tuple[int, int, float]:
    """The first pair (i, j), i < j, attaining lip_norm, and that ratio."""
    space = f.space
    best = (0, 0, 0.0)
    for i in range(space.n):
        for j in range(i + 1, space.n):
            q = f.diff_norm(i, j) / float(space.dist[i, j])
            if q > best[2]:
                best = (i, j, q)
    return best


def mcshane_extend(subspace: Subspace, f: PointFunction,
                   L: float | None = None, tol: float = 1e-9) -> PointFunction:
    """Largest L-Lipschitz scalar extension off the subset.

    Exterior values are min over members m of f(m) + L*d(x, m);
    member values are copied unchanged.  L defaults to the Lipschitz
    constant of f and may not fall below it.
    """
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
    if L < lip - tol * max(1.0, lip):
        la, lb = msp.labels[i], msp.labels[j]
        raise ContractError(
            f"L = {L!r} is below the Lipschitz constant {lip!r}; "
            f"the pair ({la!r}, {lb!r}) already needs {lip!r}"
        )
    parent = subspace.parent
    members = subspace.members
    member_of = {m: k for k, m in enumerate(members)}
    out = np.zeros(parent.n)
    for x in range(parent.n):
        if x in member_of:
            out[x] = float(f.values[member_of[x], 0])
        else:
            out[x] = min(
                float(f.values[k, 0]) + L * float(parent.dist[x, m])
                for k, m in enumerate(members)
            )
    return PointFunction.scalar(parent, out)


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
    bp_local = msp.basepoint
    if any(float(v) != 0.0 for v in f.values[bp_local]):
        raise ContractError(
            "the function must vanish at the basepoint in every coordinate; "
            "shift it by its basepoint value first"
        )
    parent = sub.parent
    members = sub.members
    dim = f.dim
    out = np.zeros((parent.n, dim))
    for x in range(parent.n):
        row = upsilon.rows[x]
        for k in range(dim):
            out[x, k] = math.fsum(
                row[m] * float(f.values[i, k])
                for i, m in enumerate(members)
                if row[m] != 0.0
            )
    return PointFunction(parent, out, f.norm)


def operator_norm(upsilon: RandomProjection, tol: float = 1e-9,
                  config: SolverConfig | None = None) -> float:
    """Norm of the induced extension operator, by direct LP.

    For each pair (x, y) maximizes sum_m (rows[x](m) - rows[y](m))*f(m)
    over functions f on the subset with pairwise slopes at most 1 and
    f(basepoint) = 0, then divides by d(x, y) and takes the maximum.
    Agrees with projection_constant, which evaluates the same quantity
    through transport flows.
    """
    sub = upsilon.subset
    space = sub.parent
    n = space.n
    members = sub.members
    if n < 2 or len(members) < 2:
        return 0.0
    msp = sub.to_space()
    dM = msp.dist
    bp_local = msp.basepoint
    free = [i for i in range(len(members)) if i != bp_local]
    pos = {i: k for k, i in enumerate(free)}
    nv = len(free)
    rows_A: list[np.ndarray] = []
    rhs: list[float] = []
    for i in free:
        for j in free:
            if i == j:
                continue
            row = np.zeros(nv)
            row[pos[i]] = 1.0
            row[pos[j]] = -1.0
            rows_A.append(row)
            rhs.append(float(dM[i, j]))
    if rows_A:
        A = np.array(rows_A)
        senses = tuple("<=" for _ in rows_A)
        b = np.array(rhs)
    else:
        A = np.zeros((0, nv))
        senses = ()
        b = np.zeros(0)
    lb = np.array([-float(dM[i, bp_local]) for i in free])
    ub = np.array([float(dM[i, bp_local]) for i in free])

    best = 0.0
    for x in range(n):
        for y in range(x + 1, n):
            diff = upsilon.rows[x] - upsilon.rows[y]
            if not diff.support:
                continue
            c = np.array([diff[members[i]] for i in free])
            if not np.any(c):
                continue
            lp = LinearProgram(c=c, A=A, senses=senses, b=b, lb=lb, ub=ub, maximize=True)
            res = solve_lp(lp, tol=tol, config=config)
            if res.status != "optimal":
                raise SolverError(f"pair LP unexpectedly {res.status}")
            val = res.objective / float(space.dist[x, y])
            if val > best:
                best = val
    return best
