"""Finite pointed metric spaces and subset machinery.

A space is a finite list of labelled points, a dense symmetric distance
matrix, and a distinguished basepoint.  Admission of the matrix itself
is split in two: structural checks (square, finite, real) happen at
construction and raise immediately, while the metric axioms are checked
by ``validate_metric`` which returns a full violation report so callers
can inspect broken inputs instead of just rejecting them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, MalformedInputError, check_tol

# floats per triangle chunk in validate_metric (one n x n row at least): 512 KiB
# stays in cache, and ran faster than 32 MiB chunks at n = 50..300
_BLOCK_FLOATS = 1 << 16


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space with a distinguished basepoint.

    labels: one string per point, unique.
    dist:   dense (n, n) matrix of pairwise distances.
    basepoint: index of the distinguished point.
    """

    labels: tuple[str, ...]
    dist: np.ndarray
    basepoint: int = 0

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) == 0:
            raise MalformedInputError("a metric space needs at least one point")
        if len(set(labels)) != len(labels):
            raise MalformedInputError("point labels must be unique")
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MalformedInputError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] != len(labels):
            raise MalformedInputError(
                f"distance matrix is {d.shape[0]}x{d.shape[0]} but there are {len(labels)} labels"
            )
        if not np.all(np.isfinite(d)):
            raise MalformedInputError("distance matrix contains non-finite entries")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        try:
            basepoint = operator.index(self.basepoint)
        except TypeError:
            raise MalformedInputError(
                f"basepoint must be an integer index, got {self.basepoint!r}"
            ) from None
        if not (0 <= basepoint < len(labels)):
            raise MalformedInputError(f"basepoint index {basepoint} out of range")
        object.__setattr__(self, "basepoint", basepoint)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ContractError(f"unknown point label {label!r}") from None

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    @property
    def diameter(self) -> float:
        return float(self.dist.max())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.basepoint == other.basepoint
            and np.array_equal(self.dist, other.dist)
        )

    __hash__ = None  # mutable ndarray payload; value equality only

    def __repr__(self) -> str:
        return (
            f"FiniteMetricSpace(n={self.n}, basepoint={self.labels[self.basepoint]!r})"
        )


@dataclass(frozen=True)
class Violation:
    """One broken metric axiom: which rule, which points, by how much."""

    kind: str           # "symmetry" | "diagonal" | "separation" | "nonnegative" | "triangle"
    indices: tuple[int, ...]
    excess: float

    def describe(self, space: FiniteMetricSpace) -> str:
        pts = ",".join(space.labels[i] for i in self.indices)
        return f"{self.kind} violated at ({pts}) by {self.excess:.3e}"


def validate_metric(space: FiniteMetricSpace, tol: float = 1e-9) -> list[Violation]:
    """Check the metric axioms and report every violation.

    The tolerance is relative to the largest distance in the matrix, so
    a matrix scaled by a constant yields the same report.  An empty
    report means the space is a metric space up to that tolerance.
    Violations come diagonal first, then pairs i < j row-major, each as
    nonnegative, symmetry, separation, then triangles (i, j, k) in order.
    """
    check_tol(tol)
    d = space.dist
    n = space.n
    scale = float(d.max()) if n > 1 else 1.0
    eff = tol * max(scale, 1e-300)

    diag = np.abs(np.diagonal(d))
    out = [Violation("diagonal", (int(i),), float(diag[i])) for i in np.flatnonzero(diag > eff)]

    iu, ju = np.triu_indices(n, 1)
    dij = d[iu, ju]
    gap = np.abs(dij - d[ju, iu])
    broken = np.stack([dij < -eff, gap > eff, dij <= eff])
    excess = np.stack([-dij, gap, np.abs(dij)])
    kinds = ("nonnegative", "symmetry", "separation")
    # pair-major, so each pair's violations keep the kind order above
    for p, kind in zip(*np.nonzero(broken.T)):
        out.append(Violation(kinds[kind], (int(iu[p]), int(ju[p])), float(excess[kind, p])))

    # triangle inequality; (i, j, k) and (k, j, i) state the same bound on a
    # symmetric matrix, so report each unordered endpoint pair once (k > i)
    step = max(1, _BLOCK_FLOATS // (n * n))
    for lo in range(0, n, step):
        # slack[i - lo, j, k] = d[i, k] - (d[i, j] + d[j, k]), rounded as written.
        # A sum that overflows to +inf exceeds every finite distance, so its
        # slack of -inf hides no violation
        with np.errstate(over="ignore"):
            slack = d[lo:lo + step, None, :] - (d[lo:lo + step, :, None] + d[None, :, :])
        i, j, k = np.nonzero(slack > eff)
        keep = (k > i + lo) & (j != i + lo) & (j != k)
        for a, b, c in zip(i[keep], j[keep], k[keep]):
            out.append(Violation("triangle", (int(a) + lo, int(b), int(c)), float(slack[a, b, c])))
    return out


def require_valid_metric(space: FiniteMetricSpace, tol: float = 1e-9) -> None:
    """Raise a ContractError carrying the report when the space is broken."""
    report = validate_metric(space, tol)
    if report:
        lines = "; ".join(v.describe(space) for v in report[:8])
        more = "" if len(report) <= 8 else f" (+{len(report) - 8} more)"
        raise ContractError(f"not a metric space: {lines}{more}")


def restrict(space: FiniteMetricSpace, members: Sequence[int]) -> FiniteMetricSpace:
    """The induced metric on a subset of points, labels preserved.

    The subset must contain the basepoint, which stays the basepoint of
    the restriction.
    """
    return Subspace(space, tuple(members)).to_space()


@dataclass(frozen=True)
class Subspace:
    """A subset of a parent space, kept as sorted parent indices.

    The basepoint always belongs to the subset; everything downstream
    that touches functions vanishing at the basepoint relies on it.
    """

    parent: FiniteMetricSpace
    members: tuple[int, ...]

    def __post_init__(self):
        try:
            mem = tuple(sorted(operator.index(m) for m in self.members))
        except TypeError:
            raise ContractError(
                f"subspace members must be integer indices, got {self.members!r}"
            ) from None
        if len(set(mem)) != len(mem):
            raise ContractError("subspace members must be distinct")
        if not mem:
            raise ContractError("subspace must be nonempty")
        for m in mem:
            if not (0 <= m < self.parent.n):
                raise ContractError(f"subspace member {m} out of range")
        if self.parent.basepoint not in mem:
            raise ContractError("subspace must contain the basepoint")
        object.__setattr__(self, "members", mem)

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def complement(self) -> tuple[int, ...]:
        # np.delete, not np.setdiff1d, whose np.unique imports numpy.ma
        return tuple(np.delete(np.arange(self.parent.n), self.members).tolist())

    def to_space(self) -> FiniteMetricSpace:
        mem = list(self.members)
        sub = self.parent.dist[np.ix_(mem, mem)]
        labels = tuple(self.parent.labels[m] for m in mem)
        return FiniteMetricSpace(labels, sub, basepoint=mem.index(self.parent.basepoint))

    def local_index(self, parent_index: int) -> int:
        try:
            return self.members.index(parent_index)
        except ValueError:
            raise ContractError(
                f"point {self.parent.labels[parent_index]!r} is not in the subset"
            ) from None


def subspace_from_labels(space: FiniteMetricSpace, labels: Iterable[str]) -> Subspace:
    return Subspace(space, tuple(space.index(l) for l in labels))


def doubling_estimate(space: FiniteMetricSpace) -> int:
    """Greedy upper bound on the doubling constant of the space.

    For every center c and every radius r among c's own distinct positive
    distances d(c, x), x != c, the ball B(c, r) is covered greedily by
    balls of radius r/2 centered at points of the space: repeatedly grab
    the uncovered point farthest from c (lowest index on ties) and cover
    around it.  The worst greedy count dominates the optimal cover count
    ball by ball.  B(c, r) changes only when r crosses a distance of c,
    and while it is fixed its optimal cover count can only fall as r
    grows, so the value bounds the doubling constant restricted to
    point-centered balls.  Always >= 1.
    """
    d = space.dist
    n = space.n
    best = 1
    for c in range(n):
        radii = np.sort(d[c][(d[c] > 0) & (np.arange(n) != c)])
        # the distinct ones, deduped by hand: np.unique imports numpy.ma
        radii = radii[np.diff(radii, prepend=0.0) > 0]
        half = radii / 2.0
        # the uncovered point farthest from c is always the first uncovered
        # one in this fixed order, so every radius walks it together; row r
        # of the mask is what is left of B(c, radii[r])
        uncovered = d[c][None, :] <= radii[:, None]
        count = np.zeros(radii.size, dtype=int)
        for p in np.argsort(-d[c], kind="stable"):
            hit = uncovered[:, p]
            count += hit
            uncovered[hit] &= d[p][None, :] > half[hit, None]
        best = max(best, int(count.max(initial=0)))
    return best
