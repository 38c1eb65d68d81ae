"""Finitely supported signed measures over a fixed metric space.

Coefficients are stored sparsely by point index, in a read-only
mapping.  Exact zeros are pruned on construction, so two measures built
along different arithmetic routes compare equal whenever their
coefficients match bit for bit.
Arithmetic between measures on different spaces is rejected rather than
silently re-indexed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ContractError, MalformedInputError
from .metric import FiniteMetricSpace


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    space: FiniteMetricSpace
    coeff: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[int, float] = {}
        for k, v in self.coeff.items():
            try:
                i = operator.index(k)
            except TypeError:
                raise ContractError(f"coefficient index {k!r} is not an integer") from None
            if not (0 <= i < self.space.n):
                raise ContractError(f"coefficient index {i} out of range")
            x = float(v)
            if not math.isfinite(x):
                raise MalformedInputError(f"non-finite coefficient at index {i}")
            if x != 0.0:
                clean[i] = clean.get(i, 0.0) + x
                if clean[i] == 0.0:
                    del clean[i]
        object.__setattr__(self, "coeff", MappingProxyType(dict(sorted(clean.items()))))

    # -- constructors -------------------------------------------------

    @staticmethod
    def dirac(space: FiniteMetricSpace, i: int) -> "SignedMeasure":
        if not (0 <= i < space.n):
            raise ContractError(f"point index {i} out of range")
        return SignedMeasure(space, {i: 1.0})

    @staticmethod
    def from_labels(space: FiniteMetricSpace, coeff: Mapping[str, float]) -> "SignedMeasure":
        return SignedMeasure(space, {space.index(l): float(v) for l, v in coeff.items()})

    # -- queries ------------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.coeff)

    def mass(self) -> float:
        return math.fsum(self.coeff.values())

    def __getitem__(self, i: int) -> float:
        try:
            return self.coeff.get(operator.index(i), 0.0)
        except TypeError:
            raise ContractError(f"coefficient index {i!r} is not an integer") from None

    def as_vector(self) -> np.ndarray:
        v = np.zeros(self.space.n)
        for i, c in self.coeff.items():
            v[i] = c
        return v

    def is_nonnegative(self, tol: float = 0.0) -> bool:
        return all(c >= -tol for c in self.coeff.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedMeasure):
            return NotImplemented
        return self.space == other.space and self.coeff == other.coeff

    __hash__ = None

    # -- linear structure ----------------------------------------------

    def _check_same_space(self, other: "SignedMeasure") -> None:
        if self.space != other.space:
            raise ContractError("measures live on different spaces")

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        self._check_same_space(other)
        out = dict(self.coeff)
        for i, c in other.coeff.items():
            out[i] = out.get(i, 0.0) + c
        return SignedMeasure(self.space, out)

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        return self + (-other)

    def __neg__(self) -> "SignedMeasure":
        return SignedMeasure(self.space, {i: -c for i, c in self.coeff.items()})

    def __mul__(self, scalar: float) -> "SignedMeasure":
        s = float(scalar)
        return SignedMeasure(self.space, {i: s * c for i, c in self.coeff.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        parts = " ".join(
            f"{c:+g}*d[{self.space.labels[i]}]" for i, c in self.coeff.items()
        )
        return f"SignedMeasure({parts or '0'})"


def total_variation(mu: SignedMeasure, subset=None) -> float:
    """Total variation measure of a subset: sum of |coefficient| over it.

    With no subset the whole space is used.  On a finite space this is
    the supremum of sum_i |mu(A_i)| over partitions of the subset, and
    the partition into singletons attains it.
    """
    if subset is None:
        return math.fsum(map(abs, mu.coeff.values()))
    idx = [int(i) for i in subset]
    for i in idx:
        if not (0 <= i < mu.space.n):
            raise ContractError(f"subset index {i} out of range")
    if len(set(idx)) != len(idx):
        raise ContractError("subset indices must be distinct")
    return math.fsum(abs(mu[i]) for i in idx)


def jordan_decompose(mu: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """Split into positive and negative parts, mu = pos - neg.

    Both parts are nonnegative with disjoint supports; this realizes
    the Hahn decomposition of a finitely supported measure.
    """
    pos = {i: c for i, c in mu.coeff.items() if c > 0}
    neg = {i: -c for i, c in mu.coeff.items() if c < 0}
    return SignedMeasure(mu.space, pos), SignedMeasure(mu.space, neg)


def freespace_moment_bound(mu: SignedMeasure) -> float:
    """First-moment bound around the basepoint: sum |c_i| d(x_i, base).

    Dominates the Kantorovich-Rubinstein norm of the measure because any
    function vanishing at the basepoint with Lipschitz constant one is
    pointwise dominated by the distance to the basepoint.
    """
    bp = mu.space.basepoint
    return math.fsum(abs(c) * mu.space.d(i, bp) for i, c in mu.coeff.items())
