"""Seeded families of finite pointed metric spaces, and random subsets.

Every generator that draws takes an explicit numpy Generator and nothing
else random, so a seed fixes the space: the tests, the experiment
scripts and ``krext report`` draw from here.  Euclidean clouds get their
metric for free; repaired spaces push a random symmetric matrix into a
metric by a shortest-path closure, so their distances have no geometric
structure at all; the grid's path metric has integer distances and many
ties.
"""

from __future__ import annotations

import numpy as np

from .metric import FiniteMetricSpace, Subspace

__all__ = ["euclidean_space", "repaired_space", "random_subset", "grid_space"]


def euclidean_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """n distinct points of [-5, 5]^2, more than 1e-3 apart, and a random basepoint."""
    while True:
        pts = rng.uniform(-5.0, 5.0, size=(n, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        if d[~np.eye(n, dtype=bool)].min(initial=np.inf) > 1e-3:
            break
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), d, basepoint=int(rng.integers(n)))


def repaired_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """A random symmetric matrix pushed into a metric by shortest paths."""
    raw = rng.uniform(0.5, 4.0, size=(n, n))
    d = (raw + raw.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):  # Floyd-Warshall closure enforces the triangle inequality
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return FiniteMetricSpace(tuple(f"q{i}" for i in range(n)), d, basepoint=int(rng.integers(n)))


def random_subset(rng: np.random.Generator, space: FiniteMetricSpace,
                  size: int | None = None) -> Subspace:
    """The basepoint and size - 1 other points; size is drawn from 1..n when None."""
    if size is None:
        size = int(rng.integers(1, space.n + 1))
    others = [x for x in range(space.n) if x != space.basepoint]
    pick = rng.choice(len(others), size=size - 1, replace=False) if size > 1 else []
    return Subspace(space, (space.basepoint, *(others[int(i)] for i in pick)))


def grid_space(k: int) -> FiniteMetricSpace:
    """Shortest paths in the k x k grid graph, based at its corner (0, 0)."""
    pts = np.array([(a, b) for a in range(k) for b in range(k)], dtype=float)
    d = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return FiniteMetricSpace(tuple(f"g{i}" for i in range(k * k)), d)
