"""Seeded input generators.

Every generator takes an explicit numpy Generator, so a workload seed
fixes every input.  Spaces are Euclidean point clouds or random
symmetric matrices repaired into metrics by a shortest-path closure.
"""

from __future__ import annotations

import numpy as np

from krext import FiniteMetricSpace, GentlePartition, RandomProjection, SignedMeasure, Subspace


def rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def euclid_space(rng: np.random.Generator, n: int, prefix: str = "p") -> FiniteMetricSpace:
    """Distinct points in the plane, random basepoint."""
    while True:
        pts = rng.uniform(-5.0, 5.0, size=(n, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        if d[~np.eye(n, dtype=bool)].min() > 1e-3:
            break
    labels = tuple(f"{prefix}{i}" for i in range(n))
    return FiniteMetricSpace(labels, d, basepoint=int(rng.integers(n)))


def repaired_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """Random symmetric matrix pushed into a metric by shortest paths."""
    raw = rng.uniform(0.5, 4.0, size=(n, n))
    d = (raw + raw.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    labels = tuple(f"q{i}" for i in range(n))
    return FiniteMetricSpace(labels, d, basepoint=int(rng.integers(n)))


def support(rng: np.random.Generator, n: int, sparse: bool) -> np.ndarray:
    """All points, or about n/8 of them."""
    if not sparse:
        return np.arange(n)
    return np.sort(rng.choice(n, size=max(2, round(n / 8)), replace=False))


def signed_measure(rng: np.random.Generator, space: FiniteMetricSpace,
                   sparse: bool) -> SignedMeasure:
    idx = support(rng, space.n, sparse)
    mags = rng.uniform(0.05, 2.0, size=idx.size)
    signs = np.where(rng.random(idx.size) < 0.5, -1.0, 1.0)
    return SignedMeasure(space, {int(i): float(c) for i, c in zip(idx, mags * signs)})


def probability(rng: np.random.Generator, space: FiniteMetricSpace,
                sparse: bool) -> SignedMeasure:
    idx = support(rng, space.n, sparse)
    w = rng.uniform(0.05, 1.0, size=idx.size)
    return SignedMeasure(space, {int(i): float(c) for i, c in zip(idx, w / w.sum())})


def subset(rng: np.random.Generator, space: FiniteMetricSpace, size: int) -> Subspace:
    """The basepoint plus size-1 other points."""
    others = [x for x in range(space.n) if x != space.basepoint]
    pick = rng.choice(len(others), size=size - 1, replace=False)
    return Subspace(space, (space.basepoint, *(others[int(i)] for i in pick)))


def strong_projection(rng: np.random.Generator, sub: Subspace) -> RandomProjection:
    """Exterior rows are random probability vectors over the members."""
    space = sub.parent
    rows = []
    for x in range(space.n):
        if x in sub.members:
            rows.append(SignedMeasure.dirac(space, x))
            continue
        w = rng.uniform(0.05, 1.0, size=sub.size)
        rows.append(SignedMeasure(space, dict(zip(sub.members, (w / w.sum()).tolist()))))
    return RandomProjection(sub, tuple(rows), strong=True)


def gentle_partition(rng: np.random.Generator, sub: Subspace, outcomes: int) -> GentlePartition:
    """Random weights and anchors; exterior columns average to one, member columns vanish."""
    space = sub.parent
    weights = rng.uniform(0.2, 1.0, size=outcomes)
    weights /= weights.sum()
    gamma = tuple(int(sub.members[int(i)]) for i in rng.integers(sub.size, size=outcomes))
    psi = rng.uniform(0.0, 1.0, size=(outcomes, space.n))
    psi /= weights @ psi
    psi[:, list(sub.members)] = 0.0
    return GentlePartition(sub, weights, psi, gamma)
