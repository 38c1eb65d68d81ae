"""Seeded generators shared by the whole suite.

Every generator takes an explicit numpy Generator; nothing here touches
ambient entropy.  Spaces come in two flavours: Euclidean point clouds
(metric for free) and repaired random matrices (symmetrize, then take
the shortest-path closure), which produce distance matrices with no
geometric structure at all.
"""

from __future__ import annotations

import math

import numpy as np

from krext import (
    FiniteMetricSpace,
    GentlePartition,
    PointFunction,
    RandomProjection,
    SignedMeasure,
    Subspace,
)
from krext.optim import LinearProgram


def rand_space(rng: np.random.Generator, n: int, dim: int = 2) -> FiniteMetricSpace:
    """Euclidean point cloud with distinct points and a random basepoint."""
    while True:
        pts = rng.uniform(-5.0, 5.0, size=(n, dim))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        np.fill_diagonal(d, 0.0)
        off = d[~np.eye(n, dtype=bool)]
        if n == 1 or off.min() > 1e-3:
            break
    labels = tuple(f"p{i}" for i in range(n))
    return FiniteMetricSpace(labels, d, basepoint=int(rng.integers(n)))


def rand_repaired_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """Random symmetric matrix pushed into a metric by shortest paths."""
    raw = rng.uniform(0.5, 4.0, size=(n, n))
    d = (raw + raw.T) / 2.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):  # Floyd-Warshall closure enforces the triangle inequality
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    labels = tuple(f"q{i}" for i in range(n))
    return FiniteMetricSpace(labels, d, basepoint=int(rng.integers(n)))


def rand_measure(rng: np.random.Generator, space: FiniteMetricSpace,
                 nonneg: bool = False) -> SignedMeasure:
    """Sparse random measure; signed unless nonneg is set."""
    n = space.n
    size = int(rng.integers(1, n + 1))
    support = rng.choice(n, size=size, replace=False)
    coeff = {}
    for i in support:
        c = float(rng.uniform(0.05, 2.0))
        if not nonneg and rng.random() < 0.5:
            c = -c
        coeff[int(i)] = c
    return SignedMeasure(space, coeff)


def rand_subspace(rng: np.random.Generator, space: FiniteMetricSpace,
                  size: int | None = None) -> Subspace:
    """Random subset containing the basepoint."""
    n = space.n
    if size is None:
        size = int(rng.integers(1, n + 1))
    others = [x for x in range(n) if x != space.basepoint]
    pick = rng.choice(len(others), size=size - 1, replace=False) if size > 1 else []
    members = tuple(sorted([space.basepoint] + [others[int(i)] for i in pick]))
    return Subspace(space, members)


def _normalized(rng: np.random.Generator, k: int) -> np.ndarray:
    w = rng.uniform(0.1, 1.0, size=k)
    return w / math.fsum(w)


def rand_strong_projection(rng: np.random.Generator, subset: Subspace) -> RandomProjection:
    """Random probability rows on the subset; member rows are point masses."""
    space = subset.parent
    members = list(subset.members)
    rows = []
    for x in range(space.n):
        if x in set(members):
            rows.append(SignedMeasure.dirac(space, x))
            continue
        size = int(rng.integers(1, len(members) + 1))
        chosen = rng.choice(len(members), size=size, replace=False)
        w = _normalized(rng, size)
        rows.append(SignedMeasure(space, {members[int(c)]: float(v) for c, v in zip(chosen, w)}))
    return RandomProjection(subset, tuple(rows), strong=True)


def rand_signed_projection(rng: np.random.Generator, subset: Subspace) -> RandomProjection:
    """Random signed rows on the subset (no mass constraint)."""
    space = subset.parent
    members = list(subset.members)
    rows = []
    for x in range(space.n):
        if x in set(members):
            rows.append(SignedMeasure.dirac(space, x))
            continue
        size = int(rng.integers(1, len(members) + 1))
        chosen = rng.choice(len(members), size=size, replace=False)
        coeff = {members[int(c)]: float(rng.uniform(-1.5, 1.5)) for c in chosen}
        rows.append(SignedMeasure(space, coeff))
    return RandomProjection(subset, tuple(rows), strong=False)


def rand_gentle(rng: np.random.Generator, subset: Subspace,
                n_outcomes: int | None = None) -> GentlePartition:
    """Random partition: every member anchors at least one outcome.

    Member columns use the pushforward form (mass on their own anchor
    outcomes only), exterior columns are positive and average to one.
    """
    space = subset.parent
    members = list(subset.members)
    k = n_outcomes if n_outcomes is not None else int(rng.integers(len(members), len(members) + 4))
    if k < len(members):
        raise ValueError("need at least one outcome per member")
    extra = rng.choice(len(members), size=k - len(members), replace=True)
    gamma = members + [members[int(i)] for i in extra]
    rng.shuffle(gamma)
    weights = _normalized(rng, k)
    psi = np.zeros((k, space.n))
    for x in range(space.n):
        if x in set(members):
            anchored = [w for w in range(k) if gamma[w] == x]
            raw = rng.uniform(0.2, 1.0, size=len(anchored))
            total = math.fsum(float(weights[w]) * raw[i] for i, w in enumerate(anchored))
            for i, w in enumerate(anchored):
                psi[w, x] = raw[i] / total
        else:
            raw = rng.uniform(0.05, 1.0, size=k)
            total = math.fsum(float(weights[w]) * raw[w] for w in range(k))
            psi[:, x] = raw / total
    return GentlePartition(subset, weights, psi, tuple(gamma))


def rand_subset_function(rng: np.random.Generator, subset: Subspace,
                         dim: int = 1, norm: str = "abs",
                         zero_at_base: bool = False) -> PointFunction:
    """Random function on the subset's induced space."""
    sub_space = subset.to_space()
    values = rng.uniform(-3.0, 3.0, size=(sub_space.n, dim))
    if zero_at_base:
        values[sub_space.basepoint, :] = 0.0
    return PointFunction(sub_space, values, norm)


def synthesis_lp_loops(space: FiniteMetricSpace, subset: Subspace, mode: str) -> LinearProgram:
    """The joint minimal-K synthesis LP, built row by row.

    Variables: K, one coefficient per (exterior point, member), and one
    transport-flow block per pair of points not both inside the subset.
    Each block certifies that moving rows[x] onto rows[y] costs at most
    K*d(x, y); the basepoint's balance row is dropped, which lets its
    coefficient float exactly as the dual-Lip pairing allows.  Member
    pairs reduce to the single row K >= 1.  Its optimum is K*.  The LP
    is built on the metric scaled into [0, 1) by a power of two, so that
    it is the same for every power-of-two unit.
    """
    n = space.n
    members = subset.members
    member_set = set(members)
    exterior = tuple(x for x in range(n) if x not in member_set)
    d = np.ldexp(space.dist, -math.frexp(space.diameter)[1])
    bp = space.basepoint
    m = len(members)
    arcs = [(a, b) for a in members for b in members if a != b]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not (i in member_set and j in member_set)]
    ext_index = {x: k for k, x in enumerate(exterior)}
    mem_pos = {mm: k for k, mm in enumerate(members)}

    def rvar(x, mm):
        return 1 + ext_index[x] * m + mem_pos[mm]

    n_vars = 1 + len(exterior) * m + len(pairs) * len(arcs)
    rows, senses, rhs = [], [], []

    def new_row(sense, value):
        rows.append(np.zeros(n_vars))
        senses.append(sense)
        rhs.append(value)
        return rows[-1]

    for x in exterior:
        row = new_row("==", 1.0)
        for mm in members:
            row[rvar(x, mm)] = 1.0
    new_row(">=", 1.0)[0] = 1.0
    for p_idx, (i, j) in enumerate(pairs):
        base = 1 + len(exterior) * m + p_idx * len(arcs)
        for mm in members:
            if mm == bp:
                continue
            const = 0.0
            if i in member_set:
                const += 1.0 if i == mm else 0.0
            if j in member_set:
                const -= 1.0 if j == mm else 0.0
            row = new_row("==", const)
            for a_idx, (a, b) in enumerate(arcs):
                if a == mm:
                    row[base + a_idx] += 1.0
                if b == mm:
                    row[base + a_idx] -= 1.0
            if i not in member_set:
                row[rvar(i, mm)] -= 1.0
            if j not in member_set:
                row[rvar(j, mm)] += 1.0
        row = new_row("<=", 0.0)
        for a_idx, (a, b) in enumerate(arcs):
            row[base + a_idx] = float(d[a, b])
        row[0] = -float(d[i, j])
    lb = np.zeros(n_vars)
    if mode == "signed":
        for x in exterior:
            for mm in members:
                lb[rvar(x, mm)] = -np.inf
    c = np.zeros(n_vars)
    c[0] = 1.0
    return LinearProgram(c, np.array(rows), tuple(senses), np.array(rhs), lb=lb)
