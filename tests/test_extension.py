"""Lipschitz norms, the largest scalar extension, and projection extensions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_signed_projection,
    rand_space,
    rand_strong_projection,
    rand_subset_function,
    rand_subspace,
)
from krext import (
    ContractError,
    FiniteMetricSpace,
    PointFunction,
    SignedMeasure,
    Subspace,
    extend_by_projection,
    identity_projection,
    lip_norm,
    mcshane_extend,
    operator_norm,
    projection_constant,
    RandomProjection,
    subspace_from_labels,
    synthesize_min_k,
    uniform_discrete_projection,
)
from krext import extension
from krext.extension import _worst_pair
from krext.optim import LinearProgram, solve_lp
from test_metric import three_point
from test_projections import separated_example


# ---------------------------------------------------------------------------
# the function type and its norm


def test_point_function_shapes_and_norms():
    space = three_point()
    f = PointFunction.scalar(space, [0.0, 1.0, 2.0])
    assert f.dim == 1 and f.norm == "abs"
    g = PointFunction(space, np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5]]), "sup")
    assert g.dim == 2
    with pytest.raises(ContractError):
        PointFunction(space, np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5]]), "abs")
    with pytest.raises(ContractError):
        PointFunction(space, np.zeros((3, 1)), "manhattan")
    with pytest.raises(ContractError):
        PointFunction(space, np.zeros((2, 1)), "abs")


def test_lip_norm_constant_function_is_zero():
    space = three_point()
    assert lip_norm(PointFunction.scalar(space, [4.0, 4.0, 4.0])) == 0.0


def test_lip_norm_distance_to_basepoint():
    space = three_point()
    f = PointFunction.scalar(space, [space.d(i, space.basepoint) for i in range(3)])
    # d(., base) is always 1-Lipschitz and attains 1 against the basepoint
    assert lip_norm(f) == pytest.approx(1.0, abs=1e-12)


def test_lip_norm_single_pair():
    space = three_point()
    sub = Subspace(space, (0, 1)).to_space()
    f = PointFunction.scalar(sub, [0.0, 2.0])
    assert lip_norm(f) == pytest.approx(2.0, abs=0.0)


def test_lip_norm_vector_targets():
    space = three_point()
    values = np.array([[0.0, 0.0], [3.0, -4.0], [0.0, 0.0]])
    assert lip_norm(PointFunction(space, values, "euclid")) == pytest.approx(5.0, abs=1e-12)
    assert lip_norm(PointFunction(space, values, "sup")) == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# largest L-Lipschitz extension


def test_mcshane_full_subset_returns_function_unchanged():
    space = three_point()
    sub = Subspace(space, (0, 1, 2))
    f = PointFunction.scalar(space, [0.0, 1.0, -0.5])
    out = mcshane_extend(sub, f)
    assert np.array_equal(out.values, f.values)


def test_mcshane_three_point_example():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    f = PointFunction.scalar(sub.to_space(), [0.0, 1.0])
    out = mcshane_extend(sub, f, L=1.0)
    # min(f(a) + d(a,c), f(b) + d(b,c)) = min(2, 2.5)
    assert out.values[2, 0] == pytest.approx(2.0, abs=0.0)
    assert out.values[0, 0] == 0.0 and out.values[1, 0] == 1.0


def test_mcshane_zero_function_zero_budget():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    f = PointFunction.scalar(sub.to_space(), [0.0, 0.0])
    out = mcshane_extend(sub, f, L=0.0)
    assert np.all(out.values == 0.0)


def test_mcshane_rejects_too_small_budget():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    f = PointFunction.scalar(sub.to_space(), [0.0, 1.0])
    with pytest.raises(ContractError, match="Lipschitz"):
        mcshane_extend(sub, f, L=0.5)


def test_mcshane_budget_check_is_relative_to_the_lipschitz_constant():
    # f = [0, s] on two points at distance 1 has Lip = s; L = 0 is too small at every scale
    space = FiniteMetricSpace(("a", "b", "c"), np.array([[0.0, 1.0, 2.0],
                                                         [1.0, 0.0, 1.0],
                                                         [2.0, 1.0, 0.0]]))
    sub = subspace_from_labels(space, ["a", "b"])
    for k in range(-60, 61, 5):
        s = 2.0 ** k
        f = PointFunction.scalar(sub.to_space(), [0.0, s])
        with pytest.raises(ContractError, match="below the Lipschitz constant"):
            mcshane_extend(sub, f, L=0.0)
        with pytest.raises(ContractError, match="below the Lipschitz constant"):
            mcshane_extend(sub, f, L=s * (1.0 - 1e-6))
        out = mcshane_extend(sub, f, L=s)
        assert lip_norm(out) == s


def worst_pair_loops(f: PointFunction) -> tuple[int, int, float]:
    """The worst pair in its original loop form: first (i, j), i < j, in row order."""
    space = f.space
    best = (0, 0, 0.0)
    for i in range(space.n):
        for j in range(i + 1, space.n):
            v = f.values[i] - f.values[j]
            if f.norm == "sup":
                size = float(np.max(np.abs(v)))
            elif f.norm == "euclid":
                size = math.sqrt(math.fsum(float(t) * float(t) for t in v))
            else:
                size = abs(float(v[0]))
            q = size / float(space.dist[i, j])
            if q > best[2]:
                best = (i, j, q)
    return best


def test_worst_pair_matches_the_loop_reference():
    # integer values on an integer line make many pairs tie for the maximum
    rng = np.random.default_rng(59)
    for trial in range(60):
        n = int(rng.integers(1, 8))
        coords = np.sort(rng.choice(np.arange(20.0), size=n, replace=False))
        space = FiniteMetricSpace(tuple(f"x{i}" for i in range(n)),
                                  np.abs(np.subtract.outer(coords, coords)))
        norm = ("abs", "sup", "euclid")[trial % 3]
        dim = 1 if norm == "abs" else int(rng.integers(1, 4))
        values = rng.integers(-2, 3, size=(n, dim)).astype(float)
        if trial % 2:
            values = values * rng.uniform(0.5, 2.0)
        f = PointFunction(space, values, norm)
        i, j, q = _worst_pair(f)
        ri, rj, rq = worst_pair_loops(f)
        assert (i, j) == (ri, rj)
        assert q == pytest.approx(rq, rel=1e-15, abs=0.0)


def test_mcshane_rejects_vector_targets():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    f = PointFunction(sub.to_space(), np.zeros((2, 2)), "sup")
    with pytest.raises(ContractError):
        mcshane_extend(sub, f)


def _sandwich_competitor(rng, space, subset, f, L):
    """A random L-Lipschitz extension built point by point.

    Each unassigned point gets a uniform value from the interval that the
    already-assigned values still allow; the interval is never empty when
    L dominates the Lipschitz constant of the assigned part.
    """
    values = np.full(space.n, np.nan)
    for local, m in enumerate(subset.members):
        values[m] = f.values[local, 0]
    todo = [x for x in range(space.n) if np.isnan(values[x])]
    rng.shuffle(todo)
    for x in todo:
        known = [q for q in range(space.n) if not np.isnan(values[q])]
        lower = max(values[q] - L * space.d(x, q) for q in known)
        upper = min(values[q] + L * space.d(x, q) for q in known)
        assert lower <= upper + 1e-12
        values[x] = rng.uniform(lower, min(upper, lower + (upper - lower)))
    return values


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mcshane_dominates_every_extension(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 8)))
    subset = rand_subspace(rng, space)
    f = rand_subset_function(rng, subset)
    L = lip_norm(f) * float(rng.uniform(1.0, 1.5)) + 0.1
    out = mcshane_extend(subset, f, L=L)
    assert lip_norm(out) <= L + 1e-9
    for m, local in zip(subset.members, range(subset.size)):
        assert out.values[m, 0] == f.values[local, 0]
    for _ in range(10):
        competitor = _sandwich_competitor(rng, space, subset, f, L)
        assert np.all(competitor <= out.values[:, 0] + 1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mcshane_preserves_lip_norm_at_default_budget(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 8)))
    subset = rand_subspace(rng, space)
    f = rand_subset_function(rng, subset)
    out = mcshane_extend(subset, f)
    assert lip_norm(out) == pytest.approx(lip_norm(f), abs=1e-9)


# ---------------------------------------------------------------------------
# linear extension through a projection


def test_extend_identity_projection_returns_function():
    space = three_point()
    p = identity_projection(space)
    values = np.array([[0.0], [1.0], [-2.0]])
    values[space.basepoint] = 0.0
    f = PointFunction.scalar(space, values[:, 0])
    out = extend_by_projection(p, f)
    assert np.array_equal(out.values, f.values)


def _three_point_projection():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    rows = (
        SignedMeasure.dirac(space, 0),
        SignedMeasure.dirac(space, 1),
        SignedMeasure(space, {0: 0.4, 1: 0.6}),
    )
    return space, sub, RandomProjection(sub, rows, strong=True)


def test_extend_weighted_row_example():
    space, sub, p = _three_point_projection()
    f = PointFunction.scalar(sub.to_space(), [0.0, 1.0])
    out = extend_by_projection(p, f)
    assert out.values[2, 0] == pytest.approx(0.6, abs=0.0)


def test_extend_vector_target_coordinatewise():
    space, sub, p = _three_point_projection()
    f = PointFunction(sub.to_space(), np.array([[0.0, 0.0], [1.0, -1.0]]), "sup")
    out = extend_by_projection(p, f)
    assert out.values[2, 0] == pytest.approx(0.6, abs=0.0)
    assert out.values[2, 1] == pytest.approx(-0.6, abs=0.0)


def test_extend_requires_vanishing_at_basepoint():
    space, sub, p = _three_point_projection()
    f = PointFunction.scalar(sub.to_space(), [0.5, 1.0])
    with pytest.raises(ContractError, match="basepoint"):
        extend_by_projection(p, f)


def test_extend_is_linear():
    rng = np.random.default_rng(31)
    space = rand_space(rng, 6)
    subset = rand_subspace(rng, space, size=3)
    p = rand_strong_projection(rng, subset)
    f = rand_subset_function(rng, subset, zero_at_base=True)
    g = rand_subset_function(rng, subset, zero_at_base=True)
    a, b = 2.5, -1.25
    combo = PointFunction(f.space, a * f.values + b * g.values, f.norm)
    lhs = extend_by_projection(p, combo).values
    rhs = a * extend_by_projection(p, f).values + b * extend_by_projection(p, g).values
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-12)


def test_extend_restricts_to_f_on_members():
    rng = np.random.default_rng(33)
    space = rand_space(rng, 7)
    subset = rand_subspace(rng, space, size=4)
    p = rand_strong_projection(rng, subset)
    f = rand_subset_function(rng, subset, dim=3, norm="sup", zero_at_base=True)
    out = extend_by_projection(p, f)
    for local, m in enumerate(subset.members):
        assert np.array_equal(out.values[m], f.values[local])


# ---------------------------------------------------------------------------
# the operator norm, two ways


def test_operator_norm_identity_projection():
    space = three_point()
    assert operator_norm(identity_projection(space)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_uniformly_discrete_bound():
    # two members at distance 10 in a line: the norm stays within 2D/eps = 2
    d = np.abs(np.subtract.outer([0.0, 3.0, 8.0, 10.0], [0.0, 3.0, 8.0, 10.0]))
    space = FiniteMetricSpace(("0", "3", "8", "10"), d)
    sub = subspace_from_labels(space, ["0", "10"])
    p = uniform_discrete_projection(space, sub, eps=10.0, t0=0)
    assert operator_norm(p) <= 2.0 + 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_operator_norm_agrees_with_projection_constant(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 6)))
    subset = rand_subspace(rng, space)
    for build in (rand_strong_projection, rand_signed_projection):
        p = build(rng, subset)
        assert operator_norm(p) == pytest.approx(projection_constant(p), abs=1e-9)


def rescaled(p: RandomProjection, s: float) -> RandomProjection:
    """The same rows on the space whose distances are s times p's."""
    space = FiniteMetricSpace(p.space.labels, p.space.dist * s, p.space.basepoint)
    rows = tuple(SignedMeasure(space, row.coeff) for row in p.rows)
    return RandomProjection(Subspace(space, p.subset.members), rows, p.strong)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operator_norm_does_not_depend_on_the_unit(seed):
    # solve_lp's floors are absolute, so operator_norm poses every pair LP on
    # the metric scaled to unit diameter: a power-of-two unit changes no bit
    rng = np.random.default_rng(seed)
    space = rand_space(rng, 7)
    p = synthesize_min_k(space, rand_subspace(rng, space, 3)).projection
    unit = operator_norm(p)
    for k in (-1000, -500, 500, 1000):
        assert operator_norm(rescaled(p, 2.0 ** k)) == unit
    for s in (1e-300, 1e300):
        q = rescaled(p, s)
        assert operator_norm(q) == pytest.approx(projection_constant(q), abs=1e-9)


def test_operator_norm_at_the_largest_distances():
    space = FiniteMetricSpace(("a", "b", "c"), 1e308 * (1.0 - np.eye(3)))
    p = synthesize_min_k(space, Subspace(space, (0, 1))).projection
    assert operator_norm(p) == pytest.approx(projection_constant(p), abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_extension_operator_respects_the_norm_bound(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 7)))
    subset = rand_subspace(rng, space)
    p = rand_strong_projection(rng, subset)
    dim = int(rng.integers(1, 4))
    norm = "abs" if dim == 1 else ("sup" if seed % 2 else "euclid")
    f = rand_subset_function(rng, subset, dim=dim, norm=norm, zero_at_base=True)
    out = extend_by_projection(p, f)
    assert lip_norm(out) <= projection_constant(p) * lip_norm(f) + 1e-9


def operator_norm_loops(upsilon, tol=1e-9):
    """Reference operator_norm: one LP per pair of rows that differ off the basepoint.

    As in operator_norm, the LPs live on the metric divided by the least
    power of two above the diameter.
    """
    e = math.frexp(upsilon.space.diameter)[1]
    msp = upsilon.subset.to_space()
    free = [k for k in range(msp.n) if k != msp.basepoint]
    pairs = [(i, j) for i in free for j in free if i != j]
    A = np.zeros((len(pairs), len(free)))
    for r, (i, j) in enumerate(pairs):
        A[r, free.index(i)] = 1.0
        A[r, free.index(j)] = -1.0
    b = np.array([math.ldexp(msp.dist[i, j], -e) for i, j in pairs])
    bound = np.ldexp(msp.dist[free, msp.basepoint], -e)
    best = 0.0
    for x in range(upsilon.space.n):
        for y in range(x + 1, upsilon.space.n):
            c = (upsilon.coeffs[x] - upsilon.coeffs[y])[free]
            if np.any(c):
                res = solve_lp(LinearProgram(c=c, A=A, senses=("<=",) * b.size, b=b,
                                             lb=-bound, ub=bound, maximize=True), tol=tol)
                best = max(best, res.objective / math.ldexp(upsilon.space.dist[x, y], -e))
    return best


def test_operator_norm_solves_each_row_difference_once(monkeypatch):
    p = separated_example()
    free = [k for k, m in enumerate(p.subset.members) if m != p.space.basepoint]
    i, j = np.triu_indices(p.space.n, 1)
    diffs = (p.coeffs[i] - p.coeffs[j])[:, free]
    distinct = {row.tobytes() for row in diffs[np.any(diffs, axis=1)]}
    calls = []

    def spy(lp, tol=1e-9):
        calls.append(lp)
        return solve_lp(lp, tol=tol)

    monkeypatch.setattr(extension, "solve_lp", spy)
    value = operator_norm(p)
    assert len(calls) == len(distinct) < np.count_nonzero(np.any(diffs, axis=1))
    monkeypatch.undo()
    assert value == operator_norm_loops(p)
