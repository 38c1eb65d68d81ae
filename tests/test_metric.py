"""Metric validation, restriction, subsets, and the doubling estimate."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_repaired_space, rand_space, rand_subspace
from krext import (
    ContractError,
    FiniteMetricSpace,
    MalformedInputError,
    SignedMeasure,
    Subspace,
    Violation,
    doubling_estimate,
    kr_norm,
    restrict,
    require_valid_metric,
    subspace_from_labels,
    validate_metric,
    verify_duality,
)
from krext import metric
from krext.families import grid_space


def three_point() -> FiniteMetricSpace:
    return FiniteMetricSpace(
        ("a", "b", "c"),
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]),
        basepoint=0,
    )


def damaged_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """A seeded space with some metric axioms broken.

    Off-diagonal entries are shifted, negated or zeroed, the matrix may be
    rounded to integers (ties), and one diagonal entry may be negative or
    a quarter of the smallest positive distance.  A larger diagonal entry
    would stall doubling_estimate_loops, which re-picks a point that its
    own half-radius ball does not cover.
    """
    base = rand_space(rng, n) if rng.random() < 0.5 else rand_repaired_space(rng, n)
    d = base.dist.copy()
    if rng.random() < 0.4:
        d = np.round(d)
    for _ in range(int(rng.integers(0, 4)) if n > 1 else 0):
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        kind = rng.integers(3)
        if kind == 0:
            d[i, j] += rng.uniform(-1.0, 1.0)        # asymmetric
        elif kind == 1:
            d[i, j] = d[j, i] = -abs(d[i, j])        # negative
        else:
            d[i, j] = d[j, i] = 0.0                  # merged points
    upper = d[np.triu_indices(n, 1)]
    upper = upper[upper > 0]
    if upper.size and rng.random() < 0.4:
        i = int(rng.integers(n))
        d[i, i] = -1.0 if rng.random() < 0.5 else upper.min() / 4.0
    return FiniteMetricSpace(base.labels, d, base.basepoint)


def integer_space(rng: np.random.Generator, n: int, diagonal=(-1, 0, 1)) -> FiniteMetricSpace:
    """A small-integer matrix in [-1, 4] with largest entry 4, symmetric half the time.

    At tol = 1/4 every check's threshold is exactly 1, so entries land on it.
    """
    d = rng.integers(-1, 5, size=(n, n)).astype(float)
    if rng.random() < 0.5:
        d = np.triu(d, 1) + np.triu(d, 1).T
    d[0, n - 1] = 4.0
    np.fill_diagonal(d, rng.choice(diagonal, size=n))
    return FiniteMetricSpace(tuple(f"z{i}" for i in range(n)), d)


# ---------------------------------------------------------------------------
# construction and validation


def validate_metric_loops(space: FiniteMetricSpace, tol: float = 1e-9) -> list[Violation]:
    """Loop-form reference for validate_metric: the same report, entry by entry."""
    d = space.dist
    n = space.n
    scale = float(d.max()) if n > 1 else 1.0
    eff = tol * max(scale, 1e-300)
    out: list[Violation] = []

    for i in range(n):
        if abs(d[i, i]) > eff:
            out.append(Violation("diagonal", (i,), float(abs(d[i, i]))))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] < -eff:
                out.append(Violation("nonnegative", (i, j), float(-d[i, j])))
            gap = abs(d[i, j] - d[j, i])
            if gap > eff:
                out.append(Violation("symmetry", (i, j), float(gap)))
            if d[i, j] <= eff:
                out.append(Violation("separation", (i, j), float(abs(d[i, j]))))
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            through = d[i, j] + d[j, :]
            slack = d[i, :] - through
            for k in np.nonzero(slack > eff)[0]:
                if k != i and k != j and k > i:
                    out.append(Violation("triangle", (i, j, int(k)), float(slack[k])))
    return out


def bitwise(report: list[Violation]) -> list[tuple]:
    return [(v.kind, v.indices, v.excess.hex()) for v in report]


def test_validate_metric_matches_the_loop_reference():
    rng = np.random.default_rng(23)
    kinds = set()
    for _ in range(120):
        space = damaged_space(rng, int(rng.integers(1, 11)))
        for tol in (1e-9, 0.05):
            want = validate_metric_loops(space, tol)
            got = validate_metric(space, tol)
            assert bitwise(got) == bitwise(want)
            assert all(type(i) is int for v in got for i in v.indices)
            kinds.update(v.kind for v in want)
    assert kinds == {"diagonal", "nonnegative", "symmetry", "separation", "triangle"}
    for _ in range(60):
        space = integer_space(rng, int(rng.integers(2, 8)))
        assert bitwise(validate_metric(space, 0.25)) == bitwise(validate_metric_loops(space, 0.25))
    for k in (2, 3, 4):
        assert validate_metric(grid_space(k)) == validate_metric_loops(grid_space(k)) == []


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_validate_metric_reads_chunks_in_loop_order(monkeypatch, rows):
    monkeypatch.setattr(metric, "_BLOCK_FLOATS", rows * 12 * 12)
    rng = np.random.default_rng(29)
    for _ in range(20):
        space = damaged_space(rng, 12)
        d = space.dist.copy()
        for i in (0, 5, 10):  # long edges put triangles in several chunks
            d[i, 11] = d[11, i] = d.max() * 3.0
        space = FiniteMetricSpace(space.labels, d, space.basepoint)
        want = validate_metric_loops(space)
        assert {v.indices[0] for v in want if v.kind == "triangle"} >= {0, 5, 10}
        assert bitwise(validate_metric(space)) == bitwise(want)


def test_one_point_space_is_valid():
    space = FiniteMetricSpace(("x",), np.array([[0.0]]))
    assert validate_metric(space) == []


def test_three_point_space_is_valid():
    space = three_point()
    assert validate_metric(space) == []
    # all six ordered triangle constraints hold, checked by enumeration
    d = space.dist
    for i, j, k in itertools.permutations(range(3)):
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def far_three_point() -> FiniteMetricSpace:
    """Three points, each pair at distance 1e308: every sum of two overflows."""
    dist = np.full((3, 3), 1e308)
    np.fill_diagonal(dist, 0.0)
    return FiniteMetricSpace(("a", "b", "c"), dist)


def test_space_whose_triangle_sums_overflow_is_valid():
    # every d(i, j) + d(j, k) overflows to +inf, which no distance exceeds;
    # pytest turns the overflow warning into an error
    assert validate_metric(far_three_point()) == []


def test_kr_norm_certifies_a_dirac_difference_at_the_largest_distances():
    # the certificate's g_i - g_j - d(i, j) overflows to -inf, on the safe
    # side; pytest turns the overflow warning into an error
    space = far_three_point()
    res = kr_norm(SignedMeasure.dirac(space, 1) - SignedMeasure.dirac(space, 2))
    assert (res.value, res.gap) == (1e308, 0.0)
    assert verify_duality(res) == (True, "ok")
    # mass times diameter overflows, yet the certificate still refuses a wrong value
    ok, msg = verify_duality(dataclasses.replace(res, value=1.0))
    assert not ok and "disagrees with the reported value" in msg


def test_triangle_violation_reported_with_excess():
    space = FiniteMetricSpace(
        ("a", "b", "c"),
        np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.5], [3.0, 1.5, 0.0]]),
    )
    report = validate_metric(space)
    triangles = [v for v in report if v.kind == "triangle"]
    assert len(triangles) == 1
    assert set(triangles[0].indices) == {0, 1, 2}
    assert triangles[0].excess == pytest.approx(0.5, abs=1e-12)


def test_each_axiom_violation_detected():
    base = three_point().dist.copy()

    asym = base.copy()
    asym[0, 1] = 1.2
    kinds = {v.kind for v in validate_metric(FiniteMetricSpace(("a", "b", "c"), asym))}
    assert "symmetry" in kinds

    diag = base.copy()
    diag[1, 1] = 0.3
    kinds = {v.kind for v in validate_metric(FiniteMetricSpace(("a", "b", "c"), diag))}
    assert "diagonal" in kinds

    merged = base.copy()
    merged[0, 1] = merged[1, 0] = 0.0
    kinds = {v.kind for v in validate_metric(FiniteMetricSpace(("a", "b", "c"), merged))}
    assert "separation" in kinds

    neg = base.copy()
    neg[0, 1] = neg[1, 0] = -1.0
    kinds = {v.kind for v in validate_metric(FiniteMetricSpace(("a", "b", "c"), neg))}
    assert "nonnegative" in kinds


def test_require_valid_metric_names_points():
    space = FiniteMetricSpace(
        ("a", "b", "c"),
        np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.5], [3.0, 1.5, 0.0]]),
    )
    with pytest.raises(ContractError, match="triangle"):
        require_valid_metric(space)


def test_report_is_scale_invariant():
    space = FiniteMetricSpace(
        ("a", "b", "c"),
        np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.5], [3.0, 1.5, 0.0]]),
    )
    scaled = FiniteMetricSpace(space.labels, space.dist * 1e6, space.basepoint)
    assert [v.kind for v in validate_metric(space)] == [v.kind for v in validate_metric(scaled)]


def test_structural_errors_raise_immediately():
    with pytest.raises(MalformedInputError):
        FiniteMetricSpace((), np.zeros((0, 0)))
    with pytest.raises(MalformedInputError):
        FiniteMetricSpace(("a", "a"), np.zeros((2, 2)))
    with pytest.raises(MalformedInputError):
        FiniteMetricSpace(("a", "b"), np.zeros((2, 3)))
    with pytest.raises(MalformedInputError):
        FiniteMetricSpace(("a", "b"), np.array([[0.0, np.inf], [np.inf, 0.0]]))
    with pytest.raises(MalformedInputError):
        FiniteMetricSpace(("a", "b"), np.zeros((2, 2)), basepoint=5)


def test_indices_must_be_integers():
    d = three_point().dist
    # a float basepoint used to construct, then break repr and kr_norm
    for basepoint in (1.5, 1.0, "1", None):
        with pytest.raises(MalformedInputError, match="integer index"):
            FiniteMetricSpace(("a", "b", "c"), d, basepoint=basepoint)
    # a float member used to be truncated silently onto point 1
    for members in ((0, 1.5), (0.0, 2), (0, "1")):
        with pytest.raises(ContractError, match="integer indices"):
            Subspace(three_point(), members)
    space = FiniteMetricSpace(("a", "b", "c"), d, basepoint=np.int64(2))
    assert type(space.basepoint) is int and repr(space) == "FiniteMetricSpace(n=3, basepoint='c')"
    assert space == FiniteMetricSpace(("a", "b", "c"), d, basepoint=2)
    members = Subspace(space, (np.int32(2), np.int64(0))).members
    assert members == (0, 2) and all(type(m) is int for m in members)


@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_generated_spaces_are_valid(seed, n):
    rng = np.random.default_rng(seed)
    assert validate_metric(rand_space(rng, n)) == []
    assert validate_metric(rand_repaired_space(rng, n)) == []


# ---------------------------------------------------------------------------
# restriction and subsets


def test_restrict_to_all_points_is_identity():
    space = three_point()
    assert restrict(space, (0, 1, 2)) == space


def test_restrict_extracts_submatrix():
    space = three_point()
    sub = restrict(space, (0, 1))
    assert sub.labels == ("a", "b")
    assert np.array_equal(sub.dist, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sub.basepoint == 0


def test_restrict_requires_basepoint():
    with pytest.raises(ContractError, match="basepoint"):
        restrict(three_point(), (1, 2))


@pytest.mark.parametrize("members, message", [
    ((0, 1, 1), "distinct"), ((), "nonempty"), ((0, 3), "out of range"), ((-1, 0), "out of range"),
])
def test_restrict_rejects_a_bad_subset(members, message):
    with pytest.raises(ContractError, match=message):
        restrict(three_point(), members)


def test_subspace_membership_and_complement():
    space = three_point()
    sub = Subspace(space, (0, 2))
    assert 0 in sub and 2 in sub and 1 not in sub
    assert sub.complement() == (1,)
    assert sub.local_index(2) == 1
    with pytest.raises(ContractError):
        sub.local_index(1)


def test_synthesis_and_doubling_do_not_import_numpy_ma():
    # np.unique, and np.setdiff1d through it, imports numpy.ma: about 20 ms
    # of start-up for each krext process that reaches one of these calls
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from krext import FiniteMetricSpace, Subspace, doubling_estimate, synthesize_min_k
        pts = np.random.default_rng(3).uniform(size=(7, 2))
        d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
        space = FiniteMetricSpace(tuple("abcdefg"), d, 0)
        subset = Subspace(space, (0, 2, 4))
        synthesize_min_k(space, subset)
        synthesize_min_k(space, subset, mode="signed")
        assert subset.complement() == (1, 3, 5, 6)
        doubling_estimate(space)
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(metric.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == ["False"]


def test_subspace_from_labels():
    space = three_point()
    sub = subspace_from_labels(space, ["c", "a"])
    assert sub.members == (0, 2)
    with pytest.raises(ContractError):
        subspace_from_labels(space, ["a", "zz"])


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_restriction_of_metric_is_metric(seed, n):
    rng = np.random.default_rng(seed)
    space = rand_repaired_space(rng, n)
    assert validate_metric(restrict(space, rand_subspace(rng, space).members)) == []


# ---------------------------------------------------------------------------
# doubling estimate


def doubling_estimate_loops(space: FiniteMetricSpace) -> int:
    """Loop-form reference for doubling_estimate: one greedy cover per ball."""
    d = space.dist
    n = space.n
    best = 1
    for c in range(n):
        radii = sorted({float(d[c, x]) for x in range(n) if x != c and d[c, x] > 0})
        for r in radii:
            ball = np.nonzero(d[c] <= r)[0]
            if len(ball) == 0:
                continue
            uncovered = set(int(p) for p in ball)
            count = 0
            while uncovered:
                far = max(uncovered, key=lambda p: (d[c, p], -p))
                count += 1
                uncovered = {q for q in uncovered if d[far, q] > r / 2.0}
            best = max(best, count)
    return best


def test_doubling_matches_the_loop_reference():
    rng = np.random.default_rng(31)
    for _ in range(80):
        space = damaged_space(rng, int(rng.integers(1, 11)))
        assert doubling_estimate(space) == doubling_estimate_loops(space)
    for _ in range(10):
        space = rand_space(rng, 14)
        assert doubling_estimate(space) == doubling_estimate_loops(space)
    # nonpositive diagonals: a positive one can stall the loop form (see damaged_space)
    for _ in range(150):
        space = integer_space(rng, int(rng.integers(2, 9)), diagonal=(-1, 0))
        assert doubling_estimate(space) == doubling_estimate_loops(space)
    # radii come from row c, the row that builds B(c, r); rows b and c hold 4 here
    d = np.array([[0, 1, 0, 2], [4, 0, 1, 2], [4, 1, 0, 1], [0, 3, 0, 0]], dtype=float)
    space = FiniteMetricSpace(tuple("abcd"), d)
    assert doubling_estimate(space) == doubling_estimate_loops(space) == 3


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_doubling_matches_the_loop_reference_on_grids(k):
    space = grid_space(k)
    assert doubling_estimate(space) == doubling_estimate_loops(space)


def doubling_estimate_all_radii(space: FiniteMetricSpace) -> int:
    """The greedy walk over every distinct pairwise radius at every center.

    Reference on metric inputs: each center's own distances are among
    these radii, and B(c, r) only changes when r crosses one of them.
    """
    d = space.dist
    n = space.n
    upper = d[np.triu_indices(n, 1)]
    radii = np.sort(upper[upper > 0])
    first = np.ones(radii.size, dtype=bool)
    first[1:] = radii[1:] != radii[:-1]
    radii = radii[first]
    half = radii / 2.0
    best = 1
    for c in range(n):
        uncovered = d[c][None, :] <= radii[:, None]
        count = np.zeros(radii.size, dtype=int)
        for p in np.lexsort((np.arange(n), -d[c])):
            hit = uncovered[:, p]
            count += hit
            uncovered[hit] &= d[p][None, :] > half[hit, None]
        best = max(best, int(count.max(initial=0)))
    return best


def test_doubling_needs_only_each_centers_own_radii_on_metrics():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 5, 8, 13, 21, 30, 40):
        for space in (rand_space(rng, n), rand_repaired_space(rng, n)):
            assert doubling_estimate(space) == doubling_estimate_all_radii(space)
    for k in (2, 3, 4, 5):
        assert doubling_estimate(grid_space(k)) == doubling_estimate_all_radii(grid_space(k))
    # every distance tied: one distinct radius per center
    for n in (2, 5, 17):
        space = FiniteMetricSpace(tuple(map(str, range(n))), 1.0 - np.eye(n))
        assert doubling_estimate(space) == doubling_estimate_all_radii(space) == n


def test_doubling_counts_a_point_its_own_ball_misses_once():
    # d(a, a) = 0.6 > r/2 for the only radius 1: the loop form never ends
    space = FiniteMetricSpace(("a", "b"), np.array([[0.6, 1.0], [1.0, 0.0]]))
    assert doubling_estimate(space) == 2


def _minimal_cover_max(space: FiniteMetricSpace) -> int:
    """Exhaustive counterpart: worst minimal point-centered half-radius cover."""
    d = space.dist
    n = space.n
    radii = sorted({float(d[i, j]) for i in range(n) for j in range(i + 1, n) if d[i, j] > 0})
    worst = 1
    for c in range(n):
        for r in radii:
            ball = [int(p) for p in np.nonzero(d[c] <= r)[0]]
            need = set(ball)
            best = len(ball)
            for size in range(1, len(ball) + 1):
                found = False
                for centers in itertools.combinations(range(n), size):
                    covered = set()
                    for p in centers:
                        covered.update(q for q in ball if d[p, q] <= r / 2.0)
                    if covered >= need:
                        best = size
                        found = True
                        break
                if found:
                    break
            worst = max(worst, best)
    return worst


def test_doubling_single_point():
    assert doubling_estimate(FiniteMetricSpace(("x",), np.array([[0.0]]))) == 1


def test_doubling_two_points():
    space = FiniteMetricSpace(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert doubling_estimate(space) == 2


def test_doubling_path_five_matches_exhaustive_cover():
    d = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0)))
    space = FiniteMetricSpace(tuple("abcde"), d)
    assert doubling_estimate(space) == _minimal_cover_max(space)


def test_doubling_dominates_minimal_cover():
    rng = np.random.default_rng(11)
    for _ in range(10):
        space = rand_space(rng, int(rng.integers(2, 7)))
        assert doubling_estimate(space) >= _minimal_cover_max(space)
    for _ in range(10):
        space = rand_repaired_space(rng, int(rng.integers(2, 7)))
        assert doubling_estimate(space) >= _minimal_cover_max(space)
    assert doubling_estimate(grid_space(3)) >= _minimal_cover_max(grid_space(3))


def test_doubling_uniform_space_counts_points():
    # all distances equal: half-radius balls are singletons
    for n in (2, 3, 5):
        d = np.ones((n, n)) - np.eye(n)
        space = FiniteMetricSpace(tuple(f"u{i}" for i in range(n)), d)
        assert doubling_estimate(space) == n


def test_doubling_scale_invariant():
    rng = np.random.default_rng(5)
    space = rand_space(rng, 6)
    scaled = FiniteMetricSpace(space.labels, space.dist * 37.5, space.basepoint)
    assert doubling_estimate(space) == doubling_estimate(scaled)
