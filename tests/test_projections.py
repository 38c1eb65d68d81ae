"""Partitions, projections, their constants, synthesis, and the retraction."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_gentle,
    rand_repaired_space,
    rand_signed_projection,
    rand_space,
    rand_strong_projection,
    rand_subspace,
    synthesis_lp_loops,
)
from krext import (
    ContractError,
    FiniteMetricSpace,
    GentlePartition,
    RandomProjection,
    SignedMeasure,
    SolverError,
    Subspace,
    asymptotic_profile,
    gentle_constant,
    gentle_to_projection,
    identity_projection,
    kr_norm,
    projection_constant,
    projection_to_gentle,
    retract_l1_ball,
    subspace_from_labels,
    synthesize_min_k,
    uniform_discrete_bound,
    uniform_discrete_projection,
    weighted_tv_constant,
)
from krext import optim, projections, transport
from krext.families import grid_space
from krext.optim import LinearProgram, solve_lp
from test_metric import coincident_pair, three_point
from test_optim import captured_lps, highs_linprog


def line_space(*coords: float) -> FiniteMetricSpace:
    pts = np.array(coords, dtype=float)
    d = np.abs(np.subtract.outer(pts, pts))
    return FiniteMetricSpace(tuple(str(int(c)) if c == int(c) else str(c) for c in coords), d)


# ---------------------------------------------------------------------------
# validation of the two structures


def test_projection_member_rows_must_be_point_masses():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    rows = [
        SignedMeasure.dirac(space, 0),
        SignedMeasure(space, {0: 0.5, 1: 0.5}),  # member b must be delta_b
        SignedMeasure.dirac(space, 1),
    ]
    with pytest.raises(ContractError, match="point mass"):
        RandomProjection(sub, tuple(rows), strong=True)


def test_projection_rows_must_stay_inside_subset():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    rows = [
        SignedMeasure.dirac(space, 0),
        SignedMeasure.dirac(space, 1),
        SignedMeasure(space, {2: 1.0}),  # c is not a member
    ]
    with pytest.raises(ContractError, match="outside"):
        RandomProjection(sub, tuple(rows), strong=True)


def test_strong_projection_rows_must_be_probabilities():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    rows = [
        SignedMeasure.dirac(space, 0),
        SignedMeasure.dirac(space, 1),
        SignedMeasure(space, {0: 0.9, 1: -0.1}),
    ]
    with pytest.raises(ContractError, match="negative"):
        RandomProjection(sub, tuple(rows), strong=True)
    # the same rows are fine without the strong flag
    RandomProjection(sub, tuple(rows), strong=False)


def test_gentle_partition_exterior_columns_average_one():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    weights = np.array([0.5, 0.5])
    psi = np.array([[2.0, 0.0, 0.9], [0.0, 2.0, 0.9]])  # column c averages 0.9
    with pytest.raises(ContractError, match="average"):
        GentlePartition(sub, weights, psi, (0, 1))


def test_gentle_partition_member_columns_zero_or_pushforward():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    weights = np.array([0.5, 0.5])
    # column a pushes to anchor b instead of its own anchor
    psi = np.array([[0.0, 0.0, 1.0], [2.0, 2.0, 1.0]])
    with pytest.raises(ContractError, match="push"):
        GentlePartition(sub, weights, psi, (0, 1))


def test_building_a_projection_on_one_space_never_compares_distance_matrices(monkeypatch):
    rng = np.random.default_rng(8)
    space = rand_space(rng, 30)
    subset = rand_subspace(rng, space, size=8)
    compared = []
    real = np.array_equal

    def spy(a, b, *args, **kwargs):
        compared.append((a, b))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "array_equal", spy)
    rand_strong_projection(rng, subset)
    rand_signed_projection(rng, subset)
    assert compared == []


def test_projection_coeffs_match_rows():
    rng = np.random.default_rng(5)
    for trial in range(20):
        space = rand_space(rng, int(rng.integers(1, 8)))
        subset = rand_subspace(rng, space)
        build = rand_strong_projection if trial % 2 else rand_signed_projection
        for p in (build(rng, subset), gentle_to_projection(rand_gentle(rng, subset))):
            assert p.coeffs.shape == (space.n, subset.size)
            for x in range(space.n):
                for k, m in enumerate(subset.members):
                    assert p.coeffs[x, k] == p.rows[x][m]
            with pytest.raises(ValueError):
                p.coeffs[0, 0] = 2.0


def gentle_partition_loops(sub, weights, psi, gamma) -> str | None:
    """The partition checks in their original loop form: the first message, or None."""
    space = sub.parent
    n = space.n
    weights = np.asarray(weights, dtype=float)
    psi = np.asarray(psi, dtype=float)
    gamma = tuple(int(g) for g in gamma)
    tol = 1e-9
    if weights.ndim != 1 or weights.size == 0:
        return "weights must be a nonempty vector"
    k = weights.size
    if psi.shape != (k, n):
        return f"psi must have shape ({k}, {n}), got {psi.shape}"
    if len(gamma) != k:
        return "gamma must assign an anchor to every outcome"
    if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(psi))):
        return "weights and psi must be finite"
    if np.any(weights < -tol):
        return "weights must be nonnegative"
    total = math.fsum(float(w) for w in weights)
    if abs(total - 1.0) > tol:
        return f"weights must sum to 1, got {total!r}"
    if np.any(psi < -tol):
        w, x = map(int, np.argwhere(psi < -tol)[0])
        return f"psi[{w}, {x}] = {float(psi[w, x])!r} is negative"
    members = set(sub.members)
    for w, g in enumerate(gamma):
        if g not in members:
            return f"gamma[{w}] = {g} is not a subset member"
    for x in range(n):
        avg = math.fsum(float(weights[w]) * float(psi[w, x]) for w in range(k))
        if x in members:
            if abs(avg) <= tol and float(np.max(np.abs(psi[:, x]))) <= tol:
                continue
            for m in sub.members:
                push = math.fsum(
                    float(weights[w]) * float(psi[w, x]) for w in range(k) if gamma[w] == m
                )
                want = 1.0 if m == x else 0.0
                if abs(push - want) > tol:
                    return (f"member column {x} must vanish or push forward to its "
                            f"own point mass; anchor {m} collects {push!r}")
        elif abs(avg - 1.0) > tol:
            return f"exterior column {x} must average to 1 under P, got {avg!r}"
    return None


_FLOAT = re.compile(r"-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)")


def assert_same_message(got: str | None, want: str | None) -> None:
    """Equal text; the floats in it agree to a few ulps (plain sums replaced fsum)."""
    assert (got is None) == (want is None), (got, want)
    if got is None:
        return
    assert _FLOAT.sub("#", got) == _FLOAT.sub("#", want)
    for a, b in zip(_FLOAT.findall(got), _FLOAT.findall(want)):
        assert math.isclose(float(a), float(b), rel_tol=1e-14, abs_tol=1e-15), (got, want)


def test_gentle_partition_checks_match_the_loop_reference():
    rng = np.random.default_rng(71)
    verdicts = set()
    for trial in range(300):
        space = rand_space(rng, int(rng.integers(1, 7)))
        sub = rand_subspace(rng, space)
        g = rand_gentle(rng, sub)
        weights, psi, gamma = g.weights.copy(), g.psi.copy(), list(g.gamma)
        k, n = psi.shape
        # several columns at once, so the first-violation order matters
        cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        damage = trial % 9
        if damage == 1:        # columns rescaled: average or push-forward off
            psi[:, cols] *= rng.uniform(0.5, 1.5, size=cols.size)
        elif damage == 2:      # negative densities
            psi[rng.integers(k, size=cols.size), cols] = -0.1
        elif damage == 3 and sub.size < n:     # an anchor outside the subset
            gamma[int(rng.integers(k))] = sub.complement()[0]
        elif damage == 4:      # weights no longer a probability vector
            weights = weights * 1.01
        elif damage == 5:      # vanishing columns: valid for members only
            psi[:, cols] = 0.0
        elif damage == 6:      # noise inside the tolerance
            psi += rng.uniform(0.0, 1e-12, size=psi.shape)
        elif damage == 7:      # densities moved to other outcomes
            psi[:, cols] = psi[rng.permutation(k)][:, cols]
        elif damage == 8:      # a negative weight
            weights[int(rng.integers(k))] = -0.2
        want = gentle_partition_loops(sub, weights, psi, gamma)
        try:
            GentlePartition(sub, weights, psi, tuple(gamma))
            got = None
        except ContractError as exc:
            got = str(exc)
        assert_same_message(got, want)
        verdicts.add(want and want.split("[")[0].split(" ")[0])
    # valid partitions and every kind of damage occur in the sweep
    assert verdicts == {None, "member", "exterior", "gamma", "psi", "weights"}


# ---------------------------------------------------------------------------
# the gentle constant


def test_gentle_constant_single_outcome_formula():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    # one outcome anchored at a, density one at every exterior point
    weights = np.array([1.0])
    psi = np.array([[1.0, 0.0, 1.0]])
    g = GentlePartition(sub, weights, psi, (0,))
    expected = 0.0
    for x in range(3):
        for y in range(3):
            if x == y:
                continue
            term = space.d(0, x) * abs(psi[0, x] - psi[0, y]) / space.d(x, y)
            expected = max(expected, term)
    assert gentle_constant(g) == pytest.approx(expected, abs=1e-12)


def test_gentle_constant_identical_columns_contribute_zero():
    # two exterior points sharing a column: their pair adds nothing
    space = FiniteMetricSpace(
        ("m", "x", "y"),
        np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
    )
    sub = subspace_from_labels(space, ["m"])
    weights = np.array([1.0])
    psi = np.array([[1.0, 1.0, 1.0]])
    g = GentlePartition(sub, weights, psi, (0,))
    # the only nonzero terms could come from pairs with the member, whose
    # psi column is also 1 here, so the constant collapses to zero
    assert gentle_constant(g) == 0.0


def test_gentle_constant_no_exterior_points_is_zero():
    space = three_point()
    sub = Subspace(space, (0, 1, 2))
    weights = np.array([1.0])
    psi = np.zeros((1, 3))
    g = GentlePartition(sub, weights, psi, (0,))
    assert gentle_constant(g) == 0.0


# ---------------------------------------------------------------------------
# conversions


def test_gentle_to_projection_single_atom():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    weights = np.array([1.0])
    psi = np.array([[1.0, 0.0, 1.0]])
    p = gentle_to_projection(GentlePartition(sub, weights, psi, (0,)))
    assert p.rows[2].coeff == {0: 1.0}
    assert p.rows[0].coeff == {0: 1.0} and p.rows[1].coeff == {1: 1.0}


def test_gentle_to_projection_two_atoms():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    weights = np.array([0.5, 0.5])
    psi = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
    p = gentle_to_projection(GentlePartition(sub, weights, psi, (0, 1)))
    assert p.rows[2].coeff == {0: 0.5, 1: 0.5}


def test_projection_to_gentle_two_member_example():
    space, sub = three_point(), None
    sub = subspace_from_labels(space, ["a", "b"])
    rows = (
        SignedMeasure.dirac(space, 0),
        SignedMeasure.dirac(space, 1),
        SignedMeasure(space, {0: 0.4, 1: 0.6}),
    )
    g = projection_to_gentle(RandomProjection(sub, rows, strong=True))
    assert np.array_equal(g.weights, np.array([0.5, 0.5]))
    anchored_at = {g.gamma[i]: i for i in range(2)}
    assert g.psi[anchored_at[0], 2] == pytest.approx(0.8, abs=0.0)
    assert g.psi[anchored_at[1], 2] == pytest.approx(1.2, abs=0.0)


def test_projection_to_gentle_requires_strong():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    rows = (
        SignedMeasure.dirac(space, 0),
        SignedMeasure.dirac(space, 1),
        SignedMeasure(space, {0: 1.5, 1: -0.5}),
    )
    p = RandomProjection(sub, rows, strong=False)
    with pytest.raises(ContractError, match="strong"):
        projection_to_gentle(p)


def test_partition_weights_are_dyadic():
    rng = np.random.default_rng(17)
    for size in range(1, 7):
        space = rand_space(rng, 8)
        subset = rand_subspace(rng, space, size=size)
        g = projection_to_gentle(rand_strong_projection(rng, subset))
        assert math.fsum(float(w) for w in g.weights) == 1.0
        for w in g.weights:
            assert float(w) == 2.0 ** int(math.log2(float(w)))


def dyadic_weights_loop(k):
    """Reference for _dyadic_weights: halve a largest weight until there are k."""
    w = [1.0]
    while len(w) < k:
        w.sort(reverse=True)
        h = w.pop(0) / 2.0
        w.append(h)
        w.append(h)
    w.sort(reverse=True)
    return np.array(w)


def test_dyadic_weights_match_the_halving_loop_bit_for_bit():
    for k in range(1, 257):
        got = projections._dyadic_weights(k)
        assert got.dtype == np.float64
        assert got.tobytes() == dyadic_weights_loop(k).tobytes()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 8)))
    subset = rand_subspace(rng, space)
    p = rand_strong_projection(rng, subset)
    back = gentle_to_projection(projection_to_gentle(p))
    assert back.rows == p.rows           # coefficient-exact, not approximate
    assert back.subset.members == p.subset.members


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gentle_constant_of_encoding_equals_weighted_tv(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 8)))
    subset = rand_subspace(rng, space)
    p = rand_strong_projection(rng, subset)
    g = projection_to_gentle(p)
    assert gentle_constant(g) == weighted_tv_constant(p)  # bitwise by design


# ---------------------------------------------------------------------------
# the two constants themselves


def test_projection_constant_identity_is_one():
    assert projection_constant(identity_projection(three_point())) == pytest.approx(1.0, abs=1e-12)


def test_projection_constant_deterministic_retraction():
    space = line_space(0, 3, 8, 10)
    sub = subspace_from_labels(space, ["0", "10"])
    nearest = {0: 0, 1: 0, 2: 3, 3: 3}  # send each point to its closest member
    rows = tuple(SignedMeasure.dirac(space, nearest[x]) for x in range(4))
    p = RandomProjection(sub, rows, strong=True)
    lip = max(
        space.d(nearest[x], nearest[y]) / space.d(x, y)
        for x in range(4) for y in range(4) if x != y
    )
    assert projection_constant(p) == pytest.approx(lip, abs=1e-9)


def test_weighted_tv_constant_identity_two_points():
    space = FiniteMetricSpace(("a", "b"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert weighted_tv_constant(identity_projection(space)) == pytest.approx(1.0, abs=1e-12)


def test_weighted_tv_constant_equal_rows_contribute_zero():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    same = SignedMeasure(space, {0: 0.5, 1: 0.5})
    rows = (SignedMeasure.dirac(space, 0), SignedMeasure.dirac(space, 1), same)
    p = RandomProjection(sub, rows, strong=True)
    # pairs among (a, b, c) with c's row distinct still count; compute directly
    expected = 0.0
    for x in range(3):
        for y in range(3):
            if x == y:
                continue
            num = math.fsum(
                space.d(m, x) * abs(p.rows[x][m] - p.rows[y][m]) for m in sub.members
            )
            expected = max(expected, num / space.d(x, y))
    assert weighted_tv_constant(p) == pytest.approx(expected, abs=1e-12)


def test_weighted_tv_constant_retraction_formula():
    space = line_space(0, 3, 8, 10)
    sub = subspace_from_labels(space, ["0", "10"])
    nearest = {0: 0, 1: 0, 2: 3, 3: 3}
    rows = tuple(SignedMeasure.dirac(space, nearest[x]) for x in range(4))
    p = RandomProjection(sub, rows, strong=True)
    expected = 0.0
    for x in range(4):
        for y in range(4):
            if x == y or nearest[x] == nearest[y]:
                continue
            # point-mass rows: the d-weighted TV collapses to two distances
            num = space.d(x, nearest[x]) + space.d(x, nearest[y])
            expected = max(expected, num / space.d(x, y))
    assert weighted_tv_constant(p) == pytest.approx(expected, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_weighted_tv_dominates_projection_constant(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 7)))
    subset = rand_subspace(rng, space)
    p = rand_strong_projection(rng, subset)
    assert weighted_tv_constant(p) >= projection_constant(p) - 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gentle_constant_dominates_induced_projection(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 8)))
    subset = rand_subspace(rng, space)
    g = rand_gentle(rng, subset)
    p = gentle_to_projection(g)
    assert projection_constant(p) <= gentle_constant(g) + 1e-9


# ---------------------------------------------------------------------------
# the uniformly discrete construction


def test_udp_example_rows():
    space = line_space(0, 3, 8, 10)
    sub = subspace_from_labels(space, ["0", "10"])
    p = uniform_discrete_projection(space, sub, eps=10.0, t0=0)
    assert p.rows[2].coeff == {0: 0.4, 3: 0.6}   # x=8: (2/10)*(2 at t0, 3 at t)
    assert p.rows[1].coeff == {0: 1.0}           # x=3: both atoms collapse at t0
    assert p.rows[0].coeff == {0: 1.0} and p.rows[3].coeff == {3: 1.0}


def test_udp_member_rows_are_point_masses():
    space = line_space(0, 5, 10)
    sub = subspace_from_labels(space, ["0", "10"])
    p = uniform_discrete_projection(space, sub, eps=10.0, t0=0)
    for m in sub.members:
        assert p.rows[m].coeff == {m: 1.0}


def test_udp_rejects_insufficient_separation():
    space = line_space(0, 3, 8, 10)
    sub = subspace_from_labels(space, ["0", "3"])
    with pytest.raises(ContractError, match="separat"):
        uniform_discrete_projection(space, sub, eps=10.0, t0=0)


def test_udp_reads_the_reference_point_as_an_index():
    space = line_space(0, 3, 8, 10)
    sub = subspace_from_labels(space, ["0", "10"])
    with pytest.raises(ContractError, match="integer index"):
        uniform_discrete_projection(space, sub, eps=10.0, t0=0.0)
    want = uniform_discrete_projection(space, sub, eps=10.0, t0=3)
    assert uniform_discrete_projection(space, sub, eps=10.0, t0=np.int64(3)).rows == want.rows


def test_udp_separation_check_is_relative_to_eps():
    # d(0, 1) = eps/2 breaks eps-separation at every scale, {0, 10} never does
    base = line_space(0, 1, 3, 10)
    for k in range(-60, 61, 5):
        s = 2.0 ** k
        space = FiniteMetricSpace(base.labels, base.dist * s)
        with pytest.raises(ContractError, match="separat"):
            uniform_discrete_projection(space, Subspace(space, (0, 1, 3)), eps=2.0 * s, t0=0)
        p = uniform_discrete_projection(space, Subspace(space, (0, 3)), eps=2.0 * s, t0=0)
        ref = uniform_discrete_projection(base, Subspace(base, (0, 3)), eps=2.0, t0=0)
        assert np.array_equal(p.coeffs, ref.coeffs)


def test_udp_bound_formula_and_tightness():
    space = line_space(0, 3, 8, 10)
    sub = subspace_from_labels(space, ["0", "10"])
    bound = uniform_discrete_bound(space, sub, eps=10.0)
    assert bound == pytest.approx(2.0, abs=0.0)  # 2*max(D, eps)/eps with D = 10
    p = uniform_discrete_projection(space, sub, eps=10.0, t0=0)
    pc = projection_constant(p)
    assert pc <= bound + 1e-9
    # this instance attains the bound exactly
    assert pc == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("construction", ["bound", "projection", "synthesis"])
def test_udp_rejects_a_subset_of_another_space(construction):
    # same labels, other distances: read on the wrong space the bound is
    # 2 * max(2, 1) / 1 = 4, against 18 on the subset's own space
    near = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    far = FiniteMetricSpace(("a", "b", "c"), [[0, 5, 9], [5, 0, 5], [9, 5, 0]])
    sub = Subspace(far, (0, 2))
    assert uniform_discrete_bound(far, sub, eps=1.0) == 18.0
    with pytest.raises(ContractError, match="subset belongs to a different space"):
        if construction == "bound":
            uniform_discrete_bound(near, sub, eps=1.0)
        elif construction == "projection":
            uniform_discrete_projection(near, sub, eps=1.0, t0=0)
        else:
            synthesize_min_k(near, sub)


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("construction", ["bound", "projection"])
def test_udp_rejects_an_eps_that_is_not_a_positive_real(construction, eps):
    space = FiniteMetricSpace(("a", "b", "c"), [[0, 5, 9], [5, 0, 5], [9, 5, 0]])
    sub = Subspace(space, (0, 2))
    with pytest.raises(ContractError, match="eps must be a positive real"):
        if construction == "bound":
            uniform_discrete_bound(space, sub, eps=eps)
        else:
            uniform_discrete_projection(space, sub, eps=eps, t0=0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_udp_respects_bound_on_lines_and_grids(seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        coords = np.sort(rng.choice(np.arange(0.0, 40.0), size=6, replace=False))
        pts = coords[:, None]
        labels = tuple(f"x{i}" for i in range(6))
    else:
        xs, ys = np.meshgrid(np.arange(3.0), np.arange(2.0))
        pts = np.column_stack([xs.ravel() * 4.0, ys.ravel() * 4.0])
        labels = tuple(f"g{i}" for i in range(6))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    space = FiniteMetricSpace(labels, d)
    # grow a separated subset greedily around the basepoint
    eps = float(rng.uniform(2.0, 8.0))
    members = [space.basepoint]
    for x in range(space.n):
        if all(space.d(x, m) >= eps for m in members):
            members.append(x)
    if len(members) < 2:
        return
    sub = Subspace(space, tuple(sorted(members)))
    t0 = members[int(rng.integers(len(members)))]
    p = uniform_discrete_projection(space, sub, eps=eps, t0=t0)
    assert projection_constant(p) <= uniform_discrete_bound(space, sub, eps) + 1e-9


# ---------------------------------------------------------------------------
# synthesis


def synthesis_oracle_two_members(space, subset, grid=4001) -> float:
    """1-D search for |M| = 2: rows[c] = (1-s) delta_a + s delta_b."""
    (a, b) = subset.members
    exterior = [x for x in range(space.n) if x not in (a, b)]
    best = math.inf
    for s in np.linspace(0.0, 1.0, grid):
        worst = 1.0  # the member pair always forces K >= 1
        for x in exterior:
            row = SignedMeasure(space, {a: 1.0 - float(s), b: float(s)})
            for m, other in ((a, b), (b, a)):
                diff = row - SignedMeasure.dirac(space, m)
                worst = max(worst, kr_norm(diff).value / space.d(x, m))
        best = min(best, worst)
    return best if exterior else 1.0


def test_synthesize_full_subset_returns_identity():
    space = three_point()
    res = synthesize_min_k(space, Subspace(space, (0, 1, 2)))
    assert res.k_star == 1.0
    for x in range(3):
        assert res.projection.rows[x].coeff == {x: 1.0}


def test_synthesize_single_member_subset():
    space = three_point()
    res = synthesize_min_k(space, Subspace(space, (0,)))
    assert res.k_star == 0.0
    for x in range(3):
        assert res.projection.rows[x].coeff == {0: 1.0} or x == 0


def test_synthesize_canonical_three_point_matches_grid_oracle():
    space = three_point()
    sub = subspace_from_labels(space, ["a", "b"])
    res = synthesize_min_k(space, sub, mode="strong")
    oracle = synthesis_oracle_two_members(space, sub)
    assert res.k_star == pytest.approx(oracle, abs=1e-6)


def star_space() -> FiniteMetricSpace:
    """Three leaves pairwise 1 apart, and a hub at 1/2 from each."""
    d = np.array([
        [0.0, 1.0, 1.0, 0.5],
        [1.0, 0.0, 1.0, 0.5],
        [1.0, 1.0, 0.0, 0.5],
        [0.5, 0.5, 0.5, 0.0],
    ])
    return FiniteMetricSpace(("l1", "l2", "l3", "hub"), d, basepoint=0)


def test_synthesize_star_space_strict_above_one():
    # projecting onto the leaves costs 4/3
    space = star_space()
    sub = subspace_from_labels(space, ["l1", "l2", "l3"])
    res = synthesize_min_k(space, sub, mode="strong")
    assert res.k_star == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_synthesis_solves_each_row_difference_once(monkeypatch):
    # the member pairs' differences recur in every round
    solved = []

    def spy(mu, tol):
        solved.append(tuple(mu.coeff.items()))
        return kr_norm(mu, tol=tol)

    monkeypatch.setattr(projections, "kr_norm", spy)
    space = star_space()
    subset = subspace_from_labels(space, ["l1", "l2", "l3"])
    assert len(captured_lps(projections, lambda: synthesize_min_k(space, subset))) >= 2
    assert len(solved) == len(set(solved))


def test_synthesis_raises_when_its_master_violates_a_held_cut(monkeypatch):
    # a master that drops its cuts returns the projection it returned
    # before, whose violated pairs already have their cuts
    def without_cuts(lp, **kwargs):
        keep = lp.A[:, 0] == 0.0   # every cut holds K
        return solve_lp(LinearProgram(lp.c, lp.A[keep], tuple(np.array(lp.senses)[keep]),
                                      lp.b[keep], lp.lb), **kwargs)

    monkeypatch.setattr(projections, "solve_lp", without_cuts)
    space = star_space()
    with pytest.raises(SolverError, match="violates its own cut"):
        synthesize_min_k(space, subspace_from_labels(space, ["l1", "l2", "l3"]))


def test_synthesize_returned_projection_certifies_k():
    rng = np.random.default_rng(23)
    for _ in range(10):
        space = rand_space(rng, int(rng.integers(2, 7)))
        subset = rand_subspace(rng, space)
        res = synthesize_min_k(space, subset, mode="strong")
        p = res.projection
        for x in range(space.n):
            for y in range(x + 1, space.n):
                diff = p.rows[x] - p.rows[y]
                if not diff.support:
                    continue
                assert kr_norm(diff).value <= res.k_star * space.d(x, y) + 1e-7


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_synthesize_signed_never_beats_strong_by_much(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 6)))
    subset = rand_subspace(rng, space)
    strong = synthesize_min_k(space, subset, mode="strong")
    signed = synthesize_min_k(space, subset, mode="signed")
    assert signed.k_star <= strong.k_star + 1e-9
    # nor by anything: every sample so far has signed K* = strong K*
    assert signed.k_star >= strong.k_star * (1 - 1e-7)
    if subset.size >= 2:
        assert signed.k_star >= 1.0 - 1e-9


def random_line(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """n points of [0, 10] under |s - t|, at least 1e-3 apart, and a random basepoint."""
    while True:
        pts = rng.uniform(0.0, 10.0, size=n)
        if np.diff(np.sort(pts)).min() > 1e-3:
            break
    d = np.abs(np.subtract.outer(pts, pts))
    return FiniteMetricSpace(tuple(f"t{i}" for i in range(n)), d, basepoint=int(rng.integers(n)))


def random_ultrametric(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    """d(i, j) = max of random heights h[min(i, j):max(i, j)], under a random relabelling."""
    h = rng.uniform(0.5, 4.0, size=n - 1)
    d = np.zeros((n, n))
    for i, j in zip(*np.triu_indices(n, 1)):
        d[i, j] = d[j, i] = h[i:j].max()
    order = rng.permutation(n)
    return FiniteMetricSpace(tuple(f"u{i}" for i in range(n)), d[np.ix_(order, order)],
                             basepoint=int(rng.integers(n)))


@pytest.mark.parametrize("family", [random_line, random_ultrametric])
@pytest.mark.parametrize("mode", ["strong", "signed"])
def test_synthesized_k_is_one_on_lines_and_ultrametrics(family, mode):
    # on a line, interpolating between the neighbouring members is a
    # 1-random projection; in an ultrametric, two points closer than their
    # distance to M are equidistant from every member, so the nearest-member
    # retraction (ties: the lowest index) is 1-Lipschitz
    rng = np.random.default_rng(1601)
    for _ in range(12):
        space = family(rng, int(rng.integers(4, 11)))
        subset = rand_subspace(rng, space, size=int(rng.integers(2, space.n)))
        assert synthesize_min_k(space, subset, mode=mode).k_star == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("family", ["repaired", "grid"])
def test_signed_and_strong_k_agree_on_repaired_spaces_and_the_grid(family):
    rng = np.random.default_rng(1607)
    for _ in range(10):
        space = rand_repaired_space(rng, int(rng.integers(4, 9))) if family == "repaired" else grid_space(3)
        subset = rand_subspace(rng, space, size=int(rng.integers(2, space.n)))
        strong = synthesize_min_k(space, subset, mode="strong")
        signed = synthesize_min_k(space, subset, mode="signed")
        assert signed.k_star == pytest.approx(strong.k_star, rel=1e-7)


@pytest.mark.parametrize("mode", ["strong", "signed"])
def test_synthesized_k_is_the_constant_of_its_projection(mode):
    # the flow solver's constant of the returned projection attains K*
    rng = np.random.default_rng(41)
    for t in range(40):
        make = rand_space if t % 2 == 0 else rand_repaired_space
        space = make(rng, int(rng.integers(3, 9)))
        subset = rand_subspace(rng, space, size=int(rng.integers(2, space.n)))
        res = synthesize_min_k(space, subset, mode=mode)
        assert projection_constant(res.projection) == res.k_star


def highs_lp_value(lp):
    """Independent oracle: the minimum of a LinearProgram that minimizes,
    such as the synthesis LP, by scipy's HiGHS."""
    assert not lp.maximize
    res = highs_linprog(lp)
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("mode", ["strong", "signed"])
def test_synthesized_k_matches_highs_on_its_own_lp(mode):
    # the joint LP, one transport-flow block per pair, is an independent route to K*
    rng = np.random.default_rng(43)
    for t in range(16):
        make = rand_space if t % 2 == 0 else rand_repaired_space
        space = make(rng, int(rng.integers(5, 13)))
        subset = rand_subspace(rng, space, size=int(rng.integers(2, min(6, space.n))))
        res = synthesize_min_k(space, subset, mode=mode)
        assert res.k_star == pytest.approx(highs_lp_value(synthesis_lp_loops(space, subset, mode)), rel=1e-8)


@pytest.fixture(scope="module")
def sweep_12_5():
    """32 syntheses at (|X|, |M|) = (12, 5): seeds 0-7, both generators, both modes.

    The joint LP raised SolverError on 22 of them.
    """
    out = []
    for seed in range(8):
        for make in (rand_space, rand_repaired_space):
            for mode in ("strong", "signed"):
                rng = np.random.default_rng(seed)
                space = make(rng, 12)
                subset = rand_subspace(rng, space, 5)
                out.append((space, subset, mode, synthesize_min_k(space, subset, mode=mode)))
    return out


def test_synthesis_solves_every_case_of_the_12_5_sweep(sweep_12_5):
    for _, _, _, res in sweep_12_5:
        assert projection_constant(res.projection) == res.k_star >= 1.0


def test_signed_and_strong_k_agree_on_the_12_5_sweep(sweep_12_5):
    # the fixture runs each space and subset in strong mode, then in signed mode
    pairs = list(zip(sweep_12_5[::2], sweep_12_5[1::2]))
    assert len(pairs) == 16
    for (_, _, strong_mode, strong), (_, _, signed_mode, signed) in pairs:
        assert (strong_mode, signed_mode) == ("strong", "signed")
        assert signed.k_star == pytest.approx(strong.k_star, rel=1e-7)


def test_synthesis_matches_highs_on_the_12_5_sweep(sweep_12_5):
    for space, subset, mode, res in sweep_12_5:
        assert res.k_star == pytest.approx(highs_lp_value(synthesis_lp_loops(space, subset, mode)), rel=1e-8)


@pytest.fixture(scope="module")
def synthesis_30_8():
    """Seed-1 strong synthesis at (30, 8), by the subset rule of sweep_12_5, with its masters."""
    rng = np.random.default_rng(1)
    space = rand_space(rng, 30)
    subset = rand_subspace(rng, space, 8)
    out = []
    masters = captured_lps(projections, lambda: out.append(synthesize_min_k(space, subset)))
    return out[0], masters


def test_synthesis_solves_the_30_8_case_whose_pivots_were_unstable(synthesis_30_8):
    """With one BLAS thread, this case once failed certification.

    The master then held basepoint columns, mass equalities and the row
    K >= 1, and its sixth, 318 x 177, made the simplex pivot on a tiny
    entry of the entering column.  The current masters are smaller and
    never build that LP, which tests/data keeps for the pivot test below.
    """
    res, masters = synthesis_30_8
    assert len(masters) >= 6
    assert projection_constant(res.projection) == res.k_star >= 1.0


def test_synthesis_matches_highs_on_the_final_30_8_master(synthesis_30_8):
    res, masters = synthesis_30_8
    assert res.k_star == pytest.approx(highs_lp_value(masters[-1]), rel=1e-8)


def saved_master(name):
    """A synthesis master LP kept in tests/data as a compressed .npz file.

    Both files hold masters of the earlier formulation, with basepoint
    columns, one mass equality per exterior point and the row K >= 1,
    captured with one BLAS thread.
    """
    with np.load(Path(__file__).parent / "data" / f"{name}.npz") as z:
        return LinearProgram(z["c"], z["A"], tuple(z["senses"].tolist()), z["b"], z["lb"])


def test_lp_solves_the_30_8_master_that_needs_the_relative_pivot_threshold(monkeypatch):
    # the sixth master of the seed-1 strong (30, 8) synthesis, 318 x 177;
    # without PIVOT_REL it fails certification ("primal 2.92e+00")
    lp = saved_master("master_30_8_tiny_pivot")
    assert solve_lp(lp).objective == pytest.approx(1.113612034283317, rel=1e-8)   # HiGHS
    monkeypatch.setattr(optim, "PIVOT_REL", 0.0)
    with pytest.raises(SolverError, match="certification"):
        solve_lp(lp)


def test_lp_solves_the_14_11_master_on_which_dantzig_pricing_cycled():
    # the 16th master of the strong synthesis on rand_repaired_space(rng(0), 14),
    # members 0-10, 206 x 34: Dantzig pricing cycles on it, and when stalls
    # were counted against the last objective, rounding jitter kept Bland's
    # rule off until MAX_ITERATIONS
    lp = saved_master("master_14_11_dantzig_cycle")
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(highs_lp_value(lp), rel=1e-8)


def test_synthesis_completes_the_14_11_case_whose_master_cycled():
    space = rand_repaired_space(np.random.default_rng(0), 14)
    subset = Subspace(space, tuple(range(11)))
    res = synthesize_min_k(space, subset)
    assert projection_constant(res.projection) == res.k_star
    assert res.k_star == pytest.approx(highs_lp_value(synthesis_lp_loops(space, subset, "strong")), rel=1e-8)


@pytest.mark.parametrize("mode", ["strong", "signed"])
def test_synthesis_masters_hold_no_basepoint_column_and_only_cuts(mode):
    # K >= 1 is a bound, each exterior row's basepoint coefficient is 1 minus
    # the others, and strong mode's only other rows keep that coefficient >= 0
    rng = np.random.default_rng(47)
    masters = 0
    for t in range(12):
        make = rand_space if t % 2 == 0 else rand_repaired_space
        space = make(rng, int(rng.integers(4, 10)))
        subset = rand_subspace(rng, space, size=int(rng.integers(2, space.n)))
        out = []
        lps = captured_lps(projections, lambda: out.append(synthesize_min_k(space, subset, mode=mode)))
        n_ext = space.n - subset.size
        masters += len(lps)
        for lp in lps:
            assert set(lp.senses) == {"<="}
            assert lp.lb[0] == 1.0
            assert lp.A.shape[1] == 1 + n_ext * (subset.size - 1)
        coeffs = out[0].projection.coeffs
        assert np.all(np.abs(coeffs.sum(axis=1) - 1.0) <= 1e-12)
        if mode == "strong":
            assert coeffs.min() >= -projections._VALID_TOL
    assert masters >= 20


@given(st.integers(0, 2**32 - 1), st.integers(-80, 80), st.sampled_from(["strong", "signed"]))
@settings(max_examples=25, deadline=None)
def test_synthesis_is_bitwise_invariant_under_power_of_two_scaling(seed, k, mode):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(3, 8)))
    subset = rand_subspace(rng, space, size=int(rng.integers(2, space.n)))
    scaled = FiniteMetricSpace(space.labels, np.ldexp(space.dist, k), space.basepoint)
    res = synthesize_min_k(space, subset, mode=mode)
    out = synthesize_min_k(scaled, Subspace(scaled, subset.members), mode=mode)
    assert out.k_star.hex() == res.k_star.hex()
    assert out.projection.coeffs.tobytes() == res.projection.coeffs.tobytes()


@pytest.mark.parametrize("scale", [1e9, 1e15, 1e-9, 2.0**30])
def test_synthesis_k_does_not_depend_on_the_unit(scale):
    rng = np.random.default_rng(0)
    space = rand_space(rng, 8)
    members = rand_subspace(rng, space, 4).members
    scaled = FiniteMetricSpace(space.labels, space.dist * scale, space.basepoint)
    want = synthesize_min_k(space, Subspace(space, members)).k_star
    got = synthesize_min_k(scaled, Subspace(scaled, members)).k_star
    assert got == pytest.approx(want, rel=1e-12)


def test_synthesis_builds_one_projection_however_many_rounds_it_takes(monkeypatch):
    # the loop reads the coefficient matrix; only the returned projection is built
    built = []
    post_init = RandomProjection.__post_init__

    def count(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(RandomProjection, "__post_init__", count)
    space = star_space()
    subset = subspace_from_labels(space, ["l1", "l2", "l3"])
    out = []
    assert len(captured_lps(projections, lambda: out.append(synthesize_min_k(space, subset)))) >= 2
    assert len(built) == 1 and built[0] is out[0].projection


@pytest.mark.xfail(raises=SolverError, strict=False,
                   reason="ROADMAP item 1: the master violates its own cut for pair (4, 8); "
                          "non-strict, as the round-off behind it may not repeat under another BLAS")
def test_synthesis_solves_the_12_8_case_whose_master_violated_its_own_cut():
    # the eighth entry of asymptotic_profile on this space; HiGHS puts the
    # joint LP's optimum at 1.0315684768204276
    rng = np.random.default_rng(0)
    rand_space(rng, 7)
    rand_space(rng, 9)
    space = rand_space(rng, 12)
    subset = Subspace(space, (0, 1, 2, 3, 4, 5, 6, 10))
    res = synthesize_min_k(space, subset)
    assert res.k_star == pytest.approx(highs_lp_value(synthesis_lp_loops(space, subset, "strong")), abs=1e-8)


def coincident_projection() -> RandomProjection:
    """A strong projection of coincident_pair onto {a, b, c}, whose b and c are at distance 0."""
    space = coincident_pair()
    coeffs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])
    return projections._from_coeffs(Subspace(space, (0, 1, 2)), coeffs, strong=True)


@pytest.mark.parametrize("constant", [
    projection_constant,
    weighted_tv_constant,
    lambda p: gentle_constant(projection_to_gentle(p)),
    lambda p: synthesize_min_k(p.space, p.subset, mode="strong"),
    lambda p: synthesize_min_k(p.space, p.subset, mode="signed"),
], ids=["projection_constant", "weighted_tv_constant", "gentle_constant", "strong", "signed"])
def test_quotients_refuse_distinct_points_at_distance_zero(constant, monkeypatch):
    # a quotient 0 / 0 reads NaN: the refusal must come before any solve
    p = coincident_projection()

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the distances were checked")

    monkeypatch.setattr(projections, "kr_norm", no_solve)
    monkeypatch.setattr(projections, "solve_lp", no_solve)
    with pytest.raises(ContractError, match=r"distinct points 'b' and 'c' are at distance 0\.0"):
        constant(p)


def test_synthesize_rejects_unknown_mode():
    space = three_point()
    with pytest.raises(ContractError):
        synthesize_min_k(space, Subspace(space, (0, 1)), mode="fast")


# ---------------------------------------------------------------------------
# asymptotic profile


def test_profile_terminates_at_identity():
    rng = np.random.default_rng(41)
    space = rand_space(rng, 5)
    profile = asymptotic_profile(space)
    last = profile[-1]
    assert last.size == space.n
    assert last.k_star == 1.0
    assert all(v == 0.0 for v in last.deviations.values())


def test_profile_member_deviations_vanish():
    rng = np.random.default_rng(43)
    space = rand_space(rng, 6)
    for entry in asymptotic_profile(space):
        for m in entry.members:
            assert entry.deviations[m] == 0.0


def test_profile_exterior_deviations_are_transport_to_the_point():
    # the profile reads each deviation off the coefficients in closed form;
    # kr_norm solves the transport problem for it
    rng = np.random.default_rng(47)
    for n in (4, 5, 6, 7, 8, 9):
        for space in (rand_space(rng, n), rand_repaired_space(rng, n)):
            for entry in asymptotic_profile(space):
                proj = synthesize_min_k(space, Subspace(space, entry.members), mode="strong").projection
                for x in set(range(n)) - set(entry.members):
                    want = kr_norm(proj.rows[x] - SignedMeasure.dirac(space, x)).value
                    assert abs(entry.deviations[x] - want) <= 1e-12 * space.diameter


def test_profile_solves_no_transport_problem_beyond_its_syntheses(monkeypatch):
    calls = []
    real = transport.kr_norm

    def spy(mu, *args, **kwargs):
        calls.append(mu.as_vector().tobytes())
        return real(mu, *args, **kwargs)

    monkeypatch.setattr(transport, "kr_norm", spy)
    monkeypatch.setattr(projections, "kr_norm", spy)
    space = rand_space(np.random.default_rng(53), 7)
    profile = asymptotic_profile(space)
    in_profile = calls[:]
    calls.clear()
    for entry in profile:
        synthesize_min_k(space, Subspace(space, entry.members), mode="strong")
    assert calls and in_profile == calls


def test_profile_line_matches_independent_synthesis():
    space = line_space(0, 1, 2, 3)
    profile = asymptotic_profile(space)
    for entry in profile:
        redo = synthesize_min_k(space, Subspace(space, entry.members), mode="strong")
        assert entry.k_star == pytest.approx(redo.k_star, abs=1e-9)


def test_profile_requires_basepoint_first():
    space = three_point()
    with pytest.raises(ContractError, match="basepoint"):
        asymptotic_profile(space, order=[1, 0, 2])
    with pytest.raises(ContractError):
        asymptotic_profile(space, order=[0, 1])  # not a permutation
    # a float entry used to be truncated, so this ran as [0, 1, 2]
    with pytest.raises(ContractError, match="integer indices"):
        asymptotic_profile(space, order=[0, 1.5, 2])
    assert [e.members for e in asymptotic_profile(space, order=np.array([0, 2, 1]))] == [
        (0,), (0, 2), (0, 1, 2)]


# ---------------------------------------------------------------------------
# retraction onto the nonnegative l1 ball


def retraction_oracle(y: np.ndarray) -> tuple[float, np.ndarray]:
    """Bisection on t -> sum (y_i - t)+ down to 1e-13."""
    if math.fsum(float(v) for v in y) <= 1.0:
        return 0.0, y.copy()
    lo, hi = 0.0, float(np.max(y))
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.sum(np.clip(y - mid, 0.0, None)) > 1.0:
            lo = mid
        else:
            hi = mid
    g = (lo + hi) / 2.0
    return g, np.clip(y - g, 0.0, None)


def test_retract_inside_ball_unchanged():
    g, r = retract_l1_ball(np.array([0.3, 0.2]))
    assert g == 0.0
    assert np.array_equal(r, np.array([0.3, 0.2]))


def test_retract_two_coordinates():
    g, r = retract_l1_ball(np.array([2.0, 0.5]))
    assert g == pytest.approx(1.0, abs=0.0)
    assert np.array_equal(r, np.array([1.0, 0.0]))


def test_retract_uniform_vector():
    g, r = retract_l1_ball(np.array([1.0, 1.0, 1.0]))
    assert g == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert np.allclose(r, np.full(3, 1.0 / 3.0), rtol=0.0, atol=1e-15)


def test_retract_rejects_bad_input():
    with pytest.raises(ContractError):
        retract_l1_ball(np.array([0.5, -0.1]))
    with pytest.raises(ContractError):
        retract_l1_ball(np.array([np.nan, 0.0]))
    with pytest.raises(ContractError):
        retract_l1_ball(np.zeros((2, 2)))


def test_retract_rejects_entries_whose_sum_overflows():
    # each entry is finite, but their exact sum is not
    with pytest.raises(ContractError, match="sum overflows"):
        retract_l1_ball([1e308, 1e308])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_retract_matches_bisection_oracle(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 3.0, size=int(rng.integers(1, 11)))
    g, r = retract_l1_ball(y)
    og, orr = retraction_oracle(y)
    assert g == pytest.approx(og, abs=1e-10)
    assert np.allclose(r, orr, rtol=0.0, atol=1e-10)
    assert math.fsum(float(v) for v in r) <= 1.0 + 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_retract_is_idempotent_and_fixes_the_ball(seed):
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 2.5, size=int(rng.integers(1, 9)))
    _, r = retract_l1_ball(y)
    g2, r2 = retract_l1_ball(r)
    assert g2 == 0.0 or g2 <= 1e-12
    assert np.allclose(r2, r, rtol=0.0, atol=1e-12)
    inside = y / max(1.0, math.fsum(float(v) for v in y) + 0.5)
    g3, r3 = retract_l1_ball(inside)
    assert g3 == 0.0 and np.array_equal(r3, inside)


# ---------------------------------------------------------------------------
# immutability and shared pair solves


def test_projection_rows_are_read_only():
    # a writable row let coeffs go stale: projection_constant read the
    # mutated row while weighted_tv_constant read the matrix built before
    rng = np.random.default_rng(17)
    space = rand_space(rng, 7)
    p = rand_strong_projection(rng, rand_subspace(rng, space, 3))
    x = next(x for x in range(space.n) if x not in p.subset.members)
    m = p.subset.members[0]
    with pytest.raises(TypeError):
        p.rows[x].coeff[m] = 7.0
    assert np.array_equal(p.coeffs[x], p.rows[x].as_vector()[list(p.subset.members)])
    assert projection_constant(p) <= weighted_tv_constant(p) * (1.0 + 1e-12)


def test_gentle_partition_arrays_are_read_only_copies():
    rng = np.random.default_rng(18)
    space = rand_space(rng, 6)
    g = rand_gentle(rng, rand_subspace(rng, space, 3))
    weights, psi = g.weights.copy(), g.psi.copy()
    with pytest.raises(ValueError):
        g.psi[0, :] = -1.0
    with pytest.raises(ValueError):
        g.weights[0] = 2.0
    again = GentlePartition(g.subset, weights, psi, g.gamma)
    psi[0, :] = -1.0     # the caller's arrays stay writable and detached
    assert np.all(again.psi >= 0.0)
    assert gentle_constant(again) == gentle_constant(g)


def separated_example():
    """The two-atom projection of a 30-point cloud onto an 8-member 3-separated subset.

    Points near no member all map to the reference member, so many pairs
    of rows differ by the same vector: 330 pairs differ, in 135 ways.
    """
    rng = np.random.default_rng(23)
    space = rand_space(rng, 30)
    members = [space.basepoint]
    for x in range(space.n):
        if len(members) < 8 and all(space.d(x, m) >= 3.0 for m in members):
            members.append(x)
    sub = Subspace(space, tuple(sorted(members)))
    return uniform_discrete_projection(space, sub, eps=3.0, t0=space.basepoint)


def projection_constant_loops(p, tol=1e-9):
    """Reference projection_constant: one kr_norm per pair of distinct rows."""
    best = 0.0
    for x in range(p.space.n):
        for y in range(x + 1, p.space.n):
            diff = p.rows[x] - p.rows[y]
            if diff.support:
                best = max(best, kr_norm(diff, tol=tol).value / float(p.space.dist[x, y]))
    return best


def test_projection_constant_solves_each_row_difference_once(monkeypatch):
    p = separated_example()
    assert p.subset.size == 8
    calls = []

    def spy(mu, tol=1e-9):
        calls.append(mu)
        return kr_norm(mu, tol=tol)

    monkeypatch.setattr(projections, "kr_norm", spy)
    value = projection_constant(p)
    assert len(calls) == 135
    monkeypatch.undo()
    assert value == projection_constant_loops(p)
