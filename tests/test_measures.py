"""Signed measures: arithmetic, total variation, Jordan split, moment bound."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_measure, rand_space
from krext import (
    ContractError,
    SignedMeasure,
    freespace_moment_bound,
    jordan_decompose,
    kr_norm,
    total_variation,
)
from test_metric import three_point


# ---------------------------------------------------------------------------
# the measure type itself


def test_exact_zero_coefficients_are_pruned():
    space = three_point()
    mu = SignedMeasure(space, {0: 0.0, 1: 2.0})
    assert mu.coeff == {1: 2.0}
    assert mu.support == (1,)


def test_arithmetic_is_pointwise():
    space = three_point()
    mu = SignedMeasure(space, {0: 1.0, 1: -2.0})
    eta = SignedMeasure(space, {1: 2.0, 2: 0.5})
    assert (mu + eta).coeff == {0: 1.0, 2: 0.5}
    assert (mu - eta).coeff == {0: 1.0, 1: -4.0, 2: -0.5}
    assert (-mu).coeff == {0: -1.0, 1: 2.0}
    assert (mu * 2.0).coeff == {0: 2.0, 1: -4.0}
    assert (mu * 0.0).coeff == {}


def test_dirac_and_from_labels():
    space = three_point()
    assert SignedMeasure.dirac(space, 1).coeff == {1: 1.0}
    mu = SignedMeasure.from_labels(space, {"b": 1.0, "c": -1.0})
    assert mu.coeff == {1: 1.0, 2: -1.0}
    with pytest.raises(ContractError):
        SignedMeasure.from_labels(space, {"zz": 1.0})


def test_vector_round_trip_and_mass():
    space = three_point()
    mu = SignedMeasure(space, {0: 0.25, 2: -1.0})
    assert np.array_equal(mu.as_vector(), np.array([0.25, 0.0, -1.0]))
    assert mu.mass() == pytest.approx(-0.75, abs=0.0)
    assert not mu.is_nonnegative()
    assert SignedMeasure(space, {1: 3.0}).is_nonnegative()


def test_coefficient_indices_must_be_integers():
    space = three_point()
    # a float key used to be truncated silently onto point 1
    for key in (1.7, 1.0, "1"):
        with pytest.raises(ContractError, match="not an integer"):
            SignedMeasure(space, {key: 1.0})
    mu = SignedMeasure(space, {np.int64(1): 1.0, np.uint8(2): -1.0})
    assert mu.coeff == {1: 1.0, 2: -1.0}
    assert all(type(i) is int for i in mu.coeff)
    # lookups too: mu[1.7] used to read point 1
    for key in (1.7, 1.0, "1"):
        with pytest.raises(ContractError, match="not an integer"):
            mu[key]
    assert mu[np.int64(1)] == 1.0 and mu[0] == 0.0


def test_measures_on_different_spaces_do_not_mix():
    mu = SignedMeasure(three_point(), {1: 1.0})
    eta = SignedMeasure(three_point(), {1: 1.0})
    # equal spaces are fine even as distinct objects
    assert (mu - eta).coeff == {}
    other = SignedMeasure(
        rand_space(np.random.default_rng(1), 3), {1: 1.0}
    )
    with pytest.raises(ContractError):
        mu + other


# ---------------------------------------------------------------------------
# total variation


def _tv_by_subset_enumeration(mu: SignedMeasure, subset) -> float:
    """sup over C inside the subset of mu(C) - mu(subset minus C)."""
    subset = list(subset)
    best = 0.0
    for size in range(len(subset) + 1):
        for inside in itertools.combinations(subset, size):
            rest = [i for i in subset if i not in inside]
            val = math.fsum(mu[i] for i in inside) - math.fsum(mu[i] for i in rest)
            best = max(best, val)
    return best


def test_tv_single_atom():
    space = three_point()
    assert total_variation(SignedMeasure.dirac(space, 1)) == 1.0


def test_tv_two_atoms():
    space = three_point()
    mu = SignedMeasure.dirac(space, 1) - SignedMeasure.dirac(space, 2)
    assert total_variation(mu) == 2.0


def test_tv_on_subset():
    space = three_point()
    mu = SignedMeasure(space, {0: 0.5, 2: -1.5})
    assert total_variation(mu, subset=(2,)) == 1.5
    assert total_variation(mu, subset=(2,)) == _tv_by_subset_enumeration(mu, (2,))


def test_tv_subset_errors():
    mu = SignedMeasure(three_point(), {0: 1.0})
    with pytest.raises(ContractError):
        total_variation(mu, subset=(5,))
    with pytest.raises(ContractError):
        total_variation(mu, subset=(0, 0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_tv_matches_subset_enumeration(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(1, 7)))
    mu = rand_measure(rng, space)
    size = int(rng.integers(0, space.n + 1))
    subset = tuple(int(i) for i in rng.choice(space.n, size=size, replace=False))
    assert total_variation(mu, subset) == pytest.approx(
        _tv_by_subset_enumeration(mu, subset), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Jordan decomposition


def test_jordan_single_atom():
    space = three_point()
    pos, neg = jordan_decompose(SignedMeasure.dirac(space, 1))
    assert pos.coeff == {1: 1.0} and neg.coeff == {}


def test_jordan_disjoint_atoms():
    space = three_point()
    mu = SignedMeasure.dirac(space, 1) - SignedMeasure.dirac(space, 2)
    pos, neg = jordan_decompose(mu)
    assert pos.coeff == {1: 1.0} and neg.coeff == {2: 1.0}


def test_jordan_merges_coefficients_first():
    space = three_point()
    mu = SignedMeasure.dirac(space, 0) * 2.0 - SignedMeasure.dirac(space, 0) * 3.0
    pos, neg = jordan_decompose(mu)
    assert pos.coeff == {} and neg.coeff == {0: 1.0}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_jordan_reconstructs_with_disjoint_supports(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(1, 7)))
    mu = rand_measure(rng, space)
    pos, neg = jordan_decompose(mu)
    assert pos.is_nonnegative() and neg.is_nonnegative()
    assert set(pos.support).isdisjoint(neg.support)
    assert (pos - neg) == mu
    assert total_variation(mu) == pytest.approx(pos.mass() + neg.mass(), rel=1e-12)


# ---------------------------------------------------------------------------
# moment bound


def test_moment_bound_basepoint_atom_vanishes():
    space = three_point()
    assert freespace_moment_bound(SignedMeasure.dirac(space, 0)) == 0.0


def test_moment_bound_single_atom_is_distance():
    space = three_point()
    assert freespace_moment_bound(SignedMeasure.dirac(space, 1)) == 1.0


def test_moment_bound_dominates_kr_norm():
    space = three_point()
    mu = SignedMeasure.dirac(space, 1) - SignedMeasure.dirac(space, 2)
    assert freespace_moment_bound(mu) == 3.0
    assert kr_norm(mu).value == pytest.approx(1.5, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_moment_bound_dominates_kr_norm_generated(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 7)))
    mu = rand_measure(rng, space)
    assert kr_norm(mu).value <= freespace_moment_bound(mu) + 1e-9
