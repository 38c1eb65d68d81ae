"""Relabelling the points of a space changes no certified value."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    rand_measure,
    rand_repaired_space,
    rand_signed_projection,
    rand_space,
    rand_strong_projection,
    rand_subspace,
)
from krext import (
    FiniteMetricSpace,
    RandomProjection,
    SignedMeasure,
    Subspace,
    kr_norm,
    projection_constant,
    synthesize_min_k,
    verify_duality,
    w1,
)

# certified values of one quantity on two labellings; the flow solver
# quantizes running sums in node order, so they need not match bit for bit
REL = 1e-12


class Relabelling:
    """Point i of a space becomes point new[i] of its relabelled copy."""

    def __init__(self, space: FiniteMetricSpace, rng: np.random.Generator):
        order = rng.permutation(space.n)   # new point j is old point order[j]
        self.new = np.argsort(order)
        self.space = space
        self.image = FiniteMetricSpace(tuple(space.labels[i] for i in order),
                                       space.dist[np.ix_(order, order)],
                                       int(self.new[space.basepoint]))

    def measure(self, mu: SignedMeasure) -> SignedMeasure:
        return SignedMeasure(self.image, {int(self.new[i]): c for i, c in mu.coeff.items()})

    def subset(self, sub: Subspace) -> Subspace:
        return Subspace(self.image, tuple(int(self.new[m]) for m in sub.members))

    def projection(self, p: RandomProjection) -> RandomProjection:
        rows = [None] * self.space.n
        for x, row in enumerate(p.rows):
            rows[int(self.new[x])] = self.measure(row)
        return RandomProjection(self.subset(p.subset), tuple(rows), p.strong)


def assert_close(a: float, b: float, rel: float = REL) -> None:
    assert abs(a - b) <= rel * max(abs(a), abs(b)), (a, b)


def certified(res):
    ok, msg = verify_duality(res)
    assert ok, msg
    return res.value


@pytest.mark.parametrize("seed", range(8))
def test_relabelling_leaves_transport_values_and_projection_constants_unchanged(seed):
    rng = np.random.default_rng(900 + seed)
    for n in (2, 5, 9, 14):
        space = (rand_space if seed % 2 else rand_repaired_space)(rng, n)
        r = Relabelling(space, rng)

        mu = rand_measure(rng, space)
        assert_close(certified(kr_norm(r.measure(mu))), certified(kr_norm(mu)))

        a, b = rand_measure(rng, space, nonneg=True), rand_measure(rng, space, nonneg=True)
        b = b * (a.mass() / b.mass())
        assert_close(certified(w1(r.measure(a), r.measure(b))), certified(w1(a, b)))

        sub = rand_subspace(rng, space)
        for build in (rand_strong_projection, rand_signed_projection):
            p = build(rng, sub)
            assert_close(projection_constant(r.projection(p)), projection_constant(p))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("mode", ["strong", "signed"])
def test_relabelling_leaves_the_minimal_projection_constant_unchanged(seed, mode):
    tol = 1e-9
    rng = np.random.default_rng(950 + seed)
    for n in (4, 6, 8):
        space = (rand_space if seed % 2 else rand_repaired_space)(rng, n)
        sub = rand_subspace(rng, space, size=int(rng.integers(2, n)))
        r = Relabelling(space, rng)
        k, k_image = (synthesize_min_k(space, sub, mode, tol).k_star,
                      synthesize_min_k(r.image, r.subset(sub), mode, tol).k_star)
        assert_close(k_image, k, rel=tol)
