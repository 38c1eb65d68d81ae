"""Transport distances and the dual norm, checked two independent ways."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_measure, rand_repaired_space, rand_space
import krext.transport as transport
from krext import ContractError, FiniteMetricSpace, SignedMeasure, kr_norm, verify_duality, w1
from krext.families import grid_space
from krext.optim import FlowProblem, LinearProgram, solve_lp
from test_metric import three_point


def dual_lp_value(mu: SignedMeasure) -> float:
    """Independent oracle: maximize <mu, g> over the 1-Lipschitz ball of Lip0."""
    space = mu.space
    n = space.n
    rows, b = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                row = np.zeros(n)
                row[i], row[j] = 1.0, -1.0
                rows.append(row)
                b.append(space.d(i, j))
    pin = np.zeros(n)
    pin[space.basepoint] = 1.0
    rows.append(pin)
    b.append(0.0)
    lp = LinearProgram(
        c=mu.as_vector(),
        A=np.array(rows),
        senses=("<=",) * (len(rows) - 1) + ("==",),
        b=np.array(b),
        lb=np.full(n, -np.inf),
        maximize=True,
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    return float(res.objective)


def kr_supplies(mu: SignedMeasure) -> np.ndarray:
    """mu with the basepoint absorbing whatever mass does not cancel."""
    s = mu.as_vector()
    s[mu.space.basepoint] = 0.0
    s[mu.space.basepoint] = -math.fsum(s)
    return s


def assert_direct_arcs(res, supplies: np.ndarray) -> None:
    """Every moved mass runs from a positive-supply to a negative-supply point."""
    for (i, j), m in res.plan.items():
        if i != j:
            assert supplies[i] > 0 > supplies[j], ((i, j), m)


# ---------------------------------------------------------------------------
# w1 on nonnegative measures


def test_w1_two_diracs_is_the_distance():
    space = three_point()
    res = w1(SignedMeasure.dirac(space, 1), SignedMeasure.dirac(space, 2))
    assert res.value == pytest.approx(1.5, abs=0.0)
    assert res.plan == {(1, 2): 1.0}


def test_w1_identical_measures_is_zero():
    space = three_point()
    mu = SignedMeasure(space, {0: 0.5, 1: 0.5})
    res = w1(mu, mu)
    assert res.value == 0.0


def test_w1_forced_plan():
    space = three_point()
    mu = SignedMeasure(space, {0: 0.5, 1: 0.5})
    eta = SignedMeasure.dirac(space, 2)
    res = w1(mu, eta)
    # target is a single atom, so the plan is forced: 0.5*2 + 0.5*1.5
    assert res.value == pytest.approx(1.75, abs=1e-12)
    assert res.plan == {(0, 2): 0.5, (1, 2): 0.5}


def test_w1_plan_marginals_match_inputs():
    rng = np.random.default_rng(21)
    for _ in range(25):
        space = rand_space(rng, int(rng.integers(2, 8)))
        mu = rand_measure(rng, space, nonneg=True)
        eta = rand_measure(rng, space, nonneg=True)
        eta = eta * (mu.mass() / eta.mass())
        res = w1(mu, eta)
        for i in range(space.n):
            out = math.fsum(m for (a, _), m in res.plan.items() if a == i)
            into = math.fsum(m for (_, b), m in res.plan.items() if b == i)
            assert out == pytest.approx(mu[i], abs=1e-9)
            assert into == pytest.approx(eta[i], abs=1e-9)


def test_w1_rejects_mass_mismatch():
    space = three_point()
    with pytest.raises(ContractError, match="mass"):
        w1(SignedMeasure.dirac(space, 1), SignedMeasure.dirac(space, 2) * 2.0)


def test_w1_rejects_signed_input():
    space = three_point()
    signed = SignedMeasure(space, {1: 1.0, 2: -1.0})
    zero = SignedMeasure(space, {})
    with pytest.raises(ContractError, match="kr_norm"):
        w1(signed, zero)


def test_w1_rejects_space_mismatch():
    mu = SignedMeasure.dirac(three_point(), 1)
    eta = SignedMeasure.dirac(rand_space(np.random.default_rng(2), 3), 1)
    with pytest.raises(ContractError):
        w1(mu, eta)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_w1_matches_dense_lp_dual(seed):
    rng = np.random.default_rng(seed)
    space = (rand_space if seed % 2 else rand_repaired_space)(rng, int(rng.integers(2, 9)))
    mu = rand_measure(rng, space, nonneg=True)
    eta = rand_measure(rng, space, nonneg=True)
    eta = eta * (mu.mass() / eta.mass())
    res = w1(mu, eta)
    scale = max(1.0, res.value)
    assert res.value == pytest.approx(dual_lp_value(mu - eta), abs=1e-9 * scale)
    assert res.gap <= 1e-9 * scale
    assert_direct_arcs(res, mu.as_vector() - eta.as_vector())


def test_w1_absorbs_a_mass_drift_within_tolerance():
    # every point loses mass; the drift of 1.1e-10 is inside tol, so the
    # largest deficit turns into the source that feeds the other point
    space = three_point()
    mu = SignedMeasure(space, {0: 0.5, 1: 0.5})
    eta = SignedMeasure(space, {0: 0.5 + 1e-11, 1: 0.5 + 1e-10})
    res = w1(mu, eta)
    assert res.value <= 1e-10
    assert verify_duality(res)[0]


@pytest.mark.parametrize("kind", ["kr", "w1"])
def test_flow_problem_holds_only_direct_arcs(kind, monkeypatch):
    seen = []

    def spy(problem, tol=1e-9):
        seen.append(problem)
        return solve_flow(problem, tol=tol)

    solve_flow = transport.solve_flow
    monkeypatch.setattr(transport, "solve_flow", spy)
    rng = np.random.default_rng(31)
    for _ in range(10):
        space = rand_space(rng, int(rng.integers(3, 12)))
        if kind == "kr":
            mu = rand_measure(rng, space)
            supplies = kr_supplies(mu)
            kr_norm(mu)
        else:
            mu = rand_measure(rng, space, nonneg=True)
            eta = rand_measure(rng, space, nonneg=True)
            eta = eta * (mu.mass() / eta.mass())
            supplies = mu.as_vector() - eta.as_vector()
            w1(mu, eta)
        problem = seen.pop()
        n_pos, n_neg = int(np.sum(supplies > 0)), int(np.sum(supplies < 0))
        assert problem.n_nodes == n_pos + n_neg
        assert len(problem.arcs) == n_pos * n_neg


@pytest.mark.parametrize("kind", ["kr", "w1"])
def test_certificate_is_checked_at_the_callers_tolerance(kind, monkeypatch):
    seen = []

    def spy(result, tol=1e-9):
        seen.append(tol)
        return verify_duality(result, tol=tol)

    monkeypatch.setattr(transport, "verify_duality", spy)
    space = three_point()
    if kind == "kr":
        kr_norm(SignedMeasure(space, {1: 1.0, 2: -0.5}), tol=1e-12)
    else:
        w1(SignedMeasure(space, {1: 1.0}), SignedMeasure(space, {2: 1.0}), tol=1e-12)
    assert seen == [1e-12]


@pytest.mark.parametrize("kind", ["kr", "w1"])
def test_a_tolerance_below_the_floor_is_a_contract_error(kind):
    # below 1e-15 rounding alone fails valid inputs, so the library refuses it
    rng = np.random.default_rng(64)
    space = rand_space(rng, 12)
    w = rng.uniform(0.05, 1.0, size=(2, 12))
    w /= w.sum(axis=1, keepdims=True)
    mu, eta = (SignedMeasure(space, dict(enumerate(r.tolist()))) for r in w)

    def solve(tol):
        return kr_norm(mu - eta, tol=tol) if kind == "kr" else w1(mu, eta, tol=tol)

    with pytest.raises(ContractError, match=r"tol must be a finite tolerance in \[1e-15, 1\)"):
        solve(1e-16)
    assert solve(1e-15).value == solve(1e-9).value


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_w1_is_a_metric_on_probability_measures(seed):
    rng = np.random.default_rng(seed)
    space = rand_repaired_space(rng, int(rng.integers(2, 7)))

    def prob(rs):
        mu = rand_measure(rs, space, nonneg=True)
        return mu * (1.0 / mu.mass())

    a, b, c = prob(rng), prob(rng), prob(rng)
    dab = w1(a, b).value
    dba = w1(b, a).value
    dac = w1(a, c).value
    dcb = w1(c, b).value
    assert dab == pytest.approx(dba, rel=1e-9, abs=1e-12)
    assert dab <= dac + dcb + 1e-9
    assert w1(a, a).value <= 1e-12


# ---------------------------------------------------------------------------
# the dual norm


def test_kr_norm_basepoint_atom_vanishes():
    space = three_point()
    assert kr_norm(SignedMeasure.dirac(space, 0)).value == 0.0


def test_kr_norm_dirac_difference_is_distance():
    space = three_point()
    mu = SignedMeasure.dirac(space, 1) - SignedMeasure.dirac(space, 2)
    assert kr_norm(mu).value == pytest.approx(1.5, abs=0.0)


def test_kr_norm_single_dirac_uses_basepoint():
    space = three_point()
    res = kr_norm(SignedMeasure.dirac(space, 1))
    assert res.value == pytest.approx(1.0, abs=0.0)
    assert res.value == pytest.approx(dual_lp_value(SignedMeasure.dirac(space, 1)), abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kr_norm_matches_dense_lp_dual(seed):
    rng = np.random.default_rng(seed)
    space = (rand_space if seed % 2 else rand_repaired_space)(rng, int(rng.integers(2, 9)))
    mu = rand_measure(rng, space)
    res = kr_norm(mu)
    scale = max(1.0, res.value)
    assert res.value == pytest.approx(dual_lp_value(mu), abs=1e-9 * scale)
    assert res.gap <= 1e-9 * scale
    assert_direct_arcs(res, kr_supplies(mu))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_kr_norm_homogeneity_is_tight(seed):
    rng = np.random.default_rng(seed)
    space = rand_space(rng, int(rng.integers(2, 7)))
    mu = rand_measure(rng, space)
    c = float(rng.uniform(0.1, 8.0))
    lhs = kr_norm(mu * c).value
    rhs = c * kr_norm(mu).value
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_kr_norm_triangle_inequality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        space = rand_space(rng, int(rng.integers(2, 7)))
        mu, eta = rand_measure(rng, space), rand_measure(rng, space)
        assert (
            kr_norm(mu + eta).value
            <= kr_norm(mu).value + kr_norm(eta).value + 1e-9
        )


def test_dirac_map_is_an_isometry():
    rng = np.random.default_rng(9)
    for _ in range(15):
        space = rand_repaired_space(rng, int(rng.integers(2, 8)))
        for i in range(space.n):
            for j in range(space.n):
                if i == j:
                    continue
                diff = SignedMeasure.dirac(space, i) - SignedMeasure.dirac(space, j)
                assert kr_norm(diff).value == pytest.approx(space.d(i, j), abs=1e-9)


# ---------------------------------------------------------------------------
# scale and ties


def scaled(space: FiniteMetricSpace, s: float) -> FiniteMetricSpace:
    return FiniteMetricSpace(space.labels, space.dist * s, space.basepoint)


def on(space: FiniteMetricSpace, mu: SignedMeasure) -> SignedMeasure:
    return SignedMeasure(space, mu.coeff)


@given(st.integers(0, 2**32 - 1), st.integers(-80, 80))
@settings(max_examples=40, deadline=None)
def test_kr_norm_and_w1_scale_exactly_by_powers_of_two(seed, k):
    rng = np.random.default_rng(seed)
    space = (rand_space if seed % 2 else rand_repaired_space)(rng, int(rng.integers(2, 10)))
    s = math.ldexp(1.0, k)
    far = scaled(space, s)
    mu = rand_measure(rng, space)
    base = kr_norm(mu).value
    assert kr_norm(on(far, mu)).value == s * base
    assert kr_norm(mu * s).value == s * base
    a = rand_measure(rng, space, nonneg=True)
    b = rand_measure(rng, space, nonneg=True)
    b = b * (a.mass() / b.mass())
    base = w1(a, b).value
    assert w1(on(far, a), on(far, b)).value == s * base
    assert w1(a * s, b * s).value == s * base


def test_kr_norm_far_below_unit_scale_keeps_its_precision():
    rng = np.random.default_rng(25)
    space = rand_space(rng, 40)
    mu = SignedMeasure(space, {i: float(rng.uniform(-2.0, 2.0)) for i in range(40)})
    unit = kr_norm(mu).value
    tiny = kr_norm(on(scaled(space, 1e-25), mu))
    assert tiny.value == pytest.approx(1e-25 * unit, rel=1e-9, abs=0.0)
    assert verify_duality(tiny)[0]


def transport_lp_value(space: FiniteMetricSpace, supplies: np.ndarray) -> float:
    """Independent oracle: scipy's linprog over flows on every ordered pair."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = space.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    A = np.zeros((n, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        A[i, k], A[j, k] = 1.0, -1.0
    cost = [space.d(i, j) for i, j in pairs]
    res = linprog(cost, A_eq=A[1:], b_eq=supplies[1:], bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("seed", range(4))
def test_tie_heavy_grid_metric_matches_linprog(seed):
    rng = np.random.default_rng(seed)
    space = grid_space(6)
    n = space.n
    mu = SignedMeasure(space, dict(enumerate(rng.integers(-3, 4, size=n).astype(float))))
    res = kr_norm(mu)
    assert res.value == pytest.approx(transport_lp_value(space, kr_supplies(mu)), rel=1e-9)
    assert_direct_arcs(res, kr_supplies(mu))
    a = rng.integers(0, 4, size=n).astype(float)
    b = rng.permutation(a)
    res = w1(SignedMeasure(space, dict(enumerate(a))), SignedMeasure(space, dict(enumerate(b))))
    assert res.value == pytest.approx(transport_lp_value(space, a - b), rel=1e-9)
    assert_direct_arcs(res, a - b)


def broken_triangle() -> FiniteMetricSpace:
    """d(a, c) = 3 exceeds the detour d(a, b) + d(b, c) = 1 + 1.5."""
    d = three_point().dist.copy()
    d[0, 2] = d[2, 0] = 3.0
    return FiniteMetricSpace(("a", "b", "c"), d, basepoint=0)


def test_non_metric_space_is_a_contract_error():
    space = broken_triangle()
    a, c = SignedMeasure.dirac(space, 0), SignedMeasure.dirac(space, 2)
    with pytest.raises(ContractError, match=r"triangle violated at \(a,b,c\)"):
        kr_norm(a - c)
    with pytest.raises(ContractError, match="triangle"):
        w1(a, c)


# ---------------------------------------------------------------------------
# the assembly around the flow solve


def transport_loops(mu: SignedMeasure, eta: SignedMeasure | None = None, tol: float = 1e-9):
    """Reference kr_norm (eta None) or w1 written as loops around solve_flow.

    Returns (value, plan, potentials, gap) as the library assembles them:
    the supplies, the support ordered by |supply| with ties in index
    order, one arc from each source to each sink, the plan in arc order
    and then the diagonal, and the c-transform shifted to vanish at the
    basepoint.
    """
    space = mu.space
    n, bp, d = space.n, space.basepoint, space.dist
    if eta is None:
        coeff = [mu[i] for i in range(n)]
        supplies = list(coeff)
        supplies[bp] = -math.fsum(supplies[i] for i in range(n) if i != bp)
    else:
        coeff = [mu[i] - eta[i] for i in range(n)]
        supplies = list(coeff)
        supplies[max(range(n), key=lambda i: abs(coeff[i]))] -= math.fsum(coeff)
    nodes = sorted((i for i in range(n) if supplies[i] != 0.0), key=lambda i: abs(supplies[i]))
    sources = [k for k, i in enumerate(nodes) if supplies[i] > 0.0]
    sinks = [k for k, i in enumerate(nodes) if supplies[i] < 0.0]
    arcs = [(s, t) for s in sources for t in sinks]
    res = transport.solve_flow(FlowProblem(
        np.array([supplies[i] for i in nodes]),
        np.array([d[nodes[s], nodes[t]] for s, t in arcs]).reshape(len(sources), len(sinks))), tol=tol)
    plan = {}
    for (s, t), f in zip(arcs, res.flow.tolist()):
        if f > 0.0:
            plan[(nodes[s], nodes[t])] = f
    if eta is not None:
        for i in range(n):
            if min(mu[i], eta[i]) > 0.0:
                plan[(i, i)] = min(mu[i], eta[i])
    g = [0.0] * n
    if sinks:
        g = [min(float(res.potentials[t]) + float(d[x, nodes[t]]) for t in sinks) for x in range(n)]
        g = [v - g[bp] for v in g]
    dual = math.fsum(c * v for c, v in zip(coeff, g))
    return res.cost, plan, np.array(g), abs(res.cost - dual)


@pytest.mark.parametrize("kind", ["kr", "w1"])
def test_transport_matches_the_loop_reference_bit_for_bit(kind):
    rng = np.random.default_rng(71 if kind == "kr" else 72)
    scales = (1.0, 2.0 ** 37, 2.0 ** -41, 1e8, 1e-8)
    cases = 0
    for n in (8, 20, 40, 100):
        for make in (rand_space, rand_repaired_space):
            for sparse in (False, True):
                space = make(rng, n)
                space = scaled(space, scales[cases % len(scales)])
                mass = scales[(cases + 2) % len(scales)]
                size = max(2, n // 8) if sparse else n
                # integer weights on full supports, so that many |supplies| tie
                w = (rng.integers(1, 4, size=(2, size)).astype(float) if not sparse
                     else rng.uniform(0.05, 1.0, size=(2, size)))
                if kind == "kr":
                    w[0] *= rng.choice([-1.0, 1.0], size=size)
                    support = rng.choice(n, size=size, replace=False).tolist()
                    mu = SignedMeasure(space, dict(zip(support, (mass * w[0]).tolist())))
                    res, ref = kr_norm(mu), transport_loops(mu)
                else:
                    mu, eta = (SignedMeasure(space, dict(zip(
                        rng.choice(n, size=size, replace=False).tolist(),
                        (mass * r / r.sum()).tolist()))) for r in w)
                    res, ref = w1(mu, eta), transport_loops(mu, eta)
                value, plan, g, gap = ref
                assert res.value.hex() == value.hex()
                assert res.gap.hex() == gap.hex()
                assert res.potentials.dtype == g.dtype and res.potentials.tobytes() == g.tobytes()
                assert list(res.plan.items()) == list(plan.items())
                assert all(type(i) is int and type(j) is int and type(m) is float
                           for (i, j), m in res.plan.items())
                cases += 1
    assert cases == 16


# ---------------------------------------------------------------------------
# certificates


def test_verify_duality_accepts_solver_output():
    rng = np.random.default_rng(13)
    for _ in range(10):
        space = rand_space(rng, int(rng.integers(2, 7)))
        res = kr_norm(rand_measure(rng, space))
        ok, msg = verify_duality(res)
        assert ok, msg


def test_verify_duality_flags_broken_potential():
    space = three_point()
    res = kr_norm(SignedMeasure.dirac(space, 1) - SignedMeasure.dirac(space, 2))
    bad = res.potentials.copy()
    bad[1] += 1e-5
    broken = dataclasses.replace(res, potentials=bad)
    ok, msg = verify_duality(broken)
    assert not ok
    # the message names the offending pair or the gap it opened
    assert ("b" in msg) or ("gap" in msg)


def test_verify_duality_flags_negated_plan_entry():
    space = three_point()
    res = w1(SignedMeasure.dirac(space, 1), SignedMeasure.dirac(space, 2))
    bad_plan = {k: -v for k, v in res.plan.items()}
    broken = dataclasses.replace(res, plan=bad_plan)
    ok, msg = verify_duality(broken)
    assert not ok
    assert "negative" in msg or "marginal" in msg


def test_verify_duality_flags_nonzero_basepoint():
    space = three_point()
    res = kr_norm(SignedMeasure.dirac(space, 1))
    bad = res.potentials.copy()
    bad[space.basepoint] = 0.5
    ok, msg = verify_duality(dataclasses.replace(res, potentials=bad))
    assert not ok
    assert "basepoint" in msg


def test_verify_duality_flags_wrong_value():
    space = three_point()
    res = kr_norm(SignedMeasure.dirac(space, 1))
    ok, msg = verify_duality(dataclasses.replace(res, value=res.value + 0.25))
    assert not ok


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field, message", [
    ("one potential", "potential at 'b' is"),
    ("every potential", "potential at 'a' is"),
    ("value", "value"),
    ("gap", "gap"),
    ("plan mass", "plan entry"),
])
def test_verify_duality_refuses_non_finite_numbers(field, message, bad):
    space = three_point()
    res = kr_norm(SignedMeasure.dirac(space, 1) - SignedMeasure.dirac(space, 2))
    assert verify_duality(res) == (True, "ok")
    if field.endswith("potential"):
        g = res.potentials.copy()
        g[slice(None) if field == "every potential" else 1] = bad
        broken = dataclasses.replace(res, potentials=g)
    elif field == "plan mass":
        broken = dataclasses.replace(res, plan={k: bad for k in res.plan})
    else:
        broken = dataclasses.replace(res, **{field: bad})
    ok, msg = verify_duality(broken)
    assert not ok
    assert message in msg and "not finite" in msg


def verify_duality_loops(result, tol: float = 1e-9) -> tuple[bool, str]:
    """Reference: verify_duality written as plain loops over pairs and nodes."""
    space = result.space
    n = space.n
    d = space.dist
    g = result.potentials
    diam = max(float(d[i, j]) for i in range(n) for j in range(n))
    mass = math.fsum(abs(c) for c in result.mu.coeff.values())
    if result.eta is not None:
        mass = max(mass, math.fsum(abs(c) for c in result.eta.coeff.values()))

    if abs(float(g[space.basepoint])) > tol * diam:
        return False, f"potential at the basepoint is {float(g[space.basepoint]):.3e}, not 0"
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            excess = float(g[i] - g[j]) - float(d[i, j])
            if excess > tol * diam:
                a, bl = space.labels[i], space.labels[j]
                return False, (
                    f"potential stretches pair ({a!r}, {bl!r}) by {excess:.3e} beyond their distance"
                )

    for (i, j), fv in result.plan.items():
        if not (0 <= i < n and 0 <= j < n):
            return False, f"plan entry ({i}, {j}) indexes outside the space"
        if fv < -tol * mass:
            return False, f"plan entry ({i}, {j}) is negative: {fv:.3e}"

    plan_cost = math.fsum(fv * float(d[i, j]) for (i, j), fv in result.plan.items())
    cost_scale = max(abs(result.value), mass * diam)
    if abs(plan_cost - result.value) > tol * cost_scale:
        return False, (
            f"plan cost {plan_cost!r} disagrees with the reported value {result.value!r}"
        )

    if result.kind == "w1":
        if result.eta is None:
            return False, "a w1 result must carry both measures"
        row = [0.0] * n
        col = [0.0] * n
        for (i, j), fv in result.plan.items():
            row[i] += fv
            col[j] += fv
        for i in range(n):
            if abs(row[i] - result.mu[i]) > tol * mass:
                return False, f"plan row {i} sums to {row[i]!r}, expected mu = {result.mu[i]!r}"
            if abs(col[i] - result.eta[i]) > tol * mass:
                return False, f"plan column {i} sums to {col[i]!r}, expected eta = {result.eta[i]!r}"
    else:
        bp = space.basepoint
        for i in range(n):
            if i == bp:
                continue
            div = math.fsum(
                (fv if a == i else 0.0) - (fv if b == i else 0.0)
                for (a, b), fv in result.plan.items()
            )
            if abs(div - result.mu[i]) > tol * mass:
                return False, (
                    f"plan divergence at node {i} is {div!r}, expected coefficient {result.mu[i]!r}"
                )

    coeff = result.mu.as_vector()
    if result.kind == "w1":
        coeff = coeff - result.eta.as_vector()
    dual = math.fsum(float(coeff[i]) * float(g[i]) for i in range(n))
    if abs(dual - result.value) > tol * cost_scale:
        return False, f"duality gap {abs(dual - result.value):.3e} exceeds tolerance"
    return True, "ok"


def damaged(rng: np.random.Generator, res):
    """A copy of a transport result with one random defect, often near the tolerance."""
    n = res.space.n
    size = float(10.0 ** rng.uniform(-11, -1)) * float(rng.choice([-1.0, 1.0]))
    keys = list(res.plan)
    how = int(rng.integers(9))
    if how == 0:
        g = res.potentials.copy()
        g[int(rng.integers(n))] += size
        return dataclasses.replace(res, potentials=g)
    if how == 1:
        return dataclasses.replace(res, value=res.value + size)
    if how == 2 and keys:
        plan = dict(res.plan)
        k = keys[int(rng.integers(len(keys)))]
        plan[k] += size
        return dataclasses.replace(res, plan=plan)
    if how == 3 and keys:
        plan = dict(res.plan)
        del plan[keys[int(rng.integers(len(keys)))]]
        return dataclasses.replace(res, plan=plan)
    if how == 4:
        plan = dict(res.plan)
        plan[(int(rng.integers(n)), int(rng.integers(-1, n + 1)))] = abs(size)
        return dataclasses.replace(res, plan=plan)
    if how == 5:
        g = res.potentials - size * rng.uniform(0.0, 1.0, n)
        return dataclasses.replace(res, potentials=g)
    if how in (6, 7) and not (how == 7 and res.eta is None):
        field = "mu" if how == 6 else "eta"
        m = getattr(res, field)
        k = int(rng.integers(n))
        return dataclasses.replace(res, **{field: SignedMeasure(m.space, {**m.coeff, k: m[k] + size})})
    return res


def test_verify_duality_matches_the_loop_reference():
    rng = np.random.default_rng(17)
    for _ in range(300):
        space = (rand_space if rng.random() < 0.5 else rand_repaired_space)(
            rng, int(rng.integers(2, 9)))
        if rng.random() < 0.5:
            res = kr_norm(rand_measure(rng, space))
        else:
            mu = rand_measure(rng, space, nonneg=True)
            eta = rand_measure(rng, space, nonneg=True)
            res = w1(mu, eta * (mu.mass() / eta.mass()))
        bad = damaged(rng, res)
        assert verify_duality(bad) == verify_duality_loops(bad)
