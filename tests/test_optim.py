"""Exact flow and LP kernels against brute-force oracles."""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krext.transport as transport
from conftest import rand_space
from krext import ContractError, SignedMeasure, kr_norm
from krext.optim import FlowProblem, LinearProgram, solve_flow, solve_lp
from test_metric import three_point


# ---------------------------------------------------------------------------
# min-cost flow


def test_flow_single_node():
    res = solve_flow(FlowProblem(1, np.array([0.0]), ()))
    assert res.cost == 0.0
    assert res.flow.size == 0


def test_flow_two_nodes_forced_arc():
    res = solve_flow(FlowProblem(2, np.array([1.0, -1.0]), ((0, 1, 1.5),)))
    assert res.cost == pytest.approx(1.5, abs=0.0)
    assert res.flow[0] == pytest.approx(1.0, abs=0.0)
    # dual: potentials certify the cost through the supplies
    assert math.fsum(res.potentials[i] * s for i, s in enumerate([1.0, -1.0])) == pytest.approx(1.5)


def test_flow_rejects_unbalanced_supplies():
    with pytest.raises(ContractError):
        solve_flow(FlowProblem(2, np.array([1.0, -0.5]), ((0, 1, 1.0),)))


def test_flow_rejects_disconnected_demand():
    with pytest.raises(ContractError, match="unreachable"):
        solve_flow(FlowProblem(3, np.array([1.0, -1.0, 0.0]), ((0, 2, 1.0),)))


def _tree_flow_cost(n, arcs, supplies):
    """Cost of the unique tree-supported feasible flow, or None.

    arcs is a dict (u, v) -> cost over ordered pairs; a spanning tree is
    given as an undirected edge list.  Flow on each edge is determined
    leaf by leaf; a negative amount means the reverse arc carries it.
    """

    def solve_tree(edges):
        adj = {i: [] for i in range(n)}
        for (u, v) in edges:
            adj[u].append(v)
            adj[v].append(u)
        need = list(supplies)
        remaining = {frozenset(e) for e in edges}
        degree = {i: len(adj[i]) for i in range(n)}
        cost = 0.0
        active = [i for i in range(n) if degree[i] == 1]
        while remaining:
            leaf = active.pop()
            nbr = next(
                v for v in adj[leaf] if frozenset((leaf, v)) in remaining
            )
            amount = need[leaf]  # everything at the leaf crosses its only edge
            if amount >= 0:
                cost += amount * arcs[(leaf, nbr)]
            else:
                cost += -amount * arcs[(nbr, leaf)]
            need[nbr] += amount
            need[leaf] = 0.0
            remaining.discard(frozenset((leaf, nbr)))
            degree[leaf] -= 1
            degree[nbr] -= 1
            if degree[nbr] == 1:
                active.append(nbr)
        return cost

    best = None
    # enumerate labelled spanning trees of K_n by Prüfer sequences
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for s in seq:
            degree[s] += 1
        edges = []
        work = degree[:]
        heap = sorted(i for i in range(n) if degree[i] == 1)
        heapq.heapify(heap)
        for s in seq:
            leaf = heapq.heappop(heap)
            work[leaf] = 0
            edges.append((leaf, s))
            work[s] -= 1
            if work[s] == 1:
                heapq.heappush(heap, s)
        last = [i for i in range(n) if work[i] == 1]
        edges.append((last[0], last[1]))
        cost = solve_tree(edges)
        if best is None or cost < best:
            best = cost
    return best


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_flow_matches_spanning_tree_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = 6
    supplies = rng.integers(-4, 5, size=n).astype(float)
    supplies[-1] -= supplies.sum()
    costs = {}
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v:
                c = float(rng.integers(1, 10))
                costs[(u, v)] = c
                arcs.append((u, v, c))
    res = solve_flow(FlowProblem(n, supplies, tuple(arcs)))
    oracle = _tree_flow_cost(n, costs, supplies)
    assert res.cost == pytest.approx(oracle, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_flow_on_grid_distances_matches_spanning_tree_enumeration(seed):
    # six cells of a 6x6 grid under its path metric: integer costs and
    # integer supplies, so Dijkstra distances and bottlenecks tie often
    rng = np.random.default_rng(seed)
    n = 6
    xy = np.stack(np.divmod(rng.choice(36, size=n, replace=False), 6), axis=1)
    supplies = rng.integers(-3, 4, size=n).astype(float)
    supplies[-1] -= supplies.sum()
    costs = {(u, v): float(np.abs(xy[u] - xy[v]).sum())
             for u in range(n) for v in range(n) if u != v}
    res = solve_flow(FlowProblem(n, supplies, tuple((u, v, c) for (u, v), c in costs.items())))
    assert res.cost == _tree_flow_cost(n, costs, supplies)
    assert res.phases <= res.augmentations


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_flow_phases_never_exceed_augmentations(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    supplies = rng.uniform(-2, 2, size=n)
    supplies[-1] -= supplies.sum()
    arcs = tuple(
        (u, v, float(rng.integers(0, 4) if seed % 2 else rng.uniform(0.0, 3.0)))
        for u in range(n) for v in range(n) if u != v
    )
    res = solve_flow(FlowProblem(n, supplies, arcs))
    assert 1 <= res.phases <= res.augmentations


def test_flow_phase_feeds_several_augmentations():
    # full support on 40 points: one Dijkstra serves several deficit nodes
    rng = np.random.default_rng(40)
    space = rand_space(rng, 40)
    mu = SignedMeasure(space, {i: float(rng.uniform(-2.0, 2.0)) for i in range(40)})
    seen = []

    def spy(problem, tol=1e-9):
        seen.append(solve_flow(problem, tol=tol))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "solve_flow", spy)
        kr_norm(mu)
    res = seen.pop()
    assert res.phases < res.augmentations


def test_flow_grid_is_relative_to_the_problem_scale():
    # costs and supplies far below unit scale keep their full precision
    supplies = np.array([3e-30, -1e-30, -2e-30])
    arcs = ((0, 1, 5e-26), (0, 2, 7e-26))
    res = solve_flow(FlowProblem(3, supplies, arcs))
    assert res.cost == pytest.approx(1.9e-55, rel=1e-15, abs=0.0)
    assert list(res.flow) == pytest.approx([1e-30, 2e-30], rel=1e-15, abs=0.0)


def test_flow_duals_certify_cost():
    rng = np.random.default_rng(3)
    for _ in range(20):
        space = three_point()
        n = int(rng.integers(2, 7))
        supplies = rng.uniform(-2, 2, size=n)
        supplies[-1] -= supplies.sum()
        arcs = tuple(
            (u, v, float(rng.uniform(0.1, 3.0)))
            for u in range(n) for v in range(n) if u != v
        )
        res = solve_flow(FlowProblem(n, supplies, arcs))
        dual = math.fsum(res.potentials[i] * supplies[i] for i in range(n))
        assert dual == pytest.approx(res.cost, abs=1e-9)
        for k, (u, v, c) in enumerate(arcs):
            assert res.potentials[u] - res.potentials[v] <= c + 1e-9
            if res.flow[k] > 1e-9:
                assert res.potentials[u] - res.potentials[v] == pytest.approx(c, abs=1e-9)


def test_flow_homogeneity_is_exact():
    # power-of-two scaling of supplies scales flows and cost exactly
    supplies = np.array([0.3, -0.7, 0.4])
    arcs = ((0, 1, 1.0), (1, 0, 1.0), (0, 2, 2.0), (2, 0, 2.0), (1, 2, 1.5), (2, 1, 1.5))
    base = solve_flow(FlowProblem(3, supplies, arcs))
    scaled = solve_flow(FlowProblem(3, supplies * 4.0, arcs))
    assert scaled.cost == base.cost * 4.0


# ---------------------------------------------------------------------------
# linear programs


def test_lp_minimize_simple_bound():
    lp = LinearProgram(
        c=np.array([1.0]),
        A=np.array([[1.0]]),
        senses=(">=",),
        b=np.array([3.0]),
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-12)
    assert res.x[0] == pytest.approx(3.0, abs=1e-12)


def test_lp_infeasible_detected():
    lp = LinearProgram(
        c=np.array([1.0]),
        A=np.array([[1.0], [1.0]]),
        senses=("<=", ">="),
        b=np.array([0.0, 1.0]),
    )
    assert solve_lp(lp).status == "infeasible"


def test_lp_unbounded_detected():
    lp = LinearProgram(
        c=np.array([-1.0]),
        A=np.array([[0.0]]),
        senses=("<=",),
        b=np.array([1.0]),
    )
    assert solve_lp(lp).status == "unbounded"


def test_lp_reproduces_kr_norm():
    """maximize sum mu_i g_i over 1-Lipschitz g vanishing at the basepoint."""
    space = three_point()
    mu = SignedMeasure(space, {1: 1.0, 2: -0.5})
    n = space.n
    rows, b = [], []
    for i in range(n):
        for j in range(n):
            if i != j:
                row = np.zeros(n)
                row[i], row[j] = 1.0, -1.0
                rows.append(row)
                b.append(space.d(i, j))
    # pin the basepoint coordinate to zero
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
    assert res.objective == pytest.approx(kr_norm(mu).value, abs=1e-9)


def test_lp_equality_rows_and_upper_bounds():
    # transport polytope: min cost coupling between (0.3, 0.7) and (0.6, 0.4)
    cost = np.array([0.0, 2.0, 2.0, 0.0])
    A = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    b = np.array([0.3, 0.7, 0.6, 0.4])
    lp = LinearProgram(cost, A, ("==",) * 4, b)
    res = solve_lp(lp)
    assert res.status == "optimal"
    # move 0.3 across: only the second marginal's excess pays
    assert res.objective == pytest.approx(0.6, abs=1e-9)


def test_lp_duals_satisfy_strong_duality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        A = rng.uniform(-2, 2, size=(m, n))
        x0 = rng.uniform(0, 2, size=n)
        b = A @ x0 + rng.uniform(0.0, 1.0, size=m)  # feasible by construction
        c = rng.uniform(0.1, 2.0, size=n)           # bounded: minimize over x >= 0
        lp = LinearProgram(c, A, ("<=",) * m, b)
        res = solve_lp(lp)
        assert res.status == "optimal"
        assert b @ res.y == pytest.approx(res.objective, abs=1e-8)
        # dual feasibility for <= rows of a minimization: y <= 0, A^T y <= c
        assert np.all(res.y <= 1e-9)
        assert np.all(A.T @ res.y <= c + 1e-8)


def test_lp_mixed_bounds():
    # minimize x + y with x in [-2, -1], y free but pinned by an equality
    lp = LinearProgram(
        c=np.array([1.0, 1.0]),
        A=np.array([[0.0, 1.0]]),
        senses=("==",),
        b=np.array([5.0]),
        lb=np.array([-2.0, -np.inf]),
        ub=np.array([-1.0, np.inf]),
    )
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(-2.0, abs=1e-12)
    assert res.objective == pytest.approx(3.0, abs=1e-12)


def test_lp_validates_shapes():
    with pytest.raises(ContractError):
        LinearProgram(np.array([1.0]), np.array([[1.0, 2.0]]), ("<=",), np.array([1.0]))
    with pytest.raises(ContractError):
        LinearProgram(np.array([1.0]), np.array([[1.0]]), ("!",), np.array([1.0]))


def test_lp_rejects_an_upper_bound_without_a_lower_bound():
    # a variable is either free or bounded below; x <= 3 alone is not a kind solve_lp takes
    with pytest.raises(ContractError, match="no lower bound"):
        LinearProgram(np.array([1.0]), np.zeros((0, 1)), (), np.zeros(0),
                      lb=np.array([-np.inf]), ub=np.array([3.0]))


def test_lp_degenerate_instance_terminates():
    # many redundant rows meeting at one vertex: stalls Dantzig, Bland must finish
    n = 4
    A = np.vstack([np.eye(n), np.eye(n), np.ones((1, n))])
    senses = ("<=",) * (2 * n) + ("<=",)
    b = np.concatenate([np.zeros(2 * n), [0.0]])
    lp = LinearProgram(-np.ones(n), A, senses, b)
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-12)
