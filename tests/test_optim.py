"""Exact flow and LP kernels against brute-force oracles."""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krext.extension as extension
import krext.optim as optim
import krext.transport as transport
from conftest import (
    rand_repaired_space,
    rand_signed_projection,
    rand_space,
    rand_strong_projection,
    rand_subspace,
    synthesis_lp_loops,
)
from krext import ContractError, SignedMeasure, SolverError, Subspace, kr_norm, operator_norm
from krext.families import grid_space
from krext.optim import (
    FlowProblem,
    FlowResult,
    LPResult,
    LinearProgram,
    _grid_exponent,
    _Simplex,
    solve_flow,
    solve_lp,
)
from test_metric import three_point
from test_transport import scaled


# ---------------------------------------------------------------------------
# min-cost flow


def flow_problem(supplies, triples):
    """A FlowProblem from supplies and (source, sink, cost) triples.

    A source -> sink pair that no triple names costs NaN, which solve_flow
    refuses once the supplies pass their checks.
    """
    supplies = np.asarray(supplies, dtype=float)
    rows = {int(u): i for i, u in enumerate((supplies > 0.0).nonzero()[0])}
    cols = {int(v): j for j, v in enumerate((supplies < 0.0).nonzero()[0])}
    cost = np.full((len(rows), len(cols)), math.nan)
    for u, v, c in triples:
        cost[rows[u], cols[v]] = c
    return FlowProblem(supplies, cost)


def priced_by(supplies, full):
    """The FlowProblem that prices each source -> sink arc (u, v) at full[u, v]."""
    supplies = np.asarray(supplies, dtype=float)
    return FlowProblem(supplies, full[np.ix_(supplies > 0.0, supplies < 0.0)])


def grid_instance(problem):
    """The quantized instance: arcs, integer supplies, integer arc costs and both shifts.

    As in solve_flow, costs and supplies are scaled by powers of two that
    put the largest just below 2**60 and rounded, the supplies as running
    sums, so that they balance.
    """
    arcs = [(int(u), int(v)) for u, v in problem.arcs]
    costs = problem.cost.ravel().tolist()
    supply_shift = _grid_exponent(float(np.max(np.abs(problem.supplies), initial=0.0)))
    cost_shift = _grid_exponent(max(costs, default=0.0))
    b, cum, prev = [], 0.0, 0
    for s in problem.supplies:   # running sums on the grid, so sum(b) == 0
        cum += float(s)
        cur = int(round(math.ldexp(cum, supply_shift)))
        b.append(cur - prev)
        prev = cur
    if b:
        b[-1] -= prev
    return arcs, b, [int(round(math.ldexp(c, cost_shift))) for c in costs], supply_shift, cost_shift


def certify_on_grid(problem, flow_int, pi):
    """Exact optimality of integer flows and potentials on the quantized instance.

    Primal feasibility (nonnegative flows that meet every supply), dual
    feasibility (cost + pi[u] - pi[v] >= 0 on every arc), complementary
    slackness (equality on every arc that carries flow) and a duality gap
    of exactly zero, all in Python ints.
    """
    arcs, b, cost, _, _ = grid_instance(problem)
    assert len(flow_int) == len(arcs) and min(flow_int, default=0) >= 0
    net = [0] * problem.n_nodes
    for (u, v), f in zip(arcs, flow_int):
        net[u] += f
        net[v] -= f
    assert net == b
    reduced = [c + pi[u] - pi[v] for (u, v), c in zip(arcs, cost)]
    assert min(reduced, default=0) >= 0
    assert not any(r for r, f in zip(reduced, flow_int) if f)
    assert -sum(map(operator.mul, b, pi)) == sum(map(operator.mul, flow_int, cost))


def solve_flow_loops(problem, tol=1e-9):
    """Reference solve_flow on paired residual edges, edge e ^ 1 reversing e.

    The primal-dual phases of solve_flow's dense path on the same grid,
    with the cost matrix expanded into arcs and every arc stored as a
    capacitated forward edge and a backward edge that is scanned even
    while it carries nothing, and with no label pre-pass: each phase is a
    full-scan Dijkstra.  A node that is no sink and has no supply on the
    grid sits at the largest grid cost and at distance 0, as in
    solve_flow's dense path.
    """
    n = problem.n_nodes
    arcs, b, arc_cost, supply_shift, cost_shift = grid_instance(problem)
    total_excess = sum(x for x in b if x > 0)
    inf_cap = total_excess + 1
    head, cap, cost = [], [], []
    adj = [[] for _ in range(n)]
    for (u, v), cq in zip(arcs, arc_cost):
        adj[u].append(len(head)); head.append(v); cap.append(inf_cap); cost.append(cq)
        adj[v].append(len(head)); head.append(u); cap.append(0); cost.append(-cq)
    excess = list(b)
    idle = [v for v in range(n) if b[v] == 0 and problem.supplies[v] >= 0.0]
    pi = [0] * n
    for v in idle:
        pi[v] = max(cost, default=0)   # the largest forward cost on the grid
    phases = augmentations = 0
    while total_excess > 0:
        phases += 1
        dist = [math.inf] * n
        parent_edge = [-1] * n
        pq = [(0, s) for s in range(n) if excess[s] > 0]
        for _, s in pq:
            dist[s] = 0
        for s in idle:
            dist[s] = 0
        deficits = sum(1 for x in excess if x < 0)
        reached = []
        last = 0
        while pq:
            dv, v = heapq.heappop(pq)
            if dv != dist[v]:
                continue
            last = dv
            if excess[v] < 0:
                reached.append(v)
                if len(reached) == deficits:
                    break
            for e in adj[v]:
                if cap[e] > 0:
                    w = head[e]
                    nd = dv + pi[v] + cost[e] - pi[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        parent_edge[w] = e
                        heapq.heappush(pq, (nd, w))
        if not reached:
            raise ContractError("flow problem is infeasible: a deficit node is unreachable")
        for v in range(n):
            pi[v] += min(dist[v], last)
        for t in reached:
            amount = -excess[t]
            path = []
            v = t
            while parent_edge[v] >= 0:
                e = parent_edge[v]
                path.append(e)
                amount = min(amount, cap[e])
                v = head[e ^ 1]
            amount = min(amount, excess[v])
            if amount <= 0:
                continue
            for e in path:
                cap[e] -= amount
                cap[e ^ 1] += amount
            excess[v] -= amount
            excess[t] += amount
            total_excess -= amount
            augmentations += 1
    flow_int = tuple(cap[2 * k + 1] for k in range(len(arcs)))
    cost_int = sum(f * cost[2 * k] for k, f in enumerate(flow_int))
    for k, (u, v) in enumerate(arcs):
        reduced = cost[2 * k] + pi[u] - pi[v]
        if reduced < 0 or (flow_int[k] > 0 and reduced > 0):
            raise SolverError("reference certificate failed")
    if sum(bi * -p for bi, p in zip(b, pi)) != cost_int:
        raise SolverError("reference duality gap is nonzero")
    return FlowResult(
        flow=np.array([math.ldexp(f, -supply_shift) for f in flow_int]),
        potentials=np.array([math.ldexp(-p, -cost_shift) for p in pi]),
        cost=math.ldexp(cost_int, -supply_shift - cost_shift),
        flow_int=flow_int,
        phases=phases,
        augmentations=augmentations,
    )


def test_flow_single_node():
    res = solve_flow(flow_problem([0.0], ()))
    assert res.cost == 0.0
    assert res.flow.size == 0


def test_flow_without_nodes():
    # no nodes and no arcs meets any arcs-per-node density gate
    res = solve_flow(flow_problem(np.zeros(0), ()))
    assert (res.cost, res.flow.size, res.potentials.size, res.phases) == (0.0, 0, 0, 0)


def test_flow_two_nodes_forced_arc():
    res = solve_flow(flow_problem([1.0, -1.0], ((0, 1, 1.5),)))
    assert res.cost == pytest.approx(1.5, abs=0.0)
    assert res.flow[0] == pytest.approx(1.0, abs=0.0)
    # dual: potentials certify the cost through the supplies
    assert math.fsum(res.potentials[i] * s for i, s in enumerate([1.0, -1.0])) == pytest.approx(1.5)


def test_flow_rejects_unbalanced_supplies():
    with pytest.raises(ContractError):
        solve_flow(flow_problem([1.0, -0.5], ((0, 1, 1.0),)))


@pytest.mark.parametrize("supplies", [
    # the running sums stop at 2**-31, which the last node, a source, takes
    [1.0, -1.0 + 2.0 ** -31, 1e-12],
    # ... and here a node of zero supply, which has no arcs
    [1.0, -1.0 + 2.0 ** -31, 0.0],
])
def test_flow_rejects_a_last_supply_that_rounding_moves_across_zero(supplies):
    # both balance to within 1e-9, but the grid would turn the last node into
    # a deficit that no arc reaches
    problem = priced_by(supplies, np.ones((3, 3)))
    with pytest.raises(ContractError, match="the grid moves the last supply across zero"):
        solve_flow(problem)


def _tree_flow_cost(n, arcs, supplies):
    """Cost of the cheapest tree-supported feasible flow.

    arcs is a dict (u, v) -> cost over ordered pairs, +inf where there is
    no arc; a spanning tree is given as an undirected edge list.  Flow on
    each edge is determined leaf by leaf; a negative amount means the
    reverse arc carries it.
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
            # an edge that carries nothing costs nothing, even where it has no arc
            if amount > 0:
                cost += amount * arcs[(leaf, nbr)]
            elif amount < 0:
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


def _transport_arcs(supplies, full):
    """full[u, v] on each source -> sink pair and +inf on every other ordered pair."""
    n = len(supplies)
    return {(u, v): float(full[u, v]) if supplies[u] > 0 > supplies[v] else math.inf
            for u in range(n) for v in range(n) if u != v}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_flow_matches_spanning_tree_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = 6
    supplies = rng.integers(-4, 5, size=n).astype(float)
    supplies[-1] -= supplies.sum()
    full = rng.integers(1, 10, size=(n, n)).astype(float)
    res = solve_flow(priced_by(supplies, full))
    oracle = _tree_flow_cost(n, _transport_arcs(supplies, full), supplies)
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
    full = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2).astype(float)
    res = solve_flow(priced_by(supplies, full))
    assert res.cost == _tree_flow_cost(n, _transport_arcs(supplies, full), supplies)
    # below the density gate the network simplex runs: of its pivots, some ship flow
    assert res.augmentations <= res.phases


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_flow_phases_never_exceed_augmentations(seed):
    # phases count Dijkstra runs on the dense path only, where each one
    # augments at least once: half sources and half sinks on 72..99 nodes
    # put at least DENSE_ARCS_PER_NODE arcs on each node
    rng = np.random.default_rng(seed)
    n = int(rng.integers(72, 100))
    supplies = rng.uniform(0.01, 2, size=n) * rng.permutation(np.arange(n) % 2 * 2 - 1)
    supplies[-1] -= supplies.sum()
    full = rng.integers(0, 4, size=(n, n)).astype(float) if seed % 2 else rng.uniform(0.0, 3.0, (n, n))
    problem = priced_by(supplies, full)
    assert problem.cost.size >= optim.DENSE_ARCS_PER_NODE * n
    res = solve_flow(problem)
    assert 1 <= res.phases <= res.augmentations


def test_flow_phase_feeds_several_augmentations():
    # full support on 100 points, a dense problem: one Dijkstra serves
    # several deficit nodes
    rng = np.random.default_rng(40)
    space = rand_space(rng, 100)
    mu = SignedMeasure(space, {i: float(rng.uniform(-2.0, 2.0)) for i in range(100)})
    seen = []

    def spy(problem, tol=1e-9):
        seen.append(solve_flow(problem, tol=tol))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "solve_flow", spy)
        kr_norm(mu)
    res = seen.pop()
    assert res.flow.size >= optim.DENSE_ARCS_PER_NODE * res.potentials.size
    assert res.phases < res.augmentations


def test_flow_grid_is_relative_to_the_problem_scale():
    # costs and supplies far below unit scale keep their full precision
    res = solve_flow(flow_problem([3e-30, -1e-30, -2e-30], ((0, 1, 5e-26), (0, 2, 7e-26))))
    assert res.cost == pytest.approx(1.9e-55, rel=1e-15, abs=0.0)
    assert list(res.flow) == pytest.approx([1e-30, 2e-30], rel=1e-15, abs=0.0)


def test_flow_duals_certify_cost():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        supplies = rng.uniform(-2, 2, size=n)
        supplies[-1] -= supplies.sum()
        full = rng.uniform(0.1, 3.0, size=(n, n))
        problem = priced_by(supplies, full)
        res = solve_flow(problem)
        dual = math.fsum(res.potentials[i] * supplies[i] for i in range(n))
        assert dual == pytest.approx(res.cost, abs=1e-9)
        for k, (u, v) in enumerate(problem.arcs):
            assert res.potentials[u] - res.potentials[v] <= full[u, v] + 1e-9
            if res.flow[k] > 1e-9:
                assert res.potentials[u] - res.potentials[v] == pytest.approx(full[u, v], abs=1e-9)


def test_flow_homogeneity_is_exact():
    # power-of-two scaling of supplies scales flows and cost exactly
    supplies = np.array([0.3, -0.7, 0.4])
    triples = ((0, 1, 1.0), (2, 1, 1.5))
    base = solve_flow(flow_problem(supplies, triples))
    scaled = solve_flow(flow_problem(supplies * 4.0, triples))
    assert scaled.cost == base.cost * 4.0


def assert_same_flow(problem, exact_path):
    """solve_flow against the paired-edge reference on one instance.

    The cost is the exact optimum of the quantized instance, so it must
    match bit for bit.  On dense problems solve_flow runs the reference's
    phases; with float costs, ties in the Dijkstra labels are rare, so
    with exact_path the whole run must match too.  Below the density gate
    it runs the network simplex, whose integer flows and potentials are
    certified exactly on the grid; with exact_path the optimum is unique,
    so its flows must match the reference's.  With integer costs, tied
    labels or costs may give another optimum.
    """
    simplex = []
    real = optim._network_simplex
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optim, "_network_simplex", lambda *args: simplex.append(real(*args)) or simplex[-1])
        new = solve_flow(problem)
    ref = solve_flow_loops(problem)
    assert new.cost == ref.cost
    if exact_path:
        assert new.flow_int == ref.flow_int
        assert all(type(f) is int for f in new.flow_int)
        assert np.array_equal(new.flow, ref.flow)
    if simplex:
        flow, pi, pivots, shipped = simplex.pop()
        certify_on_grid(problem, flow, pi)
        cost_shift = grid_instance(problem)[4]
        assert new.flow_int == tuple(flow)
        assert np.array_equal(new.potentials, [math.ldexp(-p, -cost_shift) for p in pi])
        assert (new.phases, new.augmentations) == (pivots, shipped) and shipped <= pivots
    elif exact_path:
        assert np.array_equal(new.potentials, ref.potentials)
        assert (new.phases, new.augmentations) == (ref.phases, ref.augmentations)
    return new


def record_prepass(monkeypatch):
    """One (largest potential, largest grid cost) pair per label pre-pass call."""
    calls = []
    real = optim._LabelPrepass.tight_arcs

    def spy(self, pi, *args):
        calls.append((int(pi.max()), self.top_cost))
        return real(self, pi, *args)

    monkeypatch.setattr(optim._LabelPrepass, "tight_arcs", spy)
    return calls


@pytest.mark.parametrize("kind", ["kr", "w1"])
@pytest.mark.parametrize("sparse", [False, True])
def test_flow_matches_the_paired_edge_reference_on_transport(kind, sparse, monkeypatch):
    seen = []

    def spy(problem, tol=1e-9):
        seen.append(problem)
        return solve_flow(problem, tol=tol)

    rng = np.random.default_rng(61 + sparse)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "solve_flow", spy)
        for n in (8, 20, 36, 100):
            space = rand_space(rng, n)
            support = rng.choice(n, size=max(2, n // 8) if sparse else n, replace=False)
            if kind == "kr":
                kr_norm(SignedMeasure(space, {int(i): float(rng.uniform(-2, 2)) for i in support}))
            else:
                w = rng.uniform(0.05, 1.0, size=(2, support.size))
                w /= w.sum(axis=1, keepdims=True)
                mu, eta = (SignedMeasure(space, dict(zip(support.tolist(), r.tolist()))) for r in w)
                transport.w1(mu, eta)
    assert len(seen) == 4
    prepass = record_prepass(monkeypatch)
    for problem in seen:
        before = len(prepass)
        res = assert_same_flow(problem, exact_path=True)
        # only full support at n=100 is dense enough
        dense = problem is seen[-1] and not sparse
        assert len(prepass) - before == (res.phases if dense else 0)


def _balanced_supplies(rng, n):
    """Random supplies on n nodes, the last balancing the rest, and the source and sink counts."""
    supplies = rng.uniform(-2, 2, size=n)
    supplies[-1] -= supplies.sum()
    return supplies, (supplies > 0.0).sum(), (supplies < 0.0).sum()


@pytest.mark.parametrize("kind", ["uniform", "spread", "integer"])
def test_flow_matches_the_paired_edge_reference_on_complete_digraphs(kind, monkeypatch):
    # complete bipartite digraphs from the sources to the sinks; spread costs
    # span 2**-40..3, so most leave fractional bits on the grid; the last has
    # 80..99 nodes and so at least DENSE_ARCS_PER_NODE arcs per node, and the
    # label pre-pass runs
    prepass = record_prepass(monkeypatch)
    rng = np.random.default_rng(62)
    for i in range(26):
        n = int(rng.integers(2, 14) if i < 25 else rng.integers(80, 100))
        supplies, n_sources, n_sinks = _balanced_supplies(rng, n)
        costs = rng.uniform(0.0, 3.0, (n_sources, n_sinks))
        if kind == "spread":
            costs *= 2.0 ** rng.integers(-40, 1, costs.shape)
        elif kind == "integer":
            costs = np.round(costs)
        problem = FlowProblem(supplies, costs)
        before = len(prepass)
        res = assert_same_flow(problem, exact_path=kind != "integer")
        assert (costs.size >= optim.DENSE_ARCS_PER_NODE * n) == (i == 25)
        assert len(prepass) - before == (res.phases if i == 25 else 0)


def _tied_dense_problems():
    """Dense flow problems whose shortest-path labels tie often."""
    rng = np.random.default_rng(67)
    # complete bipartite digraphs with costs in {0, 1, 2, 3}
    for _ in range(6):
        supplies, n_sources, n_sinks = _balanced_supplies(rng, int(rng.integers(80, 100)))
        yield FlowProblem(supplies, np.round(rng.uniform(0.0, 3.0, (n_sources, n_sinks))))
    # kr_norm at full support on the 10 x 10 grid's integer path metric
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "solve_flow", lambda problem, tol: seen.append(problem) or solve_flow(problem, tol))
        space = grid_space(10)
        kr_norm(SignedMeasure(space, {i: float(rng.uniform(-2, 2)) for i in range(space.n)}))
    yield seen.pop()


def test_flow_labels_may_reach_the_largest_grid_cost(monkeypatch):
    # the pre-pass starts every label at the largest grid cost, so that start
    # must not cut a label short: every arc into the first sink costs the
    # largest cost, so the first phase labels that sink with exactly it
    prepass = record_prepass(monkeypatch)
    rng = np.random.default_rng(69)
    supplies, n_sources, n_sinks = _balanced_supplies(rng, 90)
    costs = rng.uniform(0.0, 1.0, (n_sources, n_sinks))
    costs[:, 0] = 2.0
    res = assert_same_flow(FlowProblem(supplies, costs), exact_path=True)
    assert len(prepass) == res.phases
    assert res.potentials[np.flatnonzero(supplies < 0.0)[0]] == -2.0


def test_first_offer_phases_match_the_full_scan_where_labels_tie(monkeypatch):
    # each problem solved with the label pre-pass in every phase and by the
    # paired-edge reference, whose phases scan every arc of every settled
    # node: with integer costs many labels tie, and a wrong tie-break in the
    # pre-pass's first-offer loop would pick another tree arc, hence another
    # run.  The reference lists a node's arcs in another order, which is
    # immaterial: a node has one arc to each other node, so the arcs that tie
    # for a tree arc leave distinct settled nodes, scanned in settle order
    problems = list(_tied_dense_problems())
    prepass = record_prepass(monkeypatch)
    for problem in problems:
        before = len(prepass)
        dense = solve_flow(problem)
        assert len(prepass) - before == dense.phases
        full = solve_flow_loops(problem)
        assert dense.flow_int == full.flow_int
        assert np.array_equal(dense.potentials, full.potentials)
        assert (dense.phases, dense.augmentations) == (full.phases, full.augmentations)


@pytest.mark.parametrize("kind", ["kr", "w1"])
def test_flow_potentials_stay_below_the_largest_grid_cost_on_transport(kind, monkeypatch):
    # the pre-pass raises SolverError if a potential passes the largest grid
    # cost; across both generators, full and n/8 support and distances scaled
    # by 2**-40, 1 and 2**40 it never does, and neither path's final
    # potentials pass the largest cost
    prepass = record_prepass(monkeypatch)
    seen = []

    def spy(problem, tol=1e-9):
        seen.append((problem, solve_flow(problem, tol=tol)))
        return seen[-1][1]

    monkeypatch.setattr(transport, "solve_flow", spy)
    rng = np.random.default_rng(64 if kind == "kr" else 65)
    for make in (rand_space, rand_repaired_space):
        for sparse in (False, True):
            for scale in (2.0 ** -40, 1.0, 2.0 ** 40):
                space = scaled(make(rng, 100), scale)
                support = rng.choice(100, size=12 if sparse else 100, replace=False).tolist()
                w = rng.uniform(0.05, 1.0, size=(2, len(support)))
                if kind == "kr":
                    kr_norm(SignedMeasure(space, dict(zip(support, (w[0] - w[1]).tolist()))))
                else:
                    w /= w.sum(axis=1, keepdims=True)
                    transport.w1(*(SignedMeasure(space, dict(zip(support, r.tolist()))) for r in w))
    assert len(seen) == 12
    assert len(prepass) == sum(res.phases for problem, res in seen
                               if problem.cost.size >= optim.DENSE_ARCS_PER_NODE * problem.n_nodes)
    assert all(largest <= top for largest, top in prepass)
    for problem, res in seen:
        assert -res.potentials.min() <= problem.cost.max()


def test_flow_keeps_idle_sources_at_the_largest_grid_cost(monkeypatch):
    # a third of the points carry masses near 1e-23, which the grid rounds
    # to zero: those sources ship nothing and nothing reaches them, and on
    # the dense path (n = 100) they stay at the largest cost instead of
    # rising by the last label each phase; the network simplex (n = 20)
    # keeps them in its tree, and its potentials are certified
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "solve_flow", lambda problem, tol: seen.append(problem) or solve_flow(problem, tol))
        rng = np.random.default_rng(68)
        for n in (20, 100):
            space = rand_space(rng, n)
            coeff = rng.uniform(-2.0, 2.0, n)
            tiny = rng.choice(n, size=n // 3, replace=False)
            coeff[tiny] = rng.uniform(1e-25, 1e-22, tiny.size)
            kr_norm(SignedMeasure(space, dict(enumerate(coeff.tolist()))))
    prepass = record_prepass(monkeypatch)
    for problem in seen:
        res = assert_same_flow(problem, exact_path=True)
        idle = (problem.supplies > 0.0) & (np.abs(problem.supplies) < 1e-20)
        assert idle.any()
        if problem.cost.size >= optim.DENSE_ARCS_PER_NODE * problem.n_nodes:
            assert res.phases > 1
            assert (res.potentials[idle] == -problem.cost.max()).all()
        assert -res.potentials.min() <= problem.cost.max()
    assert [p.n_nodes for p in seen] == [20, 100]
    assert prepass and all(largest <= top for largest, top in prepass)


def test_flow_matches_the_paired_edge_reference_on_the_grid_metric():
    rng = np.random.default_rng(63)
    xy = np.stack(np.divmod(np.arange(36), 6), axis=1)
    dist = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2).astype(float)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        cells = rng.choice(36, size=n, replace=False)
        supplies = rng.integers(-3, 4, size=n).astype(float)
        supplies[-1] -= supplies.sum()
        assert_same_flow(priced_by(supplies, dist[np.ix_(cells, cells)]), exact_path=False)


def _sparse_problems(kind, rng, count):
    """Transportation problems on 2..63 nodes, all below the density gate.

    With n nodes, |sources| * |sinks| <= n**2 / 4 < DENSE_ARCS_PER_NODE * n.
    Costs are uniform on [0, 3), spread over 2**-40..3 or rounded to ints.
    """
    for _ in range(count):
        n = int(rng.integers(2, 64))
        supplies, n_sources, n_sinks = _balanced_supplies(rng, n)
        costs = rng.uniform(0.0, 3.0, (n_sources, n_sinks))
        if kind == "spread":
            costs *= 2.0 ** rng.integers(-40, 1, costs.shape)
        elif kind == "integer":
            costs = np.round(costs)
        assert costs.size < optim.DENSE_ARCS_PER_NODE * n
        yield FlowProblem(supplies, costs)


@pytest.mark.parametrize("kind", ["uniform", "spread", "integer"])
def test_network_simplex_matches_the_paired_edge_reference(kind):
    # both solve the same quantized instance exactly, so the optima agree
    # bit for bit; float costs leave one optimum, so the flows agree too
    rng = np.random.default_rng(70)
    for problem in _sparse_problems(kind, rng, 40):
        assert_same_flow(problem, exact_path=kind != "integer")


@pytest.mark.parametrize("kind", ["uniform", "spread", "integer"])
def test_network_simplex_matches_highs(kind):
    # HiGHS solves the float transportation LP, solve_flow the quantized
    # one, which is off by at most about 2**-60 relative
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(71)
    for problem in _sparse_problems(kind, rng, 20):
        n_sources, n_sinks = problem.cost.shape
        # one row per source and per sink; they are dependent, so the last,
        # which would take the supplies' float imbalance, is left out
        rows = np.vstack([np.kron(np.eye(n_sources), np.ones(n_sinks)),
                          np.kron(np.ones(n_sources), np.eye(n_sinks))])
        rhs = np.abs(np.concatenate([problem.supplies[problem.supplies > 0.0],
                                     problem.supplies[problem.supplies < 0.0]]))
        want = linprog(problem.cost.ravel(), A_eq=rows[:-1], b_eq=rhs[:-1], method="highs")
        assert want.status == 0
        got = solve_flow(problem).cost
        if kind == "spread":
            # HiGHS's absolute tolerances cannot resolve costs near 2**-40 next
            # to costs near 3: its optimum runs up to 44% above the exact one
            # (measured), so it only bounds it: no plan of HiGHS is cheaper
            assert got <= want.fun * (1.0 + 1e-12)
        else:
            assert got == pytest.approx(want.fun, rel=1e-12, abs=0.0)


def test_network_simplex_handles_supplies_that_round_to_zero():
    # masses near 1e-23 next to masses near 1 round to zero on the grid: a
    # source of zero supply stays in the tree, a sink of zero demand stays
    # out of it and takes the c-transform of the source potentials, and a
    # node of supply 0.0 has no arcs
    rng = np.random.default_rng(72)
    zero_demand = 0
    for _ in range(30):
        n = int(rng.integers(4, 40))
        supplies = rng.uniform(-2.0, 2.0, n)
        tiny = rng.choice(n - 1, size=n // 3, replace=False)
        supplies[tiny] = rng.uniform(1e-25, 1e-22, tiny.size) * rng.choice([-1.0, 1.0], tiny.size)
        supplies[tiny[0]] = 0.0
        supplies[-1] = 0.0
        supplies[-1] = -supplies.sum() or 1.0
        if supplies[-1] == 1.0:
            supplies[0] = -1.0
        problem = priced_by(supplies, rng.uniform(0.0, 3.0, (n, n)))
        zero_demand += any(b == 0 for b, x in zip(grid_instance(problem)[1], supplies) if x < 0.0)
        res = assert_same_flow(problem, exact_path=True)
        assert (res.potentials <= 0.0).all() and -res.potentials.min() <= problem.cost.max()
    assert zero_demand > 10


def assert_strongly_feasible(tree):
    """A spanning tree basis whose flows meet the supplies, whose potentials
    make every tree arc tight and whose arcs that point down, away from
    the root, carry flow."""
    m, c = tree.m, tree.cost.tolist()
    net = list(tree.supplies)
    assert tree.parent[tree.root] == -1 and sum(map(len, tree.children)) == tree.nodes - 1
    for x in range(tree.nodes):
        if x == tree.root:
            continue
        p, f = tree.parent[x], tree.up_flow[x]
        # depth rises by one from parent to child, so every node reaches the root
        assert x in tree.children[p] and tree.depth[x] == tree.depth[p] + 1
        i, t = (x, p) if x < m else (p, x)
        assert i < m <= t
        assert c[i][t - m] + tree.pot[i] - tree.pot[t] == 0
        net[i] -= f
        net[t] += f
        # a sink's arc runs from its parent, down
        assert f > 0 if x >= m else f >= 0
    assert not any(net)


def record_strongly_feasible_trees(monkeypatch):
    """Every network simplex basis, checked at the start and after each pivot."""
    trees = []
    init, pivot = optim._BasisTree.__init__, optim._BasisTree.pivot

    def checked_init(self, cost, supply, demand):
        init(self, cost, supply, demand)
        self.supplies = supply + [-d for d in demand]
        self.start_depth = max(self.depth)
        assert_strongly_feasible(self)
        trees.append(self)

    def checked_pivot(self, *entering):
        theta = pivot(self, *entering)
        assert_strongly_feasible(self)
        return theta

    monkeypatch.setattr(optim._BasisTree, "__init__", checked_init)
    monkeypatch.setattr(optim._BasisTree, "pivot", checked_pivot)
    return trees


def test_network_simplex_terminates_on_degenerate_assignments(monkeypatch):
    # unit supplies and demands: a basis of n sources and n sinks has 2n - 1
    # arcs and at most n of them carry flow, so every basis is degenerate,
    # and costs in {0, 1, 2, 3} tie often.  Every tree on the way must be
    # strongly feasible, which is what rules out cycling
    trees = record_strongly_feasible_trees(monkeypatch)
    rng = np.random.default_rng(73)
    degenerate = 0
    for size in (2, 3, 5, 8, 13, 21, 31):
        for _ in range(3):
            supplies = np.repeat([1.0, -1.0], size)[rng.permutation(2 * size)]
            problem = FlowProblem(supplies, rng.integers(0, 4, (size, size)).astype(float))
            res = assert_same_flow(problem, exact_path=False)
            degenerate += res.phases - res.augmentations
    assert len(trees) == 21 and degenerate > 0


def test_network_simplex_walks_a_start_that_is_one_alternating_path(monkeypatch):
    # 31 sources and 31 sinks on a staircase s1 -> t1 <- s2 -> t2 ... <- s31
    # -> t31 whose costs rise along it, from 1 - 61 * 2**-20 to 1 - 2**-20;
    # each other arc costs a little more than the earlier of the two path
    # arcs that close its source and its sink.  Each allocation of the
    # least-cost start then closes one line, so the start is that one path
    # through all 2 * min(|S|, |T|) = 62 nodes, 61 arcs deep from its root,
    # and it is not optimal: the simplex pivots through deep trees whose
    # costs all sit near the largest
    size = 31
    supplies = np.array([2.0] * size + [-3.0] + [-2.0] * (size - 2) + [-1.0])
    # path arc r closes source r // 2 when r is even and sink r // 2 when odd,
    # and the last closes both
    path = [1.0 - (2 * size - 1 - r) * 2.0 ** -20 for r in range(2 * size - 1)]
    costs = np.array([[min(path[2 * i], path[min(2 * j + 1, 2 * size - 2)]) + 2.0 ** -30
                       for j in range(size)] for i in range(size)])
    for r, c in enumerate(path):
        costs[(r + 1) // 2, r // 2] = c
    trees = record_strongly_feasible_trees(monkeypatch)
    # the costs tie along the staircase, so the optimum need not be unique
    res = assert_same_flow(FlowProblem(supplies, costs), exact_path=False)
    assert [tree.start_depth for tree in trees] == [2 * size - 1]
    assert res.phases > res.augmentations > 0
    assert -res.potentials.min() <= costs.max()


def test_network_simplex_prices_exactly_whatever_the_span_of_the_potentials():
    # pivots can spread the potentials over several times the largest grid
    # cost C, up to min(|S|, |T|) * C on a tree path of 2 * min(|S|, |T|)
    # arcs; past a span of 2**62, cost + pot[source] - pot[sink] could wrap
    # int64, so price() switches to exact ints there.  Spans at and past the
    # switch, with the extremes on a source and a sink, are priced exactly
    rng = np.random.default_rng(74)
    cost = rng.integers(0, 2**60, (31, 31))
    tree = optim._BasisTree(cost, [1] * 31, [1] * 31)
    draw = random.Random(74)
    for span in (2**61, 2**62 - 1, 2**62, 2**63 - 1, 2**63, 31 * int(cost.max())):
        pot = [draw.randrange(-(span // 2), span - span // 2) for _ in range(62)]
        pot[draw.randrange(31)], pot[31 + draw.randrange(31)] = span - span // 2, -(span // 2)
        tree.pot = pot
        exact = [[int(cost[i, j]) + pot[i] - pot[31 + j] for j in range(31)] for i in range(31)]
        flat = [r for row in exact for r in row]
        best = flat.index(min(flat))
        assert tree.price() == (best // 31, best % 31, flat[best])


def test_network_simplex_prices_in_exact_ints_past_2_to_the_62(monkeypatch):
    # a 31 x 31 problem that a hill-climbing search over supplies and costs
    # found: its pivots spread the potentials over 5.7 times the largest
    # grid cost C, just below 2**60 here, so past 2**62, where price()
    # forms the reduced costs from exact ints; the run still certifies
    with np.load(Path(__file__).parent / "data" / "flow_wide_potentials.npz") as z:
        problem = FlowProblem(z["supplies"], z["cost"])
    spans = []
    price = optim._BasisTree.price
    monkeypatch.setattr(optim._BasisTree, "price",
                        lambda self: spans.append(max(self.pot) - min(self.pot)) or price(self))
    assert_same_flow(problem, exact_path=False)
    assert max(spans) >= 2**62


@pytest.mark.parametrize("cost", [
    np.array([1.0]),
    np.array([[1.0, 2.0]]),
    np.array([[1.0], [2.0]]),
    np.array([[[1.0]]]),
])
def test_flow_rejects_a_cost_matrix_of_the_wrong_shape(cost):
    with pytest.raises(ContractError, match=r"not \(sources, sinks\) = \(1, 1\)"):
        solve_flow(FlowProblem(np.array([1.0, -1.0]), cost))


def test_flow_rejects_supplies_that_are_not_a_vector():
    with pytest.raises(ContractError, match="supplies must be a vector"):
        solve_flow(FlowProblem(np.array([[1.0, -1.0]]), np.ones((1, 1))))


@pytest.mark.parametrize("supplies, triples, message", [
    ([1.0, -1.0], ((0, 1, -1.0),), r"arc \(0,1\) needs a finite nonnegative cost"),
    ([1.0, -0.5, -0.5], ((0, 1, 1.0), (0, 2, math.nan)), r"arc \(0,2\) needs a finite"),
    ([-1.0, 1.0], ((1, 0, math.inf),), r"arc \(1,0\) needs a finite"),
    ([1.0, -1.0, 1.0, -1.0], ((0, 1, 1.0), (0, 3, -math.inf), (2, 1, math.nan), (2, 3, 1.0)),
     r"arc \(0,3\) needs a finite"),
    # source-major: (1,3) comes before (2,0), though sink 0 precedes sink 3
    ([-1.0, 1.0, 1.0, -1.0], ((1, 0, 1.0), (1, 3, math.nan), (2, 0, -1.0), (2, 3, 0.0)),
     r"arc \(1,3\) needs a finite"),
])
def test_flow_names_the_first_offending_arc(supplies, triples, message):
    with pytest.raises(ContractError, match=message):
        solve_flow(flow_problem(supplies, triples))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_flow_rejects_non_finite_supplies(bad):
    with pytest.raises(ContractError, match="supplies must be finite"):
        solve_flow(flow_problem([1.0, bad, -1.0], ((0, 2, 1.0),)))


def test_flow_accepts_finite_supplies_whose_total_mass_overflows():
    # |supplies| sums to inf, yet every supply is finite and they balance
    with np.errstate(over="ignore"):
        res = solve_flow(flow_problem([1.5e308, -1.5e308], ((0, 1, 0.5),)))
    assert res.cost == 0.75e308


@pytest.mark.parametrize("supplies, triples", [
    # |supplies| sums to inf; the net 1e307 would land on node 3, whose supply is 0
    ([1.5e308, -1.5e308, 1e307, 0.0], ((0, 1, 1.0), (2, 1, 1.0))),
    # the pairwise float sum is inf - inf = NaN; the net 1e300 is 2.5e-9 of the size
    ([1e308, -1e308, *[0.0] * 6, 1e308, -1e308, *[0.0] * 5, 1e300], ((0, 1, 0.25), (8, 9, 0.25))),
])
def test_flow_rejects_unbalanced_supplies_whose_float_sums_overflow(supplies, triples):
    with pytest.raises(ContractError, match="unbalanced supplies"):
        solve_flow(flow_problem(supplies, triples))


def test_flow_names_supplies_whose_running_sums_overflow():
    # each supply is finite, but 1e308 + 1e308 is not
    problem = flow_problem([1e308, 1e308, -1e308, -1e308],
                           ((0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ContractError, match="supplies overflow"):
        solve_flow(problem)


@pytest.mark.parametrize("supplies, triples", [
    # the optimum, 2 * 2e308, is not a float; no potential passes the
    # largest cost, so a potential cannot overflow
    ([1e308, -1e308, 1e308, -1e308], ((0, 1, 2.0), (0, 3, 2.0), (2, 1, 2.0), (2, 3, 2.0))),
])
def test_flow_names_a_cost_or_potential_that_overflows(supplies, triples):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ContractError, match="flow cost overflows"):
        solve_flow(flow_problem(supplies, triples))


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


def test_lp_without_rows_is_unbounded_in_a_descent_direction():
    # the entering column is empty, so the ratio test has no entry to scale its threshold by
    lp = LinearProgram(np.array([-1.0]), np.zeros((0, 1)), (), np.zeros(0))
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


@pytest.mark.parametrize("lp", [
    # the box row's right-hand side ub - lb is 2e308
    LinearProgram(np.array([1.0]), np.ones((1, 1)), ("<=",), np.ones(1),
                  lb=np.array([-1e308]), ub=np.array([1e308]), maximize=True),
    # shifting x >= -1e308 out of x1 + x2 <= 1e308 leaves 3e308 on the right
    LinearProgram(np.ones(2), np.ones((1, 2)), ("<=",), np.array([1e308]), lb=np.full(2, -1e308)),
], ids=["box", "shift"])
def test_lp_refuses_a_standard_form_that_overflows(lp):
    with pytest.raises(ContractError, match="right-hand side overflows"):
        solve_lp(lp)


def test_lp_certification_fails_on_nan_duals(monkeypatch):
    # every comparison with NaN is false, so the check must ask that each
    # margin is within its bound, not that none is past it
    real_run = optim._Simplex.run

    def run(self, c, allowed, pinned=()):
        out = real_run(self, c, allowed, pinned)
        self._solve_basis = lambda rhs: np.full(len(rhs), np.nan)
        return out

    monkeypatch.setattr(optim._Simplex, "run", run)
    with pytest.raises(SolverError, match="failed certification"):
        solve_lp(stacked_degenerate_lp())


def stacked_degenerate_lp():
    """Many redundant rows meeting at one vertex, where every pivot is degenerate."""
    n = 4
    A = np.vstack([np.eye(n), np.eye(n), np.ones((1, n))])
    senses = ("<=",) * (2 * n) + ("<=",)
    b = np.concatenate([np.zeros(2 * n), [0.0]])
    return LinearProgram(-np.ones(n), A, senses, b)


def test_lp_degenerate_instance_terminates():
    res = solve_lp(stacked_degenerate_lp())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def solve_lp_loops(problem, tol=1e-9):
    """Reference solve_lp that assembles the standard form one column,
    row and slack at a time, on the same simplex and certification."""
    p = problem
    m, n = p.A.shape
    sign = -1.0 if p.maximize else 1.0
    c0 = sign * p.c

    cols, cobj, var_map, bound_rows = [], [], [], []
    for j in range(n):
        lo, hi = p.lb[j], p.ub[j]
        col = p.A[:, j]
        if lo == -np.inf and hi == np.inf:
            var_map.append(("split", len(cols), len(cols) + 1))
            cols.append(col.copy()); cobj.append(c0[j])
            cols.append(-col); cobj.append(-c0[j])
        else:
            var_map.append(("shift", len(cols), lo))
            cols.append(col.copy()); cobj.append(c0[j])
            if hi != np.inf:
                bound_rows.append((len(cols) - 1, hi - lo))

    nx = len(cols)
    m2 = m + len(bound_rows)
    A2 = np.zeros((m2, nx))
    if nx:
        A2[:m, :] = np.column_stack(cols)
    b2 = p.b.astype(float).copy()
    for j in range(n):
        kind = var_map[j]
        if kind[0] == "shift" and kind[2] != 0.0:
            b2 -= p.A[:, j] * kind[2]
    b2 = np.concatenate([b2, [val for _, val in bound_rows]])
    for r, (cidx, _) in enumerate(bound_rows):
        A2[m + r, cidx] = 1.0
    senses2 = list(p.senses) + ["<="] * len(bound_rows)

    slack_cols = []
    for i, s in enumerate(senses2):
        if s == "<=":
            e = np.zeros(m2); e[i] = 1.0
            slack_cols.append((i, e, 1.0))
        elif s == ">=":
            e = np.zeros(m2); e[i] = -1.0
            slack_cols.append((i, e, -1.0))
    ns = len(slack_cols)
    A3 = np.zeros((m2, nx + ns))
    A3[:, :nx] = A2
    c3 = np.concatenate([np.array(cobj, dtype=float), np.zeros(ns)])
    slack_of_row = {}
    for k, (i, e, orient) in enumerate(slack_cols):
        A3[:, nx + k] = e
        slack_of_row[i] = (nx + k, orient)
    row_sign = np.ones(m2)
    for i in range(m2):
        if b2[i] < 0:
            A3[i, :] *= -1.0
            b2[i] = -b2[i]
            row_sign[i] = -1.0

    basis = [-1] * m2
    artificial_cols, extra = [], []
    for i in range(m2):
        got = slack_of_row.get(i)
        if got is not None and A3[i, got[0]] == 1.0:
            basis[i] = got[0]
            continue
        art = np.zeros(m2); art[i] = 1.0
        extra.append(art)
        basis[i] = A3.shape[1] + len(extra) - 1
        artificial_cols.append(basis[i])
    if extra:
        A3 = np.column_stack([A3] + extra)
    ntot = A3.shape[1]
    nreal = nx + ns

    sx = _Simplex(A3, b2)
    sx.basis = basis
    scale_b = float(np.max(np.abs(b2))) if m2 else 1.0
    feas_tol = tol * max(1.0, scale_b)

    pinned = []
    if artificial_cols:
        c_phase1 = np.zeros(ntot)
        for j in artificial_cols:
            c_phase1[j] = 1.0
        allowed1 = np.zeros(ntot, dtype=bool)
        allowed1[:nreal] = True
        status, xB = sx.run(c_phase1, allowed1)
        if status == "unbounded":
            raise SolverError("phase 1 found no usable pivot for an improving column")
        phase1_obj = float(c_phase1[sx.basis] @ np.maximum(xB, 0.0))
        if phase1_obj > feas_tol:
            return LPResult("infeasible", None, None, None, sx.iterations)
        # a leftover artificial stays basic, pinned at zero
        art_set = set(artificial_cols)
        pinned = [r for r in range(m2) if sx.basis[r] in art_set]

    c_phase2 = np.concatenate([c3, np.zeros(ntot - nreal)])
    allowed2 = np.zeros(ntot, dtype=bool)
    allowed2[:nreal] = True
    status, xB = sx.run(c_phase2, allowed2, pinned)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, sx.iterations)

    xfull = np.zeros(ntot)
    for r, bi in enumerate(sx.basis):
        xfull[bi] = max(xB[r], 0.0)
    x = np.zeros(n)
    for j in range(n):
        kind = var_map[j]
        if kind[0] == "split":
            x[j] = xfull[kind[1]] - xfull[kind[2]]
        else:
            x[j] = kind[2] + xfull[kind[1]]
    objective = float(c0 @ x) + 0.0

    yb = sx._solve_basis(c_phase2[sx.basis])
    y = np.zeros(m)
    for r in range(m):
        y[r] = yb[r] * row_sign[r]

    # the primal residual reads the real columns only
    Ax = A3[:, :nreal] @ xfull[:nreal]
    p_res = float(np.max(np.abs(Ax - b2))) if m2 else 0.0
    rc = c_phase2 - yb @ A3
    d_res = float(max(0.0, -np.min(rc[:nreal]))) if nreal else 0.0
    cert_tol = tol * max(1.0, scale_b, float(np.max(np.abs(c_phase2))) if ntot else 1.0)
    gap = abs(float(c_phase2[sx.basis] @ xB) - float(yb @ b2))
    if p_res > 100 * cert_tol or d_res > 100 * cert_tol or gap > 100 * cert_tol * (1.0 + abs(objective)):
        raise SolverError(
            f"optimal basis failed certification: primal {p_res:.2e}, dual {d_res:.2e}, gap {gap:.2e}"
        )
    if p.maximize:
        objective = -objective
        y = -y
    return LPResult("optimal", x, y, objective, sx.iterations)


def _outcome(solve, lp):
    try:
        return solve(lp)
    except SolverError as exc:
        return str(exc)


def assert_same_lp(lp):
    """solve_lp and its loop reference agree exactly; returns the status."""
    got, want = _outcome(solve_lp, lp), _outcome(solve_lp_loops, lp)
    if isinstance(want, str):
        assert got == want
        return "error"
    assert (got.status, got.iterations) == (want.status, want.iterations)
    if want.status == "optimal":
        assert got.objective.hex() == want.objective.hex()
        assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
    else:
        assert got.x is got.y is got.objective is None
    return want.status


def captured_lps(module, run):
    """The LinearProgram instances that run() hands to module.solve_lp."""
    lps = []
    original = module.solve_lp

    def capture(lp, **kwargs):
        lps.append(lp)
        return original(lp, **kwargs)

    module.solve_lp = capture
    try:
        run()
    finally:
        module.solve_lp = original
    return lps


def random_lp(rng):
    """Small LP mixing row senses and the four bound kinds: zero lower
    bound, free, shifted, boxed; integer data half the time, for ties and
    degenerate vertices, and sometimes a repeated row, which is redundant."""
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    if rng.random() < 0.5:
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rng.integers(-4, 5, size=m).astype(float)
        c = rng.integers(-3, 4, size=n).astype(float)
    else:
        A = rng.uniform(-2.0, 2.0, size=(m, n))
        b = rng.uniform(-3.0, 3.0, size=m)
        c = rng.uniform(-2.0, 2.0, size=n)
    senses = tuple(rng.choice(["<=", "==", ">="], size=m).tolist())
    if m >= 2 and rng.random() < 0.3:
        A[-1], b[-1] = 2.0 * A[0], 2.0 * b[0]
        senses = senses[:-1] + ("==",)
    kind = rng.integers(0, 4, size=n)
    lb = np.where(kind == 1, -np.inf, 0.0)
    lb[kind >= 2] = rng.uniform(-3.0, 3.0, size=int(np.sum(kind >= 2)))
    ub = np.full(n, np.inf)
    ub[kind == 3] = lb[kind == 3] + rng.uniform(0.0, 4.0, size=int(np.sum(kind == 3)))
    return LinearProgram(c, A, senses, b, lb=lb, ub=ub, maximize=bool(rng.random() < 0.3))


def synthesis_lps(mode):
    """The joint synthesis LPs of 40 seeded cases at n = 3..7: 6 to 64 rows, degenerate."""
    rng = np.random.default_rng(211)
    lps = []
    for _ in range(40):
        space = rand_space(rng, int(rng.integers(3, 8)))
        subset = rand_subspace(rng, space, size=int(rng.integers(2, space.n)))
        lps.append(synthesis_lp_loops(space, subset, mode))
    return lps


def operator_norm_lps():
    rng = np.random.default_rng(223)
    lps = []
    for k in range(30):
        space = rand_space(rng, int(rng.integers(4, 8)))
        subset = rand_subspace(rng, space, size=int(rng.integers(2, min(space.n, 5))))
        p = (rand_strong_projection if k % 2 else rand_signed_projection)(rng, subset)
        lps += captured_lps(extension, lambda: operator_norm(p))
    assert len(lps) >= 200
    return lps


def random_lps():
    rng = np.random.default_rng(227)
    return [random_lp(rng) for _ in range(800)]


@pytest.mark.parametrize("mode", ["strong", "signed"])
def test_lp_matches_the_loop_reference_on_synthesis(mode):
    assert {assert_same_lp(lp) for lp in synthesis_lps(mode)} == {"optimal"}


def test_lp_matches_the_loop_reference_on_operator_norm():
    assert {assert_same_lp(lp) for lp in operator_norm_lps()} == {"optimal"}


def test_lp_matches_the_loop_reference_on_random_programs():
    statuses = [assert_same_lp(lp) for lp in random_lps()]
    counts = {s: statuses.count(s) for s in set(statuses)}
    assert counts["optimal"] >= 200 and counts["infeasible"] >= 100 and counts["unbounded"] >= 100


def highs_linprog(lp, c=None):
    """Independent oracle: scipy's HiGHS on a LinearProgram, minimizing c,
    by default the program's objective in the minimize sense."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    le = np.array([s == "<=" for s in lp.senses], dtype=bool)
    eq = np.array([s == "==" for s in lp.senses], dtype=bool)
    ge = ~(le | eq)
    if c is None:
        c = -lp.c if lp.maximize else lp.c
    bounds = [(None if lo == -np.inf else lo, None if hi == np.inf else hi) for lo, hi in zip(lp.lb, lp.ub)]
    return linprog(c, A_ub=np.vstack([lp.A[le], -lp.A[ge]]), b_ub=np.concatenate([lp.b[le], -lp.b[ge]]),
                   A_eq=lp.A[eq], b_eq=lp.b[eq], bounds=bounds, method="highs")


def test_lp_matches_highs_on_random_programs():
    """The status agrees with HiGHS's, and an optimum is within the certification bound of HiGHS's.

    HiGHS's presolve calls some feasible unbounded programs infeasible
    (program 310 with scipy 1.17); there HiGHS's own zero-objective LP
    must find the program feasible.
    """
    verdicts = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    statuses = set()
    for lp in random_lps():
        got, want = solve_lp(lp), highs_linprog(lp)
        statuses.add(got.status)
        if got.status != verdicts.get(want.status):
            assert (got.status, verdicts.get(want.status)) == ("unbounded", "infeasible"), want.message
            assert highs_linprog(lp, np.zeros(lp.c.size)).status == 0
        elif got.status == "optimal":
            bound = 100 * 1e-9 * certification_scale(lp) * (1.0 + abs(got.objective))
            assert abs(got.objective - (-want.fun if lp.maximize else want.fun)) <= bound
    assert statuses == {"optimal", "infeasible", "unbounded"}


def pinned_rows(monkeypatch):
    """The rows each phase 2 of solve_lp starts with pinned, one list per solve."""
    seen, real_run = [], optim._Simplex.run

    def run(self, c, allowed, pinned=()):
        if np.all(c[~allowed] == 0.0):
            seen.append(list(pinned))
        return real_run(self, c, allowed, pinned)

    monkeypatch.setattr(optim._Simplex, "run", run)
    return seen


def test_lp_keeps_a_duplicated_row_with_its_artificial_basic(monkeypatch):
    # phase 1 brings a real column into the first row, and the second row's
    # artificial stays basic at zero: its row of B^-1 A vanishes on every
    # real column
    single = LinearProgram(np.array([1.0, 2.0, 3.0]), np.array([[1.0, 1.0, 2.0]]), ("==",), np.array([1.0]))
    double = LinearProgram(single.c, np.vstack([single.A, single.A]), ("==", "=="), np.array([1.0, 1.0]))
    pinned = pinned_rows(monkeypatch)
    want, got = solve_lp(single), solve_lp(double)
    assert pinned == [[], [1]]
    assert got.status == want.status == "optimal"
    assert np.array_equal(got.x, want.x) and got.objective == want.objective == 1.0
    assert got.y[1] == 0.0 and got.y.sum() == want.y[0]


def implicit_equality_lp():
    """min -x0 over x0 + x2 == 1, -x0 - x1 == 0, x >= 0: the second row forces x0 = x1 = 0.

    Phase 1 brings x2 into the first row and stops with the second row's
    artificial basic at zero, since its tableau row is -1 on x0 and x1.
    In phase 2, x0 enters with entry -1 in that row: the ratio test alone
    would raise x0 to 1 and the artificial with it, to an objective of -1.
    """
    return LinearProgram(np.array([-1.0, 0.0, 0.0]), np.array([[1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]]),
                         ("==", "=="), np.array([1.0, 0.0]))


def test_a_pinned_artificial_leaves_at_step_zero_on_a_negative_entry(monkeypatch):
    pinned = pinned_rows(monkeypatch)
    res = solve_lp(implicit_equality_lp())
    assert pinned == [[1]]
    assert res.status == "optimal" and res.objective == 0.0
    assert np.array_equal(res.x, [0.0, 0.0, 1.0])


def test_an_artificial_left_nonzero_fails_certification(monkeypatch):
    # unpinned, phase 2 ends at x0 = 1 with the artificial basic at 1: the
    # basis equations hold over all columns, so only a residual over the
    # real columns shows that x violates the second row
    real_run = optim._Simplex.run
    monkeypatch.setattr(optim._Simplex, "run", lambda self, c, allowed, pinned=(): real_run(self, c, allowed))
    with pytest.raises(SolverError, match="failed certification: primal 1.00e"):
        solve_lp(implicit_equality_lp())


def test_lp_raises_rather_than_call_a_feasible_program_infeasible():
    # the joint synthesis LP of the (12, 5) sweep's seed-0 repaired space in
    # signed mode is feasible, as every synthesis LP is, but phase 1 meets an
    # improving column none of whose pivot entries is usable; phase 1 cannot
    # be unbounded, so that verdict must not come out as "infeasible"
    rng = np.random.default_rng(0)
    space = rand_repaired_space(rng, 12)
    others = [x for x in range(space.n) if x != space.basepoint]
    picked = rng.choice(others, 4, replace=False)
    subset = Subspace(space, tuple(sorted([space.basepoint, *map(int, picked)])))
    out = _outcome(solve_lp, synthesis_lp_loops(space, subset, "signed"))
    assert isinstance(out, str) or out.status == "optimal"


def test_bland_pricing_reaches_the_default_verdict_on_degenerate_programs(monkeypatch):
    """STALL_LIMIT = 1 switches pricing to Bland's rule at the first iteration without progress."""
    lps = [stacked_degenerate_lp(), *synthesis_lps("strong"), *synthesis_lps("signed")]
    default = [solve_lp(lp) for lp in lps]
    monkeypatch.setattr(optim, "STALL_LIMIT", 1)
    bland = [solve_lp(lp) for lp in lps]
    for lp, got, want in zip(lps, bland, default):
        assert got.status == want.status == "optimal"
        bound = 100 * 1e-9 * certification_scale(lp) * (1.0 + abs(want.objective))
        assert abs(got.objective - want.objective) <= bound
    # Bland's rule picks other entering columns, so some run takes another path
    assert any(got.iterations != want.iterations for got, want in zip(bland, default))


def certification_scale(lp):
    """An upper bound on the scale solve_lp certifies against: the largest
    |c| and the largest right-hand side after shifting and boxing."""
    shift = np.where(np.isfinite(lp.lb), lp.lb, 0.0)
    width = (lp.ub - lp.lb)[np.isfinite(lp.ub)]
    return max(1.0, *np.abs(lp.c), *(np.abs(lp.b) + np.abs(lp.A) @ np.abs(shift)), *width)


@pytest.mark.parametrize("lp_set", ["strong", "signed", "operator_norm", "random"])
def test_the_updated_inverse_matches_fresh_factorisation(lp_set, monkeypatch):
    """REFACTOR = 1 forms the basis inverse afresh at every pivot."""
    lps = {"operator_norm": operator_norm_lps, "random": random_lps}.get(
        lp_set, lambda: synthesis_lps(lp_set))()
    updated = [_outcome(solve_lp, lp) for lp in lps]
    monkeypatch.setattr(optim, "REFACTOR", 1)
    fresh = [_outcome(solve_lp, lp) for lp in lps]
    for lp, got, want in zip(lps, updated, fresh):
        assert not isinstance(want, str) and not isinstance(got, str)
        assert got.status == want.status
        if want.status == "optimal":
            bound = 100 * 1e-9 * certification_scale(lp) * (1.0 + abs(want.objective))
            assert abs(got.objective - want.objective) <= bound


def test_the_basis_inverse_is_formed_at_run_start_every_refactor_pivots_and_before_each_verdict(monkeypatch):
    refactor = 7
    monkeypatch.setattr(optim, "REFACTOR", refactor)
    runs = []   # per run: the iteration count at its start, at each inverse, at its verdict
    real_inv, real_run = np.linalg.inv, optim._Simplex.run

    def inv(B):
        runs[-1]["inverses"].append(runs[-1]["simplex"].iterations)
        return real_inv(B)

    def run(self, c, allowed, *pinned):
        runs.append({"simplex": self, "start": self.iterations, "inverses": []})
        status, xB = real_run(self, c, allowed, *pinned)
        runs[-1]["verdict"] = self.iterations
        return status, xB

    monkeypatch.setattr(np.linalg, "inv", inv)
    monkeypatch.setattr(optim._Simplex, "run", run)
    for lp in synthesis_lps("strong")[:20] + random_lps()[:200]:
        _outcome(solve_lp, lp)
    stale = 0
    for r in runs:
        # iterations start + 1 .. verdict - 1 each pivot once, and the
        # verdict is read from an inverse formed after the last pivot
        scheduled = list(range(r["start"], r["verdict"], refactor))
        last = r["verdict"] - 1
        assert r["inverses"] == scheduled + ([last] if scheduled[-1] != last else [])
        stale += scheduled[-1] != last
    assert max(r["verdict"] - r["start"] for r in runs) > 3 * refactor
    assert 0 < stale < len(runs)
