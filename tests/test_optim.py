"""Exact flow and LP kernels against brute-force oracles."""

from __future__ import annotations

import heapq
import itertools
import math

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
from test_metric import grid_space, three_point


# ---------------------------------------------------------------------------
# min-cost flow


def flow_problem(n, supplies, triples):
    """A FlowProblem from (tail, head, cost) triples."""
    triples = tuple(triples)
    arcs = np.array([(u, v) for u, v, _ in triples], dtype=np.int64).reshape(-1, 2)
    return FlowProblem(n, supplies, arcs, np.array([c for _, _, c in triples], dtype=float))


def solve_flow_loops(problem, tol=1e-9):
    """Reference solve_flow on paired residual edges, edge e ^ 1 reversing e.

    The same primal-dual phases and grid as solve_flow, with every arc
    stored as a capacitated forward edge and a backward edge that is
    scanned even while it carries nothing.
    """
    n = problem.n_nodes
    triples = [(int(u), int(v), float(c)) for (u, v), c in zip(problem.arcs, problem.costs)]
    supply_shift = _grid_exponent(float(np.max(np.abs(problem.supplies), initial=0.0)))
    cost_shift = _grid_exponent(max((c for _, _, c in triples), default=0.0))
    b, cum, prev = [], 0.0, 0
    for s in problem.supplies:   # running sums on the grid, so sum(b) == 0
        cum += float(s)
        cur = int(round(math.ldexp(cum, supply_shift)))
        b.append(cur - prev)
        prev = cur
    if b:
        b[-1] -= prev
    total_excess = sum(x for x in b if x > 0)
    inf_cap = total_excess + 1
    head, cap, cost = [], [], []
    adj = [[] for _ in range(n)]
    for u, v, c in triples:
        cq = int(round(math.ldexp(c, cost_shift)))
        adj[u].append(len(head)); head.append(v); cap.append(inf_cap); cost.append(cq)
        adj[v].append(len(head)); head.append(u); cap.append(0); cost.append(-cq)
    excess = list(b)
    pi = [0] * n
    phases = augmentations = 0
    while total_excess > 0:
        phases += 1
        dist = [math.inf] * n
        parent_edge = [-1] * n
        pq = [(0, s) for s in range(n) if excess[s] > 0]
        for _, s in pq:
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
    flow_int = tuple(cap[2 * k + 1] for k in range(len(triples)))
    cost_int = sum(f * cost[2 * k] for k, f in enumerate(flow_int))
    for k, (u, v, _) in enumerate(triples):
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
    res = solve_flow(flow_problem(1, np.array([0.0]), ()))
    assert res.cost == 0.0
    assert res.flow.size == 0


def test_flow_without_nodes():
    # no nodes and no arcs meets any arcs-per-node density gate
    res = solve_flow(flow_problem(0, np.zeros(0), ()))
    assert (res.cost, res.flow.size, res.potentials.size, res.phases) == (0.0, 0, 0, 0)


def test_flow_two_nodes_forced_arc():
    res = solve_flow(flow_problem(2, np.array([1.0, -1.0]), ((0, 1, 1.5),)))
    assert res.cost == pytest.approx(1.5, abs=0.0)
    assert res.flow[0] == pytest.approx(1.0, abs=0.0)
    # dual: potentials certify the cost through the supplies
    assert math.fsum(res.potentials[i] * s for i, s in enumerate([1.0, -1.0])) == pytest.approx(1.5)


def test_flow_rejects_unbalanced_supplies():
    with pytest.raises(ContractError):
        solve_flow(flow_problem(2, np.array([1.0, -0.5]), ((0, 1, 1.0),)))


def test_flow_rejects_disconnected_demand():
    with pytest.raises(ContractError, match="unreachable"):
        solve_flow(flow_problem(3, np.array([1.0, -1.0, 0.0]), ((0, 2, 1.0),)))


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
    res = solve_flow(flow_problem(n, supplies, tuple(arcs)))
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
    res = solve_flow(flow_problem(n, supplies, tuple((u, v, c) for (u, v), c in costs.items())))
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
    res = solve_flow(flow_problem(n, supplies, arcs))
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
    res = solve_flow(flow_problem(3, supplies, arcs))
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
        res = solve_flow(flow_problem(n, supplies, arcs))
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
    base = solve_flow(flow_problem(3, supplies, arcs))
    scaled = solve_flow(flow_problem(3, supplies * 4.0, arcs))
    assert scaled.cost == base.cost * 4.0


def assert_same_flow(problem, exact_path):
    """solve_flow against the paired-edge reference on one instance.

    The cost is the exact optimum of the quantized instance, so it must
    match bit for bit.  With float costs, ties in the Dijkstra labels are
    rare, so the whole run must match too; with integer costs, tied
    labels may pick another shortest-path tree, hence another optimum.
    """
    new, ref = solve_flow(problem), solve_flow_loops(problem)
    assert new.cost == ref.cost
    if exact_path:
        assert new.flow_int == ref.flow_int
        assert all(type(f) is int for f in new.flow_int)
        assert np.array_equal(new.flow, ref.flow)
        assert np.array_equal(new.potentials, ref.potentials)
        assert (new.phases, new.augmentations) == (ref.phases, ref.augmentations)
    return new


def count_prepass_phases(monkeypatch):
    """One entry per phase that calls the label pre-pass: whether it filtered the arcs."""
    phases = []
    real = optim._LabelPrepass.tight_arcs

    def spy(self, *args):
        scan = real(self, *args)
        phases.append(scan is not None)
        return scan

    monkeypatch.setattr(optim._LabelPrepass, "tight_arcs", spy)
    return phases


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
    prepass = count_prepass_phases(monkeypatch)
    for problem in seen:
        before = len(prepass)
        res = assert_same_flow(problem, exact_path=True)
        # only full support at n=100 is dense enough; there every phase has headroom
        dense = problem is seen[-1] and not sparse
        assert prepass[before:] == [True] * (res.phases if dense else 0)


@pytest.mark.parametrize("kind", ["uniform", "spread", "integer"])
def test_flow_matches_the_paired_edge_reference_on_complete_digraphs(kind, monkeypatch):
    # spread costs span 2**-40..3, so most leave fractional bits on the grid;
    # the last digraph has 19..39 arcs per node, so the label pre-pass runs
    prepass = count_prepass_phases(monkeypatch)
    rng = np.random.default_rng(62)
    for i in range(26):
        n = int(rng.integers(2, 14) if i < 25 else rng.integers(20, 41))
        supplies = rng.uniform(-2, 2, size=n)
        supplies[-1] -= supplies.sum()
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
        costs = rng.uniform(0.0, 3.0, len(arcs))
        if kind == "spread":
            costs *= 2.0 ** rng.integers(-40, 1, len(arcs))
        elif kind == "integer":
            costs = np.round(costs)
        problem = FlowProblem(n, supplies, np.array(arcs), costs)
        before = len(prepass)
        res = assert_same_flow(problem, exact_path=kind != "integer")
        assert prepass[before:] == [True] * (res.phases if i == 25 else 0)


def test_flow_keeps_the_first_of_parallel_arcs_on_the_dense_path(monkeypatch):
    # a complete digraph with a quarter of its arcs doubled, in shuffled arc
    # order: the pre-pass lists arcs by head, and between parallel arcs of
    # equal cost the one first in arc order must win, as in a full scan
    prepass = count_prepass_phases(monkeypatch)
    rng = np.random.default_rng(66)
    n = 24
    u, v = np.nonzero(~np.eye(n, dtype=bool))
    costs = rng.uniform(0.0, 3.0, u.size)
    twin = rng.choice(u.size, size=u.size // 4, replace=False)
    u, v, costs = (np.concatenate([x, x[twin]]) for x in (u, v, costs))
    shuffle = rng.permutation(u.size)
    supplies = rng.uniform(-2, 2, size=n)
    supplies[-1] -= supplies.sum()
    problem = FlowProblem(n, supplies, np.column_stack([u, v])[shuffle], costs[shuffle])
    res = assert_same_flow(problem, exact_path=True)
    assert prepass == [True] * res.phases
    doubled = np.isin(shuffle, twin) | (shuffle >= n * (n - 1))
    assert any(res.flow_int[k] for k in np.flatnonzero(doubled))


def _tied_dense_problems():
    """Dense flow problems whose shortest-path labels tie often."""
    rng = np.random.default_rng(67)
    # complete digraphs with costs in {0, 1, 2, 3}
    for _ in range(6):
        n = int(rng.integers(20, 41))
        u, v = np.nonzero(~np.eye(n, dtype=bool))
        supplies = rng.uniform(-2, 2, size=n)
        supplies[-1] -= supplies.sum()
        yield FlowProblem(n, supplies, np.column_stack([u, v]), np.round(rng.uniform(0.0, 3.0, u.size)))
    # the doubled-arc digraph of test_flow_keeps_the_first_of_parallel_arcs_on_the_dense_path
    rng = np.random.default_rng(66)
    n = 24
    u, v = np.nonzero(~np.eye(n, dtype=bool))
    costs = rng.uniform(0.0, 3.0, u.size)
    twin = rng.choice(u.size, size=u.size // 4, replace=False)
    u, v, costs = (np.concatenate([x, x[twin]]) for x in (u, v, costs))
    shuffle = rng.permutation(u.size)
    supplies = rng.uniform(-2, 2, size=n)
    supplies[-1] -= supplies.sum()
    yield FlowProblem(n, supplies, np.column_stack([u, v])[shuffle], costs[shuffle])
    # kr_norm at full support on the 10 x 10 grid's integer path metric
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "solve_flow", lambda problem, tol: seen.append(problem) or solve_flow(problem, tol))
        space = grid_space(10)
        kr_norm(SignedMeasure(space, {i: float(rng.uniform(-2, 2)) for i in range(space.n)}))
    yield seen.pop()


def test_first_offer_phases_match_the_full_scan_where_labels_tie(monkeypatch):
    # each problem solved with the label pre-pass in every phase and again
    # with a gate above its arc count, so every phase scans every arc: with
    # integer costs many labels tie, and a wrong tie-break in the pre-pass's
    # first-offer loop would pick another tree arc, hence another run
    problems = list(_tied_dense_problems())
    prepass = count_prepass_phases(monkeypatch)
    for problem in problems:
        before = len(prepass)
        dense = solve_flow(problem)
        assert prepass[before:] == [True] * dense.phases
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optim, "DENSE_ARCS_PER_NODE", problem.costs.size + 1)
            full = solve_flow(problem)
        assert len(prepass) == before + dense.phases
        assert dense.flow_int == full.flow_int
        assert np.array_equal(dense.potentials, full.potentials)
        assert (dense.phases, dense.augmentations) == (full.phases, full.augmentations)


def _circulant_problem(sinks):
    """A circulant digraph, each node with arcs to its next 17: dense but not complete."""
    rng = np.random.default_rng(65)
    n, reach = 160, 17
    u = np.repeat(np.arange(n), reach)
    v = (u + np.tile(np.arange(1, reach + 1), n)) % n
    costs = rng.uniform(1.0, 2.0, u.size)
    supplies = np.zeros(n)
    supplies[[0, 1, 2]] = [1.5, 1.0, 0.5]
    supplies[sinks] = [-0.5, -0.75, -0.75, -1.0]
    return FlowProblem(n, supplies, np.column_stack([u, v]), costs)


def test_flow_keeps_exact_paths_when_labels_outgrow_the_int64_headroom(monkeypatch):
    # mass crosses the circulant in up to 10 hops, so the shortest-path
    # labels pass 4x the largest cost: in the first phase the deficits'
    # labels saturate, the pre-pass gives up, and every phase scans every arc
    prepass = count_prepass_phases(monkeypatch)
    problem = _circulant_problem([80, 120, 155, 159])
    res = assert_same_flow(problem, exact_path=True)
    assert np.ptp(res.potentials) > 4.0 * problem.costs.max()
    assert res.phases > 1
    assert prepass == [False]


def test_first_offer_phases_skip_saturated_nodes_that_are_not_deficits(monkeypatch):
    # the sinks lie one hop from the sources, so their labels are exact while
    # the far side of the circulant saturates: every phase stays first-offer
    labels = []
    real = optim._LabelPrepass.tight_arcs

    def spy(self, *args):
        found = real(self, *args)
        labels.append(None if found is None else found[1])
        return found

    monkeypatch.setattr(optim._LabelPrepass, "tight_arcs", spy)
    res = assert_same_flow(_circulant_problem([8, 12, 15, 17]), exact_path=True)
    assert len(labels) == res.phases > 1
    assert all(label is not None for label in labels)
    assert labels[0].max() == optim._LABEL_CAP


def test_flow_matches_the_paired_edge_reference_on_the_grid_metric():
    rng = np.random.default_rng(63)
    xy = np.stack(np.divmod(np.arange(36), 6), axis=1)
    dist = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2).astype(float)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        cells = rng.choice(36, size=n, replace=False)
        supplies = rng.integers(-3, 4, size=n).astype(float)
        supplies[-1] -= supplies.sum()
        u, v = np.nonzero(~np.eye(n, dtype=bool))
        problem = FlowProblem(n, supplies, np.column_stack([u, v]), dist[cells[u], cells[v]])
        assert_same_flow(problem, exact_path=False)


@pytest.mark.parametrize("arcs, costs", [
    (np.array([0, 1]), np.array([1.0])),
    (np.array([[0, 1, 2]]), np.array([1.0])),
    (np.array([[0, 1]]), np.array([1.0, 2.0])),
    (np.array([[0, 1]]), np.array([[1.0]])),
])
def test_flow_rejects_mismatched_arc_and_cost_shapes(arcs, costs):
    with pytest.raises(ContractError, match=r"arcs must have shape \(m, 2\) and costs shape \(m,\)"):
        solve_flow(FlowProblem(2, np.array([1.0, -1.0]), arcs, costs))


@pytest.mark.parametrize("triples, message", [
    (((0, 1, 1.0), (2, 2, 1.0), (0, 3, 1.0)), "self-loop arc at node 2"),
    (((0, 1, 1.0), (0, 3, 1.0), (2, 2, 1.0)), r"arc \(0,3\) out of range"),
    (((0, 1, -1.0), (0, 3, 1.0)), r"arc \(0,1\) needs a finite nonnegative cost"),
    (((0, 1, 1.0), (1, 0, math.nan), (0, -1, 1.0)), r"arc \(1,0\) needs a finite"),
    (((1, 0, math.inf),), r"arc \(1,0\) needs a finite"),
    (((0, 1, 1.0), (1, 0, -math.inf)), r"arc \(1,0\) needs a finite"),
    (((0, 1, 1.0), (1, 3, 1.0)), r"arc \(1,3\) out of range"),
    (((0, 1, 1.0), (-1, 2, 1.0)), r"arc \(-1,2\) out of range"),
    (((0, 1, 1.0), (2, 2, 0.5)), "self-loop arc at node 2"),
    (((0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0), (0, 2, 0.0), (1, 1, 1.0), (0, 5, 1.0),
      (2, 1, -1.0)), "self-loop arc at node 1"),
    (((0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0), (0, 2, math.nan), (1, 1, 1.0), (3, 0, 1.0)),
     r"arc \(0,2\) needs a finite"),
])
def test_flow_names_the_first_offending_arc(triples, message):
    with pytest.raises(ContractError, match=message):
        solve_flow(flow_problem(3, np.array([1.0, -1.0, 0.0]), triples))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_flow_rejects_non_finite_supplies(bad):
    with pytest.raises(ContractError, match="supplies must be finite"):
        solve_flow(flow_problem(3, np.array([1.0, bad, -1.0]), ((0, 2, 1.0),)))


def test_flow_accepts_finite_supplies_whose_total_mass_overflows():
    # |supplies| sums to inf, yet every supply is finite and they balance
    with np.errstate(over="ignore"):
        res = solve_flow(flow_problem(2, np.array([1.5e308, -1.5e308]), ((0, 1, 0.5),)))
    assert res.cost == 0.75e308


@pytest.mark.parametrize("supplies, triples", [
    # |supplies| sums to inf; the net 1e307 would land on node 3, whose supply is 0
    ([1.5e308, -1.5e308, 1e307, 0.0], ((0, 1, 1.0), (2, 3, 1.0))),
    # the pairwise float sum is inf - inf = NaN; the net 1e300 is 2.5e-9 of the size
    ([1e308, -1e308, *[0.0] * 6, 1e308, -1e308, *[0.0] * 5, 1e300], ((0, 1, 0.25), (8, 9, 0.25))),
])
def test_flow_rejects_unbalanced_supplies_whose_float_sums_overflow(supplies, triples):
    with pytest.raises(ContractError, match="unbalanced supplies"):
        solve_flow(flow_problem(len(supplies), np.array(supplies), triples))


def test_flow_names_supplies_whose_running_sums_overflow():
    # each supply is finite, but 1e308 + 1e308 is not
    problem = flow_problem(4, np.array([1e308, 1e308, -1e308, -1e308]), ((0, 2, 1.0), (1, 3, 1.0)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ContractError, match="supplies overflow"):
        solve_flow(problem)


@pytest.mark.parametrize("supplies, triples", [
    # the optimum, 2 * 2e308, is not a float
    ([1e308, -1e308, 1e308, -1e308], ((0, 1, 2.0), (2, 3, 2.0))),
    # the cost, 3e8, is, but node 3's potential, -3e308, is not
    ([1e-300, 0.0, 0.0, -1e-300], ((0, 1, 1e308), (1, 2, 1e308), (2, 3, 1e308))),
])
def test_flow_names_a_cost_or_potential_that_overflows(supplies, triples):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ContractError, match="flow cost overflows"):
        solve_flow(flow_problem(4, np.array(supplies), triples))


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

    row_keep = list(range(m2))
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
        art_set = set(artificial_cols)
        drop_rows = []
        for r in range(m2):
            if sx.basis[r] in art_set:
                w = np.zeros(m2); w[r] = 1.0
                row = sx._solve_basis(w, transpose=True) @ sx.A[:, :nreal]
                pick = -1
                for j in range(nreal):
                    if j not in sx.basis and abs(row[j]) > 1e-10:
                        pick = j
                        break
                if pick >= 0:
                    sx.basis[r] = pick
                else:
                    drop_rows.append(r)
        if drop_rows:
            row_keep = [r for r in range(m2) if r not in set(drop_rows)]
            sx.A = A3[row_keep, :]
            sx.b = b2[row_keep]
            sx.m = len(row_keep)
            sx.basis = [sx.basis[r] for r in row_keep]

    c_phase2 = np.concatenate([c3, np.zeros(ntot - nreal)])
    allowed2 = np.zeros(ntot, dtype=bool)
    allowed2[:nreal] = True
    status, xB = sx.run(c_phase2, allowed2)
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

    yb = sx._solve_basis(c_phase2[sx.basis], transpose=True)
    y = np.zeros(m)
    for pos, r in enumerate(row_keep):
        if r < m:
            y[r] = yb[pos] * row_sign[r]

    Ax = sx.A @ xfull[: sx.A.shape[1]]
    p_res = float(np.max(np.abs(Ax - sx.b))) if sx.A.shape[0] else 0.0
    rc = c_phase2 - yb @ sx.A
    d_res = float(max(0.0, -np.min(rc[:nreal]))) if nreal else 0.0
    cert_tol = tol * max(1.0, scale_b, float(np.max(np.abs(c_phase2))) if ntot else 1.0)
    gap = abs(float(c_phase2[sx.basis] @ xB) - float(yb @ sx.b))
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

    def run(self, c, allowed):
        runs.append({"simplex": self, "start": self.iterations, "inverses": []})
        status, xB = real_run(self, c, allowed)
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
