"""Optimization kernels: min-cost flow and a dense revised simplex.

The flow solver runs primal-dual phases on an exactly quantized copy of
the instance.  The grid is relative to the problem scale: costs are
divided by a power of two near the largest cost and supplies by a power
of two near the largest |supply|, then both are scaled by 2**60 and
rounded.  Scaling a float by a power of two is exact, so the only
perturbation is the final rounding, about 2**-61 of the largest cost or
supply whatever their units, and results are multiplied back exactly.

Each phase runs one multi-source Dijkstra on reduced costs from every
node with excess until every deficit node is settled, raises the node
potentials so that every shortest-path tree arc has reduced cost zero,
and then augments along the tree to each settled deficit in settle
order.  Arcs are uncapacitated, so the residual graph holds each arc
forward, always open, and backward only while the arc carries flow.
All arithmetic is on integers, so the optimum of the quantized
instance is exact and the duality gap identically zero.

What a phase costs: one heap pop per entry, one step per arc that a
settled node scans (its forward list, then its backward arcs only when
it has flow in) and one heap entry per label that drops.  The active
sources and the deficit count carry over from phase to phase, so a
phase makes no pass over all nodes beyond building the label and
tree-arc vectors and raising the potentials; on dense problems the
pre-pass below adds its array work and one interpreted step per node,
per flow arc and per arc it keeps, and its loop pushes each node once.

On dense problems, with at least DENSE_ARCS_PER_NODE arcs per node, a
phase first computes every node's exact label with array code and hands
the heap loop only the forward arcs that lie on a shortest path.  An
arc carrying flow has reduced cost zero both ways, so each component of
the flow support shares one label; the pre-pass contracts them and runs
Bellman-Ford rounds between components, about three at n = 100.  Every
arc left to scan is then tight, label[u] + rc(u, w) == label[w], and a
backward arc joins two nodes of one component, so the first arc to
reach a node offers exactly its label and no later offer is lower.  The
heap loop is a first-offer loop: it pushes each node once, at its
label, by the first listed arc that reaches it, which becomes its tree
arc; it keeps no tentative distances, meets no stale entry and does no
arithmetic per arc, and its heap holds each node's rank in (label,
node) order, which orders like the pair.  A full scan settles the same
nodes in the same order: the heap holds distinct (label, node) pairs,
so it pops them in one order whatever order they were pushed in, and
the extra entries of a full scan are tentative labels above the true
ones, which it skips when they surface.  Its tree arc into a node is
the first tight arc scanned into it, since an arc that is not tight
offers more than the label and a later tight arc replaces it; that is
the first-offer loop's tree arc, so the potentials rise by the same
amounts and results are bit for bit those of a full scan.  The order
of a node's list matters only between parallel arcs, and the pre-pass
lists them in arc order, as a full scan does.  The gate is an input
property: the pre-pass costs some 45 numpy calls per phase, which a
sparse problem's heap loop never wins back.  Labels are int64 and
saturate at 2**61.  While no potential exceeds 2**61 and no deficit's
label saturates, a phase runs first-offer, which stops at the last
deficit and so settles only exact labels.  Otherwise the pre-pass gives
up, the potentials reach 2**61 and only rise, and the rest of the solve
runs the tentative-distance loop over every arc.  The potentials stay
an int64 array while the pre-pass runs, within [0, 2**62], and the end
certificate checks their reduced costs in one int64 pass.  Transport
problems never give up, since their sources keep potential 0 and each
sink has an arc from every source, so labels and potentials stay below
the largest cost, 2**60 on the grid.

The LP solver is a two-phase revised simplex over dense numpy arrays.
Pricing is Dantzig by default and falls back to Bland's rule after a
degenerate stall, which restores the termination guarantee.  Each run
keeps one explicit basis inverse for x_B, the duals and the entering
column: np.linalg.inv forms it at the start and every REFACTOR pivots,
one rank-one (eta) update per pivot keeps it in between, and an
"optimal" or "unbounded" verdict is only taken on a freshly formed one;
phase 1 cannot be unbounded, so that verdict there raises SolverError.
Optimal bases are certified before returning, on a fresh solve of the
final basis that does not read the maintained inverse: primal residuals,
dual residuals and complementary slackness are all rechecked against the
caller's tolerance, the one solver option; pivot, stall, refactor and
iteration limits are module constants.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ContractError, SolverError, check_tol

GRID_BITS = 60

# solve_flow runs the label pre-pass (_LabelPrepass) only on problems with at
# least this many arcs per node.  Its ~45 numpy calls per phase pay off only once
# the heap loop would relax many arcs per settled node.  Measured per solve on the
# transport benchmark's flow problems (2-vCPU VM, Python 3.11, numpy 2.4, CPU
# time, medians of 9 passes, three runs), without and with the pre-pass: 13 nodes
# and 47 arcs, 0.32 and 0.54 ms; n=40 at full support (10 arcs per node), 2.7-2.8
# and 2.5-2.7 ms, about even; n=70 (17 per node), 9.2-10.7 and 6.2-6.8 ms; n=100
# (25 per node), 22-27 and 10-14 ms.
DENSE_ARCS_PER_NODE = 16
# pre-pass labels saturate here, so a label plus a reduced cost stays in int64
_LABEL_CAP = 1 << 61

# a simplex reduced cost or pivot entry at most this large counts as zero
PIVOT_TOL = 1e-10
# nor may a pivot entry be at most this fraction of the column's largest entry:
# such a pivot amplifies the column's rounding into the basis inverse
PIVOT_REL = 1e-9
# hard iteration cap, a safety net on top of the Bland fallback
MAX_ITERATIONS = 200_000
# iterations without relative progress above STALL_PROGRESS past the best
# objective so far (not the last one, whose rounding jitter in a cycle would
# keep resetting the count) before pricing switches from Dantzig to Bland's rule
STALL_LIMIT = 120
STALL_PROGRESS = 1e-13
# pivots between two fresh basis inverses in _Simplex.run.  Each rank-one
# update adds its own rounding, which a fresh inverse clears; one
# np.linalg.inv costs as much as 17-30 updates at 40-288 rows (one BLAS
# thread, timeit), so refactoring every 50 pivots adds at most about 0.6
# of an update per pivot.
REFACTOR = 50


def _grid_exponent(largest: float) -> int:
    """Bits that put the largest magnitude just below 2**GRID_BITS."""
    return GRID_BITS - math.frexp(largest)[1]


def _quantize_balanced(values: np.ndarray, shift: int) -> list[int]:
    """Quantize a near-balanced vector so the integer sum is exactly zero."""
    running = values.cumsum()
    # a running sum that overflows stays infinite or NaN to the end
    if running.size and not math.isfinite(running[-1]):
        raise ContractError("supplies overflow: a running sum of them is not a finite float")
    # ldexp is exact, so rint is the sole rounding; the running sums can pass
    # 2**63, so they become Python ints, and the last is set to the exact zero
    cum = [0, *map(int, np.rint(np.ldexp(running, shift)).tolist())]
    cum[-1] = 0
    return list(map(operator.sub, cum[1:], cum))


@dataclass(frozen=True)
class FlowProblem:
    """Uncapacitated min-cost flow instance on node indices 0..n_nodes-1.

    supplies: positive for sources, negative for sinks, summing to zero.
    arcs: (m, 2) integer (tail, head) pairs; costs: (m,) nonnegative costs.
    """

    n_nodes: int
    supplies: np.ndarray
    arcs: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "supplies", np.asarray(self.supplies, dtype=float))
        object.__setattr__(self, "arcs", np.asarray(self.arcs, dtype=np.int64))
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=float))


@dataclass(frozen=True)
class FlowResult:
    flow: np.ndarray          # one value per arc
    potentials: np.ndarray    # dual node values g with g_u - g_v <= cost on arcs
    cost: float
    # exact integer arc flows; flow is flow_int times the supply grid step
    flow_int: tuple[int, ...]
    phases: int               # multi-source Dijkstra runs
    augmentations: int        # augmenting paths, at least one per phase


def solve_flow(problem: FlowProblem, tol: float = 1e-9) -> FlowResult:
    """Solve a min-cost flow problem exactly on the quantized grid.

    Returns flows, certifying node potentials and the optimal cost.  The
    potentials g satisfy g_u - g_v <= cost(u, v) on every arc, with
    equality on arcs carrying flow, so sum_i supplies_i * g_i equals the
    cost exactly.
    """
    check_tol(tol)
    n = problem.n_nodes
    supplies, arcs, costs = problem.supplies, problem.arcs, problem.costs
    if supplies.shape != (n,):
        raise ContractError(f"supplies must have shape ({n},)")
    largest = float(np.abs(supplies).max(initial=0.0))
    if not math.isfinite(largest):   # the max of any NaN is NaN
        raise ContractError("supplies must be finite")
    supply_shift = _grid_exponent(largest)
    # balance is checked on the grid's scale, where every supply is below
    # 2**GRID_BITS, so neither sum overflows; the scaling is exact
    grid = np.ldexp(supplies, supply_shift)
    net, mass = float(grid.sum()), float(np.abs(grid).sum())
    if abs(net) > tol * mass:
        raise ContractError(f"unbalanced supplies: the net is {abs(net) / mass:.3e} of their total size")
    if arcs.ndim != 2 or arcs.shape[1] != 2 or costs.shape != arcs.shape[:1]:
        raise ContractError(f"arcs must have shape (m, 2) and costs shape (m,), "
                            f"got {arcs.shape} and {costs.shape}")
    largest_cost = float(costs.max(initial=0.0))
    loop = arcs[:, 0] == arcs[:, 1]
    # one all-good check, where NaN fails every comparison and a negative
    # node reads as a huge unsigned one; the scan names the first offender
    if not (arcs.view(np.uint64).max(initial=0) < n and not loop.any()
            and costs.min(initial=0.0) >= 0.0 and math.isfinite(largest_cost)):
        outside = np.any((arcs < 0) | (arcs >= n), axis=1)
        bad = np.flatnonzero(outside | loop | ~(np.isfinite(costs) & (costs >= 0.0)))
        if bad.size:
            u, v = arcs[bad[0]].tolist()
            if outside[bad[0]]:
                raise ContractError(f"arc ({u},{v}) out of range")
            if loop[bad[0]]:
                raise ContractError(f"self-loop arc at node {u}")
            raise ContractError(f"arc ({u},{v}) needs a finite nonnegative cost")

    cost_shift = _grid_exponent(largest_cost)
    b = _quantize_balanced(supplies, supply_shift)
    # rint rounds half to even, as round does; int64 holds values below 2**GRID_BITS
    cost_grid = np.rint(np.ldexp(costs, cost_shift)).astype(np.int64)
    cost = cost_grid.tolist()
    tails, heads = arcs.T.tolist()

    # residual arcs (node, cost, k or ~k) out of each node: uncapacitated arc
    # k is always open forward, and backward (~k) only while it carries flow;
    # the lists of every forward arc are built on first need, since dense
    # phases scan the pre-pass's lists instead
    forward: list[list[tuple[int, int, int]]] | None = None
    backward: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(n)]
    dense = n > 0 and len(cost) >= DENSE_ARCS_PER_NODE * n
    prepass = _LabelPrepass(arcs, cost_grid) if dense else None
    flow = [0] * len(cost)

    excess = list(b)
    total_excess = sum(x for x in b if x > 0)
    sources = [s for s in range(n) if b[s] > 0]
    deficits = sum(1 for x in b if x < 0)   # a node never becomes a deficit again
    # reduced cost of arc u->w: cost + pi[u] - pi[w] >= 0.  pi is an int64
    # array while the pre-pass runs, else a list of ints, which may outgrow it
    pi: np.ndarray | list[int] = np.zeros(n, dtype=np.int64) if dense else [0] * n
    phases = augmentations = 0
    max_aug = 4 * (n + len(cost)) + 16
    heappush, heappop = heapq.heappush, heapq.heappop

    while total_excess > 0:
        phases += 1
        via: list[int | None] = [None] * n   # tree arc into each node
        sources = [s for s in sources if excess[s] > 0]
        reached: list[int] = []   # deficit nodes in settle order
        found = prepass.tight_arcs(pi, sources, backward, excess) if prepass is not None else None
        if found is not None:
            # every listed arc is tight, so the first arc to reach a node
            # offers its exact label: the node is pushed once, at that label,
            # with that arc as its tree arc, and no entry goes stale
            scan, label = found
            offered = [False] * n
            for s in sources:
                offered[s] = True
            # the heap holds each node's rank in (label, node) order: small
            # ints compare faster than the pairs and pop in the same order;
            # the sources have label 0, so their ranks ascend, a heap
            by_rank = np.argsort(label, kind="stable")
            rank = np.empty(n, dtype=np.int64)
            rank[by_rank] = np.arange(n)
            by_rank, rank = by_rank.tolist(), rank.tolist()
            pq = [rank[s] for s in sources]
            while pq:
                v = by_rank[heappop(pq)]
                if excess[v] < 0:
                    reached.append(v)
                    if len(reached) == deficits:
                        break
                for w, e in scan[v]:
                    if not offered[w]:
                        offered[w] = True
                        via[w] = e
                        heappush(pq, rank[w])
                if arcs_in := backward[v]:
                    for w, _, e in arcs_in.values():
                        if not offered[w]:
                            offered[w] = True
                            via[w] = e
                            heappush(pq, rank[w])
            # every node below the last label is settled at its label
            pi = pi + np.minimum(label, label[v])
        else:
            # a phase the pre-pass gives up on leaves a potential at or past
            # the cap, and potentials only rise, so the pre-pass is dropped
            if prepass is not None:
                prepass, pi = None, pi.tolist()
            if forward is None:
                forward = [[] for _ in range(n)]
                for u, entry in zip(tails, zip(heads, cost, range(len(cost)))):
                    forward[u].append(entry)
            dist: list[float] = [math.inf] * n
            for s in sources:
                dist[s] = 0
            pq = [(0, s) for s in sources]   # sorted, so a heap
            last = 0
            while pq:
                dv, v = heappop(pq)
                # labels only ever drop, so a stale entry is one above the label;
                # reduced costs are nonnegative, so a settled label never drops
                if dv != dist[v]:
                    continue
                last = dv
                if excess[v] < 0:
                    reached.append(v)
                    if len(reached) == deficits:
                        break
                base = dv + pi[v]
                for w, c, e in forward[v]:
                    nd = base + c - pi[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        via[w] = e
                        heappush(pq, (nd, w))
                # in a transport problem a node has forward or backward arcs, not both
                if arcs_in := backward[v]:
                    for w, c, e in arcs_in.values():
                        nd = base + c - pi[w]
                        if nd < dist[w]:
                            dist[w] = nd
                            via[w] = e
                            heappush(pq, (nd, w))
            # settled nodes move by their distance, the rest by the last one,
            # which zeroes the reduced cost of every tree arc
            pi = [p + (dv if dv < last else last) for p, dv in zip(pi, dist)]
        if not reached:
            raise ContractError("flow problem is infeasible: a deficit node is unreachable")

        for t in reached:
            amount = -excess[t]
            path: list[int] = []
            v = t
            while (e := via[v]) is not None:
                path.append(e)
                if e >= 0:
                    v = tails[e]
                else:
                    v = heads[~e]
                    if flow[~e] < amount:
                        amount = flow[~e]
            if excess[v] < amount:
                amount = excess[v]
            if amount <= 0:
                continue
            # an arc enters backward[head] as its flow leaves 0, and exits as it returns
            for e in path:
                if e >= 0:
                    if not flow[e]:
                        backward[heads[e]][e] = (tails[e], -cost[e], ~e)
                    flow[e] += amount
                else:
                    flow[~e] -= amount
                    if not flow[~e]:
                        del backward[heads[~e]][~e]
            excess[v] -= amount
            excess[t] += amount
            if not excess[t]:
                deficits -= 1
            total_excess -= amount
            augmentations += 1
            if augmentations > max_aug:
                raise SolverError("flow augmentation did not converge")

    # exact certificates on the quantized instance; failure means a bug:
    # no reduced cost is negative and every flow arc has reduced cost zero.
    # Only flow arcs enter the slackness test and the cost; the loop names
    # the first bad arc.  An int64 pi holds values in [0, 2**62] and costs
    # are below 2**60, so its one array pass cannot overflow
    support = list(compress(range(len(flow)), flow))   # the arcs carrying flow
    if isinstance(pi, list):
        certified = False
    else:
        reduced = cost_grid + pi[arcs[:, 0]] - pi[arcs[:, 1]]
        certified = reduced.min() >= 0 and not reduced[support].any()
        pi = pi.tolist()
    if not certified:
        reduced = [c + pi[u] - pi[v] for u, v, c in zip(tails, heads, cost)]
        if min(reduced, default=0) < 0 or any(reduced[k] for k in support):
            for r, f in zip(reduced, flow):
                if r < 0:
                    raise SolverError("optimality certificate failed on a residual arc")
                if f > 0 and r > 0:
                    raise SolverError("complementary slackness failed on a flow arc")
    cost_int = sum(flow[k] * cost[k] for k in support)
    if -sum(map(operator.mul, b, pi)) != cost_int:
        raise SolverError("flow duality gap is nonzero on the quantized instance")

    flow_out = np.zeros(len(flow))
    flow_out[support] = np.ldexp(np.array([flow[k] for k in support], dtype=float), -supply_shift)
    try:
        potentials = np.array([math.ldexp(-p, -cost_shift) for p in pi])
        optimum = math.ldexp(cost_int, -supply_shift - cost_shift)
    except OverflowError:
        raise ContractError("flow cost overflows: the optimum or a potential "
                            "is not a finite float") from None
    return FlowResult(
        flow=flow_out,
        potentials=potentials,
        cost=optimum,
        flow_int=tuple(flow),
        phases=phases,
        augmentations=augmentations,
    )


class _LabelPrepass:
    """Exact phase labels with array code, for dense solve_flow instances.

    Each phase it returns every node's label and its tight forward arcs,
    label[u] + rc(u, w) == label[w], in stable head order.  Over those
    arcs the first arc to reach a node offers exactly its label, so the
    first-offer loop pushes each node once, at that label; the module
    docstring says why that settles the nodes of a full scan in its order.
    Components of the flow support share one label, so the Bellman-Ford
    rounds run on contracted arcs, and backward arcs, which lie inside a
    component, are always scanned.  It returns None, and the phase scans
    every arc, when a potential exceeds _LABEL_CAP or a deficit's label
    saturates there.
    """

    def __init__(self, arcs: np.ndarray, cost: np.ndarray):
        # the arcs in stable head order, so that one reduceat per round
        # finds the least offer into each head, with their residual entries
        order = np.argsort(arcs[:, 1], kind="stable")
        self.tails, self.heads = arcs[order].T
        self.cost = cost[order]
        self.entries = list(zip(self.heads.tolist(), order.tolist()))
        self.starts = np.flatnonzero(np.concatenate([[True], self.heads[1:] != self.heads[:-1]]))
        self.run_heads = self.heads[self.starts]

    def tight_arcs(self, pi: np.ndarray, sources: list[int],
                   backward: list[dict[int, tuple[int, int, int]]], excess: list[int]
                   ) -> tuple[list[list[tuple[int, int]]], np.ndarray] | None:
        """Each node's tight forward residual arcs and its exact label, or None."""
        # the sources keep pi = 0, so max(pi) is its spread: reduced costs are
        # then below 2**62, and a label plus a reduced cost stays below 2**63
        if pi.max() > _LABEL_CAP:
            return None
        n = len(pi)
        # union-find over the flow arcs, the lower root on top, so that one
        # ascending pass points every node at its component's least node;
        # each find halves its path on the way up
        root = list(range(n))
        for w, arcs_in in enumerate(backward):
            if arcs_in:
                top = w
                while (up := root[top]) != top:
                    root[top] = top = root[up]
                for u, _, _ in arcs_in.values():
                    r = u
                    while (up := root[r]) != r:
                        root[r] = r = root[up]
                    if r < top:
                        root[top] = top = r
                    elif r > top:
                        root[r] = top
        for x in range(n):
            root[x] = root[root[x]]
        comp = np.array(root)

        rc = self.cost + pi[self.tails] - pi[self.heads]
        tail_comp = comp[self.tails]
        run_comp = comp[self.run_heads]
        label = np.full(n, _LABEL_CAP, dtype=np.int64)
        label[comp[sources]] = 0
        # Bellman-Ford rounds until no component label drops; a label only
        # takes an offer below the one it holds, so it stays <= _LABEL_CAP
        while True:
            offer = label[tail_comp] + rc
            best = np.minimum.reduceat(offer, self.starts)
            if not (best < label[run_comp]).any():
                break
            np.minimum.at(label, run_comp, best)

        node = label[comp]
        # a saturated label is not exact, and the first-offer loop settles
        # no node at the cap unless it is a deficit
        if any(excess[x] < 0 for x in np.flatnonzero(node == _LABEL_CAP).tolist()):
            return None
        kept = np.flatnonzero(offer == node[self.heads])
        scan: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        entries = self.entries
        for u, i in zip(self.tails[kept].tolist(), kept.tolist()):
            scan[u].append(entries[i])
        return scan, node


# ---------------------------------------------------------------------------
# linear programming


@dataclass(frozen=True)
class LinearProgram:
    """min (or max) c.x subject to row senses and box bounds.

    senses holds one of "<=", "==", ">=" per row.  Default bounds are
    x >= 0; pass -inf/+inf entries for free variables.  A variable is
    either free or has a finite lower bound.
    """

    c: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise ContractError("A must be a matrix")
        m, n = A.shape
        if c.shape != (n,) or b.shape != (m,):
            raise ContractError("inconsistent LP dimensions")
        senses = tuple(self.senses)
        if len(senses) != m or any(s not in ("<=", "==", ">=") for s in senses):
            raise ContractError("each row sense must be one of <=, ==, >=")
        lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=float)
        ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if lb.shape != (n,) or ub.shape != (n,):
            raise ContractError("bound arrays must match the variable count")
        if np.any(lb > ub):
            raise ContractError("lower bound exceeds upper bound")
        if np.any((lb == -np.inf) & (ub != np.inf)):
            raise ContractError("a variable with no lower bound must have no upper bound")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ContractError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)


@dataclass(frozen=True)
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None             # primal solution in original variables
    y: np.ndarray | None             # duals of the original rows (minimize convention)
    objective: float | None
    iterations: int = 0


class _Simplex:
    """Primal simplex on min c.x, A x = b, x >= 0, b >= 0."""

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        self.basis: list[int] = []
        self.iterations = 0

    def _solve_basis(self, rhs: np.ndarray, transpose=False) -> np.ndarray:
        B = self.A[:, self.basis]
        try:
            return np.linalg.solve(B.T if transpose else B, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular simplex basis: {exc}") from exc

    def _inverse(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular simplex basis: {exc}") from exc

    def run(self, c: np.ndarray, allowed: np.ndarray) -> tuple[str, np.ndarray]:
        """Minimize c.x from the current basis; returns (status, xB).

        allowed masks the columns that may enter.  Uses Dantzig pricing
        until a degenerate stall, then Bland's rule for termination.
        One explicit basis inverse serves x_B, the duals and the entering
        column: it is formed at the start and every REFACTOR pivots, takes
        a rank-one update per pivot in between, and is formed afresh
        before a verdict is returned.
        """
        bland = False
        stall = 0
        best_obj = None
        Binv = self._inverse()
        pivots = 0   # since Binv was formed
        while True:
            self.iterations += 1
            if self.iterations > MAX_ITERATIONS:
                raise SolverError("simplex iteration limit exceeded")
            xB = Binv @ self.b
            y = c[self.basis] @ Binv
            rc = c - y @ self.A
            rc[self.basis] = 0.0
            candidates = np.nonzero(allowed & (rc < -PIVOT_TOL))[0]
            if candidates.size:
                j = int(candidates[0]) if bland else int(candidates[np.argmin(rc[candidates])])
                d = Binv @ self.A[:, j]
                pos = np.nonzero(d > max(PIVOT_TOL, PIVOT_REL * np.abs(d).max(initial=0.0)))[0]
            if not candidates.size or not pos.size:
                if pivots:
                    # recheck the verdict on a fresh inverse, as the same iteration
                    self.iterations -= 1
                    Binv, pivots = self._inverse(), 0
                    continue
                return ("unbounded" if candidates.size else "optimal"), xB
            safe_xB = np.maximum(xB, 0.0)
            ratios = safe_xB[pos] / d[pos]
            theta = ratios.min()
            ties = pos[np.nonzero(ratios <= theta + PIVOT_TOL * (1.0 + theta))[0]]
            # Bland tie break: leave the smallest column index
            leave_row = min(ties, key=lambda r: self.basis[int(r)])
            obj = float(c[self.basis] @ xB)
            if best_obj is not None and obj > best_obj - STALL_PROGRESS * (1.0 + abs(best_obj)):
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall, best_obj = 0, obj
            self.basis[int(leave_row)] = j
            pivots += 1
            if pivots == REFACTOR:
                Binv, pivots = self._inverse(), 0
            else:
                # eta update: row leave_row of the new inverse is that row over
                # the pivot d[leave_row]; every other row loses d[i] times it
                pivot_row = Binv[leave_row] / d[leave_row]
                Binv -= np.outer(d, pivot_row)
                Binv[leave_row] = pivot_row


def solve_lp(problem: LinearProgram, tol: float = 1e-9) -> LPResult:
    """Two-phase revised simplex with a certified optimal basis.

    The result carries the primal point in the original variables, the
    duals of the original rows, and the objective in the original sense.
    Duals follow the minimize convention; they are negated internally
    when the problem maximizes so that strong duality reads the same.
    """
    check_tol(tol)
    p = problem
    m, n = p.A.shape
    c0 = -p.c if p.maximize else p.c

    # standard form, columns in variable order: a free variable splits into
    # x+ and x- next to each other, any other is shifted to x - lb >= 0, and
    # a finite upper bound adds the row x - lb <= ub - lb below the LP rows
    free = p.lb == -np.inf
    start = np.cumsum(1 + free) - (1 + free)
    neg = start[free] + 1
    nx = n + neg.size
    boxed = np.flatnonzero(~free & (p.ub != np.inf))
    m2 = m + boxed.size
    # b - A[:, j] * lb[j] one shifted column at a time, as a running sum
    shifted = np.flatnonzero(~free & (p.lb != 0.0))
    b2 = np.cumsum(np.column_stack([p.b, -(p.A[:, shifted] * p.lb[shifted])]), axis=1)[:, -1]
    b2 = np.concatenate([b2, p.ub[boxed] - p.lb[boxed]])

    # then a slack per inequality row (+1 for <=, -1 for >=); rows with
    # b < 0 flip so that b >= 0; a row whose slack reads +1 after the flip
    # starts with it basic, every other row with an artificial column
    orient = np.concatenate([[{"<=": 1.0, "==": 0.0, ">=": -1.0}[s] for s in p.senses],
                             np.ones(boxed.size)])
    slack_rows = np.flatnonzero(orient)
    nreal = nx + slack_rows.size
    row_sign = np.where(b2 < 0, -1.0, 1.0)
    b2 = b2 * row_sign
    artificial_rows = np.flatnonzero(orient * row_sign != 1.0)
    ntot = nreal + artificial_rows.size
    basis = np.full(m2, -1)
    basis[slack_rows] = np.arange(nx, nreal)
    basis[artificial_rows] = np.arange(nreal, ntot)

    A3 = np.zeros((m2, ntot))
    A3[:m, start] = p.A
    A3[:m, neg] = -p.A[:, free]
    A3[m + np.arange(boxed.size), start[boxed]] = 1.0
    A3[slack_rows, nx + np.arange(slack_rows.size)] = orient[slack_rows]
    A3[:, :nreal] *= row_sign[:, None]
    A3[artificial_rows, basis[artificial_rows]] = 1.0
    c_phase2 = np.zeros(ntot)
    c_phase2[start] = c0
    c_phase2[neg] = -c0[free]

    sx = _Simplex(A3, b2)
    sx.basis = basis.tolist()

    scale_b = float(np.max(np.abs(b2))) if m2 else 1.0
    feas_tol = tol * max(1.0, scale_b)

    # artificials start basic and may leave, but never re-enter
    allowed = np.arange(ntot) < nreal
    row_keep = np.arange(m2)
    if artificial_rows.size:
        c_phase1 = (~allowed).astype(float)
        status, xB = sx.run(c_phase1, allowed)
        # the phase-1 objective is bounded below by 0: no usable pivot was left
        if status == "unbounded":
            raise SolverError("phase 1 found no usable pivot for an improving column")
        phase1_obj = float(c_phase1[sx.basis] @ np.maximum(xB, 0.0))
        if phase1_obj > feas_tol:
            return LPResult("infeasible", None, None, None, sx.iterations)
        # pivot leftover artificials out, or drop their rows as redundant;
        # each pivot changes the basis that the next row's solve reads
        dropped = np.zeros(m2, dtype=bool)
        for r in np.flatnonzero(np.array(sx.basis) >= nreal).tolist():
            w = np.zeros(m2)
            w[r] = 1.0
            row = sx._solve_basis(w, transpose=True) @ sx.A[:, :nreal]
            open_cols = np.ones(ntot, dtype=bool)
            open_cols[sx.basis] = False
            pick = np.flatnonzero(open_cols[:nreal] & (np.abs(row) > PIVOT_TOL))
            if pick.size:
                sx.basis[r] = int(pick[0])
            else:
                dropped[r] = True
        if dropped.any():
            row_keep = np.flatnonzero(~dropped)
            sx.A = A3[row_keep, :]
            sx.b = b2[row_keep]
            sx.m = row_keep.size
            sx.basis = np.array(sx.basis)[row_keep].tolist()

    status, xB = sx.run(c_phase2, allowed)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, sx.iterations)

    # read back x: x+ - x- for a free variable, lb + x' for the others
    xfull = np.zeros(ntot)
    xfull[sx.basis] = np.where(xB < 0.0, 0.0, xB)
    x = xfull[start]
    x[free] -= xfull[neg]
    x[~free] += p.lb[~free]
    objective = float(c0 @ x) + 0.0

    # duals on the surviving rows, mapped back to the original rows
    yb = sx._solve_basis(c_phase2[sx.basis], transpose=True)
    y = np.zeros(m)
    original = row_keep < m
    y[row_keep[original]] = yb[original] * row_sign[row_keep[original]]

    # certification: primal feasibility, dual feasibility, strong duality
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
