"""Optimization kernels: min-cost flow and a dense revised simplex.

The flow solver takes a transportation problem: supplies on nodes, the
sources S those of positive supply and the sinks T those of negative
supply, each in ascending node order, and the |S| x |T| matrix of
nonnegative costs of one uncapacitated arc from every source to every
sink.  By the triangle inequality, every transport problem on a metric
space is one of these, from a measure's positive to its negative part.

It solves an exactly quantized copy of the instance.  The grid is
relative to the problem scale: costs are divided by a power of two near
the largest cost and supplies by a power of two near the largest
|supply|, then both are scaled by 2**60 and rounded.  Scaling a float by
a power of two is exact, so the only perturbation is the final
rounding, about 2**-61 of the largest cost or supply whatever their
units, and results are multiplied back exactly.  The supplies are
rounded as running sums, so that they still balance; every node but the
last keeps its side of zero, and solve_flow refuses a last node that
the rounding moves across it.  All arithmetic is on integers, so the
optimum of the quantized instance is exact, and an end certificate
rechecks every reduced cost and the duality gap, identically zero, in
one int64 pass.

Below DENSE_ARCS_PER_NODE arcs per node it runs a network simplex.  The
basis is a spanning tree of the sources and of the sinks whose demand
is nonzero on the grid, rooted at the last of those sinks.  The start
is least-cost: arcs are taken in cost order, and each arc whose source
and sink are both open ships all it can and closes one of them.  Every
node but the root gets an extra eps of supply, which the root absorbs,
so no two remainders tie before the last allocation: each allocation
closes one line, and the start is a spanning tree whose arcs all carry
a positive perturbed amount.  The tree is thus strongly feasible: an
arc that points down, away from the root, carries flow.  Each pivot
prices every arc at once on the |S| x |T| matrix of reduced costs and
enters the most negative (Dantzig).  It walks the arc's two ends up to
their apex and drops the last blocking arc met when walking the cycle
from the apex along the entering arc (Cunningham's rule), which keeps
the tree strongly feasible.  The one subtree cut off is re-hung from
the entering arc, with the path from that arc's end to the dropped arc
reversed, and its potentials move by the entering reduced cost.  In a
strongly feasible tree a pivot that ships nothing drops an arc on the
source's side, so it raises the potentials of the source's subtree:
their sum rises, no basis repeats, and the simplex terminates; an
iteration cap that raises SolverError is only a safety net.  phases
counts the pivots and augmentations the pivots that shipped flow.

The simplex keeps its potentials as exact ints.  A tree path
alternates sources and sinks, so it has at most 2 * min(|S|, |T|) arcs,
and each changes the potential by at most the largest grid cost C, so
during the pivots the potentials may span min(|S|, |T|) * C, past
int64.  Pricing runs in int64 while the span is below 2**62, where no
reduced cost can wrap, and on exact ints past it.  The optimal
potentials are shifted so that the least is 0.  Some source is then at
0 (a sink at 0 has a source at 0 as tree neighbour), so every sink
lies at most C above it, every source lies below a sink, its tree
neighbour, and all lie in [0, C].  A sink of zero demand stays out of
the tree and takes the least over the sources of potential plus arc
cost, also in [0, C], and a node without arcs sits at 0.

At or above the gate it runs primal-dual phases.  Each phase runs one
multi-source Dijkstra on reduced costs from every node with excess
until every deficit node is settled, raises the node potentials so that
every shortest-path tree arc has reduced cost zero, and then augments
along the tree to each settled deficit in settle order.  Arcs are
uncapacitated, so the residual graph holds each arc forward, always
open, and backward only while the arc carries flow.  phases counts the
Dijkstra runs and augmentations the augmenting paths, at least one per
phase.

A phase first computes every node's exact label with array code and
hands the heap loop only the forward arcs that lie on a shortest path.
An arc carrying flow has reduced cost zero both ways, so each component
of the flow support shares one label; the pre-pass contracts them and
runs Bellman-Ford rounds between components, about three at n = 100.
Every arc left to scan is then tight, label[u] + rc(u, w) == label[w],
and a backward arc joins two nodes of one component, so the first arc
to reach a node offers exactly its label and no later offer is lower.
The heap loop is a first-offer loop: it pushes each node once, at its
label, by the first listed arc that reaches it, which becomes its tree
arc; it keeps no tentative distances, meets no stale entry and does no
arithmetic per arc, and its heap holds each node's rank in (label,
node) order, which orders like the pair.  A full-scan Dijkstra settles
the same nodes in the same order: the heap holds distinct (label, node)
pairs, so it pops them in one order whatever order they were pushed in,
and the extra entries of a full scan are tentative labels above the
true ones, which it skips when they surface.  Its tree arc into a node
is the first tight arc scanned into it, since an arc that is not tight
offers more than the label and a later tight arc replaces it; that is
the first-offer loop's tree arc, so the potentials rise by the same
amounts and results are bit for bit those of a full scan.

No phase potential passes C, so the pre-pass works in int64 with labels
that start at C.  An active source settles at label 0 in every phase,
so it keeps potential 0.  Every sink has a direct arc from it, whose
reduced cost stays nonnegative, so no sink rises above that arc's cost,
no sink's label exceeds C less its potential, and every phase reaches
every deficit.  A source that has shipped its supply still ships it
along arcs of reduced cost zero, so it sits below a sink it feeds, by
that arc's cost, and shares that sink's label.  A node that is no sink
and has no supply on the grid is idle: it ships nothing and nothing
reaches it, so it sits at C from the start, above every sink, and every
phase settles it at label 0.  The pre-pass checks the bound at every
phase and raises SolverError should it fail.

The LP solver is a two-phase revised simplex over dense numpy arrays.
Pricing is Dantzig by default and falls back to Bland's rule after a
degenerate stall, which restores the termination guarantee.  Each run
keeps one explicit basis inverse for x_B, the duals and the entering
column: np.linalg.inv forms it at the start and every REFACTOR pivots,
one rank-one (eta) update per pivot keeps it in between, and an
"optimal" or "unbounded" verdict is only taken on a freshly formed one;
phase 1 cannot be unbounded, so that verdict there raises SolverError.
Phase 2 runs on the rows phase 1 ran on.  An artificial that phase 1
leaves basic, at zero, stays basic and pinned at zero: it leaves at step
0 as soon as an entering column has a usable entry in its row, of either
sign, and artificials never re-enter.  A redundant row thus keeps its
artificial to the end, and its dual, read off the artificial's cost of
0, is 0.  Optimal bases are certified before returning, on a fresh solve
of the final basis that does not read the maintained inverse: the primal
residual over the real columns alone, so that an artificial left nonzero
fails it, the dual residual and complementary slackness are all
rechecked against the caller's tolerance, the one solver option; pivot,
stall, refactor and iteration limits are module constants.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ContractError, SolverError, check_tol

GRID_BITS = 60

# solve_flow runs the network simplex on problems with fewer than this many arcs
# per node, and the primal-dual phases with the label pre-pass (_LabelPrepass) on
# the rest.  The value was set where the pre-pass began to beat full-scan phases,
# which are gone.  The simplex is faster on both sides of it, but above it, on the
# benchmark's dense transport problems, its throughput lifts peak RSS past that
# metric's bound, because the benchmark keeps a record per operation; the gate
# stays until the benchmark changes (ROADMAP items 7 and 8).
DENSE_ARCS_PER_NODE = 16

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
    b = list(map(operator.sub, cum[1:], cum))
    # float sums and rint are monotone, so every entry but the last keeps
    # its side of zero; the last takes the rounding and must keep it too
    if b and (b[-1] > 0 >= values[-1] or b[-1] < 0 <= values[-1]):
        raise ContractError("the grid moves the last supply across zero; put the largest |supply| last")
    return b


@dataclass(frozen=True)
class FlowProblem:
    """Uncapacitated transportation problem on node indices 0..n_nodes-1.

    supplies: positive at the sources, negative at the sinks, summing to
    zero; a node of zero supply is neither.  cost: the (|sources|,
    |sinks|) matrix of nonnegative arc costs, sources and sinks each in
    ascending node order.  Arc k runs from sources[k // |sinks|] to
    sinks[k % |sinks|].
    """

    supplies: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "supplies", np.asarray(self.supplies, dtype=float))
        object.__setattr__(self, "cost", np.asarray(self.cost, dtype=float))

    @property
    def n_nodes(self) -> int:
        return self.supplies.size

    @property
    def arcs(self) -> np.ndarray:
        """The (tail, head) pair of every arc, in arc order."""
        return np.argwhere((self.supplies[:, None] > 0.0) & (self.supplies < 0.0))


@dataclass(frozen=True)
class FlowResult:
    flow: np.ndarray          # one value per arc
    potentials: np.ndarray    # dual node values g with g_u - g_v <= cost on arcs
    cost: float
    # exact integer arc flows; flow is flow_int times the supply grid step
    flow_int: tuple[int, ...]
    # dense problems: Dijkstra runs and augmenting paths, at least one per
    # phase; below the density gate: simplex pivots and those that shipped flow
    phases: int
    augmentations: int


def solve_flow(problem: FlowProblem, tol: float = 1e-9) -> FlowResult:
    """Solve a transportation problem exactly on the quantized grid.

    Returns flows, certifying node potentials and the optimal cost.  The
    potentials g satisfy g_u - g_v <= cost(u, v) on every arc, with
    equality on arcs carrying flow, so sum_i supplies_i * g_i equals the
    cost exactly.
    """
    check_tol(tol)
    supplies, costs = problem.supplies, problem.cost
    if supplies.ndim != 1:
        raise ContractError("supplies must be a vector")
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
    sources, sinks = (supplies > 0.0).nonzero()[0], (supplies < 0.0).nonzero()[0]
    shape = (sources.size, sinks.size)
    if costs.shape != shape:
        raise ContractError(f"cost has shape {costs.shape}, not (sources, sinks) = {shape}")
    largest_cost = float(costs.max(initial=0.0))
    # one all-good check, where NaN fails every comparison; the scan names
    # the first offender
    if not (costs.min(initial=0.0) >= 0.0 and math.isfinite(largest_cost)):
        i, j = np.argwhere(~(np.isfinite(costs) & (costs >= 0.0)))[0]
        raise ContractError(f"arc ({sources[i]},{sinks[j]}) needs a finite nonnegative cost")

    n = supplies.size
    cost_shift = _grid_exponent(largest_cost)
    b = _quantize_balanced(supplies, supply_shift)
    # rint rounds half to even, as round does; int64 holds values below 2**GRID_BITS
    cost_grid = np.rint(np.ldexp(costs, cost_shift)).astype(np.int64)
    cost = cost_grid.ravel().tolist()
    if n > 0 and costs.size >= DENSE_ARCS_PER_NODE * n:
        flow, pi, phases, augmentations = _shortest_path_phases(b, supplies, cost_grid, cost, sources, sinks)
    else:
        flow, pi, phases, augmentations = _network_simplex(b, cost_grid, sources, sinks)

    # exact certificates on the quantized instance; failure means a bug: no
    # reduced cost is negative and every flow arc has reduced cost zero.  Only
    # flow arcs enter the slackness test and the cost.  The potentials lie in
    # [0, top_cost] and the costs below 2**60, so one int64 pass cannot overflow
    support = list(compress(range(len(flow)), flow))   # the arcs carrying flow
    pi = np.asarray(pi, dtype=np.int64)
    reduced = (cost_grid + pi[sources][:, None] - pi[sinks]).ravel()
    if reduced.min(initial=0) < 0 or reduced[support].any():
        raise SolverError("optimality certificate failed on the quantized instance")
    pi = pi.tolist()
    cost_int = sum(flow[k] * cost[k] for k in support)
    if -sum(map(operator.mul, b, pi)) != cost_int:
        raise SolverError("flow duality gap is nonzero on the quantized instance")

    flow_out = np.zeros(len(flow))
    flow_out[support] = np.ldexp(np.array([flow[k] for k in support], dtype=float), -supply_shift)
    # no potential passes the largest cost, a float, so only the optimum can overflow
    potentials = np.array([math.ldexp(-p, -cost_shift) for p in pi])
    try:
        optimum = math.ldexp(cost_int, -supply_shift - cost_shift)
    except OverflowError:
        raise ContractError("flow cost overflows: the optimum is not a finite float") from None
    return FlowResult(
        flow=flow_out,
        potentials=potentials,
        cost=optimum,
        flow_int=tuple(flow),
        phases=phases,
        augmentations=augmentations,
    )


def _network_simplex(b: list[int], cost_grid: np.ndarray, sources: np.ndarray,
                     sinks: np.ndarray) -> tuple[list[int], list[int], int, int]:
    """Network simplex on the quantized instance, below the density gate.

    Returns the arc flows, the node potentials, least 0, the pivots and
    the pivots that shipped flow; the module docstring describes the
    method and why it terminates.
    """
    n_sources, n_sinks = cost_grid.shape
    flow = [0] * cost_grid.size
    pi = [0] * len(b)
    sources, sinks = sources.tolist(), sinks.tolist()
    # a sink whose demand rounds to zero takes no flow; it stays out of the
    # tree and takes the c-transform of the source potentials at the end
    cols = [j for j, v in enumerate(sinks) if b[v]]
    pivots = shipped = 0
    if cols:
        tree = _BasisTree(cost_grid if len(cols) == n_sinks else cost_grid[:, cols],
                          [b[u] for u in sources], [-b[sinks[j]] for j in cols])
        # a safety net: strongly feasible trees do not cycle
        max_pivots = tree.nodes * (tree.nodes + cost_grid.size)
        while (entering := tree.price())[2] < 0:
            pivots += 1
            if pivots > max_pivots:
                raise SolverError("network simplex did not terminate")
            shipped += tree.pivot(*entering) > 0
        m, parent, pot = n_sources, tree.parent, tree.pot
        for x, f in enumerate(tree.up_flow[:tree.root]):
            i, j = (x, parent[x] - m) if x < m else (parent[x], x - m)
            flow[i * n_sinks + cols[j]] = f
        lo = min(pot)
        for x, node in enumerate(sources + [sinks[j] for j in cols]):
            pi[node] = pot[x] - lo
    if len(cols) < n_sinks:
        idle = [j for j, v in enumerate(sinks) if not b[v]]
        low = (cost_grid[:, idle] + np.array([pi[u] for u in sources])[:, None]).min(axis=0)
        for j, p in zip(idle, low.tolist()):
            pi[sinks[j]] = p
    return flow, pi, pivots, shipped


class _BasisTree:
    """A strongly feasible spanning tree basis of a transportation problem.

    Nodes 0..m-1 are the sources and m..m+k-1 the sinks, each of positive
    demand; the last sink is the root.  up_flow[x] is the flow on the arc
    between x and parent[x], which points up, towards the root, iff x is
    a source; pot holds exact int potentials, cost + pot[source] -
    pot[sink] == 0 on every tree arc.  Strongly feasible: an arc that
    points down carries flow, so every node can send some to the root.
    """

    def __init__(self, cost: np.ndarray, supply: list[int], demand: list[int]):
        m, k = cost.shape
        self.cost, self.m, self.k = cost, m, k
        self.nodes = nodes = m + k
        self.root = root = nodes - 1
        c = cost.tolist()
        # every node but the root ships an extra eps to it, so each remainder
        # below is amount * scale + its eps coefficient, compared and
        # subtracted as one int; no two tie before the last allocation
        scale = 4 * nodes
        rem = [x * scale + 1 for x in supply] + [d * scale - 1 for d in demand]
        rem[root] += nodes
        is_open = [True] * nodes
        tree: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
        placed = 0
        # least-cost start: each allocation closes one line, so the
        # allocations form a spanning tree, each arc with a positive
        # perturbed amount, which makes the tree strongly feasible
        rows, cols = np.divmod(np.argsort(cost, axis=None, kind="stable"), k)
        for i, t in zip(rows.tolist(), (cols + m).tolist()):
            if is_open[i] and is_open[t]:
                x, y = rem[i], rem[t]
                if x < y:
                    amount, is_open[i], rem[t] = x, False, y - x
                else:
                    amount, is_open[t], rem[i] = y, False, x - y
                amount = (amount + scale // 2) // scale
                tree[i].append((t, amount))
                tree[t].append((i, amount))
                placed += 1
                if placed == nodes - 1:
                    break

        self.parent = parent = [-1] * nodes
        self.depth = depth = [0] * nodes
        self.up_flow = up_flow = [0] * nodes
        self.pot = pot = [0] * nodes
        self.children = children = [[] for _ in range(nodes)]
        order = [root]
        for x in order:
            for y, amount in tree[x]:
                if y != parent[x]:
                    parent[y], depth[y], up_flow[y] = x, depth[x] + 1, amount
                    children[x].append(y)
                    pot[y] = pot[x] - c[y][x - m] if y < m else pot[x] + c[x][y - m]
                    order.append(y)

    def price(self) -> tuple[int, int, int]:
        """The source, sink and reduced cost of the most negative arc (Dantzig).

        The reduced costs are priced in int64 while the potentials span
        less than 2**62, where none can wrap, and in exact ints past that.
        """
        pot, m = self.pot, self.m
        p = np.array(pot, dtype=np.int64 if max(pot) - min(pot) < 1 << 62 else object)
        rc = self.cost + p[:m, None] - p[m:]
        i, j = divmod(int(rc.argmin()), self.k)
        return i, j, int(rc[i, j])

    def pivot(self, i: int, j: int, gain: int) -> int:
        """Enter arc (source i, sink j) of reduced cost gain; returns the flow shipped."""
        m, parent, depth, up_flow, children = self.m, self.parent, self.depth, self.up_flow, self.children
        u = x = i
        v = y = m + j
        # the cycle: u and v up to their apex; the entering arc u->v sets its
        # orientation, so an arc that points up loses flow on u's side and
        # gains on v's side, one that points down the reverse
        u_side: list[int] = []
        v_side: list[int] = []
        while depth[x] > depth[y]:
            u_side.append(x)
            x = parent[x]
        while depth[y] > depth[x]:
            v_side.append(y)
            y = parent[y]
        while x != y:
            u_side.append(x)
            x = parent[x]
            v_side.append(y)
            y = parent[y]
        # the arcs that lose flow are a source's on u's side and a sink's on
        # v's side.  Cunningham's rule drops the last blocking arc, one of
        # least flow, met when walking the cycle from the apex along its
        # orientation: down u's side to u, across to v, then up v's side.
        # That is the one on v's side nearest the apex if v's side has one,
        # else the one on u's side nearest u; the new tree is strongly
        # feasible again
        theta, leave = None, -1
        for k, x in enumerate(u_side):
            if x < m and (theta is None or up_flow[x] < theta):
                theta, leave = up_flow[x], k
        for k, y in enumerate(v_side):
            if y >= m and (theta is None or up_flow[y] <= theta):
                theta, leave = up_flow[y], ~k
        if leave >= 0:
            path, top, shift = u_side[:leave + 1], v, -gain
        else:
            path, top, shift = v_side[:~leave + 1], u, gain
        leave = path[-1]
        if theta:
            for x in u_side:
                up_flow[x] += -theta if x < m else theta
            for y in v_side:
                up_flow[y] += theta if y < m else -theta
        # re-hang the leaving arc's subtree from the entering arc, reversing
        # the path from u or v up to the leaving arc
        children[parent[leave]].remove(leave)
        prev, amount = top, theta
        for x in path:
            if prev != top:
                children[x].remove(prev)
            children[prev].append(x)
            parent[x], up_flow[x], prev, amount = prev, amount, x, up_flow[x]
        # the subtree moves by the entering arc's reduced cost, which makes
        # that arc tight
        pot, stack = self.pot, [path[0]]
        while stack:
            x = stack.pop()
            depth[x] = depth[parent[x]] + 1
            pot[x] += shift
            stack.extend(children[x])
        return theta


def _shortest_path_phases(b: list[int], supplies: np.ndarray, cost_grid: np.ndarray, cost: list[int],
                          sources: np.ndarray, sinks: np.ndarray) -> tuple[list[int], list[int], int, int]:
    """Primal-dual phases with the label pre-pass, at or above the density gate.

    Returns the arc flows, the node potentials, the phases and the
    augmentations; the module docstring describes the method.
    """
    n = len(b)
    top_cost = int(cost_grid.max(initial=0))
    # arc k runs from sources[k // |sinks|] to sinks[k % |sinks|]
    tails = [u for u in sources.tolist() for _ in range(sinks.size)]
    heads = sinks.tolist() * sources.size

    # backward residual arcs (node, cost, ~k) into each node: uncapacitated
    # arc k is always open forward, and backward only while it carries flow
    backward: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(n)]
    flow = [0] * len(cost)

    excess = list(b)
    total_excess = sum(x for x in b if x > 0)
    active = [s for s in range(n) if b[s] > 0]
    deficits = sum(1 for x in b if x < 0)   # a node never becomes a deficit again
    # a node that is no sink and has no supply on the grid is idle: it ships
    # nothing and nothing reaches it.  It sits at the largest grid cost, where
    # no sink rises above it, and every phase settles it at label 0
    idle = [x for x, (bx, sx) in enumerate(zip(b, supplies.tolist())) if not bx and sx >= 0.0]
    # reduced cost of arc u->w: cost + pi[u] - pi[w] >= 0; pi stays in [0, top_cost]
    pi = np.zeros(n, dtype=np.int64)
    pi[idle] = top_cost
    prepass = _LabelPrepass(cost_grid, sources, sinks, top_cost)
    phases = augmentations = 0
    # every phase of a sound run augments at least once, so a bound on the
    # augmentations bounds the phases too; it also ends a run whose phase
    # reached no deficit, which would repeat forever
    max_phases = 4 * (n + len(cost)) + 16
    heappush, heappop = heapq.heappush, heapq.heappop

    while total_excess > 0:
        phases += 1
        if phases > max_phases:
            raise SolverError("flow augmentation did not converge")
        via: list[int | None] = [None] * n   # tree arc into each node
        active = [s for s in active if excess[s] > 0]
        reached: list[int] = []   # deficit nodes in settle order
        # every listed arc is tight, so the first arc to reach a node
        # offers its exact label: the node is pushed once, at that label,
        # with that arc as its tree arc, and no entry goes stale
        scan, label = prepass.tight_arcs(pi, active + idle, backward)
        offered = [False] * n
        for s in active:
            offered[s] = True
        # the heap holds each node's rank in (label, node) order: small
        # ints compare faster than the pairs and pop in the same order;
        # the sources have label 0, so their ranks ascend, a heap
        by_rank = np.argsort(label, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = np.arange(n)
        by_rank, rank = by_rank.tolist(), rank.tolist()
        pq = [rank[s] for s in active]
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
    return flow, pi.tolist(), phases, augmentations


class _LabelPrepass:
    """Exact phase labels with array code, for dense solve_flow instances.

    Each phase it returns every node's label and its tight forward arcs,
    label[u] + rc(u, w) == label[w], in arc order.  Over those arcs the
    first arc to reach a node offers exactly its label, so the
    first-offer loop pushes each node once, at that label; the module
    docstring says why that settles the nodes of a full scan in its order.
    Components of the flow support share one label, so the Bellman-Ford
    rounds run between components, on the |sources| x |sinks| matrix of
    reduced costs, and backward arcs, which lie inside a component, are
    always scanned.
    """

    def __init__(self, cost: np.ndarray, sources: np.ndarray, sinks: np.ndarray, top_cost: int):
        self.cost, self.sources, self.sinks, self.top_cost = cost, sources, sinks, top_cost

    def tight_arcs(self, pi: np.ndarray, zero: list[int],
                   backward: list[dict[int, tuple[int, int, int]]]
                   ) -> tuple[list[list[tuple[int, int]]], np.ndarray]:
        """Each node's tight forward residual arcs and its exact label.

        The nodes in zero, the active sources and the idle nodes, have
        label 0.
        """
        # the module docstring says why no potential passes the largest grid
        # cost; below it, every sum here stays far inside int64
        if pi.max() > self.top_cost:
            raise SolverError("a flow potential passed the largest grid cost")
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

        rc = self.cost + pi[self.sources][:, None] - pi[self.sinks]
        source_comp, sink_comp = comp[self.sources][:, None], comp[self.sinks]
        # every exact label is at most the largest grid cost, so the labels
        # start there; Bellman-Ford rounds until no component label drops
        label = np.full(n, self.top_cost, dtype=np.int64)
        label[comp[zero]] = 0
        while True:
            offer = label[source_comp] + rc
            best = offer.min(axis=0)
            if not (best < label[sink_comp]).any():
                break
            np.minimum.at(label, sink_comp, best)

        node = label[comp]
        kept = np.flatnonzero(offer == node[self.sinks])   # source-major, so in arc order
        i, j = np.divmod(kept, self.sinks.size)
        scan: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, entry in zip(self.sources[i].tolist(), zip(self.sinks[j].tolist(), kept.tolist())):
            scan[u].append(entry)
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
        self.basis: list[int] = []
        self.iterations = 0

    def _solve_basis(self, rhs: np.ndarray) -> np.ndarray:
        """Solve B^T y = rhs on a fresh factorisation of the basis B."""
        try:
            return np.linalg.solve(self.A[:, self.basis].T, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular simplex basis: {exc}") from exc

    def _inverse(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.A[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular simplex basis: {exc}") from exc

    def run(self, c: np.ndarray, allowed: np.ndarray, pinned: Sequence[int] = ()) -> tuple[str, np.ndarray]:
        """Minimize c.x from the current basis; returns (status, xB).

        allowed masks the columns that may enter.  pinned lists rows whose
        basic column is held at zero: once the entering column has a usable
        entry in such a row, whatever its sign, the row leaves at step 0.
        Uses Dantzig pricing until a degenerate stall, then Bland's rule
        for termination.  One explicit basis inverse serves x_B, the duals
        and the entering column: it is formed at the start and every
        REFACTOR pivots, takes a rank-one update per pivot in between, and
        is formed afresh before a verdict is returned.
        """
        pinned = list(pinned)
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
                tiny = max(PIVOT_TOL, PIVOT_REL * np.abs(d).max(initial=0.0))
                pos = np.nonzero(d > tiny)[0]
                held = [r for r in pinned if abs(d[r]) > tiny]
            if not candidates.size or not (pos.size or held):
                if pivots:
                    # recheck the verdict on a fresh inverse, as the same iteration
                    self.iterations -= 1
                    Binv, pivots = self._inverse(), 0
                    continue
                return ("unbounded" if candidates.size else "optimal"), xB
            if held:
                leave_row = held[0]
                pinned.remove(leave_row)
            else:
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

    The pivot floor and the tolerance floors are absolute (PIVOT_TOL,
    tol * max(1, ...)), so the simplex expects data of order one: the
    library's callers pose their LPs on the metric scaled to unit
    diameter.  A standard form whose right-hand side overflows, after the
    lower bounds are shifted out and the upper bounds become rows, is a
    ContractError.
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
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        b2 = np.cumsum(np.column_stack([p.b, -(p.A[:, shifted] * p.lb[shifted])]), axis=1)[:, -1]
        b2 = np.concatenate([b2, p.ub[boxed] - p.lb[boxed]])
    if not np.all(np.isfinite(b2)):
        raise ContractError("the LP's right-hand side overflows once the bounds are shifted out")

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

    # artificials start basic and may leave, but never re-enter; one still
    # basic after phase 1 stays pinned at zero through phase 2
    allowed = np.arange(ntot) < nreal
    pinned = []
    if artificial_rows.size:
        c_phase1 = (~allowed).astype(float)
        status, xB = sx.run(c_phase1, allowed)
        # the phase-1 objective is bounded below by 0: no usable pivot was left
        if status == "unbounded":
            raise SolverError("phase 1 found no usable pivot for an improving column")
        phase1_obj = float(c_phase1[sx.basis] @ np.maximum(xB, 0.0))
        if phase1_obj > feas_tol:
            return LPResult("infeasible", None, None, None, sx.iterations)
        pinned = np.flatnonzero(np.array(sx.basis) >= nreal).tolist()

    status, xB = sx.run(c_phase2, allowed, pinned)
    if status == "unbounded":
        return LPResult("unbounded", None, None, None, sx.iterations)

    # read back x: x+ - x- for a free variable, lb + x' for the others
    xfull = np.zeros(ntot)
    xfull[sx.basis] = np.where(xB < 0.0, 0.0, xB)
    x = xfull[start]
    x[free] -= xfull[neg]
    x[~free] += p.lb[~free]
    objective = float(c0 @ x) + 0.0

    # duals of the original rows; a row whose artificial is still basic
    # reads B^T y = c_B as y_r = 0
    yb = sx._solve_basis(c_phase2[sx.basis])
    y = yb[:m] * row_sign[:m]

    # certification: primal feasibility on the real columns alone, so an
    # artificial left nonzero fails it; dual feasibility, strong duality
    p_res = float(np.max(np.abs(A3[:, :nreal] @ xfull[:nreal] - b2))) if m2 else 0.0
    rc = c_phase2 - yb @ A3
    d_res = float(max(0.0, -np.min(rc[:nreal]))) if nreal else 0.0
    cert_tol = tol * max(1.0, scale_b, float(np.max(np.abs(c_phase2))) if ntot else 1.0)
    gap = abs(float(c_phase2[sx.basis] @ xB) - float(yb @ b2))
    # written so that a NaN fails it
    if not (p_res <= 100 * cert_tol and d_res <= 100 * cert_tol
            and gap <= 100 * cert_tol * (1.0 + abs(objective))):
        raise SolverError(
            f"optimal basis failed certification: primal {p_res:.2e}, dual {d_res:.2e}, gap {gap:.2e}"
        )

    if p.maximize:
        objective = -objective
        y = -y
    return LPResult("optimal", x, y, objective, sx.iterations)
