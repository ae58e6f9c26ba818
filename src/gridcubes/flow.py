"""Min-cut query planning over colored hierarchy trees.

The colored tree becomes a flow network: a source feeds every grey node
through an infinite edge, every white node plus a synthetic root drains into
a sink through infinite edges, and each containment edge (child to parent)
carries unit capacity in both directions. Every unit edge stands for one data
point, the child cell's stored summary. A finite s-t cut assigns the partial
nodes to the source or sink side; each crossing unit edge contributes the
child's value, positive when the child sits on the source side and negative
otherwise, and every finite cut evaluates to the exact region aggregate. The
minimum cut therefore selects the fewest data points that answer the query.

For several queries at once the individual graphs are merged: a cell colored
the same way in every query keeps a single node, while a cell appearing in
different color groups gets one replica per group. When a grey or white
replica coexists with a partial replica of the same cell, a small gadget node
funnels both through a single unit edge so that no two edges of one data
point can ever cross the same cut; the one min cut then yields all per-query
plans and the shared retrieval set. Under failures a shared partial replica
may be forced to the source side by one query's lost point and to the sink
side by another's, so `combined_plan` falls back to per-query plans, and
reports infeasibility only when some query alone has no finite cut.

Infinity is a sentinel capacity one above the total unit capacity, so an
infeasible instance (possible only after failures) is detected by the cut
value exceeding that budget.

The cut is solved exactly by dynamic programming. Grey-side nodes (G, M+)
sit on the source side and white-side nodes (W, M-) on the sink side in
every finite cut, so only the partial replicas are free, and those form the
cell-containment tree: the cut is a pairwise energy on a tree (Kolmogorov &
Zabih, "What energy functions can be minimized via graph cuts?", TPAMI
2004). A data arc to a grey-side or white-side node is a cost on its parent
end's side, and an arc between a partial replica and its parent's is a cost
on the pair. One bottom-up pass gives every partial replica its subtree's
cost on either side; one top-down pass places each replica, sending ties to
the sink side, which reproduces the canonical minimum cut: the unique one
with the smallest source side. ROOT is placed by the DP as well, so the cut
value stays exact (equal to the maximum flow) when no finite cut exists.

One query is planned by `_array_plan` on the level arrays of
`hierarchy.level_colors`, with no tree node and no network: the rules of
`_solve` applied to one tree, one level at a time. Lost points come as one
bool array per level (`recovery.lost_points`, or `plan_query`'s failed
cells). A cell's data point costs 1, or a sentinel larger than any finite
cut when it is lost, as `mark_failed` makes it. Bottom up, with S the source
side and T the sink side, each tree cell adds to its parent's cost: a grey
cell its point on T, a white cell its point on S, and a partial cell whose
subtree costs s on S and t on T adds min(t, s + point) on T and
min(t + point, s) on S. With no lost point, a level-1 cell's t is its count
of region locations and its s the rest of its area. ROOT -> SINK puts ROOT
on T in every finite cut. Top down, a partial cell under a parent on S goes
to S iff s < t + point, and under a parent on T iff s + point < t:
`_solve`'s tie rule. A plan term is a tree cell whose side differs from its
parent's, + for a cell on S under a parent on T and - the other way round.
Only an infeasible instance builds the network, for its canonical blocking
cells. The network stays as the reduction written out, the batch planner
and the tests' oracle. It reads its colors from `level_colors` too: of a
`HierarchyTree` it takes the hierarchy and region, and builds no node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleError, ValidationError
from .grid import RectilinearRegion
from .hierarchy import Cell, CubeHierarchy, HierarchyTree, color_tree, level_colors

SOURCE = 0
SINK = 1
ROOT = 2


@dataclass(frozen=True)
class DataArc:
    """A unit arc standing for one retrievable data point."""

    arc: int          # forward arc index
    u: int            # tail node
    v: int            # head node
    cell: Cell
    sign: int
    base: frozenset[int]   # queries that always use the point when the arc crosses
    cond: frozenset[int]   # queries that use it iff the cell's partial replica
                           # sits on the matching side (S for +, T for -)


@dataclass(frozen=True)
class QueryPlan:
    terms: tuple[tuple[object, int], ...]  # (data point, sign)
    value: object

    @property
    def size(self) -> int:
        return len(self.terms)

    def points(self) -> set:
        return {p for p, _ in self.terms}


class FlowGraph:
    """Immutable flow network.

    Arc i (even) and its reverse i + 1 are stored side by side: arc_to holds
    their heads and arc_cap their capacities, the reverse arc's being 0.
    """

    def __init__(self, num_queries, node_kind, arc_to, arc_cap,
                 data_arcs, u_node, g_node, unit_count, failed=frozenset()):
        self.num_queries = num_queries
        self.node_kind = node_kind      # per node: "s"/"t"/"root" or (cell, role)
        self.arc_to = arc_to
        self.arc_cap = arc_cap
        self.data_arcs = data_arcs
        self.u_node = u_node            # cell -> partial replica node id
        self.g_node = g_node            # cell -> grey replica node id
        self.unit_count = unit_count
        self.inf = unit_count + 1
        self.failed = failed

    @property
    def node_count(self) -> int:
        return len(self.node_kind)

    def free_nodes(self) -> list[int]:
        """Partial replicas, the only nodes a finite cut may place freely."""
        return sorted(self.u_node.values())

    def forced_side(self, node: int) -> str | None:
        kind = self.node_kind[node]
        if kind == "s":
            return "S"
        if kind in ("t", "root"):
            return "T"
        role = kind[1]
        if role in ("G", "M+"):
            return "S"
        if role in ("W", "M-"):
            return "T"
        return None


def _record_colors(trees: Sequence[HierarchyTree]):
    """Per cell: the queries coloring it grey, white and partial, and its
    parent cell (None on top). Each tree's `level_colors` are read from the
    top level down, so every parent comes before its children; a cell's
    parent sits in the level above at its block index over that level's
    fanout."""
    records: dict[Cell, tuple[tuple[set[int], set[int], set[int]], Cell | None]] = {}
    for qi, tree in enumerate(trees):
        above: dict[tuple[int, int], Cell] = {}  # empty on top
        fanout = 1
        for lc in reversed(level_colors(tree.hierarchy, tree.region)):
            js, is_ = np.nonzero(lc.in_tree)
            rows, cols = (js + lc.j0).tolist(), (is_ + lc.i0).tolist()
            slots = (lc.white[js, is_] + 2 * lc.partial[js, is_]).tolist()
            cells = tree.hierarchy.config.indexed_cells(lc.level, cols, rows)
            for cell, row, col, slot in zip(cells, rows, cols, slots):
                record = records.get(cell)
                if record is None:
                    parent = above.get((row // fanout, col // fanout))
                    record = records[cell] = ((set(), set(), set()), parent)
                record[0][slot].add(qi)
            above = dict(zip(zip(rows, cols), cells))
            fanout = lc.fanout
    return records


def _build_graph(trees: Sequence[HierarchyTree]) -> FlowGraph:
    """The cut network of one or several colored trees, in one pass.

    Per cell, with G, W and P its grey, white and partial queries and p its
    parent's partial replica (ROOT on top): nodes U if P, G if G, W if W,
    M+ if P and G, M- if P and W; infinite arcs SOURCE->G, W->SINK, G->M+,
    U->M+, M-->W and M-->U (and ROOT->SINK once); a + data arc from M+,
    else G, else U, to p with base G and cond P iff G or P; a - data arc
    from p to M-, else W, else U with base W and cond P iff W or P. The unit
    count is known first, so every arc is added with its final capacity.
    """
    h = trees[0].hierarchy
    if any(t.hierarchy is not h for t in trees[1:]):
        raise ValidationError("all trees must be colored over the same hierarchy")

    records = _record_colors(trees)
    unit_count = sum(bool(g or p) + bool(w or p) for (g, w, p), _ in records.values())
    inf = unit_count + 1
    node_kind: list = ["s", "t", "root"]
    arc_to: list[int] = []
    arc_cap: list[int] = []

    def new_node(cell, role) -> int:
        node_kind.append((cell, role))
        return len(node_kind) - 1

    def add_arc(u, v, cap=inf) -> int:
        arc_to.extend((v, u))
        arc_cap.extend((cap, 0))
        return len(arc_to) - 2

    add_arc(ROOT, SINK)
    g_node: dict[Cell, int] = {}
    u_node: dict[Cell, int] = {}
    data_arcs: list[DataArc] = []
    for cell, ((greys, whites, parts), parent_cell) in records.items():
        p = ROOT if parent_cell is None else u_node[parent_cell]
        u = g = w = m_plus = m_minus = None
        if parts:
            u = u_node[cell] = new_node(cell, "U")
        if greys:
            g = g_node[cell] = new_node(cell, "G")
            add_arc(SOURCE, g)
        if whites:
            w = new_node(cell, "W")
            add_arc(w, SINK)
        if parts and greys:
            m_plus = new_node(cell, "M+")
            add_arc(g, m_plus)
            add_arc(u, m_plus)
        if parts and whites:
            m_minus = new_node(cell, "M-")
            add_arc(m_minus, w)
            add_arc(m_minus, u)
        if greys or parts:
            tail = m_plus or g or u
            data_arcs.append(DataArc(add_arc(tail, p, 1), tail, p, cell, +1,
                                     frozenset(greys), frozenset(parts)))
        if whites or parts:
            head = m_minus or w or u
            data_arcs.append(DataArc(add_arc(p, head, 1), p, head, cell, -1,
                                     frozenset(whites), frozenset(parts)))

    return FlowGraph(len(trees), node_kind, arc_to, arc_cap,
                     data_arcs, u_node, g_node, unit_count)


def build_flow_graph(tree: HierarchyTree) -> FlowGraph:
    return _build_graph([tree])


def mark_failed(g: FlowGraph, failed_cells: Iterable[Cell]) -> FlowGraph:
    """Raise the capacity of each failed cell's data-point edges to infinity.

    An infinite edge can never be part of a finite cut, so the planner is
    forced around the failed summaries or reports infeasibility.
    """
    failed = g.failed | frozenset(failed_cells)
    cap = list(g.arc_cap)
    for da in g.data_arcs:
        if da.cell in failed:
            cap[da.arc] = g.inf
    return FlowGraph(g.num_queries, g.node_kind, g.arc_to, cap,
                     g.data_arcs, g.u_node, g.g_node, g.unit_count, failed)


def _closure(start: int, step: dict[int, list[int]]) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        for v in step.get(stack.pop(), ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _blocking(g: FlowGraph) -> frozenset[Cell]:
    """Failed cells with a data arc on a source-to-sink path of infinite arcs.

    Such a path crosses every cut, so these are exactly the cells whose loss
    leaves no finite cut; restoring all of them makes the instance feasible.
    """
    ahead: dict[int, list[int]] = {}
    behind: dict[int, list[int]] = {}
    for i in range(0, len(g.arc_to), 2):
        if g.arc_cap[i] >= g.inf:
            u, v = g.arc_to[i + 1], g.arc_to[i]
            ahead.setdefault(u, []).append(v)
            behind.setdefault(v, []).append(u)
    from_source = _closure(SOURCE, ahead)
    to_sink = _closure(SINK, behind)
    return frozenset(da.cell for da in g.data_arcs if da.cell in g.failed
                     and da.u in from_source and da.v in to_sink)


def _solve(g: FlowGraph):
    """Exact minimum s-t cut of `g` by two passes over the replica tree.

    Returns (cut value, source-side node set, crossing data arcs, blocking
    cells); the cut value equals the maximum flow, and blocking is empty
    unless the value exceeds the unit budget.

    The free nodes are ROOT and the partial replicas; every data arc runs
    between a cell's node and its parent cell's partial replica (or ROOT).
    An arc whose other end is a grey-side node (G, M+) costs its capacity
    when the parent end sits on the sink side, one whose other end is a
    white-side node (W, M-) when the parent end sits on the source side, and
    an arc between two partial replicas is a pairwise cost on the tree edge.
    The bottom-up pass gives each free node its subtree's (cost on S, cost
    on T); parents' partial replicas are created before their children's,
    so descending node ids visit children first. The top-down pass then
    places each node, sending ties to the sink side, which yields the
    unique minimal source side: the set of nodes a maximum flow's residual
    graph reaches from the source.

    Grey-side nodes sit on the source side and white-side nodes on the sink
    side in every finite cut. Only when the instance is infeasible can a
    grey-side node tie, when its own data arc is infinite and its parent
    end (and, for M+, its cell's partial replica) sits on the sink side; it
    then goes to the sink side too.
    """
    n = g.node_count
    inf, cap = g.inf, g.arc_cap
    free = [False] * n
    free[ROOT] = True
    for node in g.u_node.values():
        free[node] = True
    on_s = [0] * n    # subtree cost with the node on the source side
    on_t = [0] * n    # subtree cost with the node on the sink side
    up = [0] * n      # capacity of the arc node -> parent
    down = [0] * n    # capacity of the arc parent -> node
    # A partial replica tied to its parent only through gadgets has no
    # pairwise cost, so it may hang directly off ROOT.
    parent = [ROOT] * n
    on_s[ROOT] = inf  # ROOT -> SINK
    for da in g.data_arcs:
        w = cap[da.arc]
        if da.sign > 0:
            if free[da.u]:
                up[da.u] += w
                parent[da.u] = da.v
            else:
                on_t[da.v] += w
        elif free[da.v]:
            down[da.v] += w
            parent[da.v] = da.u
        else:
            on_s[da.u] += w

    order = sorted(g.u_node.values(), reverse=True)
    for c in order:
        p, s, t = parent[c], on_s[c], on_t[c]
        on_t[p] += min(t, s + up[c])
        on_s[p] += min(t + down[c], s)

    source = [False] * n
    source[SOURCE] = True
    source[ROOT] = on_s[ROOT] < on_t[ROOT]
    for c in reversed(order):
        if source[parent[c]]:
            source[c] = on_s[c] < on_t[c] + down[c]
        else:
            source[c] = on_s[c] + up[c] < on_t[c]
    for da in g.data_arcs:
        if da.sign > 0 and not free[da.u]:
            # da.u is G, or M+ fed by G and by the cell's partial replica.
            if (source[da.v] or cap[da.arc] < inf
                    or (da.cond and source[g.u_node[da.cell]])):
                source[da.u] = source[g.g_node[da.cell]] = True

    value = min(on_s[ROOT], on_t[ROOT])
    reach = {v for v in range(n) if source[v]}
    crossing = tuple(da for da in g.data_arcs if source[da.u] and not source[da.v])
    blocking = _blocking(g) if value > g.unit_count else frozenset()
    return value, reach, crossing, blocking


def _extract_plans(g: FlowGraph, h: CubeHierarchy, reach: set[int],
                   crossing: Sequence[DataArc]) -> tuple[list[QueryPlan], set[Cell]]:
    per_query: list[list[tuple[Cell, int]]] = [[] for _ in range(g.num_queries)]
    retrieval: set[Cell] = set()
    for da in crossing:
        retrieval.add(da.cell)
        users = set(da.base)
        if da.cond:
            xu = g.u_node[da.cell]
            side = "S" if xu in reach else "T"
            wanted = "S" if da.sign > 0 else "T"
            if side == wanted:
                users.update(da.cond)
        for q in users:
            per_query[q].append((da.cell, da.sign))
    plans = []
    for terms in per_query:
        terms.sort(key=lambda t: (-t[1], -t[0].level, t[0].bounds.y0, t[0].bounds.x0))
        value = sum(s * h.value(c) for c, s in terms)
        plans.append(QueryPlan(tuple(terms), value))
    return plans, retrieval


def _check_feasible(g: FlowGraph, value: int, blocking: frozenset[Cell]):
    if value > g.unit_count:
        raise InfeasibleError(
            f"no finite cut: min cut {value} exceeds unit budget {g.unit_count}",
            blocking=blocking)


def _array_plan(h: CubeHierarchy, region: RectilinearRegion,
                lost: Sequence[np.ndarray] | None) -> QueryPlan | None:
    """`min_cut_plan`'s plan for one region, by the per-level rules of the
    module docstring; None when the lost points (one bool array per level,
    laid out as `h.level_array(k)`, or None) leave no finite cut."""
    levels = level_colors(h, region)
    if not levels:
        return QueryPlan((), 0)
    # A finite cut reads each cell at most once, so this exceeds every one.
    inf = 1 + sum(h.level_array(k).size for k in range(h.height + 1))
    weights = []  # per level, each cell's data-point cost: 1, or inf when lost
    subtree = []  # per level, each partial cell's subtree cost on S and on T
    s = t = 0
    for lc in levels:
        w = 1
        if lost is not None:
            w = np.ones(lc.grey.shape, dtype=np.int64)
            rows, cols = w.shape
            window = lost[lc.level][lc.j0:lc.j0 + rows, lc.i0:lc.i0 + cols]
            w[:window.shape[0], :window.shape[1]][window] = inf
        weights.append(w)
        subtree.append((s, t))
        to_s, to_t = lc.white * w, lc.grey * w
        if lc.level:  # level 0 holds no partial cell
            to_s = to_s + np.where(lc.partial, np.minimum(t + w, s), 0)
            to_t = to_t + np.where(lc.partial, np.minimum(t, s + w), 0)
        if lc.level < h.height:
            s, t = levels[lc.level + 1].gather(to_s), levels[lc.level + 1].gather(to_t)
    # ROOT -> SINK puts ROOT on S at cost inf, so a finite cut has ROOT on T.
    if to_t.sum() >= inf:
        return None

    plus, minus = [], []  # per level, from the top: cells on S under T, on T under S
    above = np.False_  # ROOT's side
    for k in range(h.height, -1, -1):
        lc, w, (s, t) = levels[k], weights[k], subtree[k]
        if k < h.height:
            above = levels[k + 1].spread(side)
        side = lc.grey | (lc.partial & np.where(above, s < t + w, s + w < t))
        turn = lc.in_tree & (side != above)
        plus.append((lc, turn & side))
        minus.append((lc, turn & ~side))

    terms, values = [], []
    for sign, picks in ((1, plus), (-1, minus)):
        for lc, pick in picks:
            js, is_ = np.nonzero(pick)
            cols, rows = (is_ + lc.i0).tolist(), (js + lc.j0).tolist()
            terms += [(c, sign) for c in h.config.indexed_cells(lc.level, cols, rows)]
            values += h.level_array(lc.level)[rows, cols].tolist()
    # Terms come in _extract_plans' order, and are summed in it.
    value = sum(s * v for (_, s), v in zip(terms, values))
    return QueryPlan(tuple(terms), value)


def plan_query(h: CubeHierarchy, region: RectilinearRegion,
               failed_cells: Iterable[Cell] = ()) -> QueryPlan:
    """`min_cut_plan(mark_failed(build_flow_graph(color_tree(h, region)),
    failed_cells), h)`, planned on the level arrays. Only an infeasible
    instance builds the graph, for the canonical InfeasibleError."""
    failed_cells = tuple(failed_cells)
    lost = None
    if failed_cells:
        lost = [np.zeros(h.level_array(k).shape, dtype=bool) for k in range(h.height + 1)]
        for cell in failed_cells:
            side = h.config.side(cell.level)
            lost[cell.level][cell.bounds.y0 // side, cell.bounds.x0 // side] = True
    plan = _array_plan(h, region, lost)
    if plan is None:
        return min_cut_plan(mark_failed(build_flow_graph(color_tree(h, region)), failed_cells), h)
    return plan


def min_cut_plan(g: FlowGraph, h: CubeHierarchy) -> QueryPlan:
    """The provably smallest signed data-point set answering the query.

    The cut is solved exactly by the two-pass tree DP of `_solve`. Ties
    between minimum cuts go to the sink side, which yields the canonical cut
    with the unique minimal source side (the nodes a maximum flow's residual
    graph reaches from the source). Raises InfeasibleError when failures
    leave no finite cut; its `blocking` holds the failed cells with a data
    point on a source-to-sink path of infinite arcs.
    """
    value, reach, crossing, blocking = _solve(g)
    _check_feasible(g, value, blocking)
    plans, _ = _extract_plans(g, h, reach, crossing)
    return plans[0]


@dataclass(frozen=True)
class CombinedResult:
    plans: tuple[QueryPlan, ...]
    retrieval: frozenset[Cell]
    cut_size: int
    from_combined: bool  # False when independent per-query optima were smaller


def combined_plan(trees: Sequence[HierarchyTree], h: CubeHierarchy,
                  failed_cells: Iterable[Cell] = ()) -> CombinedResult:
    """Jointly plan several queries, sharing data points across them.

    Solves one min cut over the merged graph and reads each query's plan off
    its own subgraph. Sharing a partial node across queries couples their cut
    decisions, which on rare inputs costs more than planning each query alone,
    or, under failures, leaves no finite merged cut although every query has
    one. So the independently-optimized union is kept as a fallback, and the
    smaller retrieval set wins. InfeasibleError, with the merged graph's
    blocking cells, is raised only when some query alone has no plan. A
    single tree's merged graph is its own graph, so the fallback could not
    win and is skipped.
    """
    failed = frozenset(failed_cells)
    g = _build_graph(list(trees))
    if failed:
        g = mark_failed(g, failed)
    value, reach, crossing, blocking = _solve(g)
    if len(trees) == 1:
        _check_feasible(g, value, blocking)
        plans, retrieval = _extract_plans(g, h, reach, crossing)
        return CombinedResult(tuple(plans), frozenset(retrieval), value, from_combined=True)

    try:
        individual_plans = [plan_query(h, tree.region, failed) for tree in trees]
    except InfeasibleError:
        # Each query's graph maps into the merged one, infinite arcs onto
        # infinite paths, so the merged graph has no finite cut either.
        _check_feasible(g, value, blocking)
        raise
    individual_points = set().union(*(plan.points() for plan in individual_plans))
    if value <= g.unit_count:
        plans, retrieval = _extract_plans(g, h, reach, crossing)
        if len(retrieval) <= len(individual_points):
            return CombinedResult(tuple(plans), frozenset(retrieval), value, from_combined=True)
    return CombinedResult(tuple(individual_plans), frozenset(individual_points),
                          len(individual_points), from_combined=False)
