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
plans and the shared retrieval set.

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

Every plan is made by `_array_plan` on the level arrays of
`hierarchy.level_colors`, with no tree node and no network: the rules of
`_solve`, one level at a time. Lost points come as one bool array per level
(`recovery.lost_points`, or the failed cells of `combined_plan`). A cell's
data point costs w = 1, or a sentinel larger than any finite cut when it is
lost, as `mark_failed` makes it. A cell's flags are ORed over the queries
whose tree holds it: G, grey in some query; W, white in some; P, partial in
some. With S the source side and T the sink side, a cell whose subtree costs
s on S and t on T adds G*w + P*min(t, s + (not G)*w) to its parent's cost on
T and W*w + P*min(s, t + (not W)*w) to its cost on S: a grey or white
replica's arc is paid on its parent's side, and a partial replica pays its
own arc only when no M+ or M- gadget carries it. With one query and no lost
point, a level-1 cell's t is its count of region locations and its s the
rest of its area. ROOT -> SINK puts ROOT on T in every finite cut. Top down,
a partial cell under a parent on S goes to S iff s < t + (not W)*w, and
under a parent on T iff s + (not G)*w < t: `_solve`'s tie rule. A query's
side of a cell is S where the cell is grey in it, T where white, and the
merged side where partial. Its plan terms are its tree cells whose side
differs from their parent's, + for a cell on S under a parent on T and - the
other way round; the retrieval set is the union of all terms, and the cut
size the DP's value.

The DP runs on a stack of rows: each query's own flags and, for a batch,
their union. The per-query rows are `combined_plan`'s fallback. Sharing a
partial replica couples the queries' decisions, which on rare inputs costs
more than planning each query alone, or, under failures, leaves no finite
merged cut although every query has one; the smaller retrieval set wins,
ties going to the merged cut. The network stays as the reduction written
out and the tests' oracle. Only a plan in which some query alone has no
finite cut builds it, for the canonical blocking cells and the error
message. It reads its colors from `level_colors` too: of a `HierarchyTree`
it takes the hierarchy and region, and builds no node.
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


def _no_cut(g: FlowGraph, value: int, blocking: frozenset[Cell]) -> InfeasibleError:
    return InfeasibleError(
        f"no finite cut: min cut {value} exceeds unit budget {g.unit_count}",
        blocking=blocking)


def _check_feasible(g: FlowGraph, value: int, blocking: frozenset[Cell]):
    if value > g.unit_count:
        raise _no_cut(g, value, blocking)


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


def _lost_masks(h: CubeHierarchy, failed_cells: Iterable[Cell]) -> list[np.ndarray] | None:
    """The failed cells as one bool array per level, laid out as
    `h.level_array(k)`; None when there are none."""
    lost = None
    for cell in failed_cells:
        if lost is None:
            lost = [np.zeros(h.level_array(k).shape, dtype=bool) for k in range(h.height + 1)]
        side = h.config.side(cell.level)
        lost[cell.level][cell.bounds.y0 // side, cell.bounds.x0 // side] = True
    return lost


def _array_plan(h: CubeHierarchy, regions: Sequence[RectilinearRegion],
                lost: Sequence[np.ndarray] | None
                ) -> tuple[tuple[QueryPlan, ...], list[Cell], int, bool] | None:
    """The fields of `combined_plan`'s result for `regions`, by the
    per-level rules of the module docstring, with the retrieval set as a
    list of the terms' cells; None when the lost points (one bool array per
    level, laid out as `h.level_array(k)`, or None) leave some region alone
    no finite cut."""
    n = len(regions)
    # One region's arrays come without the query axis, which numpy would
    # broadcast against the per-level weights.
    levels = level_colors(h, regions if n > 1 else regions[0])
    if not levels:
        return (QueryPlan((), 0),) * n, [], 0, True
    # A finite cut reads each cell at most once, so this exceeds every one.
    inf = 1 + sum(h.level_array(k).size for k in range(h.height + 1))

    def with_union(flags, lc):
        """Each query's flags and, for a batch, their union over the tree."""
        if n == 1:
            return flags
        return np.concatenate((flags, (flags & lc.in_tree).any(axis=0, keepdims=True)))

    subtree = []  # per level, each row's partial flags, pairwise costs up and
                  # down, and partial cells' subtree costs on S and on T
    s = t = 0
    for lc in levels:
        # Each point costs 1. As True, the products with a bool flag stay
        # bool, a byte per cell: a batch's window can span the whole grid.
        w = True
        if lost is not None:
            w = np.ones(lc.grey.shape[-2:], dtype=np.int64)
            window = lost[lc.level][lc.j0:lc.j0 + w.shape[0], lc.i0:lc.i0 + w.shape[1]]
            w[:window.shape[0], :window.shape[1]][window] = inf
        grey, white = with_union(lc.grey, lc), with_union(lc.white, lc)
        to_s, to_t = white * w, grey * w
        if lc.level:  # level 0 holds no partial cell
            partial, up, down = with_union(lc.partial, lc), w, w
            if n > 1:  # one query's partial cells are neither grey nor white in it
                up, down = ~grey * w, ~white * w
            to_s = to_s + np.where(partial, np.minimum(s, t + down), 0)
            to_t = to_t + np.where(partial, np.minimum(t, s + up), 0)
            subtree.append((partial, up, down, s, t))
        if lc.level < h.height:
            s, t = levels[lc.level + 1].gather(to_s), levels[lc.level + 1].gather(to_t)
    # ROOT -> SINK puts ROOT on S at cost inf, so a finite cut has ROOT on T.
    cut = to_t.sum(axis=(-2, -1)).reshape(-1)  # per row
    if (cut[:n] >= inf).any():
        return None

    on_s = [None] * (h.height + 1)  # per level, each row's partial cells on S
    above = [None] * (h.height + 1)  # per level, each row's parents on S
    above[h.height] = np.zeros(to_t.shape, dtype=bool)  # ROOT on T
    for k in range(h.height, 0, -1):
        partial, up, down, s, t = subtree[k - 1]
        on_s[k] = partial & np.where(above[k], s < t + down, s + up < t)
        above[k - 1] = levels[k].spread(on_s[k])

    def turns(row):
        """Per level from the top: each query's cells on S under T and on T
        under S, with its partial cells on the sides of `row(on_s[k])`."""
        out = []
        for k in range(h.height, -1, -1):
            lc = levels[k]
            side = lc.grey | (lc.partial & row(on_s[k])) if k else lc.grey
            turn = lc.in_tree & (side != row(above[k]))
            out.append((lc, (turn & side).reshape((n,) + turn.shape[-2:]),
                        (turn & ~side).reshape((n,) + turn.shape[-2:])))
        return out

    # The merged row is the union's, or the one query's. A finite cut
    # crosses each cell's arcs at most once, and every crossing arc is some
    # query's term, so the merged retrieval set has the cut's size.
    merged = (lambda a: a) if n == 1 else (lambda a: a[-1:])
    picks, cut_size, from_combined = turns(merged), int(cut[-1]), True
    if n > 1:
        alone = turns(lambda a: a[:n])
        alone_size = sum(int((plus | minus).any(axis=0).sum()) for _, plus, minus in alone)
        if cut_size > alone_size:  # also when the merged cut is infinite
            picks, cut_size, from_combined = alone, alone_size, False

    plans, retrieval = [], []
    for q in range(n):
        terms, values = [], []
        for sign in (1, -1):
            for lc, plus, minus in picks:
                js, is_ = np.nonzero((plus if sign > 0 else minus)[q])
                cols, rows = (is_ + lc.i0).tolist(), (js + lc.j0).tolist()
                cells = h.config.indexed_cells(lc.level, cols, rows)
                retrieval += cells
                terms += [(c, sign) for c in cells]
                values += h.level_array(lc.level)[rows, cols].tolist()
        # Terms come in _extract_plans' order, and are summed in it.
        plans.append(QueryPlan(tuple(terms), sum(s * v for (_, s), v in zip(terms, values))))
    return tuple(plans), retrieval, cut_size, from_combined


def plan_query(h: CubeHierarchy, region: RectilinearRegion,
               failed_cells: Iterable[Cell] = ()) -> QueryPlan:
    """`min_cut_plan(mark_failed(build_flow_graph(color_tree(h, region)),
    failed_cells), h)`: `combined_plan`'s plan for the one region."""
    return combined_plan([color_tree(h, region)], h, failed_cells).plans[0]


def combined_plan(trees: Sequence[HierarchyTree], h: CubeHierarchy,
                  failed_cells: Iterable[Cell] = ()) -> CombinedResult:
    """Jointly plan one or several queries, sharing data points across them.

    One cut DP over the level arrays, with every cell's flags ORed over the
    queries, gives the merged network's canonical cut; each query's plan is
    read off its own tree. The same pass plans each query alone, and the
    smaller retrieval set wins, ties going to the merged cut (see the module
    docstring). One tree's merged cut is its own, so it always wins.
    InfeasibleError, with the merged network's blocking cells, is raised
    only when some query alone has no plan.
    """
    trees = list(trees)
    if not trees:
        raise ValidationError("combined_plan needs at least one colored tree")
    if any(tree.hierarchy is not h for tree in trees):
        raise ValidationError("every tree must be colored over the hierarchy it is planned on")
    failed = frozenset(failed_cells)
    planned = _array_plan(h, [tree.region for tree in trees], _lost_masks(h, failed))
    if planned is None:
        # Each query's graph maps into the merged one, infinite arcs onto
        # infinite paths, so the merged graph has no finite cut either.
        g = mark_failed(_build_graph(trees), failed)
        value, _, _, blocking = _solve(g)
        raise _no_cut(g, value, blocking)
    plans, retrieval, cut_size, from_combined = planned
    return CombinedResult(plans, frozenset(retrieval), cut_size, from_combined)
