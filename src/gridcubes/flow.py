"""Min-cut query planning over colored hierarchy trees.

The colored tree becomes a flow network: a source feeds every grey node
through an infinite edge, every white node plus a synthetic root drains into
a sink through infinite edges, and each containment edge (child to parent)
carries unit capacity in both directions, standing for one data point, the
child cell's stored summary. A finite s-t cut assigns the partial nodes to
the source or sink side; each crossing unit edge contributes the child's
value, positive when the child sits on the source side and negative
otherwise, so every finite cut evaluates to the exact region aggregate and
the minimum cut reads the fewest data points. Infinity is one above the
total unit capacity, so an infeasible instance (possible only after
failures) shows as a cut value above that budget.

For several queries the graphs are merged: a cell colored the same way in
every query keeps one node, and a cell in different color groups gets one
replica per group. When a grey or white replica coexists with a partial
replica of the same cell, a gadget node funnels both through one unit edge,
so that no two edges of one data point cross the same cut; the one min cut
gives every query's plan and the shared retrieval set.

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

Failures are one `FailureSet`: dead nodes, dead areas and lost data points
(cells whose summary is unreadable while their nodes stay alive).
`lost_points` is the one code that turns it into the planner's lost masks,
one bool array per level; `combined_plan` takes a FailureSet or Cells, read
as lost points, and `mark_failed` checks its cells through `lost_points` too.
A FailureSet builds its dead mask once per grid size and its lost masks
once per cube layout, read-only, so every query and recovery that shares it
reads the same arrays.

Every plan is made by `_array_plan` on the level arrays of
`hierarchy.level_colors`, with no tree node and no network: the rules of
`_solve`, one level at a time. A cell's data point costs w = 1, or a
sentinel larger than any finite cut when it is lost. A cell's flags are ORed
over the queries whose tree holds it: G, grey in some query; W, white in
some; P, partial in some. With S the source side and T the sink side, a cell
whose subtree costs s on S and t on T adds G*w + P*min(t, s + (not G)*w) to
its parent's cost on T and W*w + P*min(s, t + (not W)*w) to its cost on S: a
grey or white replica's arc is paid on its parent's side, and a partial
replica pays its own arc only when no M+ or M- gadget carries it. ROOT ->
SINK puts ROOT on T in every finite cut. Top down, a partial cell under a
parent on S goes to S iff s < t + (not W)*w, and under a parent on T iff
s + (not G)*w < t: `_solve`'s tie rule. A query's side of a cell is S where
the cell is grey in it, T where white, and the merged side where partial.
Its plan terms are its tree cells whose side differs from their parent's, +
for a cell on S under a parent on T and - the other way round: `_cut` gives
them as masks per level, with the cut size (the DP's value), and
`_array_plan` makes their Cells, signs and values. The retrieval set is the
union of all terms. A caller that needs only the size, as recovery does for
a query's alive part, takes it from `_cut` and builds no Cell.

The DP runs on a stack of rows: each query's own flags and, for a batch,
their union. The per-query rows are `combined_plan`'s fallback. Sharing a
partial replica couples the queries' decisions, which on rare inputs costs
more than planning each query alone, or, under failures, leaves no finite
merged cut although every query has one; the smaller retrieval set wins,
ties going to the merged cut.

When some query alone has no finite cut, the merged network has none.
`_cut` then stops and reports it, with nothing built: `plan_with_failures`
recovers the query instead, and only `combined_plan` (so `plan_query` and
the CLI's `plan`) builds the merged network's InfeasibleError, from the
union flags too (`_infeasible`). Its unit budget U counts [G or P] +
[W or P] over the union tree's cells, and its min cut is min(cost with ROOT
on T, U + 1 + cost with ROOT on S), a lost point costing U + 1. Its
blocking cells are the lost cells whose + arc runs from a
source-reached tail (grey, or a source-reached partial replica) to a
sink-reaching parent, or whose - arc runs from a source-reached parent to a
sink-reaching head (white, or a sink-reaching partial replica). A partial
replica is source-reached when it holds a lost child that is grey or
source-reached from below, or when it is lost under a source-reached
parent; sink-reaching mirrors this with white for grey, and ROOT reaches
the sink. One pass up over `gather` and one down over `spread` give both.
The network is the reduction written out and the tests' oracle: only tests,
demos and the benchmark's check build it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import BoundsError, InfeasibleError, ValidationError
from .grid import Coord, GridDims, RectilinearRegion
from .hierarchy import (Cell, Color, CubeHierarchy, HierarchyConfig, HierarchyTree, color_tree,
                        level_colors)

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

    def __init__(self, hierarchy, num_queries, node_kind, arc_to, arc_cap,
                 data_arcs, u_node, g_node, unit_count, failed=frozenset()):
        self.hierarchy = hierarchy
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
        """The side every finite cut puts the node on, None for a free node."""
        kind = self.node_kind[node]
        role = kind if isinstance(kind, str) else kind[1]
        return ("S" if role in ("s", "G", "M+")
                else "T" if role in ("t", "root", "W", "M-") else None)


_COLOR_SLOT = {Color.GREY: 0, Color.WHITE: 1, Color.PARTIAL: 2}


def _record_colors(trees: Sequence[HierarchyTree]):
    """Per cell: the queries coloring it grey, white and partial, and its
    parent cell (None on top). A cell is recorded when it is first popped,
    after its parent, so every parent comes before its children."""
    records: dict[Cell, tuple[tuple[set[int], set[int], set[int]], Cell | None]] = {}
    for qi, tree in enumerate(trees):
        stack = [(node, None) for node in tree.root.children]
        while stack:
            node, parent = stack.pop()
            record = records.get(node.cell)
            if record is None:
                record = records[node.cell] = ((set(), set(), set()), parent)
            record[0][_COLOR_SLOT[node.color]].add(qi)
            stack.extend((child, node.cell) for child in node.children)
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

    return FlowGraph(h, len(trees), node_kind, arc_to, arc_cap,
                     data_arcs, u_node, g_node, unit_count)


def build_flow_graph(tree: HierarchyTree) -> FlowGraph:
    return _build_graph([tree])


def mark_failed(g: FlowGraph, failed_cells: Iterable[Cell]) -> FlowGraph:
    """Raise the capacity of each failed cell's data-point edges to infinity.

    An infinite edge can never be part of a finite cut, so the planner is
    forced around the failed summaries or reports infeasibility. As the
    planner does, it raises BoundsError for a cell that is not one of the
    cube's cells.
    """
    failed = g.failed | frozenset(failed_cells)
    lost_points(g.hierarchy, FailureSet(points=failed))
    cap = list(g.arc_cap)
    for da in g.data_arcs:
        if da.cell in failed:
            cap[da.arc] = g.inf
    return FlowGraph(g.hierarchy, g.num_queries, g.node_kind, g.arc_to, cap,
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
    """Exact minimum s-t cut of `g` by the two passes of the module
    docstring over the replica tree, whose free nodes are ROOT and the
    partial replicas.

    Returns (cut value, source-side node set, crossing data arcs, blocking
    cells); the cut value equals the maximum flow, and blocking is empty
    unless the value exceeds the unit budget. Parents' partial replicas are
    created before their children's, so descending node ids visit children
    first. Only when the instance is infeasible can a grey-side node tie,
    when its own data arc is infinite and its parent end (and, for M+, its
    cell's partial replica) sits on the sink side; it then goes to the sink
    side too.
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


def _infeasible_error(value: int, budget: int, blocking: Iterable[Cell]) -> InfeasibleError:
    return InfeasibleError(f"no finite cut: min cut {value} exceeds unit budget {budget}",
                           blocking=blocking)


def min_cut_plan(g: FlowGraph, h: CubeHierarchy) -> QueryPlan:
    """The provably smallest signed data-point set answering the query, from
    the canonical cut of `_solve`. InfeasibleError when failures leave no
    finite cut; its `blocking` holds the failed cells with a data point on a
    source-to-sink path of infinite arcs.
    """
    value, reach, crossing, blocking = _solve(g)
    if value > g.unit_count:
        raise _infeasible_error(value, g.unit_count, blocking)
    plans, _ = _extract_plans(g, h, reach, crossing)
    return plans[0]


@dataclass(frozen=True)
class CombinedResult:
    plans: tuple[QueryPlan, ...]
    retrieval: frozenset[Cell]
    cut_size: int
    from_combined: bool  # False when independent per-query optima were smaller


@dataclass(frozen=True)
class FailureSet:
    """Failures of three kinds: dead nodes, dead areas (`cells`, every node
    of each cell) and lost data points (`points`, cells whose summary is
    unreadable while their nodes stay alive).

    Its dead mask, per grid size, and its lost masks, per cube layout, are
    built on first use and kept read-only, so every query and recovery that
    shares the FailureSet reads the same arrays."""

    nodes: frozenset[Coord] = frozenset()
    cells: frozenset[Cell] = frozenset()
    points: frozenset[Cell] = frozenset()
    _dead: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _lost: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, nodes=(), cells=(), points=()) -> "FailureSet":
        return cls(frozenset(nodes), frozenset(cells), frozenset(points))

    def area(self) -> frozenset[Coord]:
        """The dead locations one by one: the tests' reference for `dead`."""
        return frozenset(self.nodes).union(*(c.bounds.coords() for c in self.cells))

    def dead(self, dims: GridDims) -> np.ndarray:
        """The dead nodes and every location of the dead areas as one
        read-only mask, indexed [y, x]; BoundsError for a node or area off
        the grid."""
        dead = self._dead.get(dims)
        if dead is None:
            dead = self._dead[dims] = self._dead_mask(dims)
        return dead

    def _dead_mask(self, dims: GridDims) -> np.ndarray:
        dead = np.zeros((dims.height, dims.width), dtype=bool)
        nodes = np.array(list(self.nodes), dtype=np.int64).reshape(-1, 2)
        off = ((nodes < 0) | (nodes >= (dims.width, dims.height))).any(axis=1)
        if off.any():
            raise BoundsError(f"{tuple(nodes[off][0].tolist())} outside grid {dims}")
        dead[nodes[:, 1], nodes[:, 0]] = True
        for c in self.cells:
            b = c.bounds
            if not (dims.contains((b.x0, b.y0)) and dims.contains((b.x1, b.y1))):
                raise BoundsError(f"{c.label()} outside grid {dims}")
            dead[b.y0:b.y1 + 1, b.x0:b.x1 + 1] = True
        dead.setflags(write=False)
        return dead

    def lost(self, config: HierarchyConfig) -> tuple[np.ndarray, ...]:
        """`lost_points`' masks for cubes of this layout, read-only."""
        lost = self._lost.get(config)
        if lost is None:
            lost = self._lost[config] = self._lost_masks(config)
        return lost

    def _lost_masks(self, config: HierarchyConfig) -> tuple[np.ndarray, ...]:
        dims = config.dims
        dead = self.dead(dims)
        lost = [dead.copy() if self.points else dead]
        for level in range(1, config.height + 1):
            _, x1s, _, y1s = config.block_edges(level)
            lost.append(dead[np.ix_(y1s, x1s)])
        for cell in self.points:
            b = cell.bounds
            side = config.side(cell.level) if 0 <= cell.level <= config.height else 0
            if not side or any(not 0 <= lo < n or lo % side or hi != min(lo + side, n) - 1
                               for lo, hi, n in ((b.x0, b.x1, dims.width),
                                                 (b.y0, b.y1, dims.height))):
                raise BoundsError(f"{cell!r} is not a cell of the cube")
            lost[cell.level][b.y0 // side, b.x0 // side] = True
        for mask in lost:
            mask.setflags(write=False)
        return tuple(lost)


def lost_points(h: CubeHierarchy, failures: FailureSet) -> tuple[np.ndarray, ...] | None:
    """The planner's lost masks: per level k, the unreadable summaries as a
    bool array laid out as `h.level_array(k)`, those whose junction is dead
    (the dead mask at each block's last row and column) and the lost data
    points. They are `failures.lost(h.config)`, built once per layout and
    read-only. None when nothing failed; BoundsError for a node or area off
    the grid, or a lost point that is not one of `h`'s cells."""
    if not (failures.nodes or failures.cells or failures.points):
        return None
    return failures.lost(h.config)


def failed_datapoints(h: CubeHierarchy, failures: FailureSet) -> set[Cell]:
    """The Cells whose stored summary is lost, as `lost_points` gives them."""
    out: set[Cell] = set()
    for level, lost in enumerate(lost_points(h, failures) or ()):
        rows, cols = np.nonzero(lost)
        out.update(h.config.indexed_cells(level, cols.tolist(), rows.tolist()))
    return out


def _cut(h: CubeHierarchy, regions: Sequence[RectilinearRegion],
         lost: Sequence[np.ndarray] | None):
    """The cut `_array_plan` reads its plans from, by the per-level rules
    of the module docstring: per level from the top, its LevelColors and
    each query's cells on S under a parent on T (+) and on T under S (-),
    then the cut size and whether the merged cut won. When the lost points
    (`lost_points`' masks, or None) leave some region alone no finite cut,
    it raises `_NoFiniteCut`, having built no blocking Cell."""
    n = len(regions)
    levels = level_colors(h, regions)
    if not levels:
        return [], 0, True
    # A finite cut reads each cell at most once, so this exceeds every one.
    inf = 1 + sum(h.level_array(k).size for k in range(h.height + 1))

    def union(flags, lc):
        """The flags ORed over the queries whose tree holds the cell."""
        return (flags & lc.in_tree).any(axis=0)

    def with_union(flags, lc):
        """Each query's flags and, for a batch, their union."""
        return flags if n == 1 else np.concatenate((flags, union(flags, lc)[None]))

    subtree = []  # per level, each row's partial flags, pairwise costs up and
                  # down, and partial cells' subtree costs on S and on T
    weights = []  # per level, each cell's point cost
    s = t = 0
    for lc in levels:
        # Each point costs 1. As bools, the products with a bool flag stay
        # bool, a byte per cell: a batch's window can span the whole grid.
        # An array, not the scalar True: numpy's bool ops with a scalar
        # operand run about 15 times slower.
        w = np.ones(lc.grey.shape[-2:], dtype=bool if lost is None else np.int64)
        if lost is not None:
            window = lost[lc.level][lc.j0:lc.j0 + w.shape[0], lc.i0:lc.i0 + w.shape[1]]
            w[:window.shape[0], :window.shape[1]][window] = inf
        weights.append(w)
        grey, white = with_union(lc.grey, lc), with_union(lc.white, lc)
        to_s, to_t = white * w, grey * w
        if lc.level:  # level 0 holds no partial cell
            # A query's own partial cells are neither grey nor white in it.
            partial, up, down = with_union(lc.partial, lc), ~grey * w, ~white * w
            to_s = to_s + np.where(partial, np.minimum(s, t + down), 0)
            to_t = to_t + np.where(partial, np.minimum(t, s + up), 0)
            subtree.append((partial, up, down, s, t))
        if lc.level < h.height:
            s, t = levels[lc.level + 1].gather(to_s), levels[lc.level + 1].gather(to_t)
    # ROOT -> SINK puts ROOT on S at cost inf, so a finite cut has ROOT on T.
    cut = to_t.sum(axis=(-2, -1))  # per row
    if (cut[:n] >= inf).any():  # some query alone has no finite cut, so the merged one has none
        value = min(int(cut[-1]), inf + int(to_s.sum(axis=(-2, -1))[-1]))
        raise _NoFiniteCut(lambda: _infeasible(h, levels, weights, inf, value))

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
            out.append((lc, turn & side, turn & ~side))
        return out

    # The merged row is the last: the union's, or the one query's. A finite
    # cut crosses each cell's arcs at most once, and every crossing arc is
    # some query's term, so the merged retrieval set has the cut's size.
    picks, cut_size, from_combined = turns(lambda a: a[-1:]), int(cut[-1]), True
    if n > 1:
        alone = turns(lambda a: a[:n])
        alone_size = sum(int((plus | minus).any(axis=0).sum()) for _, plus, minus in alone)
        if cut_size > alone_size:  # also when the merged cut is infinite
            picks, cut_size, from_combined = alone, alone_size, False
    return picks, cut_size, from_combined


class _NoFiniteCut(Exception):
    """`_cut` found a region with no finite cut alone. `error()` builds the
    merged network's InfeasibleError, which only a caller that raises it
    pays for: `combined_plan` does, `plan_with_failures` recovers instead."""

    def __init__(self, error):
        super().__init__()
        self.error = error


def _infeasible(h: CubeHierarchy, levels, weights, inf: int, value: int) -> InfeasibleError:
    """The merged network's InfeasibleError, read off `_cut`'s LevelColors,
    point costs and min cut `value` (lost arcs at cost `inf`): its unit
    budget and blocking cells by the two passes of the module docstring."""
    flags = [tuple((a & lc.in_tree).any(axis=0) for a in (lc.grey, lc.white, lc.partial))
             + (w >= inf,) for lc, w in zip(levels, weights)]
    budget = sum(int((g | p).sum() + (wh | p).sum()) for g, wh, p, _ in flags)
    ups = []  # per level: partial replicas source-reached and sink-reaching from below
    for lc, (g, wh, p, lo) in zip(levels, flags):
        ups.append(tuple(p & (lc.gather(a) > 0) for a in arcs) if lc.level else (p, p))
        # The lost + arcs from a source-reached tail, - arcs to a sink-reaching head.
        arcs = lo & (g | ups[-1][0]), lo & (wh | ups[-1][1])
    src_above, snk_above, blocking = arcs[0].any(), True, []  # ROOT -> SINK
    for lc, (g, wh, p, lo), (src, snk) in reversed(list(zip(levels, flags, ups))):
        src, snk = src | lo & p & src_above, snk | lo & p & snk_above
        js, is_ = np.nonzero(lo & ((g | p & src) & snk_above | src_above & (wh | p & snk)))
        blocking += h.config.indexed_cells(lc.level, (is_ + lc.i0).tolist(),
                                           (js + lc.j0).tolist())
        if lc.level:
            src_above, snk_above = lc.spread(src), lc.spread(snk)
    # A side costs lost arcs * inf + finite arcs; the network's lost arc costs U + 1.
    lost_arcs, finite = divmod(value, inf)
    return _infeasible_error(lost_arcs * (budget + 1) + finite, budget, blocking)


def _array_plan(h: CubeHierarchy, regions: Sequence[RectilinearRegion],
                lost: Sequence[np.ndarray] | None
                ) -> tuple[tuple[QueryPlan, ...], list[Cell], int, bool]:
    """The fields of `combined_plan`'s result for `regions`, read off
    `_cut`: each query's terms are its + cells, then its - cells, level by
    level from the top, with their Cells and values, and the retrieval set
    is a list of the terms' cells. `_cut`'s `_NoFiniteCut` passes through."""
    picks, cut_size, from_combined = _cut(h, regions, lost)
    plans, retrieval = [], []
    for q in range(len(regions)):
        terms, values = [], []
        for sign in (1, -1):
            for lc, plus, minus in picks:
                js, is_ = np.nonzero((plus if sign > 0 else minus)[q])
                cols, rows = (is_ + lc.i0).tolist(), (js + lc.j0).tolist()
                cells = h.config.indexed_cells(lc.level, cols, rows)
                retrieval += cells
                terms += zip(cells, repeat(sign))
                summaries = h.level_array(lc.level)[rows, cols].tolist()
                values += summaries if sign > 0 else [-v for v in summaries]
        # Terms come in _extract_plans' order, and are summed in it, signed.
        plans.append(QueryPlan(tuple(terms), sum(values)))
    return tuple(plans), retrieval, cut_size, from_combined


def plan_query(h: CubeHierarchy, region: RectilinearRegion,
               failed_cells: FailureSet | Iterable[Cell] = ()) -> QueryPlan:
    """`min_cut_plan(mark_failed(build_flow_graph(color_tree(h, region)),
    failed_cells), h)`: `combined_plan`'s plan for the one region."""
    return combined_plan([color_tree(h, region)], h, failed_cells).plans[0]


def combined_plan(trees: Sequence[HierarchyTree], h: CubeHierarchy,
                  failed_cells: FailureSet | Iterable[Cell] = ()) -> CombinedResult:
    """Jointly plan one or several queries, sharing data points across them.

    One cut DP over the level arrays, with every cell's flags ORed over the
    queries, gives the merged network's canonical cut; each query's plan is
    read off its own tree. The same pass plans each query alone, and the
    smaller retrieval set wins, ties going to the merged cut (see the module
    docstring). One tree's merged cut is its own, so it always wins.
    `failed_cells` is a FailureSet, or Cells taken as its lost data points.
    InfeasibleError, with the merged network's message and blocking cells
    read off the same arrays, only when some query alone has no plan;
    BoundsError for a lost point that is not one of `h`'s cells.
    """
    trees = list(trees)
    if not trees:
        raise ValidationError("combined_plan needs at least one colored tree")
    if any(tree.hierarchy is not h for tree in trees):
        raise ValidationError("every tree must be colored over the hierarchy it is planned on")
    failures = (failed_cells if isinstance(failed_cells, FailureSet)
                else FailureSet.of(points=failed_cells))
    try:
        plans, retrieval, cut_size, from_combined = _array_plan(
            h, [tree.region for tree in trees], lost_points(h, failures))
    except _NoFiniteCut as cut:
        raise cut.error() from None
    return CombinedResult(plans, frozenset(retrieval), cut_size, from_combined)
