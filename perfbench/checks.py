"""Output checks that recompute every answer from the raw readings.

Nothing here calls into `gridcubes` except `min_cut_size_errors`, which is
handed the program's flow graph and solves it with networkx.  Each check
returns a list of error strings; an empty list means the output passed.

Geometry conventions follow the program's public contract: `(x, y)` with x
the column and y the row, inclusive rectangle bounds, and a level-k cell of
side `prod(fanouts[:k])` anchored at multiples of that side (clipped at the
grid edge) whose junction is its lower-right node.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class Grid:
    """Readings plus an integral image for exact rectangle sums."""

    def __init__(self, values: np.ndarray, fanouts):
        self.values = np.asarray(values, dtype=np.int64)
        self.height, self.width = self.values.shape
        self.fanouts = tuple(fanouts)
        integral = np.zeros((self.height + 1, self.width + 1), dtype=np.int64)
        integral[1:, 1:] = self.values.cumsum(axis=0).cumsum(axis=1)
        self.integral = integral

    @property
    def levels(self) -> int:
        return len(self.fanouts)

    def side(self, level: int) -> int:
        return math.prod(self.fanouts[:level])

    def rect_sum(self, x0: int, y0: int, x1: int, y1: int) -> int:
        if x1 < x0 or y1 < y0:
            return 0
        s = self.integral
        return int(s[y1 + 1, x1 + 1] - s[y0, x1 + 1] - s[y1 + 1, x0] + s[y0, x0])

    def mask(self, rects) -> np.ndarray:
        """Boolean region mask from inclusive (x0, y0, x1, y1) rectangles."""
        m = np.zeros((self.height, self.width), dtype=bool)
        for x0, y0, x1, y1 in rects:
            m[y0:y1 + 1, x0:x1 + 1] = True
        return m

    def masked_sum(self, mask: np.ndarray) -> int:
        return int(self.values[mask].sum())

    def cell_bounds(self, level: int, p) -> tuple[int, int, int, int]:
        """Bounds of the level-`level` cell holding node p."""
        s = self.side(level)
        x0 = p[0] // s * s
        y0 = p[1] // s * s
        return x0, y0, min(x0 + s, self.width) - 1, min(y0 + s, self.height) - 1

    def is_cell(self, level: int, bounds) -> bool:
        if not 0 <= level <= self.levels:
            return False
        x0, y0, x1, y1 = bounds
        if not (0 <= x0 <= x1 < self.width and 0 <= y0 <= y1 < self.height):
            return False
        return self.cell_bounds(level, (x0, y0)) == tuple(bounds)

    def junction_level(self, p) -> int:
        """Highest level whose cell has p as its lower-right node."""
        level = 0
        for k in range(1, self.levels + 1):
            s = self.side(k)
            if (((p[0] + 1) % s == 0 or p[0] == self.width - 1)
                    and ((p[1] + 1) % s == 0 or p[1] == self.height - 1)):
                level = k
            else:
                break
        return level

    def level_value(self, p, level: int) -> int:
        """Stored level-`level` value at node p under the prefix scheme.

        The sum of the level-(level-1) cells inside p's level-`level` cell
        whose junctions p dominates; for a level-`level` junction that is
        the whole cell sum.
        """
        x0, y0, x1, y1 = self.cell_bounds(level, p)
        s = self.side(level - 1)

        def last(c, lo, hi):
            return hi if c == hi else lo + (c - lo + 1) // s * s - 1

        return self.rect_sum(x0, y0, last(p[0], x0, x1), last(p[1], y0, y1))


def _term_errors(grid: Grid, label: str, terms, value) -> list[str]:
    """Terms are (level, x0, y0, x1, y1, sign) and must sum to value."""
    errors = []
    total = 0
    for level, x0, y0, x1, y1, sign in terms:
        if not grid.is_cell(level, (x0, y0, x1, y1)):
            errors.append(f"{label}: term L{level}({x0},{y0})-({x1},{y1}) is not a cube cell")
        if sign not in (1, -1):
            errors.append(f"{label}: term sign {sign}")
        total += sign * grid.rect_sum(x0, y0, x1, y1)
    if total != value:
        errors.append(f"{label}: signed term sum {total} != reported value {value}")
    return errors


def plan_errors(grid: Grid, mask: np.ndarray, label: str, value, size: int,
                terms) -> list[str]:
    """A min-cut plan: its value is the region sum and its terms rebuild it."""
    errors = []
    expected = grid.masked_sum(mask)
    if value != expected:
        errors.append(f"{label}: value {value} != numpy sum {expected}")
    if size != len(terms):
        errors.append(f"{label}: size {size} != {len(terms)} terms")
    return errors + _term_errors(grid, label, terms, expected)


def min_cut_size_errors(label: str, size: int, flow_graph) -> list[str]:
    """A single-query plan has as many points as the graph's max flow."""
    import networkx as nx  # here, so that only the workload using it pays its memory

    g = nx.DiGraph()
    for i in range(0, len(flow_graph.arc_to), 2):
        u, v = flow_graph.arc_to[i + 1], flow_graph.arc_to[i]
        cap = flow_graph.arc_cap[i]
        if g.has_edge(u, v):
            g[u][v]["capacity"] += cap
        else:
            g.add_edge(u, v, capacity=cap)
    flow = nx.maximum_flow_value(g, 0, 1) if g.has_node(0) and g.has_node(1) else 0
    if size != flow:
        return [f"{label}: plan size {size} != networkx max flow {flow}"]
    return []


def retrieval_errors(label: str, per_query_terms, retrieval) -> list[str]:
    """A batch reads exactly the union of its queries' term cells."""
    union = {tuple(t[:5]) for terms in per_query_terms for t in terms}
    got = [tuple(c) for c in retrieval]
    errors = []
    if len(set(got)) != len(got):
        errors.append(f"{label}: retrieval set lists a cell twice")
    if set(got) != union:
        errors.append(f"{label}: retrieval set of {len(set(got))} cells != union of "
                      f"{len(union)} term cells")
    return errors


def maximal_inside_cells(grid: Grid, mask: np.ndarray) -> int:
    """Number of cells fully inside the region whose parent is not.

    Computed from block sums of the mask; a level-0 cell is one node.
    """
    m = mask.astype(np.int64)
    inside = [m == 1]
    for level in range(1, grid.levels + 1):
        s = grid.side(level)
        rows = np.arange(0, grid.height, s)
        cols = np.arange(0, grid.width, s)
        sums = np.add.reduceat(np.add.reduceat(m, rows, axis=0), cols, axis=1)
        heights = np.minimum(rows + s, grid.height) - rows
        widths = np.minimum(cols + s, grid.width) - cols
        inside.append(sums == np.outer(heights, widths))
    count = int(inside[grid.levels].sum())
    for level in range(grid.levels):
        s = grid.side(level + 1) // grid.side(level)
        parent = np.repeat(np.repeat(inside[level + 1], s, axis=0), s, axis=1)
        parent = parent[:inside[level].shape[0], :inside[level].shape[1]]
        count += int((inside[level] & ~parent).sum())
    return count


def divide_errors(grid: Grid, mask: np.ndarray, label: str, size: int, cells) -> list[str]:
    """A cover tiles the region exactly with the fewest cube cells.

    cells are (level, x0, y0, x1, y1).
    """
    errors = []
    coverage = np.zeros(mask.shape, dtype=np.int64)
    for level, x0, y0, x1, y1 in cells:
        if not grid.is_cell(level, (x0, y0, x1, y1)):
            errors.append(f"{label}: L{level}({x0},{y0})-({x1},{y1}) is not a cube cell")
            continue
        coverage[y0:y1 + 1, x0:x1 + 1] += 1
    if (coverage > 1).any():
        errors.append(f"{label}: {int((coverage > 1).sum())} nodes covered twice")
    if (coverage[~mask] > 0).any():
        errors.append(f"{label}: {int((coverage[~mask] > 0).sum())} nodes covered outside the region")
    if (coverage[mask] == 0).any():
        errors.append(f"{label}: {int((coverage[mask] == 0).sum())} region nodes uncovered")
    if size != len(cells):
        errors.append(f"{label}: size {size} != {len(cells)} cells")
    expected = maximal_inside_cells(grid, mask)
    if len(cells) != expected:
        errors.append(f"{label}: {len(cells)} cells != {expected} maximal inside cells")
    return errors


def has_pinch(mask: np.ndarray) -> bool:
    """True when two region nodes meet only at a corner."""
    m = np.pad(mask, 1)
    a, b, c, d = m[:-1, :-1], m[:-1, 1:], m[1:, :-1], m[1:, 1:]
    return bool(((a & d & ~b & ~c) | (b & c & ~a & ~d)).any())


def ps_plan_errors(grid: Grid, mask: np.ndarray, label: str, value, cost: int, terms,
                   corner_value, corner_points: int) -> list[str]:
    """A prefix-sum plan; terms are (covered x0, y0, x1, y1, sign, entry).

    Every entry must be the sum of the rectangle it claims to cover, the
    signed entries must give the region sum, and the plan may not read more
    entries than corner expansion, whose own value must be right.
    """
    errors = []
    expected = grid.masked_sum(mask)
    if value != expected:
        errors.append(f"{label}: value {value} != numpy sum {expected}")
    if cost != len(terms):
        errors.append(f"{label}: cost {cost} != {len(terms)} terms")
    total = 0
    for x0, y0, x1, y1, sign, entry in terms:
        truth = grid.rect_sum(x0, y0, x1, y1)
        if entry != truth:
            errors.append(f"{label}: entry covering ({x0},{y0})-({x1},{y1}) "
                          f"is {entry}, numpy sum {truth}")
        total += sign * truth
    if total != expected:
        errors.append(f"{label}: signed entries sum to {total}, numpy sum {expected}")
    if corner_value != expected:
        errors.append(f"{label}: corner expansion value {corner_value} != numpy sum {expected}")
    if cost > corner_points:
        errors.append(f"{label}: cost {cost} exceeds corner expansion's {corner_points}")
    return errors


def construction_errors(grid: Grid, messages: int, max_received: int, stored) -> list[str]:
    """One message per node, at most 3 received, every stored value right.

    stored maps node -> tuple of level values starting at level 1.
    """
    errors = []
    if messages != grid.width * grid.height:
        errors.append(f"construction sent {messages} messages for "
                      f"{grid.width * grid.height} nodes")
    if max_received > 3:
        errors.append(f"a node received {max_received} packets")
    bad = 0
    for p, values in stored.items():
        for level, v in enumerate(values, start=1):
            if v != grid.level_value(p, level):
                bad += 1
    if bad:
        errors.append(f"{bad} stored level values differ from numpy sums")
    return errors


def rebuilt_errors(grid: Grid, label: str, p, level: int, value) -> list[str]:
    truth = grid.level_value(p, level)
    if value != truth:
        return [f"{label}: rebuilt level-{level} value at {p} is {value}, numpy {truth}"]
    return []


def exact_plan_errors(grid: Grid, qmask: np.ndarray, dead: np.ndarray, label: str,
                      value, terms) -> list[str]:
    """An exact plan under failures reads no storage held by a dead node."""
    errors = plan_errors(grid, qmask, label, value, len(terms), terms)
    for level, x0, y0, x1, y1, _ in terms:
        if dead[y1, x1]:
            kind = "reading" if level == 0 else "summary"
            errors.append(f"{label}: term L{level}({x0},{y0}) reads a {kind} held by "
                          f"dead node ({x1},{y1})")
    return errors


def recovered_errors(grid: Grid, qmask: np.ndarray, dead: np.ndarray, label: str,
                     kind: str, value, requested, recovered) -> list[str]:
    """A recovery answer; requested and recovered are sets of (x, y) nodes."""
    errors = []
    want = {(int(x), int(y)) for y, x in zip(*np.nonzero(qmask & dead))}
    if set(requested) != want:
        errors.append(f"{label}: requested area of {len(requested)} nodes != "
                      f"{len(want)} query nodes in the failed area")
    if kind == "exact":
        expected = grid.masked_sum(qmask)
        if value != expected:
            errors.append(f"{label}: exact value {value} != numpy sum {expected}")
        return errors
    if kind != "estimate":
        return errors + [f"{label}: unexpected recovery kind {kind}"]
    if not set(recovered) <= {(int(x), int(y)) for y, x in zip(*np.nonzero(dead))}:
        errors.append(f"{label}: recovered area leaves the failed area")
    if not want <= set(recovered):
        errors.append(f"{label}: recovered area misses requested nodes")
    if not recovered:
        return errors + [f"{label}: estimate over an empty recovered area"]
    readings = [int(grid.values[y, x]) for x, y in recovered]
    alive = grid.masked_sum(qmask & ~dead)
    lo = alive + min(readings) * len(want)
    hi = alive + max(readings) * len(want)
    if not lo <= Fraction(value) <= hi:
        errors.append(f"{label}: estimate {value} outside [{lo}, {hi}]")
    return errors
