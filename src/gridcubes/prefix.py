"""Prefix-sum cube variant: per-cell 2-D prefix tables at every level.

Within each cell, the entry at in-cell position (i, j) holds the sum of all
base values dominated by that position, anchored at the cell's upper-left
corner. Level-1 tables run at grid granularity; a level-k table's base values
are the totals of its level-(k-1) child cells, so its entries live at the
child junction positions. The bottom-right entry of every table equals the
plain cube summary of that cell. The prefix-sum cube is a view: an entry is
read in place from its level's prefix array (`CubeHierarchy.prefix_array`),
the in-cell prefixes of every cell of the level, and a table is a slice of it.

A rectangle inside one cell costs at most four entries. Arbitrary rectilinear
regions expand into one signed entry per region corner (corners falling on
the cell's top or left boundary hit the implicit zero row/column and are
elided). Regions spanning several cells split along cell boundaries and each
fragment is handled inside its own cell, since entries never cross cells.

The query planner splits a region into pieces, each lying in one cell and
answered by its corner expansion in that cell's block grid: any set of
inside grid locations at level 1, a union of child blocks wholly inside the
region at level k >= 2. A piece costs its nonzero corner weights off the
implicit zero row and column (a weight of +-2 is still one entry). Corner
weights add, so one piece per cell is enough, and the cheapest plan is one
bottom-up pass over the colored tree: a grey top cell costs its
bottom-right entry, a partial level-1 cell the corner expansion of its
inside locations, and a partial level-k cell the plans of its partial
children plus the cheapest split of its grey children into those answered
by its own piece and those answered by their own bottom-right entry. The
colored tree is read from `hierarchy.level_colors`: a cell is an index
[j, i] into its level's arrays, and its children are the level below's
window at (j - core row start, i - core column start) times the fanout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundsError, ValidationError
from .flow import QueryPlan
from .grid import Coord, GridValues, Rect, RectilinearRegion, lattice_quads
from .hierarchy import (Cell, CubeHierarchy, HierarchyConfig, LevelColors, build_hierarchy,
                        level_colors)


@dataclass(frozen=True)
class PSDataPoint:
    cell: Cell
    location: Coord   # grid coordinate of the node storing this entry
    covered: Rect     # grid rectangle this entry sums, anchored at the cell's UL

    def label(self) -> str:
        return f"PS{self.cell.level}@({self.location[0]},{self.location[1]})"


class PrefixSumCube:
    def __init__(self, hierarchy: CubeHierarchy):
        self.hierarchy = hierarchy

    @property
    def config(self) -> HierarchyConfig:
        return self.hierarchy.config

    @property
    def values(self) -> GridValues:
        return self.hierarchy.values

    @cached_property
    def tables(self) -> dict[Cell, np.ndarray]:
        """Each cell's read-only slice of its level's prefix array."""
        tables: dict[Cell, np.ndarray] = {}
        for level in range(1, self.config.height + 1):
            prefix, side = self.hierarchy.prefix_array(level), self.config.side(level - 1)
            for cell in self.hierarchy.cells_of(level):
                b = cell.bounds
                tables[cell] = prefix[b.y0 // side:b.y1 // side + 1,
                                      b.x0 // side:b.x1 // side + 1]
        return tables

    def point(self, cell: Cell, child: tuple[int, int]) -> PSDataPoint:
        _, cols, rows = self.config.child_grid(cell)
        ci, cj = child
        if not (0 <= ci < cols and 0 <= cj < rows):
            raise BoundsError(f"child index {child} outside {cell}")
        x1, y1 = self.config.child_junction(cell, ci, cj)
        return PSDataPoint(cell, (x1, y1), Rect(cell.bounds.x0, cell.bounds.y0, x1, y1))

    def entry(self, point: PSDataPoint):
        level = point.cell.level
        side = self.config.side(level - 1)
        x, y = point.location
        return self.hierarchy.prefix_array(level).item(y // side, x // side)

    def points(self) -> Iterator[PSDataPoint]:
        for level_cells in self.hierarchy.levels:
            for cell in level_cells:
                _, cols, rows = self.config.child_grid(cell)
                for cj in range(rows):
                    for ci in range(cols):
                        yield self.point(cell, (ci, cj))


def build_ps_cube(values: GridValues, config: HierarchyConfig) -> PrefixSumCube:
    return PrefixSumCube(build_hierarchy(values, config))


def rectangle_sum(ps: PrefixSumCube, cell: Cell, rect: Rect):
    """Sum of a rectangle inside one cell from at most four corner entries.

    Returns (value, [(point, sign), ...]) ordered bottom-right, upper-left,
    upper-right, lower-left. For cells above level 1 the rectangle must align
    to child blocks; a clipped block at the cell's right or bottom edge ends
    at that edge. Entries that would fall on the implicit zero row or column
    are omitted.
    """
    if not cell.bounds.contains_rect(rect):
        raise BoundsError(f"rectangle {rect} outside cell {cell}")
    side, _, _ = ps.config.child_grid(cell)
    b = cell.bounds
    if ((rect.x0 - b.x0) % side or (rect.y0 - b.y0) % side
            or (rect.x1 != b.x1 and (rect.x1 - b.x0 + 1) % side)
            or (rect.y1 != b.y1 and (rect.y1 - b.y0 + 1) % side)):
        raise ValidationError(f"rectangle {rect} not aligned to level-{cell.level - 1} blocks")
    c0 = (rect.x0 - b.x0) // side
    r0 = (rect.y0 - b.y0) // side
    c1 = (rect.x1 - b.x0) // side
    r1 = (rect.y1 - b.y0) // side
    corners = [((c1, r1), +1), ((c0 - 1, r0 - 1), +1), ((c1, r0 - 1), -1), ((c0 - 1, r1), -1)]
    total = 0
    used = []
    for (ci, cj), sign in corners:
        if ci < 0 or cj < 0:
            continue
        p = ps.point(cell, (ci, cj))
        total += sign * ps.entry(p)
        used.append((p, sign))
    return total, used


def corner_weights(cells: RectilinearRegion | Iterable[Coord]) -> dict[Coord, int]:
    """Signed corner-expansion weights of a region or cell set, keyed by
    lattice point.

    The weight at lattice (lx, ly) is the mixed difference of the region's
    indicator over the four incident cells; it is nonzero exactly at corners
    (+-1, or +-2 at degenerate diagonal crossings) and the region sum equals
    the weighted sum of dominated-rectangle prefixes.
    """
    region = cells if isinstance(cells, RectilinearRegion) else RectilinearRegion(cells)
    return _mask_weights(region.x0, region.y0, region.mask)


def _mask_weights(x0: int, y0: int, mask: np.ndarray) -> dict[Coord, int]:
    """corner_weights of the True entries of `mask`, entry [0, 0] at (x0, y0)."""
    nw, ne, sw, se = lattice_quads(mask)
    weights = nw - ne - sw + se
    ys, xs = np.nonzero(weights)
    return {(x + x0, y + y0): w for y, x, w in zip(ys.tolist(), xs.tolist(),
                                                 weights[ys, xs].tolist())}


def _emit_scope(ps: PrefixSumCube, cell: Cell, weights: dict[Coord, int]):
    """Signed entries of a cell's table for corner weights in its block grid."""
    out = []
    for (lx, ly), w in sorted(weights.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        ci, cj = lx - 1, ly - 1
        if ci < 0 or cj < 0:
            continue  # implicit zero row/column
        out.append((ps.point(cell, (ci, cj)), w))
    return out


def _fragment_points(ps: PrefixSumCube, region: RectilinearRegion):
    """Signed points for one region, split along cell boundaries into pieces
    that each lie in one cell's scope.

    The cell holding the region is the lowest one holding its bounding
    rectangle. The region is aligned there when each child block is wholly
    inside or wholly outside it, as at level 1, whose blocks are grid
    locations; then it costs the corner weights of its block mask. Otherwise,
    or when no single cell holds it, its part in each cell one level down
    (each top cell) is expanded on its own, in row-major order.
    """
    if not region:
        return []
    box = region.bounding_rect()
    for level in range(1, ps.config.height + 1):
        cell = ps.hierarchy.cell_at(level, (box.x0, box.y0))
        if cell.bounds.contains_rect(box):
            children = ps.hierarchy.children(cell)
            counts = [region.count_in(c.bounds) for c in children]
            if all(n in (0, c.area) for n, c in zip(counts, children)):
                _, cols, rows = ps.config.child_grid(cell)
                blocks = np.array(counts, dtype=bool).reshape(rows, cols)
                return _emit_scope(ps, cell, _mask_weights(0, 0, blocks))
            break
    else:
        children = ps.hierarchy.top_cells
    out = []
    for b in (child.bounds for child in children):
        if region.count_in(b):
            x0, y0 = max(b.x0, region.x0), max(b.y0, region.y0)
            part = region.mask[y0 - region.y0:b.y1 + 1 - region.y0,
                               x0 - region.x0:b.x1 + 1 - region.x0]
            out.extend(_fragment_points(ps, RectilinearRegion.from_mask(x0, y0, part)))
    return out


def rectilinear_sum(ps: PrefixSumCube, region: RectilinearRegion):
    """Region sum by corner expansion; returns (value, [(point, weight), ...]).

    Within a single scope the number of points equals the number of region
    corners, minus any corners whose entry falls on the implicit zero
    boundary. Regions spanning several cells are split along cell boundaries
    first, which may add fragment corners.
    """
    if not region.within(ps.hierarchy.dims):
        raise BoundsError("region extends outside the grid")
    points = _fragment_points(ps, region)
    value = sum(w * ps.entry(p) for p, w in points)
    return value, points


def _row_weights(prev: int, cur: int, cols: int) -> int:
    """Nonzero corner weights on the lattice row between two block rows.

    With d = prev - cur per column, the weight at lattice column lx is
    d[lx - 1] - d[lx]; columns 1..cols count (column 0 is the implicit zero
    column) and d is 0 past the last block.
    """
    up, down = prev & ~cur, cur & ~prev
    return (((up ^ (up >> 1)) | (down ^ (down >> 1))) & ((1 << cols) - 1)).bit_count()


def _choose_blocks(grey_rows: list[int], cols: int) -> list[int]:
    """Grey child blocks to answer through the parent's table, one mask per row.

    Minimizes the parent piece's cost plus one bottom-right entry per grey
    block left out. The corner weight at lattice point (i, j) depends only
    on blocks (i-1, j-1), (i, j-1), (i-1, j) and (i, j), so blocks are
    decided one at a time in row-major order with a broken profile as the
    state: bits below i hold this row's choices, bits from i on the previous
    row's, and bit `cols` the previous row's choice at column i - 1. Lattice
    row 0 is the implicit zero row. Among cheapest choices the one with the
    smallest masks, compared from the last row up, wins.
    """
    full = (1 << cols) - 1
    costs = {0: 0}
    steps: list[dict[int, int]] = []  # per block: state -> predecessor
    for j, grey in enumerate(grey_rows):
        for i in range(cols):
            greyness = grey >> i & 1
            inner = j and i > 0        # weight at lattice point (i, j)
            edge = j and i == cols - 1  # weight at lattice point (cols, j)
            keep = full & ~(1 << i)
            nxt: dict[int, int] = {}
            back: dict[int, int] = {}
            for state, cost in costs.items():
                above = state >> i & 1
                corner = state >> cols
                d_left = corner - (state >> (i - 1) & 1) if inner else 0
                for chosen in range(greyness + 1):
                    total = cost + greyness - chosen
                    if inner and d_left != above - chosen:
                        total += 1
                    if edge and above != chosen:
                        total += 1
                    new = (state & keep) | chosen << i | above << cols
                    best = nxt.get(new)
                    if best is None or total < best or (total == best and not corner):
                        nxt[new] = total
                        back[new] = state
            costs = nxt
            steps.append(back)
    state = min(costs, key=lambda st: (costs[st] + _row_weights(st & full, 0, cols),
                                       st & full, st >> cols))
    masks = []
    for k in range(len(steps) - 1, -1, -1):
        if k % cols == cols - 1:
            masks.append(state & full)
        state = steps[k][state]
    return masks[::-1]


def _node_terms(ps: PrefixSumCube, levels: list[tuple[LevelColors, list, list]], level: int,
                j: int, i: int) -> list[tuple[PSDataPoint, int]]:
    """Cheapest signed entries answering the region's part inside the cell
    at [j, i] of level `level`, a grey or partial cell. `levels` holds each
    level's colors with its grey and partial flags as nested lists."""
    lc, grey, _ = levels[level]
    cell = ps.config.indexed_cells(level, [i + lc.i0], [j + lc.j0])[0]
    _, cols, rows = ps.config.child_grid(cell)
    if grey[j][i]:
        return [(ps.point(cell, (cols - 1, rows - 1)), 1)]
    _, grey, partial = levels[level - 1]
    cj, ci = (j - lc.core[0].start) * lc.fanout, (i - lc.core[1].start) * lc.fanout
    grey_rows = [sum(1 << c for c in range(cols) if row[ci + c]) for row in grey[cj:cj + rows]]
    if level == 1 or not any(grey_rows):
        chosen = grey_rows  # grid locations have no table; no grey, no choice
    else:
        chosen = _choose_blocks(grey_rows, cols)
    units = np.array([[mask >> c & 1 for c in range(cols)] for mask in chosen], dtype=bool)
    terms = _emit_scope(ps, cell, _mask_weights(0, 0, units))
    for dj, mask in enumerate(chosen):
        for di in range(cols):
            y, x = cj + dj, ci + di
            if not mask >> di & 1 and (grey[y][x] or partial[y][x]):
                terms.extend(_node_terms(ps, levels, level - 1, y, x))
    return terms


def ps_query_plan(ps: PrefixSumCube, region: RectilinearRegion) -> QueryPlan:
    """Minimum-cost signed entry set answering the query.

    A plan splits the region into pieces, one per cell at most: any set of
    inside grid locations of a level-1 cell, or a union of a level-k cell's
    child blocks wholly inside the region. A piece costs its nonzero corner
    weights in the cell's block grid, off the implicit zero row and column.
    One pass over the colored tree of `level_colors`, depth-first and
    row-major, finds the cheapest plan: a grey top cell reads its
    bottom-right entry; a partial level-1 cell reads the corner expansion of
    its inside locations; a partial level-k cell reads the plans of its
    partial children, the corner expansion of a chosen set B of its grey
    children, and the bottom-right entry of every grey child outside B. B
    is chosen one block at a time, in row-major order.
    """
    if not region:
        raise ValidationError("cannot plan an empty region")
    levels = [(lc, lc.grey[0].tolist(), lc.partial[0].tolist())
              for lc in level_colors(ps.hierarchy, [region])]
    top, grey, partial = levels[-1]
    terms = [t for j, row in enumerate(grey) for i in range(len(row))
             if grey[j][i] or partial[j][i]
             for t in _node_terms(ps, levels, top.level, j, i)]
    value = sum(s * ps.entry(p) for p, s in terms)
    return QueryPlan(tuple(terms), value)
