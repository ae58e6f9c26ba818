"""Multi-level cube cell structure with per-cell SUM summaries.

Level-1 cells tile the grid in blocks of F1 x F1 nodes; a level-k cell groups
Fk x Fk level-(k-1) cells. Cells at the right/bottom edge are clipped when the
fanouts do not divide the grid dimensions, which keeps every level an exact
tiling. Each cell's summary is stored at its junction, the lower-right corner
of its bounds. Individual grid locations act as degenerate level-0 cells.
Each layout decision is written once, here: HierarchyConfig holds the level
sides, the junction levels of all nodes as one array (`junction_levels`,
which `junction_level` reads), and the clipped block rule (`_spans`), whose
block edges per level (`block_edges`) are built once. `level_colors` takes
its cell areas from the rule.

Cells and their bounds (`grid.Rect`) are immutable value types: named
tuples, equal and hashed by their fields, so two Cells of the same level
and bounds are interchangeable, in sets and dicts too. `indexed_cells` is
the one place that makes them, from the block edges, as the tuples they
are; `block_cells` (for `cell_of`, `cells_of`, `children` and
`child_junction`) goes through it. `cell_prefix` is the one in-cell 2-D
prefix routine.

The summaries of one level form one array in block layout, built from the
level below by a sum over its blocks: `_blocks` is the one view of a level
as f x f blocks, zero-padded only where the grid edge clips a block, read by
`build_hierarchy`, `cell_prefix`, `level_colors` and `LevelColors.gather`.
Cell objects are made only when a caller asks for them. `level_colors`
colors a whole level against a sequence of regions on one shared window at
once, by block sums of the region masks; it is the one coloring the
planners, division, recovery and rendering read. `color_tree` returns a
`HierarchyTree` that builds its nodes only when they are first read, each
cell colored by counting the region's mask inside it: an independent oracle
for the tests.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate
from operator import mul
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BoundsError, ConfigError
from .grid import Coord, GridDims, GridValues, Rect, RectilinearRegion


@dataclass(frozen=True)
class HierarchyConfig:
    dims: GridDims
    fanouts: tuple[int, ...]
    _sides: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _junctions: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _edges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.fanouts:
            raise ConfigError("fanout list must not be empty")
        if self.fanouts[0] < 1 or any(f < 2 for f in self.fanouts[1:]):
            raise ConfigError(f"fanouts must satisfy F1>=1 and Fk>=2 for k>1: {self.fanouts}")
        object.__setattr__(self, "fanouts", tuple(int(f) for f in self.fanouts))
        object.__setattr__(self, "_sides", tuple(accumulate(self.fanouts, mul, initial=1)))

    @property
    def height(self) -> int:
        return len(self.fanouts)

    def side(self, level: int) -> int:
        """Side length of a level-k cell in grid units (level 0 -> 1)."""
        if not 0 <= level < len(self._sides):
            raise BoundsError(f"level {level} outside the cube's levels 0..{self.height}")
        return self._sides[level]

    def junction_level(self, p: Coord) -> int:
        """Highest level whose cell has p as its lower-right corner (0 if none)."""
        if not self.dims.contains(p):
            raise BoundsError(f"{p} outside grid {self.dims}")
        return self.junction_levels().item(p[1], p[0])

    def junction_levels(self) -> np.ndarray:
        """`junction_level` of every node, indexed [y, x]; built once, read-only.

        A level-k junction ends a side-long run or the grid in both axes, and
        then ends one at every lower level too: its level is the count of the
        levels whose runs end there."""
        if self._junctions is None:
            xs = np.arange(self.dims.width)
            ys = np.arange(self.dims.height)
            levels = np.zeros((self.dims.height, self.dims.width), dtype=np.int8)
            for side in self._sides[1:]:
                ends_x = ((xs + 1) % side == 0) | (xs == self.dims.width - 1)
                ends_y = ((ys + 1) % side == 0) | (ys == self.dims.height - 1)
                levels += ends_y[:, None] & ends_x[None, :]
            levels.setflags(write=False)
            object.__setattr__(self, "_junctions", levels)
        return self._junctions

    def _spans(self, level: int, blocks, extent: int) -> list[tuple[int, int]]:
        """(first, last) grid column or row of each level-k block, clipped at
        `extent`; since cells nest, a child block then ends exactly at its
        parent's edge."""
        side = self._sides[level]
        return [(b * side, min(b * side + side, extent) - 1) for b in blocks]

    def block_edges(self, level: int) -> tuple[list[int], list[int], list[int], list[int]]:
        """The first and last grid column of every level-k block column, and
        the first and last row of every block row, by `_spans`; built once
        per level."""
        edges = self._edges.get(level)
        if edges is None:
            side, width, height = self._sides[level], self.dims.width, self.dims.height
            cols = self._spans(level, range(-(-width // side)), width)
            rows = self._spans(level, range(-(-height // side)), height)
            edges = self._edges[level] = (
                [first for first, _ in cols], [last for _, last in cols],
                [first for first, _ in rows], [last for _, last in rows])
        return edges

    def block_cells(self, level: int, cols: range, rows: range) -> list[Cell]:
        """The level-k cells in block columns `cols` and rows `rows`, row-major."""
        return self.indexed_cells(level, [i for _ in rows for i in cols],
                                  [j for j in rows for _ in cols])

    def indexed_cells(self, level: int, cols, rows) -> list[Cell]:
        """The level-k cells in block column cols[n] and row rows[n], in
        order: the one place the package makes Cells. Each is made as the
        tuple it is, from the block edges, without a constructor call per
        Cell and Rect. BoundsError for a block off the level's blocks."""
        x0s, x1s, y0s, y1s = self.block_edges(level)
        if len(cols) and not (0 <= min(cols) and max(cols) < len(x0s)
                              and 0 <= min(rows) and max(rows) < len(y0s)):
            raise BoundsError(f"a block index lies off the level-{level} blocks")
        new = tuple.__new__
        return [new(Cell, (level, new(Rect, (x0s[i], y0s[j], x1s[i], y1s[j]))))
                for i, j in zip(cols, rows)]

    def child_grid(self, cell: Cell) -> tuple[int, int, int]:
        """(child side length, columns, rows) of a cell's child-block grid;
        the last column and row are clipped at the cell's edge."""
        side = self._sides[cell.level - 1]
        b = cell.bounds
        return side, (b.width + side - 1) // side, (b.height + side - 1) // side

    def child_junction(self, cell: Cell, i: int, j: int) -> Coord:
        """Junction of the child block in column i, row j of a cell."""
        side = self._sides[cell.level - 1]
        i, j = cell.bounds.x0 // side + i, cell.bounds.y0 // side + j
        return self.block_cells(cell.level - 1, range(i, i + 1), range(j, j + 1))[0].junction


class Cell(NamedTuple):
    """A cube cell: an immutable value, equal and hashed by its level and
    bounds."""

    level: int
    bounds: Rect

    @property
    def junction(self) -> Coord:
        return (self.bounds.x1, self.bounds.y1)

    @property
    def area(self) -> int:
        return self.bounds.area

    def label(self) -> str:
        return f"L{self.level}({self.bounds.x0},{self.bounds.y0})"


def cell_of(config: HierarchyConfig, level: int, p: Coord) -> Cell:
    """The level-k cell containing grid location p (level 0 is p itself)."""
    if not config.dims.contains(p):
        raise BoundsError(f"{p} outside grid {config.dims}")
    side = config.side(level)
    i, j = p[0] // side, p[1] // side
    return config.block_cells(level, range(i, i + 1), range(j, j + 1))[0]


def _blocks(a: np.ndarray, f: int) -> np.ndarray:
    """`a` as f x f blocks over its last two axes, shaped (..., block rows,
    f, block columns, f), zero-padded (a copy) only when the grid edge
    clips the last block row or column."""
    *lead, rows, cols = a.shape
    if rows % f or cols % f:
        a = np.pad(a, ((0, 0),) * len(lead) + ((0, -rows % f), (0, -cols % f)))
    return a.reshape(*lead, a.shape[-2] // f, f, a.shape[-1] // f, f)


def cell_prefix(a: np.ndarray, side: int) -> np.ndarray:
    """2-D prefix sums of a, restarted in every side x side block, in
    numpy's cumsum dtype (narrow integers add in the platform integer)."""
    blocks = _blocks(a, side).cumsum(axis=1).cumsum(axis=3)
    return blocks.reshape(blocks.shape[0] * side, -1)[:a.shape[0], :a.shape[1]]


class CubeHierarchy:
    """Built cube: one summary array per level, cells made on demand.

    `level_array(k)[j, i]` is the summary of the level-k cell in block row j
    and block column i; the arrays keep the dtype of the readings.
    `levels`, `cells_of`, `summaries` and `prefix_array` are built only
    when asked for.
    """

    def __init__(self, values: GridValues, config: HierarchyConfig,
                 arrays: tuple[np.ndarray, ...]):
        self.values = values
        self.config = config
        self._arrays = arrays
        self._prefixes: dict[int, np.ndarray] = {}
        self._cells: dict[int, tuple[Cell, ...]] = {}
        self._summaries: dict[Cell, int] | None = None

    @property
    def height(self) -> int:
        return self.config.height

    @property
    def dims(self) -> GridDims:
        return self.config.dims

    def level_array(self, level: int) -> np.ndarray:
        """Summaries of the level-k cells in block layout (level 0: readings)."""
        if not 0 <= level <= len(self._arrays):
            raise BoundsError(f"level {level} outside the cube's levels 0..{self.height}")
        return self.values.array if level == 0 else self._arrays[level - 1]

    def prefix_array(self, level: int) -> np.ndarray:
        """Read-only in-cell prefix sums of the level-(k-1) summaries,
        restarted at every level-k cell, laid out as `level_array(k - 1)`."""
        prefix = self._prefixes.get(level)
        if prefix is None:
            if not 1 <= level <= self.height:
                raise BoundsError(f"level {level} outside the prefix levels 1..{self.height}")
            prefix = cell_prefix(self.level_array(level - 1), self.config.fanouts[level - 1])
            prefix.setflags(write=False)
            self._prefixes[level] = prefix
        return prefix

    def cells_of(self, level: int) -> tuple[Cell, ...]:
        if level not in self._cells:
            rows, cols = self.level_array(level).shape
            self._cells[level] = tuple(self.config.block_cells(level, range(cols), range(rows)))
        return self._cells[level]

    @property
    def levels(self) -> tuple[tuple[Cell, ...], ...]:
        """levels[k-1] holds the level-k cells in row-major order."""
        return tuple(self.cells_of(k) for k in range(1, self.height + 1))

    @property
    def summaries(self) -> dict[Cell, int]:
        """Every cell above level 0 mapped to its summary."""
        if self._summaries is None:
            self._summaries = {c: self.value(c) for cells in self.levels for c in cells}
        return self._summaries

    @property
    def top_cells(self) -> tuple[Cell, ...]:
        return self.cells_of(self.height)

    def cell_at(self, level: int, p: Coord) -> Cell:
        """The level-k cell containing grid location p."""
        return cell_of(self.config, level, p)

    def children(self, cell: Cell) -> list[Cell]:
        """The level-(k-1) cells tiling a level-k cell, row-major (grid
        points for k=1)."""
        if cell.level == 0:
            return []
        side = self.config.side(cell.level - 1)
        b = cell.bounds
        return self.config.block_cells(cell.level - 1, range(b.x0 // side, b.x1 // side + 1),
                                       range(b.y0 // side, b.y1 // side + 1))

    def value(self, cell: Cell) -> int:
        if cell.level == 0:
            return self.values.at((cell.bounds.x0, cell.bounds.y0))
        side = self.config.side(cell.level)
        return self._arrays[cell.level - 1][cell.bounds.y0 // side, cell.bounds.x0 // side].item()

    def cells_at(self, p: Coord) -> list[Cell]:
        """All cells whose junction is p, ordered by level ascending."""
        return [self.cell_at(k, p) for k in range(1, self.config.junction_level(p) + 1)]

    def dump(self) -> list[str]:
        """One line per cell: level x0 y0 x1 y1 junction_x junction_y value."""
        lines = []
        for level_cells in self.levels:
            for c in level_cells:
                jx, jy = c.junction
                b = c.bounds
                lines.append(f"{c.level} {b.x0} {b.y0} {b.x1} {b.y1} {jx} {jy} {self.value(c)}")
        return lines


def build_hierarchy(values: GridValues, config: HierarchyConfig) -> CubeHierarchy:
    """Each level's array is the previous one's fanout x fanout blocks
    (`_blocks`), summed."""
    if config.dims != values.dims:
        raise ConfigError(f"config dims {config.dims} do not match values dims {values.dims}")
    arrays = []
    arr = values.array
    for f in config.fanouts:
        arr = _blocks(arr, f).sum(axis=(1, 3), dtype=values.array.dtype)
        arr.setflags(write=False)
        arrays.append(arr)
    return CubeHierarchy(values, config, tuple(arrays))


class Color(Enum):
    GREY = "grey"      # cell fully inside the query region
    WHITE = "white"    # cell disjoint from the query region
    PARTIAL = "partial"


@dataclass(frozen=True)
class TreeNode:
    cell: Cell | None  # None for the synthetic root
    color: Color
    children: tuple["TreeNode", ...]

    @property
    def is_root(self) -> bool:
        return self.cell is None


class HierarchyTree:
    """The cube as a containment tree, colored against one query region.

    Subtrees under grey and white nodes are pruned: a fully-inside or
    fully-outside cell always dominates its descendants. The synthetic root
    covers the whole grid and is the parent of the top-level cells. For a
    whole-grid region it is grey with every top cell as a grey leaf; for an
    empty region it is white and childless; otherwise it is partial.
    The nodes are built on the first read of `root`; planners read
    `level_colors` instead, and the nodes serve as the tests' oracle.
    """

    def __init__(self, hierarchy: CubeHierarchy, region: RectilinearRegion):
        self.hierarchy = hierarchy
        self.region = region

    @cached_property
    def root(self) -> TreeNode:
        h, region = self.hierarchy, self.region
        if not region:
            return TreeNode(None, Color.WHITE, ())
        kids = tuple(_color_node(h, c, region) for c in h.top_cells)
        whole = len(region) == h.dims.width * h.dims.height
        return TreeNode(None, Color.GREY if whole else Color.PARTIAL, kids)

    def nodes(self) -> Iterator[TreeNode]:
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(n.children)

    def cells_by_color(self, color: Color) -> set[Cell]:
        return {n.cell for n in self.nodes() if not n.is_root and n.color is color}


def _cell_color(cell: Cell, region: RectilinearRegion) -> Color:
    inside = region.count_in(cell.bounds)
    if inside == 0:
        return Color.WHITE
    if inside == cell.area:
        return Color.GREY
    return Color.PARTIAL


def _color_node(h: CubeHierarchy, cell: Cell, region: RectilinearRegion) -> TreeNode:
    color = _cell_color(cell, region)
    if color is not Color.PARTIAL:
        return TreeNode(cell, color, ())
    kids = tuple(_color_node(h, c, region) for c in h.children(cell))
    return TreeNode(cell, color, kids)


def color_tree(h: CubeHierarchy, region: RectilinearRegion) -> HierarchyTree:
    """The region's colored tree; its nodes are built when first read."""
    if not region.within(h.dims):
        raise BoundsError("region extends outside the grid")
    return HierarchyTree(h, region)


@dataclass(frozen=True)
class LevelColors:
    """One level of the pruned colored trees of one or several regions, as
    boolean arrays.

    Entry [q, j, i] is the level-k cell in block row j0 + j and block
    column i0 + i, colored against region q. `core` is the
    block of cells meeting the regions' bounding boxes, so every partial
    cell lies in it. Below the top, the arrays hold the children of the next
    level's core; at the top, every top cell, as the root's children.
    Entries past the grid edge are no cell, and every flag is False there.
    """

    level: int
    fanout: int  # children per side (1 at level 0, which has none)
    i0: int
    j0: int
    core: tuple[slice, slice]
    grey: np.ndarray
    white: np.ndarray
    partial: np.ndarray
    in_tree: np.ndarray  # the parent is partial (ROOT, for the top cells)

    def spread(self, a: np.ndarray) -> np.ndarray:
        """Each core entry of `a` repeated over its children, laid out as the
        level below's arrays."""
        f = self.fanout
        return np.repeat(np.repeat(a[(..., *self.core)], f, axis=-2), f, axis=-1)

    def gather(self, a: np.ndarray) -> np.ndarray:
        """The sums of the level below's array `a` over each core cell's
        children, laid out as this level's arrays (0 off the core)."""
        out = np.zeros(a.shape[:-2] + self.grey.shape[-2:], dtype=np.int64)
        out[(..., *self.core)] = _blocks(a, self.fanout).sum(axis=(-3, -1))
        return out


def level_colors(h: CubeHierarchy, regions: Sequence[RectilinearRegion]
                 ) -> tuple[LevelColors, ...]:
    """The trees `color_tree` builds, as arrays per level, level 0 first;
    none when every region is empty.

    The regions are colored on one shared window, the union of their
    bounding boxes, and their arrays have a leading query axis, also for
    one region; an empty region's tree has no cell, so its `in_tree` is all
    False.

    The regions' counts in each cell are block sums of the masks at level
    1, and of the counts of the level below above it, taken with the same
    block view and sum as `build_hierarchy` over the cells meeting the
    window. A cell is grey when its count is its area, white when it is 0,
    and partial otherwise.
    """
    batch = tuple(regions)
    if not all(region.within(h.dims) for region in batch):
        raise BoundsError("region extends outside the grid")
    filled = [region for region in batch if region]
    if not filled:
        return ()
    config = h.config
    top = config.height
    x0, y0 = min(r.x0 for r in filled), min(r.y0 for r in filled)
    x1 = max(r.x0 + r.mask.shape[1] for r in filled) - 1
    y1 = max(r.y0 + r.mask.shape[0] for r in filled) - 1
    cores = [(x0 // side, x1 // side, y0 // side, y1 // side)
             for side in map(config.side, range(top + 1))]

    def extents(first, last, level, size):
        """Lengths of blocks first..last, 0 for a block past the grid edge."""
        spans = config._spans(level, range(first, last + 1), size)
        return np.array([max(end - start + 1, 0) for start, end in spans])

    windows, colors = [], []
    counts = None
    for level, (ci0, ci1, cj0, cj1) in enumerate(cores):
        if level < top:
            f = config.fanouts[level]
            pi0, pi1, pj0, pj1 = cores[level + 1]
            i0, i1, j0, j1 = pi0 * f, pi1 * f + f - 1, pj0 * f, pj1 * f + f - 1
        else:  # every top cell is a child of the root
            rows_top, cols_top = h.level_array(top).shape
            i0, i1, j0, j1 = 0, cols_top - 1, 0, rows_top - 1
        core = (slice(cj0 - j0, cj1 - j0 + 1), slice(ci0 - i0, ci1 - i0 + 1))
        windows.append((i0, j0, core))
        shape = (len(batch), j1 - j0 + 1, i1 - i0 + 1)  # a query axis first
        if level == 0:  # locations, each in a region or not
            counts = np.zeros(shape, dtype=bool)
            for layer, region in zip(counts, batch):
                if region:
                    rows, cols = region.mask.shape
                    layer[region.y0 - j0:region.y0 - j0 + rows,
                          region.x0 - i0:region.x0 - i0 + cols] = region.mask
            exists = np.outer(np.arange(j0, j1 + 1) < h.dims.height,
                              np.arange(i0, i1 + 1) < h.dims.width)[None]
            colors.append((counts, exists & ~counts, np.zeros(shape, dtype=bool), exists))
            continue
        below, counts = counts, np.zeros(shape, dtype=np.int64)
        f = config.fanouts[level - 1]
        counts[(..., *core)] = _blocks(below, f).sum(axis=(-3, -1))
        area = np.outer(extents(j0, j1, level, h.dims.height),
                        extents(i0, i1, level, h.dims.width))[None]
        exists = area > 0
        colors.append((exists & (counts == area), exists & (counts == 0),
                       (counts > 0) & (counts < area), exists))

    out = []
    parent = None
    for level in range(top, -1, -1):
        grey, white, partial, exists = colors[level]
        if parent is not None:
            in_tree = exists & parent.spread(parent.partial)
        else:  # the root's children; an empty region's tree has no cell
            in_tree = exists & np.array([bool(region) for region in batch])[:, None, None]
        parent = LevelColors(level, config.fanouts[level - 1] if level else 1,
                             *windows[level], grey, white, partial, in_tree)
        out.append(parent)
    return tuple(reversed(out))
