"""Decomposition of a query region into the fewest hierarchy cells.

Hierarchy cells, with single grid locations as level-0 cells, form a laminar
family: any two are either nested or disjoint. In an exact cover every cell
lies inside the region, so every cell lies inside a maximal fully-inside
(grey) cell; those maximal cells are pairwise disjoint and tile the region.
Each maximal grey cell must therefore hold at least one cover cell, and
taking exactly the maximal grey cells gives the minimum cover. They are the
grey cells of the pruned colored tree, read from its level arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import RectilinearRegion
from .hierarchy import Cell, CubeHierarchy, level_colors


@dataclass(frozen=True)
class CellCover:
    cells: tuple[Cell, ...]
    region: RectilinearRegion

    @property
    def size(self) -> int:
        return len(self.cells)


def greedy_divide(h: CubeHierarchy, region: RectilinearRegion) -> CellCover:
    """Minimum cover of `region`, cells ordered by top-left (y, x)."""
    if not region:
        raise ValidationError("cannot divide an empty region")
    cells = []
    for lc in level_colors(h, [region]):
        js, is_ = np.nonzero(lc.grey[0] & lc.in_tree[0])
        cells += h.config.indexed_cells(lc.level, (is_ + lc.i0).tolist(), (js + lc.j0).tolist())
    return CellCover(tuple(sorted(cells, key=lambda c: (c.bounds.y0, c.bounds.x0))), region)
