"""Decomposition of a query region into the fewest hierarchy cells.

Hierarchy cells, with single grid locations as level-0 cells, form a laminar
family: any two are either nested or disjoint. In an exact cover every cell
lies inside the region, so every cell lies inside a maximal fully-inside
(grey) cell; those maximal cells are pairwise disjoint and tile the region.
Each maximal grey cell must therefore hold at least one cover cell, and
taking exactly the maximal grey cells gives the minimum cover. They are the
grey nodes of the pruned colored tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .grid import RectilinearRegion
from .hierarchy import Cell, Color, CubeHierarchy, color_tree


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
    cells = color_tree(h, region).cells_by_color(Color.GREY)
    return CellCover(tuple(sorted(cells, key=lambda c: (c.bounds.y0, c.bounds.x0))), region)
