"""Grid coordinate system, sensor values and rectilinear region geometry.

Coordinates are (x, y) pairs with (0, 0) at the top-left corner, x growing
rightwards (columns) and y growing downwards (rows). Corner points of regions
live on the lattice of cell boundaries, so a w*h grid has (w+1)*(h+1) lattice
points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

import numpy as np

from .errors import BoundsError, ValidationError

Coord = tuple[int, int]


@dataclass(frozen=True)
class GridDims:
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValidationError(f"grid dims must be >= 1x1, got {self.width}x{self.height}")

    def contains(self, p: Coord) -> bool:
        x, y = p
        return 0 <= x < self.width and 0 <= y < self.height

    def coords(self) -> Iterator[Coord]:
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)


@dataclass(frozen=True)
class Rect:
    """Inclusive axis-aligned rectangle of grid cells."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x0 > self.x1 or self.y0 > self.y1:
            raise ValidationError(f"inverted rectangle corners: {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    @property
    def area(self) -> int:
        return self.width * self.height

    def contains_point(self, p: Coord) -> bool:
        x, y = p
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1

    def contains_rect(self, other: "Rect") -> bool:
        return (self.x0 <= other.x0 and other.x1 <= self.x1
                and self.y0 <= other.y0 and other.y1 <= self.y1)

    def intersects(self, other: "Rect") -> bool:
        return not (other.x1 < self.x0 or self.x1 < other.x0
                    or other.y1 < self.y0 or self.y1 < other.y0)

    def coords(self) -> Iterator[Coord]:
        for y in range(self.y0, self.y1 + 1):
            for x in range(self.x0, self.x1 + 1):
                yield (x, y)

    def lattice_corners(self) -> tuple[Coord, Coord, Coord, Coord]:
        return ((self.x0, self.y0), (self.x1 + 1, self.y0),
                (self.x0, self.y1 + 1), (self.x1 + 1, self.y1 + 1))


class GridValues:
    """Dense per-node sensor readings backed by a read-only numpy array.

    Integer (int64) by default; pass dtype=float for the floating-point mode.
    """

    def __init__(self, dims: GridDims, array: np.ndarray):
        arr = np.asarray(array)
        if arr.shape != (dims.height, dims.width):
            raise ValidationError(
                f"values shape {arr.shape} does not match dims {dims.height}x{dims.width}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.dims = dims
        self.array = arr

    @classmethod
    def from_rows(cls, rows, dtype=np.int64) -> "GridValues":
        arr = np.array(rows, dtype=dtype)
        if arr.ndim != 2:
            raise ValidationError("values must be a 2-D row-major array")
        return cls(GridDims(arr.shape[1], arr.shape[0]), arr)

    @classmethod
    def from_flat(cls, dims: GridDims, flat, dtype=np.int64) -> "GridValues":
        arr = np.array(flat, dtype=dtype)
        if arr.size != dims.width * dims.height:
            raise ValidationError(
                f"expected {dims.width * dims.height} values, got {arr.size}")
        return cls(dims, arr.reshape(dims.height, dims.width))

    @classmethod
    def random(cls, dims: GridDims, seed: int, low: int = 0, high: int = 9) -> "GridValues":
        rng = np.random.default_rng(seed)
        arr = rng.integers(low, high + 1, size=(dims.height, dims.width), dtype=np.int64)
        return cls(dims, arr)

    def at(self, p: Coord):
        if not self.dims.contains(p):
            raise BoundsError(f"coordinate {p} outside {self.dims}")
        return self.array[p[1], p[0]].item()

    def rect_sum(self, rect: Rect):
        return self.array[rect.y0:rect.y1 + 1, rect.x0:rect.x1 + 1].sum().item()

    def region_sum(self, region: "RectilinearRegion"):
        return sum(self.array[y, x].item() for (x, y) in region.cells)


@dataclass(frozen=True)
class RectilinearRegion:
    """A query region stored as an explicit set of grid cells."""

    cells: frozenset[Coord]

    @classmethod
    def from_cells(cls, cells: Iterable[Coord]) -> "RectilinearRegion":
        return cls(frozenset(cells))

    @classmethod
    def empty(cls) -> "RectilinearRegion":
        return cls(frozenset())

    def __bool__(self) -> bool:
        return bool(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def contains(self, p: Coord) -> bool:
        return p in self.cells

    def union(self, other: "RectilinearRegion") -> "RectilinearRegion":
        return RectilinearRegion(self.cells | other.cells)

    def difference(self, other: "RectilinearRegion") -> "RectilinearRegion":
        return RectilinearRegion(self.cells - other.cells)

    def within(self, dims: GridDims) -> bool:
        return all(dims.contains(p) for p in self.cells)

    def bounding_rect(self) -> Rect:
        if not self.cells:
            raise ValidationError("empty region has no bounding rectangle")
        xs = [x for x, _ in self.cells]
        ys = [y for _, y in self.cells]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def row_rectangles(self) -> list[Rect]:
        """Decompose into maximal horizontal runs, one Rect per run."""
        rects = []
        by_row: dict[int, list[int]] = {}
        for x, y in self.cells:
            by_row.setdefault(y, []).append(x)
        for y in sorted(by_row):
            xs = sorted(by_row[y])
            start = prev = xs[0]
            for x in xs[1:]:
                if x == prev + 1:
                    prev = x
                    continue
                rects.append(Rect(start, y, prev, y))
                start = prev = x
            rects.append(Rect(start, y, prev, y))
        return rects


def region_from_rectangles(rects: Iterable[tuple[Coord, Coord]],
                           dims: GridDims | None = None) -> RectilinearRegion:
    """Union of inclusive (top-left, bottom-right) rectangles.

    Raises ValidationError for inverted corner pairs and BoundsError when a
    rectangle falls outside `dims` (if given).
    """
    cells: set[Coord] = set()
    for (x0, y0), (x1, y1) in rects:
        r = Rect(x0, y0, x1, y1)
        if dims is not None and not (dims.contains((r.x0, r.y0)) and dims.contains((r.x1, r.y1))):
            raise BoundsError(f"rectangle {r} outside grid {dims}")
        cells.update(r.coords())
    return RectilinearRegion(frozenset(cells))


class CornerKind(Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


@dataclass(frozen=True)
class CornerClassification:
    corner: Coord  # lattice point
    kind: CornerKind


def incident_inside_count(region: RectilinearRegion, lattice: Coord) -> int:
    """How many of the 4 unit cells around a lattice point are in the region."""
    lx, ly = lattice
    count = 0
    for cx, cy in ((lx - 1, ly - 1), (lx, ly - 1), (lx - 1, ly), (lx, ly)):
        if (cx, cy) in region.cells:
            count += 1
    return count


def classify_corners(region: RectilinearRegion) -> list[CornerClassification]:
    """All boundary lattice points where the region is locally convex or concave.

    A lattice point with exactly 1 incident inside cell is convex, with
    exactly 3 is concave; 2 incident inside cells is an edge or a degenerate
    crossing, not a corner. Returns corners sorted by (y, x).
    """
    candidates: set[Coord] = set()
    for x, y in region.cells:
        candidates.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
    out = []
    for p in sorted(candidates, key=lambda c: (c[1], c[0])):
        n = incident_inside_count(region, p)
        if n == 1:
            out.append(CornerClassification(p, CornerKind.CONVEX))
        elif n == 3:
            out.append(CornerClassification(p, CornerKind.CONCAVE))
    return out


def corner_counts(region: RectilinearRegion) -> tuple[int, int]:
    corners = classify_corners(region)
    convex = sum(1 for c in corners if c.kind is CornerKind.CONVEX)
    return convex, len(corners) - convex
