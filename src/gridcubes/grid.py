"""Grid coordinate system, sensor values and rectilinear region geometry.

Coordinates are (x, y) pairs with (0, 0) at the top-left corner, x growing
rightwards (columns) and y growing downwards (rows). Corner points of regions
live on the lattice of cell boundaries, so a w*h grid has (w+1)*(h+1) lattice
points.

A region is a boolean mask over its bounding rectangle, so its size, its
bounds, its count inside any rectangle and its sum over the readings are
lookups or one pass over the mask; the explicit set of locations is built
only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

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


class _Corners(NamedTuple):
    x0: int
    y0: int
    x1: int
    y1: int


class Rect(_Corners):
    """Inclusive axis-aligned rectangle of grid cells.

    An immutable value: a named tuple of its corners, equal and hashed by
    them; ValidationError for inverted corners.
    """

    __slots__ = ()

    def __new__(cls, x0: int, y0: int, x1: int, y1: int):
        if x0 > x1 or y0 > y1:
            raise ValidationError(
                f"inverted rectangle corners: Rect(x0={x0!r}, y0={y0!r}, x1={x1!r}, y1={y1!r})")
        return tuple.__new__(cls, (x0, y0, x1, y1))

    @classmethod
    def _make(cls, iterable) -> "Rect":
        """Checked as the constructor is, also for `_replace`."""
        return cls(*iterable)

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
        if not region.within(self.dims):
            raise BoundsError("region extends outside the grid")
        h, w = region.mask.shape
        return self.array[region.y0:region.y0 + h, region.x0:region.x0 + w][region.mask].sum().item()


class RectilinearRegion:
    """A set of grid locations, held as a boolean mask over its bounding
    rectangle.

    `RectilinearRegion(cells)` converts an explicit set of (x, y) locations
    once; `cells` gives the set back, built on first use. Equality and hash
    follow the locations, however the region was built.
    """

    __slots__ = ("x0", "y0", "mask", "_cells", "_hash")

    def __init__(self, cells: Iterable[Coord] = frozenset()):
        cells = frozenset(cells)
        if cells:
            xs, ys = np.array(list(cells), dtype=np.int64).T
            x0, y0 = int(xs.min()), int(ys.min())
            mask = np.zeros((int(ys.max()) - y0 + 1, int(xs.max()) - x0 + 1), dtype=bool)
            mask[ys - y0, xs - x0] = True
        else:
            x0 = y0 = 0
            mask = np.zeros((0, 0), dtype=bool)
        self._init(x0, y0, mask)
        self._cells = cells

    @classmethod
    def from_mask(cls, x0: int, y0: int, mask: np.ndarray) -> "RectilinearRegion":
        """The True entries of `mask`, whose entry [0, 0] is location (x0, y0)."""
        mask = np.asarray(mask, dtype=bool)
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        if rows.size:
            x0, y0 = x0 + int(cols[0]), y0 + int(rows[0])
            mask = mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        else:
            x0 = y0 = 0
            mask = np.zeros((0, 0), dtype=bool)
        region = cls.__new__(cls)
        region._init(x0, y0, mask)
        region._cells = None
        return region

    def _init(self, x0: int, y0: int, mask: np.ndarray) -> None:
        mask = mask.copy() if mask.flags.writeable else mask
        mask.setflags(write=False)
        self.x0, self.y0, self.mask = x0, y0, mask
        self._hash = None

    @classmethod
    def from_cells(cls, cells: Iterable[Coord]) -> "RectilinearRegion":
        return cls(cells)

    @classmethod
    def empty(cls) -> "RectilinearRegion":
        return cls()

    @property
    def cells(self) -> frozenset[Coord]:
        """The locations as an explicit set, built on first use."""
        if self._cells is None:
            self._cells = self._build_cells()
        return self._cells

    def _build_cells(self) -> frozenset[Coord]:
        ys, xs = np.nonzero(self.mask)
        return frozenset(zip((xs + self.x0).tolist(), (ys + self.y0).tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RectilinearRegion):
            return NotImplemented
        return (self.x0, self.y0) == (other.x0, other.y0) and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.x0, self.y0, self.mask.shape, self.mask.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        if not self:
            return "RectilinearRegion(empty)"
        return f"RectilinearRegion({len(self)} locations in {self.bounding_rect()})"

    def __bool__(self) -> bool:
        return self.mask.size > 0

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def count_in(self, rect: Rect) -> int:
        """Number of the region's locations inside `rect`."""
        x0, y0 = rect.x0 - self.x0, rect.y0 - self.y0
        x1, y1 = rect.x1 + 1 - self.x0, rect.y1 + 1 - self.y0
        if x1 <= 0 or y1 <= 0:  # wholly left of or above the mask
            return 0
        # Conditionals, not max(): the oracles call this once per cell.
        return int(np.count_nonzero(self.mask[y0 if y0 > 0 else 0:y1, x0 if x0 > 0 else 0:x1]))

    def contains(self, p: Coord) -> bool:
        x, y = p[0] - self.x0, p[1] - self.y0
        h, w = self.mask.shape
        return 0 <= x < w and 0 <= y < h and bool(self.mask[y, x])

    def within(self, dims: GridDims) -> bool:
        h, w = self.mask.shape
        return not self or (self.x0 >= 0 and self.y0 >= 0
                            and self.x0 + w <= dims.width and self.y0 + h <= dims.height)

    def bounding_rect(self) -> Rect:
        if not self:
            raise ValidationError("empty region has no bounding rectangle")
        h, w = self.mask.shape
        return Rect(self.x0, self.y0, self.x0 + w - 1, self.y0 + h - 1)


def region_from_rectangles(rects: Iterable[tuple[Coord, Coord]],
                           dims: GridDims | None = None) -> RectilinearRegion:
    """Union of inclusive (top-left, bottom-right) rectangles.

    Raises ValidationError for inverted corner pairs and BoundsError when a
    rectangle falls outside `dims` (if given).
    """
    boxes = []
    for (x0, y0), (x1, y1) in rects:
        r = Rect(x0, y0, x1, y1)
        if dims is not None and not (dims.contains((r.x0, r.y0)) and dims.contains((r.x1, r.y1))):
            raise BoundsError(f"rectangle {r} outside grid {dims}")
        boxes.append(r)
    if not boxes:
        return RectilinearRegion.empty()
    x0, y0 = min(r.x0 for r in boxes), min(r.y0 for r in boxes)
    mask = np.zeros((max(r.y1 for r in boxes) + 1 - y0, max(r.x1 for r in boxes) + 1 - x0),
                    dtype=bool)
    for r in boxes:
        mask[r.y0 - y0:r.y1 + 1 - y0, r.x0 - x0:r.x1 + 1 - x0] = True
    return RectilinearRegion.from_mask(x0, y0, mask)


class CornerKind(Enum):
    CONVEX = "convex"
    CONCAVE = "concave"


@dataclass(frozen=True)
class CornerClassification:
    corner: Coord  # lattice point
    kind: CornerKind


def lattice_quads(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indicators of the four cells around every lattice point of a mask.

    Returns (nw, ne, sw, se) int8 arrays of shape (h + 1, w + 1). Entry
    [j, i] is the lattice point at the upper-left corner of mask entry
    [j, i]; the extra last row and column are the lower and right edges.
    """
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=np.int8)
    padded[1:-1, 1:-1] = mask
    return padded[:-1, :-1], padded[:-1, 1:], padded[1:, :-1], padded[1:, 1:]


def classify_corners(region: RectilinearRegion) -> list[CornerClassification]:
    """All boundary lattice points where the region is locally convex or concave.

    A lattice point with exactly 1 incident inside cell is convex, with
    exactly 3 is concave; 2 incident inside cells is an edge or a degenerate
    crossing, not a corner. Returns corners sorted by (y, x).
    """
    nw, ne, sw, se = lattice_quads(region.mask)
    incident = nw + ne + sw + se
    ys, xs = np.nonzero((incident == 1) | (incident == 3))
    return [CornerClassification((x + region.x0, y + region.y0),
                                 CornerKind.CONVEX if incident[y, x] == 1 else CornerKind.CONCAVE)
            for y, x in zip(ys.tolist(), xs.tolist())]


def corner_counts(region: RectilinearRegion) -> tuple[int, int]:
    corners = classify_corners(region)
    convex = sum(1 for c in corners if c.kind is CornerKind.CONVEX)
    return convex, len(corners) - convex
