import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcubes.errors import BoundsError, ConfigError, ValidationError
from gridcubes.grid import GridDims, GridValues, Rect, RectilinearRegion, region_from_rectangles
from gridcubes.hierarchy import (Cell, Color, HierarchyConfig, build_hierarchy, cell_of,
                                 color_tree, level_colors)

from conftest import naive_region_sum, random_region


def ones(w, h):
    return GridValues.from_rows([[1] * w for _ in range(h)])


def demo_cube():
    """8x8 grid, three levels of 2x2 fanout; the worked-example layout."""
    vals = GridValues.random(GridDims(8, 8), seed=42, low=0, high=9)
    cfg = HierarchyConfig(GridDims(8, 8), (2, 2, 2))
    return vals, build_hierarchy(vals, cfg)


def demo_region(dims=GridDims(8, 8)):
    return region_from_rectangles(
        [((0, 0), (3, 3)), ((4, 4), (7, 7)), ((2, 4), (3, 4)), ((2, 5), (2, 5))], dims)


def test_six_by_six_two_levels():
    vals = ones(6, 6)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(6, 6), (3, 2)))
    level1 = h.cells_of(1)
    assert len(level1) == 4 and all(h.value(c) == 9 for c in level1)
    (top,) = h.cells_of(2)
    assert h.value(top) == 36
    assert top.junction == (5, 5)


def test_single_node_grid():
    vals = GridValues.from_rows([[7]])
    h = build_hierarchy(vals, HierarchyConfig(GridDims(1, 1), (1,)))
    (cell,) = h.cells_of(1)
    assert h.value(cell) == 7


def test_empty_fanouts_rejected():
    with pytest.raises(ConfigError):
        HierarchyConfig(GridDims(4, 4), ())


def test_levels_tile_the_grid():
    vals = GridValues.random(GridDims(10, 7), seed=1)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(10, 7), (3, 2)))
    for level in (1, 2):
        cells = h.cells_of(level)
        assert sum(c.area for c in cells) == 70
        seen = set()
        for c in cells:
            coords = set(c.bounds.coords())
            assert not (coords & seen)
            seen |= coords


def test_cross_level_nesting():
    vals = GridValues.random(GridDims(10, 7), seed=2)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(10, 7), (3, 2)))
    for small in h.cells_of(1):
        overlapping = [big for big in h.cells_of(2) if big.bounds.intersects(small.bounds)]
        assert len(overlapping) == 1
        assert overlapping[0].bounds.contains_rect(small.bounds)


def test_parent_sum():
    vals = GridValues.random(GridDims(8, 8), seed=3)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2, 2)))
    for level in (2, 3):
        for cell in h.cells_of(level):
            assert h.value(cell) == sum(h.value(c) for c in h.children(cell))


def test_delta_propagation_equals_rebuild():
    vals = GridValues.random(GridDims(8, 8), seed=4)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2, 2)))
    changed, delta = (3, 5), 11
    arr = vals.array.copy()
    arr[changed[1], changed[0]] += delta
    rebuilt = build_hierarchy(GridValues(vals.dims, arr), h.config)
    patched = dict(h.summaries)
    for level in range(1, h.height + 1):
        patched[h.cell_at(level, changed)] += delta
    assert patched == rebuilt.summaries


def test_cells_at_junctions():
    vals = ones(6, 6)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(6, 6), (3, 2)))
    at_corner = h.cells_at((5, 5))
    assert [c.level for c in at_corner] == [1, 2]
    assert h.cells_at((2, 2)) == [h.cell_at(1, (0, 0))]
    assert h.cells_at((1, 1)) == []


def test_a_level_off_the_cube_is_a_bounds_error():
    config = HierarchyConfig(GridDims(8, 8), (2, 2, 2))
    h = build_hierarchy(ones(8, 8), config)
    for level in (-1, 4):
        with pytest.raises(BoundsError):
            cell_of(config, level, (3, 3))
        with pytest.raises(BoundsError):
            h.level_array(level)
    for level in (0, 4):
        with pytest.raises(BoundsError):
            h.prefix_array(level)
    assert cell_of(config, 3, (3, 3)) == Cell(3, Rect(0, 0, 7, 7))


@pytest.mark.parametrize("width,height,fanouts", [
    (11, 7, (2, 3)), (13, 10, (1, 2, 2)), (9, 9, (3, 3)), (5, 8, (2, 2, 2, 2))])
def test_cells_at_matches_scan_of_every_level(width, height, fanouts):
    # Clipped right and bottom cells keep their junction on the grid edge.
    config = HierarchyConfig(GridDims(width, height), fanouts)
    h = build_hierarchy(ones(width, height), config)
    for x in range(width):
        for y in range(height):
            scan = [c for cells in h.levels for c in cells if c.junction == (x, y)]
            assert h.cells_at((x, y)) == scan
            assert config.junction_level((x, y)) == len(scan)
    levels = config.junction_levels()
    assert config.junction_levels() is levels and not levels.flags.writeable
    for p in ((-1, 0), (0, -1), (width, 0), (0, height)):
        with pytest.raises(BoundsError):
            config.junction_level(p)
        with pytest.raises(BoundsError):
            h.cells_at(p)
    # Child blocks and their junctions come in row-major order.
    for cells in h.levels:
        for cell in cells:
            _, cols, rows = config.child_grid(cell)
            assert [config.child_junction(cell, i, j) for j in range(rows) for i in range(cols)] \
                == [c.junction for c in h.children(cell)]


def test_dump_format():
    vals = GridValues.from_rows([[1, 2], [3, 4]])
    h = build_hierarchy(vals, HierarchyConfig(GridDims(2, 2), (2,)))
    assert h.dump() == ["1 0 0 1 1 1 1 10"]


def test_coloring_worked_example():
    vals, h = demo_cube()
    tree = color_tree(h, demo_region())
    label = lambda cells: sorted(c.label() for c in cells)
    assert label(tree.cells_by_color(Color.GREY)) == [
        "L0(2,4)", "L0(2,5)", "L0(3,4)", "L2(0,0)", "L2(4,4)"]
    assert label(tree.cells_by_color(Color.PARTIAL)) == ["L1(2,4)", "L2(0,4)", "L3(0,0)"]
    assert label(tree.cells_by_color(Color.WHITE)) == [
        "L0(3,5)", "L1(0,4)", "L1(0,6)", "L1(2,6)", "L2(4,0)"]


def test_coloring_whole_grid_and_empty():
    vals, h = demo_cube()
    whole = color_tree(h, region_from_rectangles([((0, 0), (7, 7))], h.dims))
    assert whole.root.color is Color.GREY
    assert [n.cell for n in whole.root.children] == list(h.top_cells)
    assert all(n.color is Color.GREY and n.children == () for n in whole.root.children)
    empty = color_tree(h, RectilinearRegion.empty())
    assert empty.root.color is Color.WHITE and empty.root.children == ()


# Grids whose right and bottom cells are clipped at every level.
CLIPPED = [(11, 7, (2, 3)), (13, 10, (1, 2, 2)), (5, 8, (2, 2, 2, 2))]


def test_coloring_matches_bruteforce(rng):
    for width, height, fanouts in [(8, 8, (2, 2))] + CLIPPED:
        dims = GridDims(width, height)
        vals = GridValues.random(dims, seed=5)
        h = build_hierarchy(vals, HierarchyConfig(dims, fanouts))
        for _ in range(50):
            region = random_region(rng, width, height)
            tree = color_tree(h, region)
            for node in tree.nodes():
                if node.is_root:
                    continue
                inside = sum(1 for p in node.cell.bounds.coords() if p in region.cells)
                expected = (Color.WHITE if inside == 0
                            else Color.GREY if inside == node.cell.area
                            else Color.PARTIAL)
                assert node.color is expected
                if node.color is not Color.PARTIAL:
                    assert node.children == ()


@st.composite
def coloring_cases(draw):
    """A cube over a grid of 1-14 per side, so clipped edges too, and a
    region that is empty, the whole grid or 1-3 rectangles."""
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    # With F1 = 1 the level-1 cells are single locations.
    fanouts = draw(st.sampled_from([(1, 2, 2), (3, 2), (2, 3), (4, 2)]))
    dims = GridDims(width, height)
    h = build_hierarchy(ones(width, height), HierarchyConfig(dims, fanouts))
    shape = draw(st.sampled_from(["empty", "whole", "rectangles", "rectangles"]))
    if shape == "empty":
        return h, RectilinearRegion.empty()
    if shape == "whole":
        return h, region_from_rectangles([((0, 0), (width - 1, height - 1))], dims)
    point = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    corners = draw(st.lists(st.tuples(point, point), min_size=1, max_size=3))
    return h, region_from_rectangles(
        [((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1)))
         for (x0, y0), (x1, y1) in corners], dims)


def flagged_cells(h, lc, flags):
    """The cells of `lc`'s level flagged in a 2-D array laid out as its own."""
    js, is_ = np.nonzero(flags)
    return set(h.config.indexed_cells(lc.level, (is_ + lc.i0).tolist(), (js + lc.j0).tolist()))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(coloring_cases())
def test_level_colors_match_the_colored_tree(case):
    # The planners read level_colors; the node tree is the oracle.
    h, region = case
    tree = color_tree(h, region)
    levels = level_colors(h, [region])
    assert [lc.level for lc in levels] == (list(range(h.height + 1)) if region else [])
    nodes = [n for n in tree.nodes() if not n.is_root]
    for lc in levels:
        assert flagged_cells(h, lc, lc.in_tree[0]) == {
            n.cell for n in nodes if n.cell.level == lc.level}
        for color, flags in ((Color.GREY, lc.grey), (Color.WHITE, lc.white),
                             (Color.PARTIAL, lc.partial)):
            assert flagged_cells(h, lc, flags[0] & lc.in_tree[0]) == {
                c for c in tree.cells_by_color(color) if c.level == lc.level}
    assert len(nodes) == sum(np.count_nonzero(lc.in_tree) for lc in levels)


@st.composite
def batch_cases(draw):
    """A cube over a grid of 1-24 per side and 1-3 regions, each empty or
    1-2 rectangles of at most 5x5 anywhere on it, so often far apart."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    fanouts = draw(st.sampled_from([(1, 2, 2), (3, 2), (2, 3), (4, 2)]))
    dims = GridDims(width, height)
    h = build_hierarchy(ones(width, height), HierarchyConfig(dims, fanouts))
    regions = []
    for _ in range(draw(st.integers(1, 3))):
        rects = []
        if draw(st.sampled_from(["empty", "rectangles", "rectangles"])) == "rectangles":
            for _ in range(draw(st.integers(1, 2))):
                x0, y0 = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
                rects.append(((x0, y0), (draw(st.integers(x0, min(x0 + 4, width - 1))),
                                         draw(st.integers(y0, min(y0 + 4, height - 1))))))
        regions.append(region_from_rectangles(rects, dims))
    return h, regions


@settings(max_examples=300, derandomize=True, deadline=None)
@given(batch_cases())
def test_batch_colors_match_each_region_colored_alone(case):
    # Each row of a batch, on the shared window, is that region's own tree.
    h, regions = case
    batch = level_colors(h, regions)
    assert len(batch) == (h.height + 1 if any(regions) else 0)
    for q, region in enumerate(regions):
        alone = level_colors(h, [region])
        for lc in batch:
            own = alone[lc.level] if alone else None
            for name in ("in_tree", "grey", "white", "partial"):
                got = flagged_cells(h, lc, getattr(lc, name)[q] & lc.in_tree[q])
                assert got == (flagged_cells(h, own, getattr(own, name)[0] & own.in_tree[0])
                               if own else set())


def eager_levels(dims, fanouts):
    """Every level's cells, row-major, clipped at the right and bottom edges."""
    levels = []
    for level in range(1, len(fanouts) + 1):
        side = math.prod(fanouts[:level])
        levels.append(tuple(
            Cell(level, Rect(x0, y0, min(x0 + side, dims.width) - 1,
                             min(y0 + side, dims.height) - 1))
            for y0 in range(0, dims.height, side) for x0 in range(0, dims.width, side)))
    return tuple(levels)


@pytest.mark.parametrize("width,height,fanouts", CLIPPED)
def test_level_arrays_equal_rect_sums(width, height, fanouts):
    dims = GridDims(width, height)
    vals = GridValues.random(dims, seed=width)
    h = build_hierarchy(vals, HierarchyConfig(dims, fanouts))
    for level, cells in enumerate(eager_levels(dims, fanouts), start=1):
        side = h.config.side(level)
        arr = h.level_array(level)
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert arr.shape == (-(-height // side), -(-width // side))
        for c in cells:
            expected = vals.rect_sum(c.bounds)
            assert arr[c.bounds.y0 // side, c.bounds.x0 // side] == expected
            assert h.value(c) == expected
    assert h.level_array(0) is vals.array


@pytest.mark.parametrize("width,height,fanouts",
                         CLIPPED + [(1, 9, (2, 2)), (9, 1, (3, 2)), (7, 5, (1, 3))])
def test_lazy_levels_and_summaries_equal_eager_build(width, height, fanouts):
    # Besides the clipped grids: a single column, a single row and F1 = 1.
    dims = GridDims(width, height)
    config = HierarchyConfig(dims, fanouts)
    vals = GridValues.random(dims, seed=height)
    h = build_hierarchy(vals, config)
    levels = eager_levels(dims, fanouts)
    assert h.top_cells == levels[-1]
    assert h.levels == levels
    assert all(h.cells_of(k) == levels[k - 1] for k in range(1, len(fanouts) + 1))
    assert h.summaries == {c: vals.rect_sum(c.bounds) for cells in levels for c in cells}
    # children() is the eager level below inside the cell, in row-major order.
    below = (tuple(Cell(0, Rect(x, y, x, y)) for x, y in dims.coords()),) + levels
    for k, cells in enumerate(levels, start=1):
        for cell in cells:
            assert h.children(cell) == [c for c in below[k - 1]
                                        if cell.bounds.contains_rect(c.bounds)]
    assert all(h.children(c) == [] for c in below[0])
    for p in dims.coords():
        for k in range(len(fanouts) + 1):
            cell = cell_of(config, k, p)
            assert cell.level == k and cell in below[k] and cell.bounds.contains_point(p)


def test_float_readings_keep_float64_level_arrays():
    dims = GridDims(5, 3)
    vals = GridValues.from_rows([[0.5, 1.25, 2.0, 0.125, 3.5]] * 3, dtype=float)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2)))
    assert all(h.level_array(k).dtype == np.float64 for k in (1, 2))
    for cells in h.levels:
        for c in cells:
            assert h.value(c) == pytest.approx(vals.rect_sum(c.bounds))


def test_grey_leaves_tile_region(rng):
    vals = GridValues.random(GridDims(8, 8), seed=6)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2)))
    for _ in range(30):
        region = random_region(rng, 8, 8)
        tree = color_tree(h, region)
        covered = set()
        for cell in tree.cells_by_color(Color.GREY):
            coords = set(cell.bounds.coords())
            assert not (coords & covered)
            covered |= coords
        assert covered == set(region.cells)
        total = sum(h.value(c) for c in tree.cells_by_color(Color.GREY))
        assert total == naive_region_sum(vals, region)


def test_cells_and_rects_are_values():
    config = HierarchyConfig(GridDims(8, 8), (2, 2, 2))
    made = cell_of(config, 1, (1, 0))
    cell = Cell(1, Rect(0, 0, 1, 1))
    assert made == cell == Cell(level=1, bounds=Rect(x0=0, y0=0, x1=1, y1=1))
    assert hash(made) == hash(cell) and hash(made.bounds) == hash(Rect(0, 0, 1, 1))
    assert len({made, cell, Cell(1, Rect(0, 0, 1, 1))}) == 1
    assert cell != Cell(2, Rect(0, 0, 1, 1)) and cell.bounds != Rect(0, 0, 1, 2)
    assert repr(made) == "Cell(level=1, bounds=Rect(x0=0, y0=0, x1=1, y1=1))"
    with pytest.raises(ValidationError, match="inverted"):
        Rect(2, 0, 1, 0)
    with pytest.raises(ValidationError, match="inverted"):
        made.bounds._replace(x0=2)
    with pytest.raises(BoundsError):
        config.block_cells(1, range(3, 5), range(0, 1))  # block 4 lies past the edge
    with pytest.raises(AttributeError):
        made.level = 2
    with pytest.raises(AttributeError):
        made.bounds.x0 = 5
    with pytest.raises(AttributeError):
        made.extra = 1
    for copied in (pickle.loads(pickle.dumps(made)), copy.copy(made), copy.deepcopy(made)):
        assert copied == made and type(copied) is Cell and type(copied.bounds) is Rect
    assert (made.junction, made.area, made.label()) == ((1, 1), 4, "L1(0,0)")
