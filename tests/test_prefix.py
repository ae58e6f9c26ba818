import numpy as np
import pytest

from gridcubes.errors import BoundsError, ValidationError
from gridcubes.grid import (GridDims, GridValues, Rect, RectilinearRegion,
                            classify_corners, region_from_rectangles)
from gridcubes.hierarchy import HierarchyConfig, build_hierarchy
from gridcubes.prefix import (build_ps_cube, corner_weights, ps_query_plan,
                              rectangle_sum, rectilinear_sum)

from conftest import (has_pinch, naive_region_sum, ps_min_cost_oracle, ps_piece_candidates,
                      random_region, row_rectangles)

# 4x4 matrix whose prefix table shows 170 bottom-right with interior entries
# 12, 36 and 65; the 3x3 region away from the anchored edges sums to 81.
MATRIX = [[12, 8, 10, 6],
          [20, 7, 11, 4],
          [15, 9, 13, 8],
          [18, 5, 12, 12]]


def matrix_cube():
    vals = GridValues.from_rows(MATRIX)
    return vals, build_ps_cube(vals, HierarchyConfig(GridDims(4, 4), (4,)))


def random_cube(w, h, fanouts, seed):
    vals = GridValues.random(GridDims(w, h), seed=seed)
    return vals, build_ps_cube(vals, HierarchyConfig(GridDims(w, h), fanouts))


def test_matrix_table():
    vals, ps = matrix_cube()
    cell = ps.hierarchy.cells_of(1)[0]
    table = ps.tables[cell]
    assert table[3, 3] == 170
    assert table[0, 0] == 12
    assert table[0, 3] == 36
    assert table[3, 0] == 65


def test_all_zero_grid():
    vals = GridValues.from_rows([[0] * 4] * 4)
    ps = build_ps_cube(vals, HierarchyConfig(GridDims(4, 4), (2, 2)))
    assert all((t == 0).all() for t in ps.tables.values())


def test_ps_recurrence_and_oracle():
    # 11x7 clips the right and bottom cells of both levels; int32 readings
    # still give int64 tables.
    for w, h, fanouts, dtype in [(8, 8, (4, 2), np.int64), (11, 7, (2, 3), np.int64),
                                 (11, 7, (2, 3), np.int32)]:
        dims = GridDims(w, h)
        vals = GridValues(dims, GridValues.random(dims, seed=21).array.astype(dtype))
        ps = build_ps_cube(vals, HierarchyConfig(dims, fanouts))
        arr = vals.array
        for point in ps.points():
            c = point.covered
            assert ps.entry(point) == arr[c.y0:c.y1 + 1, c.x0:c.x1 + 1].sum()
        for level in range(1, len(fanouts) + 1):
            base = ps.hierarchy.level_array(level - 1)
            side = ps.config.side(level - 1)
            for cell in ps.hierarchy.cells_of(level):
                t = ps.tables[cell]
                b = cell.bounds
                _, cols, rows = ps.config.child_grid(cell)
                assert t.dtype == np.int64 and t.shape == (rows, cols)
                for j in range(rows):
                    for i in range(cols):
                        up = t[j - 1, i] if j else 0
                        left = t[j, i - 1] if i else 0
                        diag = t[j - 1, i - 1] if i and j else 0
                        child = base[b.y0 // side + j, b.x0 // side + i]
                        assert t[j, i] == child + up + left - diag


def test_bottom_right_links_to_plain_summaries():
    vals, ps = random_cube(8, 8, (2, 2), seed=22)
    h = build_hierarchy(vals, ps.config)
    for level in (1, 2):
        for cell in h.cells_of(level):
            _, cols, rows = ps.config.child_grid(cell)
            corner = ps.point(cell, (cols - 1, rows - 1))
            assert ps.entry(corner) == h.value(cell)


def test_monotone_tables_for_nonnegative_values():
    vals, ps = random_cube(6, 6, (3, 2), seed=23)
    for t in ps.tables.values():
        assert (t[:, 1:] >= t[:, :-1]).all()
        assert (t[1:, :] >= t[:-1, :]).all()


def test_rectangle_sum_worked_example():
    vals, ps = matrix_cube()
    cell = ps.hierarchy.cells_of(1)[0]
    value, points = rectangle_sum(ps, cell, Rect(1, 1, 3, 3))
    assert value == 81
    assert [(ps.entry(p), s) for p, s in points] == [(170, 1), (12, 1), (36, -1), (65, -1)]


def test_rectangle_sum_anchored_single_point():
    vals, ps = matrix_cube()
    cell = ps.hierarchy.cells_of(1)[0]
    value, points = rectangle_sum(ps, cell, Rect(0, 0, 2, 1))
    assert len(points) == 1 and points[0][1] == 1
    assert value == vals.rect_sum(Rect(0, 0, 2, 1))


def test_rectangle_sum_random(rng):
    # On the 6x2 grid every cell above level 1 is clipped at the right and
    # bottom edges, so rectangles reaching those edges end inside a block.
    for w, h, fanouts, seed in ((8, 8, (4, 2), 24), (6, 2, (2, 2, 2), 34)):
        vals, ps = random_cube(w, h, fanouts, seed)
        for level_cells in ps.hierarchy.levels:
            for cell in level_cells:
                side, cols, rows = ps.config.child_grid(cell)
                b = cell.bounds
                for _ in range(20):
                    c0, r0 = rng.randrange(cols), rng.randrange(rows)
                    x1, y1 = ps.point(cell, (rng.randrange(c0, cols),
                                             rng.randrange(r0, rows))).location
                    rect = Rect(b.x0 + c0 * side, b.y0 + r0 * side, x1, y1)
                    value, _ = rectangle_sum(ps, cell, rect)
                    assert value == vals.rect_sum(rect)
        if fanouts == (2, 2, 2):
            top = ps.hierarchy.top_cells[0]
            assert rectangle_sum(ps, top, Rect(4, 0, 5, 1))[0] == vals.rect_sum(Rect(4, 0, 5, 1))


def test_rectangle_sum_rejects_outside_and_misaligned():
    vals, ps = random_cube(8, 8, (4, 2), seed=25)
    level2 = ps.hierarchy.cells_of(2)[0]
    with pytest.raises(BoundsError):
        rectangle_sum(ps, ps.hierarchy.cells_of(1)[0], Rect(0, 0, 6, 1))
    with pytest.raises(ValidationError):
        rectangle_sum(ps, level2, Rect(0, 0, 2, 2))  # not block aligned


def test_rectilinear_rectangle_four_points():
    vals, ps = random_cube(8, 8, (8,), seed=26)
    region = region_from_rectangles([((2, 3), (5, 6))], GridDims(8, 8))
    value, points = rectilinear_sum(ps, region)
    assert len(points) == 4
    assert value == naive_region_sum(vals, region)


def test_rectilinear_step_region_eight_points():
    vals, ps = random_cube(10, 8, (10,), seed=27)
    region = region_from_rectangles([((1, 1), (6, 3)), ((4, 4), (8, 6))], GridDims(10, 8))
    value, points = rectilinear_sum(ps, region)
    assert len(points) == 8  # 6 convex + 2 concave corners
    assert value == naive_region_sum(vals, region)


def test_rectilinear_point_count_equals_corners(rng):
    vals, ps = random_cube(9, 9, (9,), seed=28)
    count = 0
    while count < 120:
        region = random_region(rng, 7, 7)
        # keep away from the anchored boundary so every corner entry exists
        region = RectilinearRegion(frozenset((x + 1, y + 1) for x, y in region.cells))
        if has_pinch(region):
            continue
        value, points = rectilinear_sum(ps, region)
        assert value == naive_region_sum(vals, region)
        assert len(points) == len(classify_corners(region))
        count += 1


def test_expansion_weights_support_is_corner_set(rng):
    for _ in range(100):
        region = random_region(rng, 8, 8)
        if has_pinch(region):
            continue
        weights = corner_weights(region.cells)
        assert set(weights) == {c.corner for c in classify_corners(region)}
        assert all(w in (-1, 1) for w in weights.values())


def test_expansion_from_row_rectangles_cancels(rng):
    # Summing the four corner terms of every row rectangle leaves weight only
    # at the region's own corners.
    for _ in range(60):
        region = random_region(rng, 8, 8)
        if has_pinch(region):
            continue
        acc: dict = {}
        for r in row_rectangles(region):
            for (lx, ly), w in ((( r.x1 + 1, r.y1 + 1), 1), ((r.x0, r.y0), 1),
                                ((r.x1 + 1, r.y0), -1), ((r.x0, r.y1 + 1), -1)):
                acc[(lx, ly)] = acc.get((lx, ly), 0) + w
        acc = {k: v for k, v in acc.items() if v}
        assert acc == corner_weights(region.cells)


def test_multi_cell_region_stitches_exactly(rng):
    # 11x7 and 9x6 clip the right and bottom cells; F1 = 1 makes level-1
    # cells single locations.
    for w, h, fanouts in [(8, 8, (2, 2)), (11, 7, (2, 3)), (9, 6, (1, 2, 3))]:
        vals, ps = random_cube(w, h, fanouts, seed=29)
        for _ in range(60):
            region = random_region(rng, w, h)
            value, points = rectilinear_sum(ps, region)
            assert value == naive_region_sum(vals, region)


def test_plan_single_full_cell_costs_one():
    vals, ps = random_cube(8, 8, (4, 2), seed=30)
    cell = ps.hierarchy.cells_of(1)[0]
    b = cell.bounds
    region = region_from_rectangles([((b.x0, b.y0), (b.x1, b.y1))], GridDims(8, 8))
    plan = ps_query_plan(ps, region)
    assert plan.size == 1
    assert plan.value == vals.rect_sum(b)


def test_plan_rejects_empty_and_outside_regions():
    vals, ps = matrix_cube()
    with pytest.raises(ValidationError):
        ps_query_plan(ps, RectilinearRegion(frozenset()))
    with pytest.raises(BoundsError):
        ps_query_plan(ps, RectilinearRegion(frozenset({(3, 3), (4, 3)})))


def test_plan_matrix_region_costs_four():
    vals, ps = matrix_cube()
    region = region_from_rectangles([((1, 1), (3, 3))], GridDims(4, 4))
    plan = ps_query_plan(ps, region)
    assert plan.size == 4 and plan.value == 81
    assert sorted(ps.entry(p) * s for p, s in plan.terms) == [-65, -36, 12, 170]


def test_plan_cost_matches_exhaustive_oracle(rng):
    # The last two inputs give level-2 and level-3 cells 3x3 and 2x2 block
    # grids, where answering grey blocks through the parent's table pays off.
    for w, h, fanouts, seed, max_rects, span in ((6, 6, (3, 2), 31, 2, 4),
                                                 (6, 6, (2, 3), 39, 3, 5),
                                                 (8, 8, (2, 2, 2), 40, 3, 6)):
        vals, ps = random_cube(w, h, fanouts, seed)
        for _ in range(40):
            region = random_region(rng, w, h, max_rects=max_rects, span=span)
            plan = ps_query_plan(ps, region)
            assert plan.value == naive_region_sum(vals, region)
            oracle = ps_min_cost_oracle(ps_piece_candidates(ps.hierarchy, region), region.cells)
            assert oracle is not None
            assert plan.size == oracle


def pinched_region(rng, width, height):
    """Two random rectangles meeting only at one lattice corner."""
    x, y = rng.randrange(1, width), rng.randrange(1, height)
    x0, y0 = rng.randrange(x), rng.randrange(y)
    x1, y1 = rng.randrange(x, width), rng.randrange(y, height)
    return region_from_rectangles([((x0, y0), (x - 1, y - 1)), ((x, y), (x1, y1))],
                                  GridDims(width, height))


def test_plan_cost_never_beaten_by_corner_method(rng):
    vals, ps = random_cube(6, 6, (6,), seed=32)
    for _ in range(40):
        region = random_region(rng, 4, 4)
        region = RectilinearRegion(frozenset((x + 1, y + 1) for x, y in region.cells))
        plan = ps_query_plan(ps, region)
        _, points = rectilinear_sum(ps, region)
        assert plan.size <= len(points)
    # Pinched regions on a square grid, then random regions on a grid whose
    # right and bottom cells are clipped at every level.
    for w, h, fanouts, seed, draw in ((12, 12, (2, 2, 3), 35, pinched_region),
                                      (11, 7, (2, 3), 36, random_region)):
        vals, ps = random_cube(w, h, fanouts, seed)
        for _ in range(40):
            region = draw(rng, w, h)
            plan = ps_query_plan(ps, region)
            _, points = rectilinear_sum(ps, region)
            assert plan.size <= len(points)
            assert plan.value == naive_region_sum(vals, region)


@pytest.mark.parametrize("w,h,fanouts,seed,rects,cost", [
    (32, 32, (4, 2, 2, 2), 1, [((12, 11), (20, 18))], 12),
    (16, 16, (2, 2, 2, 2), 37, [((2, 2), (4, 4)), ((5, 5), (7, 7))], 12),
    (6, 2, (2, 2, 2), 38, [((4, 0), (5, 1))], 1),
    # Whole grid minus node (21,13): one partial cell with a 10x10 block grid.
    (40, 40, (4, 10), 39, [((0, 0), (39, 12)), ((0, 13), (20, 13)),
                           ((22, 13), (39, 13)), ((0, 14), (39, 39))], 10),
], ids=["rectangle-32", "pinch-16", "clipped-6x2", "hole-40"])
def test_plan_regression_regions(w, h, fanouts, seed, rects, cost):
    vals, ps = random_cube(w, h, fanouts, seed)
    region = region_from_rectangles(rects, GridDims(w, h))
    plan = ps_query_plan(ps, region)
    _, points = rectilinear_sum(ps, region)
    assert plan.size == cost <= len(points)
    assert plan.value == naive_region_sum(vals, region)
