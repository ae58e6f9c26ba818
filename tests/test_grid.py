import tracemalloc

import numpy as np
import pytest

from gridcubes.errors import BoundsError, ValidationError
from gridcubes.grid import (CornerKind, GridDims, GridValues, Rect,
                            RectilinearRegion, classify_corners, corner_counts,
                            region_from_rectangles)
from gridcubes.prefix import corner_weights

from conftest import (component_count, has_hole, has_pinch, naive_region_sum,
                      random_region, row_rectangles, scan_corners, set_bounding_rect,
                      set_corner_weights, set_count_in, set_within)

DIMS = GridDims(10, 8)

# Two offset rectangles forming a step: 8 corners, 6 convex and 2 concave,
# the shape used throughout as the corner-classification fixture.
STEP_RECTS = [((1, 1), (6, 3)), ((4, 4), (8, 6))]


def test_full_grid_rectangle():
    region = region_from_rectangles([((0, 0), (2, 2))], GridDims(3, 3))
    assert len(region) == 9


def test_union_of_disjoint_singles():
    region = region_from_rectangles([((0, 0), (0, 0)), ((2, 2), (2, 2))], DIMS)
    assert region.cells == {(0, 0), (2, 2)}


def test_inverted_rectangle_rejected():
    with pytest.raises(ValidationError):
        region_from_rectangles([((2, 2), (1, 1))], DIMS)


def test_out_of_bounds_rejected():
    with pytest.raises(BoundsError):
        region_from_rectangles([((0, 0), (10, 3))], DIMS)


def test_step_region_corner_inventory():
    region = region_from_rectangles(STEP_RECTS, DIMS)
    convex, concave = corner_counts(region)
    assert (convex, concave) == (6, 2)
    kinds = {c.corner: c.kind for c in classify_corners(region)}
    assert kinds[(4, 4)] is CornerKind.CONCAVE
    assert kinds[(7, 4)] is CornerKind.CONCAVE


def test_single_rectangle_corners():
    region = region_from_rectangles([((2, 2), (5, 4))], DIMS)
    assert corner_counts(region) == (4, 0)


def test_empty_region_classifies_empty():
    assert classify_corners(RectilinearRegion.empty()) == []


def test_containment():
    region = region_from_rectangles(STEP_RECTS, DIMS)
    assert region.contains((2, 2))
    assert not region.contains((1, 4))  # inside the step notch
    full = region_from_rectangles([((0, 0), (9, 7))], DIMS)
    assert all(full.contains(p) for p in DIMS.coords())
    assert not RectilinearRegion.empty().contains((0, 0))


def test_classification_matches_scan_oracle(rng):
    for _ in range(200):
        region = random_region(rng, DIMS.width, DIMS.height)
        expected_convex, expected_concave = scan_corners(region, DIMS.width, DIMS.height)
        got = classify_corners(region)
        got_convex = [c.corner for c in got if c.kind is CornerKind.CONVEX]
        got_concave = [c.corner for c in got if c.kind is CornerKind.CONCAVE]
        assert sorted(got_convex) == sorted(expected_convex)
        assert sorted(got_concave) == sorted(expected_concave)


def test_corner_parity_for_clean_regions(rng):
    checked = 0
    while checked < 100:
        region = random_region(rng, DIMS.width, DIMS.height)
        if has_pinch(region) or has_hole(region, DIMS.width, DIMS.height):
            continue
        convex, concave = corner_counts(region)
        assert convex - concave == 4 * component_count(region)
        checked += 1


def test_row_decomposition_roundtrip(rng):
    for _ in range(50):
        region = random_region(rng, DIMS.width, DIMS.height)
        rects = [((r.x0, r.y0), (r.x1, r.y1)) for r in row_rectangles(region)]
        assert region_from_rectangles(rects, DIMS).cells == region.cells


def test_corner_classification_translation_invariant(rng):
    region = region_from_rectangles(STEP_RECTS, DIMS)
    base = [(c.corner, c.kind) for c in classify_corners(region)]
    shifted = RectilinearRegion(frozenset((x + 1, y + 1) for x, y in region.cells))
    moved = [((x - 1, y - 1), k) for (x, y), k in
             ((c.corner, c.kind) for c in classify_corners(shifted))]
    assert sorted(base) == sorted(moved)


def test_values_shape_and_access():
    vals = GridValues.from_rows([[1, 2], [3, 4]])
    assert vals.at((1, 0)) == 2
    assert vals.rect_sum(Rect(0, 0, 1, 1)) == 10
    with pytest.raises(BoundsError):
        vals.at((2, 0))
    with pytest.raises(ValidationError):
        GridValues.from_flat(GridDims(2, 2), [1, 2, 3])


def test_float_mode():
    vals = GridValues.from_rows([[0.5, 1.5], [2.0, 0.25]], dtype=float)
    assert vals.array.dtype == np.float64
    assert vals.rect_sum(Rect(0, 0, 1, 0)) == pytest.approx(2.0)


def test_values_from_a_flat_array_are_copied_once():
    # The constructor's copy is the only one: the peak stays near one array.
    flat = np.arange(512 * 512, dtype=np.int64)
    tracemalloc.start()
    try:
        values = GridValues.from_flat(GridDims(512, 512), flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * flat.nbytes
    assert not np.shares_memory(values.array, flat)
    assert values.array.ravel().tolist() == flat.tolist()


def test_values_are_read_only():
    vals = GridValues.from_rows([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        vals.array[0, 0] = 9


def shifted_region(rng, width, height, dx, dy):
    region = random_region(rng, width, height)
    return RectilinearRegion(frozenset((x + dx, y + dy) for x, y in region.cells))


def test_region_built_from_cells_equals_one_from_rectangles(rng):
    for _ in range(100):
        region = random_region(rng, DIMS.width, DIMS.height)
        rects = [((r.x0, r.y0), (r.x1, r.y1)) for r in row_rectangles(region)]
        from_rects = region_from_rectangles(rects, DIMS)
        assert from_rects == region and hash(from_rects) == hash(region)
        assert from_rects.cells == region.cells
        rebuilt = RectilinearRegion(from_rects.cells)
        assert rebuilt == from_rects and hash(rebuilt) == hash(from_rects)
        padded = RectilinearRegion.from_mask(region.x0 - 2, region.y0 - 3,
                                             np.pad(region.mask, ((3, 1), (2, 4))))
        assert padded == region and hash(padded) == hash(region)
    other = region_from_rectangles([((0, 0), (1, 0))], DIMS)
    assert other != region_from_rectangles([((0, 0), (0, 1))], DIMS)
    assert RectilinearRegion.empty() == region_from_rectangles([], DIMS)
    assert hash(RectilinearRegion.empty()) == hash(RectilinearRegion(frozenset()))


def test_region_queries_match_set_references(rng):
    # Shifts put some regions partly or wholly off the grid.
    for _ in range(200):
        region = shifted_region(rng, 12, 10, rng.randint(-4, 3), rng.randint(-4, 3))
        cells = frozenset(region.cells)
        assert len(region) == len(cells)
        assert region.within(DIMS) == set_within(cells, DIMS)
        assert region.bounding_rect() == set_bounding_rect(cells)
        assert corner_weights(region) == set_corner_weights(cells)
        assert corner_weights(cells) == set_corner_weights(cells)
        for _ in range(10):
            x0, y0 = rng.randint(-6, 14), rng.randint(-6, 12)
            rect = Rect(x0, y0, x0 + rng.randrange(8), y0 + rng.randrange(8))
            assert region.count_in(rect) == set_count_in(cells, rect)
        for p in ((-1, 0), (0, 0), (5, 5), (11, 9), (12, 3)):
            assert region.contains(p) == (p in cells)
        if region.within(DIMS):
            vals = GridValues.random(DIMS, seed=len(cells))
            assert vals.region_sum(region) == naive_region_sum(vals, region)
        else:
            with pytest.raises(BoundsError):
                GridValues.random(DIMS, seed=0).region_sum(region)


def test_empty_region_queries():
    empty = RectilinearRegion.empty()
    assert len(empty) == 0 and not empty and empty.within(DIMS)
    assert empty.count_in(Rect(0, 0, 9, 7)) == 0 and not empty.contains((0, 0))
    assert empty.cells == frozenset() and corner_weights(empty) == {}
    assert GridValues.random(DIMS, seed=1).region_sum(empty) == 0
    with pytest.raises(ValidationError):
        empty.bounding_rect()
