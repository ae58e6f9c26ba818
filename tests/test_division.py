import pytest

from gridcubes.errors import BoundsError, ValidationError
from gridcubes.grid import GridDims, GridValues, RectilinearRegion, region_from_rectangles
from gridcubes.hierarchy import HierarchyConfig, build_hierarchy
from gridcubes.division import greedy_divide

from conftest import min_cover_oracle, random_region


def make_cube(w, h, fanouts, seed=0):
    vals = GridValues.random(GridDims(w, h), seed=seed)
    return build_hierarchy(vals, HierarchyConfig(GridDims(w, h), fanouts))


def test_single_cell_region():
    h = make_cube(8, 8, (2, 2))
    cell = h.cells_of(2)[0]
    region = region_from_rectangles([((cell.bounds.x0, cell.bounds.y0),
                                      (cell.bounds.x1, cell.bounds.y1))], h.dims)
    cover = greedy_divide(h, region)
    assert cover.size == 1 and cover.cells == (cell,)


def test_worked_example_cover():
    h = make_cube(8, 8, (2, 2, 2))
    region = region_from_rectangles(
        [((0, 0), (3, 3)), ((4, 4), (7, 7)), ((2, 4), (3, 4)), ((2, 5), (2, 5))], h.dims)
    cover = greedy_divide(h, region)
    assert cover.size == 5
    assert sorted(c.label() for c in cover.cells) == [
        "L0(2,4)", "L0(2,5)", "L0(3,4)", "L2(0,0)", "L2(4,4)"]


def test_cover_is_exact_partition(rng):
    h = make_cube(12, 12, (2, 2))
    for _ in range(100):
        region = random_region(rng, 12, 12)
        cover = greedy_divide(h, region)
        seen = set()
        for cell in cover.cells:
            coords = set(cell.bounds.coords())
            assert not (coords & seen)
            seen |= coords
        assert seen == set(region.cells)


def test_empty_region_rejected():
    h = make_cube(4, 4, (2,))
    with pytest.raises(ValidationError):
        greedy_divide(h, RectilinearRegion.empty())


def test_out_of_grid_region_rejected():
    h = make_cube(8, 8, (2, 2))
    region = RectilinearRegion.from_cells([(7, 7), (8, 7)])
    with pytest.raises(BoundsError):
        greedy_divide(h, region)


@pytest.mark.parametrize("w, hgt, fanouts", [(8, 8, (2, 2)), (7, 5, (1, 2, 2))])
def test_whole_grid_is_top_cells(w, hgt, fanouts):
    h = make_cube(w, hgt, fanouts)
    region = region_from_rectangles([((0, 0), (w - 1, hgt - 1))], h.dims)
    assert greedy_divide(h, region).cells == h.top_cells


def test_deterministic():
    h = make_cube(12, 12, (3, 2))
    region = region_from_rectangles([((1, 1), (7, 5)), ((4, 4), (10, 10))], h.dims)
    a = greedy_divide(h, region)
    b = greedy_divide(h, region)
    assert a.cells == b.cells


@pytest.mark.parametrize("fanouts, dims", [
    pytest.param((2, 2), (12, 12), id="fanouts0"),
    pytest.param((3, 2), (12, 12), id="fanouts1"),
    # 11x13 divides by no level side, so edge cells are clipped; F1 = 1
    pytest.param((1, 3, 2), (11, 13), id="clipped"),
])
def test_cover_size_matches_exact_cover_oracle(rng, fanouts, dims):
    w, hgt = dims
    h = make_cube(w, hgt, fanouts, seed=9)
    for _ in range(120):
        region = random_region(rng, w, hgt)
        cover = greedy_divide(h, region)
        assert cover.size == min_cover_oracle(h, region, cover.size)
