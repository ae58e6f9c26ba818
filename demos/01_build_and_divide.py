"""Build a multiresolution cube and decompose a query region into cells.

A 8x8 sensor grid is summarized at three granularities (2x2 nodes per
level-1 cell, 2x2 level-1 cells per level-2 cell, one level-3 cell for the
whole grid). A step-shaped query region is then split into the minimum
number of cells that exactly cover it: the maximal fully-inside cells.
"""

from gridcubes import (GridDims, GridValues, HierarchyConfig, build_hierarchy,
                       classify_corners, greedy_divide, region_from_rectangles)

dims = GridDims(8, 8)
values = GridValues.random(dims, seed=42, low=0, high=9)
print("sensor readings:")
print(values.array)

config = HierarchyConfig(dims, (2, 2, 2))
cube = build_hierarchy(values, config)
print("\ncells per level:", [len(cube.cells_of(k)) for k in range(1, 4)])
for cell in cube.cells_of(2):
    print(f"  {cell.label()} junction {cell.junction} sum {cube.value(cell)}")

# Two large blocks plus three stray nodes: the worked-example region.
region = region_from_rectangles(
    [((0, 0), (3, 3)), ((4, 4), (7, 7)), ((2, 4), (3, 4)), ((2, 5), (2, 5))], dims)
corners = classify_corners(region)
print(f"\nquery region: {len(region)} nodes, {len(corners)} corners")

cover = greedy_divide(cube, region)
print(f"minimum division into {cover.size} cells:")
for cell in cover.cells:
    print(f"  {cell.label()} covering {cell.bounds} sum {cube.value(cell)}")
total = sum(cube.value(c) for c in cover.cells)
assert total == values.region_sum(region)
print("sum over the region:", total)
