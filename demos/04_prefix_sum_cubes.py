"""Prefix-sum cubes: every node stores a dominated-rectangle sum.

Within a cell, any rectangle costs at most four entries and an arbitrary
rectilinear shape costs one entry per corner. The planner splits a region
into one corner-expanded piece per cell and picks the cheapest split with
one bottom-up pass over the colored tree; where two inside locations of a
cell meet only diagonally, one entry carries weight 2.
"""

from gridcubes import (GridDims, GridValues, HierarchyConfig, Rect,
                       build_ps_cube, ps_query_plan, rectangle_sum,
                       rectilinear_sum, region_from_rectangles)

rows = [[12, 8, 10, 6],
        [20, 7, 11, 4],
        [15, 9, 13, 8],
        [18, 5, 12, 12]]
values = GridValues.from_rows(rows)
ps = build_ps_cube(values, HierarchyConfig(GridDims(4, 4), (4,)))
cell = ps.hierarchy.cells_of(1)[0]
print("prefix table:")
print(ps.tables[cell])

value, points = rectangle_sum(ps, cell, Rect(1, 1, 3, 3))
parts = " ".join(f"{'+' if s > 0 else '-'}{ps.entry(p)}" for p, s in points)
print(f"\nrectangle (1,1)-(3,3): {parts} = {value}")

# An L-shaped region: six corners; the two on the top edge fall on the
# implicit zero row, leaving four entries.
region = region_from_rectangles([((1, 0), (3, 1)), ((2, 2), (3, 3))], GridDims(4, 4))
value, points = rectilinear_sum(ps, region)
print(f"L-shaped region: {len(points)} corner entries, sum {value}")

plan = ps_query_plan(ps, region)
print(f"cheapest plan: {plan.size} entries, value {plan.value}")
for point, sign in plan.terms:
    c = point.covered
    coefficient = abs(sign) if abs(sign) != 1 else ""
    print(f"  {'+' if sign > 0 else '-'}{coefficient} {point.label()} "
          f"covers ({c.x0},{c.y0})-({c.x1},{c.y1})")
