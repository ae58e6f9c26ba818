"""Plan a spatial aggregate query with the fewest possible data points.

The minimum division of the step region needs five cells, but allowing
subtraction does better: retrieving the enclosing level-1 cell and removing
the one stray node answers the query with four points. The planner finds
this automatically by solving a min cut over the colored containment tree.
"""

from gridcubes import (GridDims, GridValues, HierarchyConfig, build_flow_graph,
                       build_hierarchy, color_tree, greedy_divide, mark_failed,
                       min_cut_plan, region_from_rectangles)
from gridcubes.errors import InfeasibleError

dims = GridDims(8, 8)
values = GridValues.random(dims, seed=42, low=0, high=9)
cube = build_hierarchy(values, HierarchyConfig(dims, (2, 2, 2)))
region = region_from_rectangles(
    [((0, 0), (3, 3)), ((4, 4), (7, 7)), ((2, 4), (3, 4)), ((2, 5), (2, 5))], dims)

print("greedy cover size:", greedy_divide(cube, region).size)

tree = color_tree(cube, region)
graph = build_flow_graph(tree)
plan = min_cut_plan(graph, cube)
print(f"min-cut plan ({plan.size} points):")
for cell, sign in plan.terms:
    print(f"  {'+' if sign > 0 else '-'} {cell.label()} = {cube.value(cell)}")
print("query answer:", plan.value)
assert plan.value == values.region_sum(region)

# Failures re-route the plan: losing one summary forces a detour, losing the
# right pair makes the exact answer impossible.
cell4 = cube.cell_at(2, (4, 4))
cell2 = cube.cell_at(2, (4, 0))
detour = min_cut_plan(mark_failed(graph, {cell4}), cube)
print(f"\nwith {cell4.label()} failed: {detour.size}-point detour, value {detour.value}")
try:
    min_cut_plan(mark_failed(graph, {cell2, cell4}), cube)
except InfeasibleError as e:
    print("with both right-hand summaries failed:",
          "no exact plan, blocking =", sorted(c.label() for c in e.blocking))
