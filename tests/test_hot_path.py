"""The planner paths work on region masks and summed-area tables only: a
region built from rectangles never builds its explicit location set while
it is planned, divided or answered from the prefix-sum cube."""

from gridcubes.cli import main
from gridcubes.division import greedy_divide
from gridcubes.flow import build_flow_graph, combined_plan, min_cut_plan
from gridcubes.grid import GridDims, GridValues, RectilinearRegion, region_from_rectangles
from gridcubes.hierarchy import HierarchyConfig, build_hierarchy, color_tree
from gridcubes.prefix import build_ps_cube, ps_query_plan

from conftest import naive_region_sum

from test_cli import THREE_LEVEL


def refuse(self):
    raise AssertionError("the explicit location set was built")


def test_plan_divide_and_ps_plan_never_build_cell_sets(monkeypatch):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=3)
    config = HierarchyConfig(dims, (2, 2, 2))
    h = build_hierarchy(vals, config)
    monkeypatch.setattr(RectilinearRegion, "_build_cells", refuse)
    a = region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims)
    b = region_from_rectangles([((0, 0), (15, 3))], dims)
    plan = min_cut_plan(build_flow_graph(color_tree(h, a)), h)
    combined = combined_plan([color_tree(h, a), color_tree(h, b)], h)
    cover = greedy_divide(h, a)
    ps_plan = ps_query_plan(build_ps_cube(vals, config), a)
    for name in ("plan", "divide", "ps-plan"):
        assert main([name, "--scenario", THREE_LEVEL, "--region", "G", "--region", "Q2"]) == 0
    # Only now may the oracle read the locations.
    monkeypatch.undo()
    expected = naive_region_sum(vals, a)
    assert plan.value == combined.plans[0].value == ps_plan.value == expected
    assert sum(h.value(c) for c in cover.cells) == expected
