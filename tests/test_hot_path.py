"""The planner paths work on region masks and summed-area tables only: a
region built from rectangles never builds its explicit location set while
it is planned, divided or answered from the prefix-sum cube, and that cube
is read in place, without building its per-cell tables. The
construction wave works on slot arrays and builds no node state until one
is read."""

from gridcubes import protocol
from gridcubes.cli import main
from gridcubes.division import greedy_divide
from gridcubes.flow import build_flow_graph, combined_plan, min_cut_plan
from gridcubes.grid import GridDims, GridValues, RectilinearRegion, region_from_rectangles
from gridcubes.hierarchy import HierarchyConfig, build_hierarchy, color_tree
from gridcubes.prefix import PrefixSumCube, build_ps_cube, ps_query_plan

from conftest import naive_region_sum

from test_cli import THREE_LEVEL


def refuse(self):
    raise AssertionError("the explicit location set was built")


def refuse_tables(self):
    raise AssertionError("the per-cell prefix tables were built")


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
    # The prefix-sum cube is read in place: no per-cell table is built.
    monkeypatch.setattr(PrefixSumCube, "tables", property(refuse_tables))
    ps_plan = ps_query_plan(build_ps_cube(vals, config), a)
    for name in ("plan", "divide", "ps-plan"):
        assert main([name, "--scenario", THREE_LEVEL, "--region", "G", "--region", "Q2"]) == 0
    # Only now may the oracle read the locations.
    monkeypatch.undo()
    expected = naive_region_sum(vals, a)
    assert plan.value == combined.plans[0].value == ps_plan.value == expected
    assert sum(h.value(c) for c in cover.cells) == expected


def refuse_state(*args):
    raise AssertionError("a node state was built")


def test_construction_at_1024_builds_no_node_state(monkeypatch):
    dims = GridDims(1024, 1024)
    vals = GridValues.random(dims, seed=5)
    config = HierarchyConfig(dims, (4, 4, 4, 4, 4))
    monkeypatch.setattr(protocol, "NodeState", refuse_state)
    states, stats = protocol.run_construction(vals, config, mode="ps", redundant=True)
    assert stats.total_messages == 1_048_576
    assert stats.max_received == 3
    monkeypatch.undo()
    h = build_hierarchy(vals, config)
    for level in range(3, 6):
        side = config.side(level)
        expected = h.level_array(level)
        rows, cols = expected.shape
        for j in range(rows):
            for i in range(cols):
                junction = ((i + 1) * side - 1, (j + 1) * side - 1)
                assert protocol.node_slot(states, junction, level) == expected[j, i]
