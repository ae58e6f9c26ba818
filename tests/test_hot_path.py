"""Every path works on region masks and summed-area tables only: a region
built from rectangles never builds its explicit location set while it is
planned, divided, answered from the prefix-sum cube, expanded by its
corners, recovered across failures or rendered, and the prefix-sum cube is
read in place, without building its per-cell tables. A single query, with
or without failed cells, and a division are planned on level arrays,
without building a colored tree or a flow network, and failures reach the
planner as per-level lost-point masks, without a Cell per lost summary.
A batch is planned on the same arrays, without a flow network, with or
without lost cells and also when its merged cut is infeasible. No
subcommand and no planner builds a colored tree node or a flow network,
also when some query alone has no finite cut: the error's blocking cells
come from the level arrays, and the prefix-sum planner walks the arrays
too. The construction wave works on slot arrays and builds no node state
until one is read."""

import pytest

from gridcubes import protocol, recovery
from gridcubes.cli import main
from gridcubes.errors import InfeasibleError
from gridcubes.division import greedy_divide
from gridcubes.flow import (FlowGraph, QueryPlan, _build_graph, _solve, build_flow_graph,
                            combined_plan, mark_failed, min_cut_plan, plan_query)
from gridcubes.grid import GridDims, GridValues, RectilinearRegion, region_from_rectangles
from gridcubes.hierarchy import HierarchyConfig, TreeNode, build_hierarchy, color_tree
from gridcubes.prefix import PrefixSumCube, build_ps_cube, ps_query_plan, rectilinear_sum
from gridcubes.recovery import FailureSet, RecoveryResult, plan_with_failures, recover_region

from conftest import naive_region_sum

from test_cli import AREA, THREE_LEVEL


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


def test_corner_expansion_recovery_and_render_never_build_cell_sets(monkeypatch, tmp_path):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=4)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    nodes = [(3, 3), (5, 9), (12, 13)]
    enclosed = FailureSet.of(nodes, [h.cell_at(2, (4, 8))])
    crossing = FailureSet.of(nodes, [h.cell_at(2, (8, 4))])
    monkeypatch.setattr(RectilinearRegion, "_build_cells", refuse)
    a = region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims)
    value, _ = rectilinear_sum(PrefixSumCube(h), a)
    recovered = recover_region(h, enclosed, a)
    # The dead cell leaves no finite cut, so this one reaches recovery.
    assert isinstance(plan_with_failures(h, crossing, a), RecoveryResult)
    assert main(["recover", "--scenario", AREA, "--region", "Q", "--fail", "cell:1:2,0",
                 "--fail", "cell:1:2,2", "--fail", "cell:1:2,4"]) == 0
    assert main(["render", "--scenario", THREE_LEVEL, "--region", "G",
                 "--svg", str(tmp_path / "g.svg"), "--plan"]) == 0
    monkeypatch.undo()
    assert value == recovered.value == naive_region_sum(vals, a)


def refuse_tree_or_graph(self, *args, **kwargs):
    raise AssertionError("a colored tree node or a flow network was built")


def test_single_queries_and_divisions_build_no_tree_or_graph(monkeypatch, tmp_path):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=6)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    a = region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims)
    nodes = FailureSet.of([(3, 3), (5, 9), (12, 13)])
    crossing = FailureSet.of(nodes.nodes, [h.cell_at(2, (8, 4))])
    monkeypatch.setattr(TreeNode, "__init__", refuse_tree_or_graph)
    monkeypatch.setattr(FlowGraph, "__init__", refuse_tree_or_graph)
    plan = plan_query(h, a)
    cover = greedy_divide(h, a)
    exact = plan_with_failures(h, nodes, a)
    recovered = plan_with_failures(h, crossing, a)
    for argv in (["plan", "--region", "G"], ["plan", "--region", "G", "--fail", "4"],
                 ["divide", "--region", "G"],
                 ["render", "--region", "G", "--svg", str(tmp_path / "g.svg"), "--plan"]):
        assert main(argv[:1] + ["--scenario", THREE_LEVEL] + argv[1:]) == 0
    monkeypatch.undo()
    assert isinstance(exact, QueryPlan) and isinstance(recovered, RecoveryResult)
    assert plan == min_cut_plan(build_flow_graph(color_tree(h, a)), h)
    assert plan.value == exact.value == naive_region_sum(vals, a)
    assert sum(h.value(c) for c in cover.cells) == plan.value


def refuse_tree_node(self, *args, **kwargs):
    raise AssertionError("a colored tree node was built")


def test_batches_infeasible_queries_and_ps_plans_build_no_tree_node(monkeypatch, capsys):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=8)
    config = HierarchyConfig(dims, (2, 2, 2))
    h = build_hierarchy(vals, config)
    a = region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims)
    b = region_from_rectangles([((0, 0), (15, 3))], dims)
    monkeypatch.setattr(TreeNode, "__init__", refuse_tree_node)
    combined = combined_plan([color_tree(h, a), color_tree(h, b)], h)
    ps_plan = ps_query_plan(build_ps_cube(vals, config), a)
    for name in ("plan", "ps-plan"):
        assert main([name, "--scenario", THREE_LEVEL, "--region", "G", "--region", "Q2"]) == 0
    capsys.readouterr()
    assert main(["plan", "--scenario", THREE_LEVEL, "--region", "G",
                 "--fail", "2", "--fail", "4"]) == 0
    assert capsys.readouterr().out.startswith("INFEASIBLE")
    monkeypatch.undo()
    assert [plan.value for plan in combined.plans] == [naive_region_sum(vals, r) for r in (a, b)]
    assert ps_plan.value == naive_region_sum(vals, a)


@pytest.mark.parametrize("case", ["cli", "direct", "lost cells", "merged cut infeasible"])
def test_batches_build_no_flow_network(monkeypatch, capsys, case):
    dims = GridDims(8, 8)
    vals = GridValues.random(dims, seed=3)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    a = region_from_rectangles([((0, 2), (6, 4))], dims)
    b = region_from_rectangles([((1, 0), (7, 4))], dims)
    failed = {
        "cli": set(), "direct": set(),
        "lost cells": {h.cell_at(2, (4, 4)), h.cell_at(1, (0, 2)), h.cell_at(0, (5, 3))},
        # With this point lost the merged network has no finite cut, while
        # each query alone has one (checked below).
        "merged cut infeasible": {h.cell_at(1, (2, 0))},
    }[case]
    monkeypatch.setattr(FlowGraph, "__init__", refuse_tree_or_graph)
    if case == "cli":
        assert main(["plan", "--scenario", THREE_LEVEL, "--region", "G", "--region", "Q2"]) == 0
        assert "INFEASIBLE" not in capsys.readouterr().out
        return
    result = combined_plan([color_tree(h, a), color_tree(h, b)], h, failed)
    monkeypatch.undo()
    assert [plan.value for plan in result.plans] == [naive_region_sum(vals, r) for r in (a, b)]
    assert not failed & result.retrieval
    merged = mark_failed(_build_graph([color_tree(h, a), color_tree(h, b)]), failed)
    assert (_solve(merged)[0] > merged.unit_count) == (case == "merged cut infeasible")


@pytest.mark.parametrize("case", ["plan --fail", "batch plan", "plan_query", "combined_plan"])
def test_infeasible_plans_build_no_tree_or_graph(monkeypatch, capsys, case):
    dims = GridDims(8, 8)
    h = build_hierarchy(GridValues.random(dims, seed=42), HierarchyConfig(dims, (2, 2, 2)))
    a = region_from_rectangles([((0, 0), (3, 3)), ((4, 4), (7, 7)), ((2, 4), (3, 4))], dims)
    b = region_from_rectangles([((1, 1), (6, 2)), ((5, 3), (6, 6))], dims)
    failed = {h.cell_at(2, (4, 0)), h.cell_at(2, (4, 4))}
    monkeypatch.setattr(TreeNode, "__init__", refuse_tree_or_graph)
    monkeypatch.setattr(FlowGraph, "__init__", refuse_tree_or_graph)
    if case in ("plan --fail", "batch plan"):
        regions = ["--region", "G"] + (["--region", "Q2"] if case == "batch plan" else [])
        assert main(["plan", "--scenario", THREE_LEVEL, *regions,
                     "--fail", "2", "--fail", "4"]) == 0
        assert capsys.readouterr().out == "INFEASIBLE L2(4,0) L2(4,4)\n"
        return
    with pytest.raises(InfeasibleError) as err:
        if case == "plan_query":
            plan_query(h, a, failed)
        else:
            combined_plan([color_tree(h, a), color_tree(h, b)], h, failed)
    assert err.value.blocking == failed


def refuse_lost_cells(*args):
    raise AssertionError("the lost data points were made as Cells")


def test_failures_reach_the_planner_as_level_masks(monkeypatch):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=7)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    a = region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims)
    nodes = FailureSet.of([(3, 3), (5, 9), (12, 13)])
    crossing = FailureSet.of(nodes.nodes, [h.cell_at(2, (8, 4))])
    monkeypatch.setattr(recovery, "failed_datapoints", refuse_lost_cells)
    exact = plan_with_failures(h, nodes, a)
    recovered = plan_with_failures(h, crossing, a)
    direct = recover_region(h, crossing, a)
    assert main(["recover", "--scenario", AREA, "--region", "Q", "--fail", "cell:1:2,0",
                 "--fail", "cell:1:2,2", "--fail", "cell:1:2,4"]) == 0
    monkeypatch.undo()
    assert isinstance(exact, QueryPlan) and exact.value == naive_region_sum(vals, a)
    assert isinstance(recovered, RecoveryResult) and recovered == direct


def test_corner_expansion_at_1024_never_builds_cell_sets(monkeypatch):
    dims = GridDims(1024, 1024)
    vals = GridValues.random(dims, seed=1)
    ps = PrefixSumCube(build_hierarchy(vals, HierarchyConfig(dims, (4, 4, 4, 4, 4))))
    monkeypatch.setattr(RectilinearRegion, "_build_cells", refuse)
    region = region_from_rectangles([((100, 100), (600, 600)), ((400, 500), (900, 880))], dims)
    value, _ = rectilinear_sum(ps, region)
    assert value == vals.region_sum(region)


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
