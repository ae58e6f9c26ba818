"""Every path works on region masks and summed-area tables only: a region
built from rectangles never builds its explicit location set while it is
planned, divided, answered from the prefix-sum cube, expanded by its
corners, recovered across failures or rendered, and the prefix-sum cube is
read in place, without building its per-cell tables. A single query, with
or without failed cells, and a division are planned on level arrays,
without building a colored tree or a flow network, and failures reach the
planner as per-level lost-point masks, without a Cell per lost summary,
also from `plan --fail node:`. Recovery reads the dead mask, never the
dead area location by location, and takes the enclosure cells' sums from
the level arrays, building no Cell for a cell whose junction is alive nor
for the query's alive part, which it reads as a cut size and one masked sum.
It decides a dead junction's readability on the lost masks alone, with no
Cell made and no summary or prefix array read.
A query that recovery answers because it has no finite cut builds no
blocking Cell of the planner's explanation, and queries sharing one
FailureSet build its dead and lost masks once.
A batch is planned on the same arrays, without a flow network, with or
without lost cells and also when its merged cut is infeasible. No
subcommand and no planner builds a colored tree node or a flow network,
also when some query alone has no finite cut: the error's blocking cells
come from the level arrays, and the prefix-sum planner walks the arrays
too. The construction wave works on slot arrays and builds no node state
until one is read. The `--json` report is encoded by json's C encoder, not
by the pure-Python one that an indent selects. A large grid of plain
integer readings is read from the scenario text by numpy: json decodes
only the rest of the file, and no `array.array` converts the readings."""

import json

import numpy as np
import pytest

from gridcubes import protocol, recovery, scenario
from gridcubes.cli import main
from gridcubes.errors import InfeasibleError
from gridcubes.division import greedy_divide
from gridcubes.flow import (FlowGraph, QueryPlan, _build_graph, _solve, build_flow_graph,
                            combined_plan, mark_failed, min_cut_plan, plan_query)
from gridcubes.grid import GridDims, GridValues, Rect, RectilinearRegion, region_from_rectangles
from gridcubes.hierarchy import (CubeHierarchy, HierarchyConfig, TreeNode, build_hierarchy,
                                 color_tree)
from gridcubes.prefix import PrefixSumCube, build_ps_cube, ps_query_plan, rectilinear_sum
from gridcubes.recovery import (FailureSet, RecoveryKind, RecoveryResult, failed_datapoints,
                                lost_points, plan_with_failures, recover_region)

from conftest import naive_region_sum, reference_failed_datapoints

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


def count_cells(monkeypatch) -> list:
    """Every Cell the package makes from now until `monkeypatch.undo()`,
    counted at `HierarchyConfig.indexed_cells`, the one place that makes
    them."""
    made = []
    make = HierarchyConfig.indexed_cells

    def counting(*args):
        cells = make(*args)
        made.extend(cells)
        return cells

    monkeypatch.setattr(HierarchyConfig, "indexed_cells", counting)
    return made


def test_node_failures_reach_the_planner_without_a_cell_per_lost_summary(
        monkeypatch, capsys, tmp_path):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=9)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    a = region_from_rectangles([((4, 4), (11, 11))], dims)
    dead = [(x, y) for x in range(16) for y in (0, 1)]
    scenario = tmp_path / "dead_rows.json"
    scenario.write_text(json.dumps({
        "schema": 1, "grid": {"width": 16, "height": 16, "random": {"seed": 9}},
        "hierarchy": {"fanouts": [2, 2, 2]},
        "regions": [{"name": "A", "rects": [[4, 4, 11, 11]]}]}))
    made = count_cells(monkeypatch)
    result = combined_plan([color_tree(h, a)], h, FailureSet.of(nodes=dead))
    direct = len(made)
    assert main(["plan", "--scenario", str(scenario), "--region", "A"]
                + [f"--fail=node:{x},{y}" for x, y in dead]) == 0
    through_cli = len(made) - direct
    monkeypatch.undo()
    # The only Cells made are the plan's terms, far fewer than the lost summaries.
    out = capsys.readouterr().out
    assert direct == through_cli == result.plans[0].size
    assert out.endswith(f"retrieval set: {direct} points\n")
    assert len(failed_datapoints(h, FailureSet.of(nodes=dead))) > 2 * direct
    assert result.plans[0].value == naive_region_sum(vals, a)


def refuse_explanation(*args, **kwargs):
    raise AssertionError("an InfeasibleError was made")


def test_infeasible_queries_that_recovery_answers_build_no_blocking_cell(monkeypatch):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=4)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    a = region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims)
    nodes, cells = [(3, 3), (5, 9), (12, 13)], [h.cell_at(2, (8, 4))]
    with pytest.raises(InfeasibleError) as before:
        combined_plan([color_tree(h, a)], h, FailureSet.of(nodes, cells))
    made = count_cells(monkeypatch)
    direct = recover_region(h, FailureSet.of(nodes, cells), a)
    by_recovery = len(made)
    monkeypatch.setattr(InfeasibleError, "__init__", refuse_explanation)
    result = plan_with_failures(h, FailureSet.of(nodes, cells), a)
    through_plan = len(made) - by_recovery
    monkeypatch.undo()
    # The only Cells made are recovery's own, none of the explanation's.
    assert through_plan == by_recovery
    assert isinstance(result, RecoveryResult) and result == direct
    # The error that is raised keeps its message and blocking cells: the network's.
    with pytest.raises(InfeasibleError) as after:
        combined_plan([color_tree(h, a)], h, FailureSet.of(nodes, cells))
    with pytest.raises(InfeasibleError) as network:
        min_cut_plan(mark_failed(build_flow_graph(color_tree(h, a)),
                                 failed_datapoints(h, FailureSet.of(nodes, cells))), h)
    assert after.value.blocking == before.value.blocking == network.value.blocking
    assert str(after.value) == str(before.value) == str(network.value)
    assert before.value.blocking


def counting(monkeypatch, cls, name) -> list:
    """The calls of method `name` of `cls`, counted until `monkeypatch.undo()`."""
    calls = []
    method = getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return method(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_queries_sharing_a_failure_set_build_its_masks_once(monkeypatch):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=4)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    failures = FailureSet.of([(3, 3), (5, 9), (12, 13)], [h.cell_at(2, (8, 4))])
    queries = [region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims),
               region_from_rectangles([((0, 10), (6, 15))], dims),
               region_from_rectangles([((8, 0), (15, 5))], dims)]
    dead_built = counting(monkeypatch, FailureSet, "_dead_mask")
    lost_built = counting(monkeypatch, FailureSet, "_lost_masks")
    answers = [plan_with_failures(h, failures, q) for q in queries]
    monkeypatch.undo()
    assert len(dead_built) == len(lost_built) == 1
    assert [isinstance(answer, QueryPlan) for answer in answers] == [False, True, False]
    assert answers == [plan_with_failures(h, FailureSet.of(failures.nodes, failures.cells), q)
                       for q in queries]
    # Every call reads the same read-only arrays.
    dead, lost = failures.dead(dims), lost_points(h, failures)
    assert dead is failures.dead(dims) and lost is lost_points(h, failures)
    assert not any(mask.flags.writeable for mask in (dead, *lost))
    assert lost[0] is dead


def test_one_failure_set_on_two_cube_layouts_gets_separate_masks():
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=4)
    deep = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    wide = build_hierarchy(vals, HierarchyConfig(dims, (4, 4)))
    failures = FailureSet.of([(3, 3), (5, 9), (12, 13)], [deep.cell_at(2, (8, 4))])
    query = region_from_rectangles([((0, 10), (6, 15))], dims)
    for h in (deep, wide, deep, wide):
        lost = lost_points(h, failures)
        assert lost is lost_points(h, failures)
        assert [mask.shape for mask in lost] == [h.level_array(k).shape
                                                 for k in range(h.height + 1)]
        assert failed_datapoints(h, failures) == reference_failed_datapoints(h, failures)
        assert plan_with_failures(h, failures, query).value == naive_region_sum(vals, query)
    assert lost_points(deep, failures) is not lost_points(wide, failures)
    # One grid size, so both layouts read one dead mask.
    assert lost_points(deep, failures)[0] is lost_points(wide, failures)[0]


def refuse_location_sets(*args):
    raise AssertionError("the dead area was read location by location")


def test_recovery_reads_the_dead_mask_not_location_sets(monkeypatch):
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=4)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    nodes = [(3, 3), (5, 9), (12, 13)]
    enclosed = FailureSet.of(nodes, [h.cell_at(2, (4, 8))])
    crossing = FailureSet.of(nodes, [h.cell_at(2, (8, 4))])
    a = region_from_rectangles([((1, 2), (9, 7)), ((4, 6), (13, 14))], dims)
    monkeypatch.setattr(FailureSet, "area", refuse_location_sets)
    monkeypatch.setattr(Rect, "coords", refuse_location_sets)
    recovered = recover_region(h, enclosed, a)
    through_plan = plan_with_failures(h, crossing, a)
    assert main(["recover", "--scenario", AREA, "--region", "Q", "--fail", "cell:1:2,0",
                 "--fail", "cell:1:2,2", "--fail", "cell:1:2,4"]) == 0
    monkeypatch.undo()
    assert recovered.kind is RecoveryKind.EXACT and recovered.value == naive_region_sum(vals, a)
    assert isinstance(through_plan, RecoveryResult)
    assert through_plan.requested_area == a.cells & crossing.area()


def refuse_value(self, cell):
    raise AssertionError("a summary was read through CubeHierarchy.value")


@pytest.mark.parametrize("nodes, corner", [([(0, 0)], (1, 1)), ([(2, 2), (4, 5)], (5, 6))])
def test_recovery_reads_enclosure_sums_from_the_level_arrays(monkeypatch, nodes, corner):
    # Each dead node's enclosure is an L1 cell whose junction is alive, so
    # recovery builds no Cell: neither for the enclosures nor for the alive
    # part of the query, whose reads are a cut size and whose value one
    # masked sum. The query's plan is the control: the counter sees its Cells.
    dims = GridDims(8, 8)
    vals = GridValues.random(dims, seed=1)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    query = region_from_rectangles([((0, 0), corner)], dims)
    failures = FailureSet.of(nodes=nodes)
    monkeypatch.setattr(CubeHierarchy, "value", refuse_value)
    made = count_cells(monkeypatch)
    res = recover_region(h, failures, query)
    by_recovery = list(made)
    plan = plan_query(h, query)
    monkeypatch.undo()
    assert by_recovery == []
    assert made == [cell for cell, _ in plan.terms] and plan.size > 0
    assert res.kind is RecoveryKind.EXACT and res.value == naive_region_sum(vals, query)
    assert res.recovered_area == res.requested_area == set(nodes)


def refuse_prefixes(self, level):
    raise AssertionError("a prefix array was read")


def test_recovery_decides_readability_on_the_lost_masks(monkeypatch):
    # The dead level-2 cell kills the junctions of its four level-1 cells,
    # which are solved from their parent's block and escalate to it: whether
    # each is readable, and at how many reads, is decided on the lost masks,
    # with no Cell made and no summary or prefix array read.
    dims = GridDims(8, 8)
    vals = GridValues.random(dims, seed=3)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    failures = FailureSet.of(cells=[h.cell_at(2, (0, 0))])
    query = region_from_rectangles([((0, 0), (5, 5))], dims)
    monkeypatch.setattr(CubeHierarchy, "value", refuse_value)
    monkeypatch.setattr(CubeHierarchy, "prefix_array", refuse_prefixes)
    made = count_cells(monkeypatch)
    res = recover_region(h, failures, query)
    monkeypatch.undo()
    assert made == []
    assert res.kind is RecoveryKind.EXACT and res.value == naive_region_sum(vals, query)
    assert res.points_read == 11


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


def refuse_python_encoder(*args, **kwargs):
    raise AssertionError("the pure-Python JSON encoder ran")


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="json has no C encoder here")
def test_the_json_report_is_written_by_the_c_encoder(monkeypatch, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse_python_encoder)
    assert main(["plan", "--scenario", THREE_LEVEL, "--region", "G",
                 "--json", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["plan"]["retrieval_size"] == 4


def refuse_array(*args, **kwargs):
    raise AssertionError("array.array converted the readings")


def test_a_large_grid_of_plain_integers_is_read_without_json(monkeypatch, tmp_path):
    values = np.random.default_rng(1).integers(0, 100, size=(256, 256))
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"schema": 1, "grid": {"width": 256, "height": 256,
                                                      "values": values.ravel().tolist()},
                                "hierarchy": {"fanouts": [4, 4, 4, 4]},
                                "regions": [{"name": "R", "rects": [[3, 5, 200, 90]]}]}))
    decoded = []
    decode = json.JSONDecoder.decode

    def counting_decode(self, s, *args, **kwargs):
        decoded.append(len(s))
        return decode(self, s, *args, **kwargs)

    monkeypatch.setattr(json.JSONDecoder, "decode", counting_decode)
    monkeypatch.setattr(scenario.array, "array", refuse_array)
    loaded = scenario.load_scenario(str(path))
    assert sum(decoded) < 0.01 * len(path.read_text())
    assert loaded.values.array.dtype == np.int64
    assert np.array_equal(loaded.values.array, values)
