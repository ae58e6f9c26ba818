import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from gridcubes.errors import BoundsError, InfeasibleError, ValidationError
from gridcubes.division import greedy_divide
from gridcubes.flow import (ROOT, SINK, SOURCE, CombinedResult, _build_graph, _extract_plans,
                            _solve, build_flow_graph, combined_plan, mark_failed,
                            min_cut_plan, plan_query)
from gridcubes.grid import GridDims, GridValues, Rect, RectilinearRegion, region_from_rectangles
from gridcubes.hierarchy import Cell, Color, HierarchyConfig, build_hierarchy, color_tree

from conftest import (enumerate_cut_assignments, naive_region_sum,
                      plan_terms_for_query, random_region)


def demo_cube(seed=42):
    vals = GridValues.random(GridDims(8, 8), seed=seed, low=0, high=9)
    return vals, build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2, 2)))


def demo_region(dims=GridDims(8, 8)):
    return region_from_rectangles(
        [((0, 0), (3, 3)), ((4, 4), (7, 7)), ((2, 4), (3, 4)), ((2, 5), (2, 5))], dims)


def second_region(dims=GridDims(8, 8)):
    return region_from_rectangles(
        [((0, 0), (3, 3)), ((4, 4), (7, 7)), ((2, 4), (3, 4))], dims)


def small_cube(seed):
    vals = GridValues.random(GridDims(8, 8), seed=seed, low=0, high=9)
    return vals, build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2)))


def cell_by_label(h, label):
    level, coords = label[1:].split("(")
    x, y = (int(v) for v in coords.rstrip(")").split(","))
    cell = h.cell_at(int(level), (x, y))
    assert cell.label() == label
    return cell


def third_region(dims=GridDims(8, 8)):
    return region_from_rectangles([((1, 1), (6, 2)), ((5, 3), (6, 6))], dims)


def test_graph_structure():
    vals, h = demo_cube()
    tree = color_tree(h, demo_region())
    g = build_flow_graph(tree)
    # every grey node fed from the source, every white node drains to the sink
    grey = tree.cells_by_color(Color.GREY)
    white = tree.cells_by_color(Color.WHITE)
    kinds = {k for k in g.node_kind if isinstance(k, tuple)}
    assert {(c, "G") for c in grey} <= kinds
    assert {(c, "W") for c in white} <= kinds
    # one data point per retained cell; partials carry a +/- arc pair
    cells = {da.cell for da in g.data_arcs}
    partial = tree.cells_by_color(Color.PARTIAL)
    assert cells == grey | white | partial
    assert len(g.data_arcs) == len(cells) + len(partial)

    for regions in ([demo_region()], [demo_region(), third_region()],
                    [third_region(), demo_region(), second_region()]):
        check_graph_roles(h, regions)


def check_graph_roles(h, regions):
    """Batches follow the per-cell rule: with G, W, P the queries coloring a
    cell grey, white, partial in the colored trees' nodes and p its parent's
    U (ROOT on top), nodes U if P, G if G, W if W, M+ if P and G, M- if P
    and W; a + data arc from M+/G/U to p iff G or P and a - data arc from p
    to M-/W/U iff W or P."""
    trees = [color_tree(h, r) for r in regions]
    g = _build_graph(trees)
    colors = {}
    for q, t in enumerate(trees):
        for node in t.nodes():
            if not node.is_root:
                colors.setdefault(node.cell, {c: set() for c in Color})[node.color].add(q)
    roles = {}
    for kind in g.node_kind[3:]:
        roles.setdefault(kind[0], set()).add(kind[1])
    assert roles.keys() == colors.keys()

    def node(cell, role):
        return g.node_kind.index((cell, role))

    infinite = [(ROOT, SINK)]
    for cell, by in colors.items():
        G, W, P = by[Color.GREY], by[Color.WHITE], by[Color.PARTIAL]
        assert roles[cell] == {role for role, on in (
            ("U", P), ("G", G), ("W", W), ("M+", P and G), ("M-", P and W)) if on}
        for role, a, b in (("G", SOURCE, "G"), ("W", "W", SINK), ("M+", "G", "M+"),
                           ("M+", "U", "M+"), ("M-", "M-", "W"), ("M-", "M-", "U")):
            if role in roles[cell]:
                infinite.append(tuple(node(cell, x) if isinstance(x, str) else x
                                      for x in (a, b)))
        p = ROOT if cell.level == h.height else \
            node(h.cell_at(cell.level + 1, cell.junction), "U")
        arcs = sorted(((da.sign, da.u, da.v, da.base, da.cond)
                       for da in g.data_arcs if da.cell == cell), reverse=True)
        want = []
        if G or P:
            tail = "M+" if P and G else "G" if G else "U"
            want.append((+1, node(cell, tail), p, G, P))
        if W or P:
            head = "M-" if P and W else "W" if W else "U"
            want.append((-1, p, node(cell, head), W, P))
        assert arcs == want
    # Data arcs carry 1, every other arc the rule's infinity, reverses 0.
    data = {da.arc for da in g.data_arcs}
    assert g.unit_count == len(data)
    for i in range(0, len(g.arc_to), 2):
        assert (g.arc_cap[i], g.arc_cap[i + 1]) == (1 if i in data else g.unit_count + 1, 0)
    assert sorted((g.arc_to[i + 1], g.arc_to[i]) for i in range(0, len(g.arc_to), 2)
                  if i not in data) == sorted(infinite)


@st.composite
def role_batches(draw):
    """A cube over a grid of 1-14 per side, so clipped edges too, and a
    batch of 1-3 regions of 1-3 rectangles each."""
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    fanouts = draw(st.sampled_from([(2, 2), (2, 2, 2), (3, 2), (2, 3), (1, 2, 2), (4, 2)]))
    dims = GridDims(width, height)
    h = build_hierarchy(GridValues.random(dims, seed=1), HierarchyConfig(dims, fanouts))
    point = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    rectangles = st.lists(st.tuples(point, point), min_size=1, max_size=3)
    regions = [region_from_rectangles(
        [((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1)))
         for (x0, y0), (x1, y1) in corners], dims)
        for corners in draw(st.lists(rectangles, min_size=1, max_size=3))]
    return h, regions


@settings(max_examples=200, derandomize=True, deadline=None)
@given(role_batches())
def test_graph_roles_follow_the_colored_trees(case):
    # The graph and the roles both read the trees' nodes; `level_colors` is
    # checked against them in test_hierarchy.
    check_graph_roles(*case)


def test_worked_example_min_cut():
    vals, h = demo_cube()
    plan = min_cut_plan(build_flow_graph(color_tree(h, demo_region())), h)
    assert plan.size == 4
    want = {("L2(0,0)", 1), ("L2(4,4)", 1), ("L1(2,4)", 1), ("L0(3,5)", -1)}
    assert {(c.label(), s) for c, s in plan.terms} == want
    assert plan.value == naive_region_sum(vals, demo_region())


def test_alternative_cut_evaluates_identically():
    # The complement route through the top cell is a valid non-minimal plan.
    vals, h = demo_cube()
    region = demo_region()
    top = h.cells_of(3)[0]
    complement = [cell_by_label(h, lb) for lb in
                  ("L2(4,0)", "L1(0,4)", "L1(0,6)", "L1(2,6)", "L0(3,5)")]
    alt = h.value(top) - sum(h.value(c) for c in complement)
    assert alt == naive_region_sum(vals, region)


def test_whole_grid_region_plans_top_cells():
    vals, h = demo_cube()
    region = region_from_rectangles([((0, 0), (7, 7))], h.dims)
    plan = min_cut_plan(build_flow_graph(color_tree(h, region)), h)
    assert [c.level for c, _ in plan.terms] == [3]
    assert plan.value == vals.array.sum()


def test_empty_region_empty_plan():
    vals, h = demo_cube()
    plan = min_cut_plan(build_flow_graph(color_tree(h, RectilinearRegion.empty())), h)
    assert plan.terms == () and plan.value == 0


def test_every_cut_evaluates_to_region_sum(rng):
    # Any assignment of the partial nodes yields the exact aggregate.
    vals, h = small_cube(seed=10)
    for _ in range(40):
        region = random_region(rng, 8, 8)
        tree = color_tree(h, region)
        g = build_flow_graph(tree)
        if len(g.free_nodes()) > 14:
            continue
        expected = naive_region_sum(vals, region)
        for node_side, crossing in enumerate_cut_assignments(g):
            total = sum(da.sign * h.value(da.cell) for da in crossing)
            assert total == expected


def test_min_cut_size_matches_enumeration(rng):
    vals, h = small_cube(seed=11)
    for _ in range(40):
        region = random_region(rng, 8, 8)
        g = build_flow_graph(color_tree(h, region))
        if len(g.free_nodes()) > 14:
            continue
        plan = min_cut_plan(g, h)
        smallest = min(len({da.cell for da in crossing})
                       for _, crossing in enumerate_cut_assignments(g))
        assert plan.size == smallest


def test_max_flow_equals_cut_value(rng):
    from gridcubes.flow import _solve
    vals, h = small_cube(seed=18)
    for _ in range(30):
        region = random_region(rng, 8, 8)
        g = build_flow_graph(color_tree(h, region))
        flow, reach, crossing, _ = _solve(g)
        assert flow == len(crossing)  # all crossing arcs carry unit capacity


def test_min_cut_not_larger_than_greedy_cover(rng):
    vals, h = small_cube(seed=12)
    for _ in range(60):
        region = random_region(rng, 8, 8)
        plan = min_cut_plan(build_flow_graph(color_tree(h, region)), h)
        assert plan.size <= greedy_divide(h, region).size


def test_combined_worked_example():
    vals, h = demo_cube()
    t1 = color_tree(h, demo_region())
    t2 = color_tree(h, second_region())
    p1 = min_cut_plan(build_flow_graph(t1), h)
    p2 = min_cut_plan(build_flow_graph(t2), h)
    assert len(p1.points() | p2.points()) == 6
    result = combined_plan([t1, t2], h)
    assert len(result.retrieval) == 5
    assert sorted(c.label() for c in result.retrieval) == [
        "L0(2,4)", "L0(2,5)", "L0(3,4)", "L2(0,0)", "L2(4,4)"]
    assert result.plans[0].value == naive_region_sum(vals, demo_region())
    assert result.plans[1].value == naive_region_sum(vals, second_region())


def test_combined_identical_queries():
    vals, h = demo_cube()
    t = color_tree(h, demo_region())
    single = min_cut_plan(build_flow_graph(t), h)
    result = combined_plan([t, color_tree(h, demo_region())], h)
    assert result.retrieval == frozenset(single.points())


def test_combined_random_pairs(rng):
    vals, h = small_cube(seed=13)
    for _ in range(30):
        r1 = random_region(rng, 8, 8)
        r2 = random_region(rng, 8, 8)
        t1, t2 = color_tree(h, r1), color_tree(h, r2)
        result = combined_plan([t1, t2], h)
        # per-query plans always evaluate exactly
        assert result.plans[0].value == naive_region_sum(vals, r1)
        assert result.plans[1].value == naive_region_sum(vals, r2)
        # never worse than planning each query alone
        s1 = min_cut_plan(build_flow_graph(t1), h)
        s2 = min_cut_plan(build_flow_graph(t2), h)
        assert len(result.retrieval) <= s1.size + s2.size
        assert len(result.retrieval) <= len(s1.points() | s2.points())


def test_combined_no_duplicate_points_in_any_cut(rng):
    # No assignment can ever charge the same data point twice, including when
    # three queries give one cell all three colors.
    vals, h = small_cube(seed=14)
    from gridcubes.flow import _build_graph
    for _ in range(25):
        for count in (2, 3):
            trees = [color_tree(h, random_region(rng, 8, 8)) for _ in range(count)]
            g = _build_graph(trees)
            if len(g.free_nodes()) > 12:
                continue
            for node_side, crossing in enumerate_cut_assignments(g):
                cells = [da.cell for da in crossing]
                assert len(cells) == len(set(cells))


def test_combined_per_query_values_for_every_cut(rng):
    vals, h = small_cube(seed=15)
    from gridcubes.flow import _build_graph
    regions = None
    for _ in range(40):
        candidate = [random_region(rng, 8, 8) for _ in range(2)]
        g = _build_graph([color_tree(h, r) for r in candidate])
        if len(g.free_nodes()) <= 10:
            regions = candidate
            break
    assert regions is not None
    g = _build_graph([color_tree(h, r) for r in regions])
    for node_side, crossing in enumerate_cut_assignments(g):
        for q, region in enumerate(regions):
            terms = plan_terms_for_query(g, node_side, crossing, q)
            assert sum(s * h.value(c) for c, s in terms) == naive_region_sum(vals, region)


def test_combined_three_queries(rng):
    vals, h = small_cube(seed=19)
    for _ in range(10):
        regions = [random_region(rng, 8, 8) for _ in range(3)]
        result = combined_plan([color_tree(h, r) for r in regions], h)
        for plan, region in zip(result.plans, regions):
            assert plan.value == naive_region_sum(vals, region)
        assert result.retrieval == frozenset().union(*(p.points() for p in result.plans))


def test_combined_disjoint_top_cells_equals_sum_of_individuals():
    vals, h = small_cube(seed=16)
    r1 = region_from_rectangles([((0, 0), (2, 1))], h.dims)   # inside top cell (0,0)
    r2 = region_from_rectangles([((5, 5), (7, 6))], h.dims)   # inside top cell (4,4)
    t1, t2 = color_tree(h, r1), color_tree(h, r2)
    s1 = min_cut_plan(build_flow_graph(t1), h)
    s2 = min_cut_plan(build_flow_graph(t2), h)
    result = combined_plan([t1, t2], h)
    assert len(result.retrieval) == s1.size + s2.size


def test_mark_failed_forces_detour():
    vals, h = demo_cube()
    region = demo_region()
    g = build_flow_graph(color_tree(h, region))
    cell4 = cell_by_label(h, "L2(4,4)")
    plan = min_cut_plan(mark_failed(g, {cell4}), h)
    assert cell4 not in plan.points()
    assert plan.value == naive_region_sum(vals, region)


def test_mark_failed_infeasible_pair():
    vals, h = demo_cube()
    g = build_flow_graph(color_tree(h, demo_region()))
    failed = {cell_by_label(h, "L2(4,0)"), cell_by_label(h, "L2(4,4)")}
    with pytest.raises(InfeasibleError) as err:
        min_cut_plan(mark_failed(g, failed), h)
    assert err.value.blocking == failed
    with pytest.raises(InfeasibleError) as err:
        plan_query(h, demo_region(), failed)
    assert err.value.blocking == failed


def test_mark_failed_outside_tree_is_noop():
    vals, h = demo_cube()
    region = region_from_rectangles([((0, 0), (3, 3))], h.dims)
    g = build_flow_graph(color_tree(h, region))
    baseline = min_cut_plan(g, h)
    far = cell_by_label(h, "L1(4,6)")
    assert min_cut_plan(mark_failed(g, {far}), h).terms == baseline.terms


@st.composite
def batch_cases(draw):
    """A cube over a grid of 2-12 per side, a batch of 2-3 regions of 1-2
    rectangles each, and up to 4 lost cells of any level."""
    width, height = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    fanouts = draw(st.sampled_from([(2, 2), (2, 2, 2), (3, 2), (1, 2, 2)]))
    dims = GridDims(width, height)
    vals = GridValues.random(dims, seed=draw(st.integers(0, 2**16)), low=-9, high=9)
    h = build_hierarchy(vals, HierarchyConfig(dims, fanouts))
    point = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    rectangles = st.lists(st.tuples(point, point), min_size=1, max_size=2)
    regions = [region_from_rectangles(
        [((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1)))
         for (x0, y0), (x1, y1) in corners], dims)
        for corners in draw(st.lists(rectangles, min_size=2, max_size=3))]
    failed = {h.cell_at(draw(st.integers(0, h.height)), p)
              for p in draw(st.lists(point, max_size=4))}
    return h, regions, failed


@settings(max_examples=300, derandomize=True, deadline=None)
@given(batch_cases())
def test_combined_plan_is_infeasible_only_when_a_query_alone_is(case):
    # A partial replica shared by two queries may be forced to the source
    # side by one query's lost point and to the sink side by another's, so
    # the merged network can have no finite cut although each query has one.
    h, regions, failed = case
    trees = [color_tree(h, region) for region in regions]
    alone = []
    for region in regions:
        try:
            alone.append(plan_query(h, region, failed))
        except InfeasibleError:
            alone.append(None)
    if None in alone:
        merged = _solve(mark_failed(_build_graph(trees), failed))
        with pytest.raises(InfeasibleError) as err:
            combined_plan(trees, h, failed)
        assert err.value.blocking == merged[3]
        return
    result = combined_plan(trees, h, failed)
    assert [plan.value for plan in result.plans] == [plan.value for plan in alone]


@pytest.mark.parametrize("cell", [
    Cell(2, Rect(-4, 0, -1, 3)),  # off the grid, its corner's block is L2(4,0)
    Cell(1, Rect(6, 4, 8, 5)),    # not L1(6,4)'s bounds
    Cell(1, Rect(8, 0, 9, 1)),    # off the grid
    Cell(4, Rect(0, 0, 7, 7)),    # above the top level
])
def test_failed_cells_that_are_not_cells_of_the_cube_are_refused(cell):
    vals, h = demo_cube()
    region = region_from_rectangles([((1, 1), (7, 5))], h.dims)
    with pytest.raises(BoundsError):
        plan_query(h, region, {cell})
    with pytest.raises(BoundsError):
        combined_plan([color_tree(h, region), color_tree(h, third_region())], h, {cell})


def test_combined_plan_rejects_an_empty_batch():
    vals, h = demo_cube()
    with pytest.raises(ValidationError):
        combined_plan([], h)


def test_combined_plan_rejects_trees_over_another_hierarchy():
    vals, h = demo_cube()
    _, other = demo_cube(seed=7)
    trees = [color_tree(h, demo_region()), color_tree(other, second_region())]
    with pytest.raises(ValidationError):
        combined_plan(trees, h)
    with pytest.raises(ValidationError):
        combined_plan([color_tree(other, demo_region())], h)


def network_combined_plan(trees, h, failed):
    """`combined_plan` as the merged network gives it: one cut over the
    merged graph, and each query's own graph as the fallback; the smaller
    retrieval set wins, ties going to the merged cut. InfeasibleError, with
    the merged graph's blocking cells, when some query alone has no cut."""
    g = mark_failed(_build_graph(trees), failed)
    value, reach, crossing, blocking = _solve(g)
    infeasible = InfeasibleError(
        f"no finite cut: min cut {value} exceeds unit budget {g.unit_count}", blocking=blocking)
    if len(trees) == 1:
        if value > g.unit_count:
            raise infeasible
        plans, retrieval = _extract_plans(g, h, reach, crossing)
        return CombinedResult(tuple(plans), frozenset(retrieval), value, True)
    try:
        alone = [min_cut_plan(mark_failed(build_flow_graph(t), failed), h) for t in trees]
    except InfeasibleError:
        assert value > g.unit_count
        raise infeasible
    alone_points = frozenset().union(*(plan.points() for plan in alone))
    if value <= g.unit_count:
        plans, retrieval = _extract_plans(g, h, reach, crossing)
        if len(retrieval) <= len(alone_points):
            return CombinedResult(tuple(plans), frozenset(retrieval), value, True)
    return CombinedResult(tuple(alone), alone_points, len(alone_points), False)


@st.composite
def oracle_batches(draw):
    """A cube over a grid of 1-14 per side (so clipped edges too), fanouts
    with F1 = 1 among them, readings that are integers or quarters, 1-4
    regions that are empty, the whole grid or 1-3 rectangles, and up to 4
    lost cells of any level."""
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    fanouts = draw(st.sampled_from([(2, 2), (2, 2, 2), (3, 2), (2, 3), (1, 2, 2),
                                    (1, 3), (4, 2)]))
    dims = GridDims(width, height)
    vals = GridValues.random(dims, seed=draw(st.integers(0, 2**16)), low=-9, high=9)
    if draw(st.booleans()):
        vals = GridValues(dims, vals.array / 4)
    h = build_hierarchy(vals, HierarchyConfig(dims, fanouts))
    point = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    regions = []
    shapes = st.sampled_from(["empty", "whole"] + ["rectangles"] * 4)
    for shape in draw(st.lists(shapes, min_size=1, max_size=4)):
        if shape == "empty":
            regions.append(RectilinearRegion.empty())
        elif shape == "whole":
            regions.append(region_from_rectangles([((0, 0), (width - 1, height - 1))], dims))
        else:
            corners = draw(st.lists(st.tuples(point, point), min_size=1, max_size=3))
            regions.append(region_from_rectangles(
                [((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1)))
                 for (x0, y0), (x1, y1) in corners], dims))
    failed = {h.cell_at(draw(st.integers(0, h.height)), p)
              for p in draw(st.lists(point, max_size=4))}
    return h, regions, failed


@settings(max_examples=500, derandomize=True, deadline=None)
@given(oracle_batches())
def test_combined_plan_matches_the_merged_network(case):
    h, regions, failed = case
    trees = [color_tree(h, region) for region in regions]
    try:
        want = network_combined_plan(trees, h, failed)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError) as got:
            combined_plan(trees, h, failed)
        assert got.value.blocking == err.blocking
        assert str(got.value) == str(err)
        return
    result = combined_plan(trees, h, failed)
    assert result == want
    assert type(result.cut_size) is int
    assert [type(p.value) for p in result.plans] == [type(p.value) for p in want.plans]
    if len(trees) == 1:
        # The CLI plans one region as a batch of one.
        assert result.plans == (plan_query(h, regions[0], failed),)
        assert result.retrieval == result.plans[0].points()


def test_combined_plan_explains_a_large_infeasible_batch_as_the_network_does():
    # Past the hypothesis grids: 1024^2, where the passes run on wide windows.
    dims = GridDims(1024, 1024)
    h = build_hierarchy(GridValues.random(dims, seed=1), HierarchyConfig(dims, (4,) * 5))
    regions = [region_from_rectangles([((100, 100), (600, 600)), ((400, 500), (900, 880))], dims),
               region_from_rectangles([((10, 10), (300, 200))], dims)]
    failed = {h.cell_at(5, (0, 0)), h.cell_at(4, (0, 0)), h.cell_at(3, (128, 128))}
    trees = [color_tree(h, region) for region in regions]
    with pytest.raises(InfeasibleError) as want:
        network_combined_plan(trees, h, failed)
    with pytest.raises(InfeasibleError) as got:
        combined_plan(trees, h, failed)
    assert str(got.value) == str(want.value) == \
        "no finite cut: min cut 20611 exceeds unit budget 16192"
    assert got.value.blocking == want.value.blocking == failed


def test_failed_plans_match_enumeration(rng):
    vals, h = small_cube(seed=17)
    for _ in range(25):
        region = random_region(rng, 8, 8)
        g0 = build_flow_graph(color_tree(h, region))
        cells = sorted({da.cell for da in g0.data_arcs},
                       key=lambda c: (c.level, c.bounds.y0, c.bounds.x0))
        fail = {cells[rng.randrange(len(cells))]}
        g = mark_failed(g0, fail)
        if len(g.free_nodes()) > 14:
            continue
        sizes = [len({da.cell for da in crossing})
                 for _, crossing in enumerate_cut_assignments(g)
                 if not any(da.cell in fail for da in crossing)]
        try:
            plan = min_cut_plan(g, h)
        except InfeasibleError:
            assert not sizes
            continue
        assert not (set(fail) & plan.points())
        assert plan.size == min(sizes)
        assert plan.value == naive_region_sum(vals, region)


def random_instances(rng, fanouts, count):
    """(graph, trees) for single, 2- and 3-query graphs on grids 4-13, about
    half of them with up to a third of their data-point cells failed."""
    for _ in range(count):
        dims = GridDims(rng.randint(4, 13), rng.randint(4, 13))
        vals = GridValues.random(dims, seed=rng.randrange(10**6), low=0, high=9)
        h = build_hierarchy(vals, HierarchyConfig(dims, fanouts))
        trees = [color_tree(h, random_region(rng, dims.width, dims.height))
                 for _ in range(rng.choice((1, 1, 2, 3)))]
        g = _build_graph(trees)
        if rng.random() < 0.5:
            cells = sorted({da.cell for da in g.data_arcs},
                           key=lambda c: (c.level, c.bounds.y0, c.bounds.x0))
            g = mark_failed(g, rng.sample(cells, rng.randint(1, (len(cells) + 2) // 3)))
        yield g, trees


def networkx_cut(g):
    """(max-flow value, nodes reachable from the source in the residual graph)."""
    net = nx.DiGraph()
    net.add_nodes_from(range(g.node_count))
    for i in range(0, len(g.arc_to), 2):
        u, v = g.arc_to[i + 1], g.arc_to[i]
        if net.has_edge(u, v):
            net[u][v]["capacity"] += g.arc_cap[i]
        else:
            net.add_edge(u, v, capacity=g.arc_cap[i])
    value, flow = nx.maximum_flow(net, 0, 1)

    def residual(u, v):
        forward = net[u][v]["capacity"] - flow[u][v] if net.has_edge(u, v) else 0
        backward = flow[v][u] if net.has_edge(v, u) else 0
        return forward + backward

    reach = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in set(net.successors(u)) | set(net.predecessors(u)):
            if v not in reach and residual(u, v) > 0:
                reach.add(v)
                stack.append(v)
    return value, reach


@pytest.mark.parametrize("fanouts", [(2, 2), (2, 2, 2), (3, 2), (1, 2, 2)])
def test_solve_matches_networkx_max_flow(rng, fanouts):
    infeasible = 0
    for g, _ in random_instances(rng, fanouts, 40):
        value, reach, crossing, blocking = _solve(g)
        assert (value, reach) == networkx_cut(g)
        assert crossing == tuple(da for da in g.data_arcs
                                 if da.u in reach and da.v not in reach)
        assert bool(blocking) == (value > g.unit_count)
        infeasible += value > g.unit_count
    assert infeasible  # the infeasible case is covered too


def test_restoring_blocking_cells_makes_instance_feasible(rng):
    # Restoring the blocking cells makes an infeasible instance feasible.
    checked = 0
    for fanouts in ((2, 2), (2, 2, 2), (3, 2), (1, 2, 2)):
        for g, trees in random_instances(rng, fanouts, 60):
            value, _, _, blocking = _solve(g)
            if value <= g.unit_count:
                continue
            assert blocking and blocking <= g.failed
            restored = mark_failed(_build_graph(trees), g.failed - blocking)
            assert _solve(restored)[0] <= restored.unit_count
            checked += 1
    assert checked >= 20


@st.composite
def planning_cases(draw):
    """A cube over a grid of 1-14 per side (so clipped edges too) with
    integer readings or readings in quarters, a region that is empty, the
    whole grid or 1-3 rectangles, and up to 8 failed cells of any level."""
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    # With F1 = 1 the level-1 cells are single locations.
    fanouts = draw(st.sampled_from([(2, 2), (2, 2, 2), (3, 2), (2, 3), (1, 2, 2),
                                    (1, 3), (4, 2)]))
    dims = GridDims(width, height)
    vals = GridValues.random(dims, seed=draw(st.integers(0, 2**16)), low=-9, high=9)
    if draw(st.booleans()):
        vals = GridValues(dims, vals.array / 4)
    h = build_hierarchy(vals, HierarchyConfig(dims, fanouts))
    point = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    shape = draw(st.sampled_from(["empty", "whole", "rectangles", "rectangles"]))
    if shape == "empty":
        region = RectilinearRegion.empty()
    elif shape == "whole":
        region = region_from_rectangles([((0, 0), (width - 1, height - 1))], dims)
    else:
        corners = draw(st.lists(st.tuples(point, point), min_size=1, max_size=3))
        region = region_from_rectangles(
            [((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1)))
             for (x0, y0), (x1, y1) in corners], dims)
    failed = {h.cell_at(draw(st.integers(0, h.height)), p)
              for p in draw(st.lists(point, max_size=8))}
    return vals, h, region, failed


@settings(max_examples=400, derandomize=True, deadline=None)
@given(planning_cases())
def test_plan_query_matches_the_graph_planner(case):
    vals, h, region, failed = case
    g = mark_failed(build_flow_graph(color_tree(h, region)), failed)
    try:
        want = min_cut_plan(g, h)
    except InfeasibleError as err:
        with pytest.raises(InfeasibleError) as got:
            plan_query(h, region, failed)
        assert got.value.blocking == err.blocking
        return
    plan = plan_query(h, region, failed)
    assert plan.terms == want.terms
    assert plan.value == want.value
    assert type(plan.value) is type(want.value)
    if region:
        cover = greedy_divide(h, region).cells
        assert set(cover) == color_tree(h, region).cells_by_color(Color.GREY)
        assert list(cover) == sorted(cover, key=lambda c: (c.bounds.y0, c.bounds.x0))


def test_plan_query_sends_ties_under_a_source_side_parent_to_the_sink():
    # L2(0,0) sits on S. Its partial child L1(0,0) costs 5 on S (its white
    # children), and 4 on T (its grey children) plus its own data point for
    # leaving its parent's side: a tie, which the canonical cut sends to T.
    dims = GridDims(4, 4)
    h = build_hierarchy(GridValues.random(dims, seed=1), HierarchyConfig(dims, (3, 2)))
    region = region_from_rectangles([((1, 1), (3, 3))], dims)
    plan = plan_query(h, region)
    assert plan == min_cut_plan(build_flow_graph(color_tree(h, region)), h)
    assert (cell_by_label(h, "L1(0,0)"), -1) in plan.terms
