from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcubes import recovery
from gridcubes.errors import BoundsError, RecoveryError, ValidationError
from gridcubes.flow import QueryPlan
from gridcubes.grid import (GridDims, GridValues, Rect, RectilinearRegion,
                            region_from_rectangles)
from gridcubes.hierarchy import HierarchyConfig, build_hierarchy, cell_of
from gridcubes.protocol import run_construction
from gridcubes.recovery import (FailureSet, RecoveryKind, _linear_block_solve,
                                failed_datapoints, plan_with_failures,
                                recover_junction, recover_node, recover_region)

from conftest import naive_region_sum, reference_failed_datapoints, reference_recover_region

MATRIX = [[12, 8, 10, 6],
          [20, 7, 11, 4],
          [15, 9, 13, 8],
          [18, 5, 12, 12]]


def drop(states, *coords):
    return {k: v for k, v in states.items() if k not in coords}


def matrix_states():
    vals = GridValues.from_rows(MATRIX)
    cfg = HierarchyConfig(GridDims(4, 4), (4,))
    states, _ = run_construction(vals, cfg, mode="ps")
    return states, cfg


def test_recover_node_holding_65():
    states, cfg = matrix_states()
    truth = states[(0, 3)].stored[0]
    assert truth == 65
    rec = recover_node(drop(states, (0, 3)), (0, 3), 1, cfg)
    assert rec.value == 65
    assert len(rec.donors) == 3


def test_recover_corner_node_via_opposite_square():
    states, cfg = matrix_states()
    truth = states[(0, 0)].stored[0]
    rec = recover_node(drop(states, (0, 0)), (0, 0), 1, cfg)
    assert rec.value == truth


def test_recover_random_single_failures(rng):
    vals = GridValues.random(GridDims(9, 6), seed=60)
    cfg = HierarchyConfig(GridDims(9, 6), (3, 2))
    states, _ = run_construction(vals, cfg, mode="ps")
    from gridcubes.protocol import junction_level
    for _ in range(60):
        coord = (rng.randrange(9), rng.randrange(6))
        k = junction_level(coord, cfg)
        if k == cfg.height:
            continue  # terminal junction: its data reaches no surviving slot
        truth = states[coord].stored[0]
        if k == 0:
            rec = recover_node(drop(states, coord), coord, 1, cfg)
            assert len(rec.donors) <= 3
        else:
            rec = recover_junction(drop(states, coord), coord, 1, cfg)
        assert rec.value == truth


def test_recover_node_needs_alive_square():
    states, cfg = matrix_states()
    # Remove the whole neighbourhood of (1, 1): no usable square remains.
    dead = [(1, 1)] + [(x, y) for x in (0, 1, 2) for y in (0, 1, 2) if (x, y) != (1, 1)]
    with pytest.raises(RecoveryError):
        recover_node(drop(states, *dead), (1, 1), 1, cfg)


def test_recover_node_refuses_a_level_off_the_cube():
    cfg = HierarchyConfig(GridDims(8, 8), (2, 2, 2))
    states, _ = run_construction(GridValues.random(GridDims(8, 8), seed=1), cfg, mode="ps")
    with pytest.raises(BoundsError):
        recover_node(drop(states, (3, 3)), (3, 3), 5, cfg)


def test_junction_standard_distance():
    vals = GridValues.from_rows([[1] * 6] * 6)
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    states, _ = run_construction(vals, cfg, mode="ps")
    truth = states[(2, 2)].stored[0]
    rec = recover_junction(drop(states, (2, 2)), (2, 2), 1, cfg)
    assert rec.value == truth == 9
    assert rec.distance <= 3 * cfg.fanouts[0]
    assert set(rec.donors) == {(5, 2), (2, 5), (5, 5)}


def test_junction_redundant_three_neighbours():
    vals = GridValues.from_rows([[1] * 6] * 6)
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    states, _ = run_construction(vals, cfg, mode="ps", redundant=True)
    truth = states[(2, 2)].stored[0]
    rec = recover_junction(drop(states, (2, 2)), (2, 2), 1, cfg, redundant=True)
    assert rec.value == truth
    assert set(rec.donors) == {(3, 2), (2, 3), (3, 3)}
    assert rec.distance == 3


@pytest.mark.parametrize("width,height,fanouts,redundant", [
    (12, 12, (2, 3), False),
    # With F1 = 1 every node is a level-1 junction, so the diagonal neighbour
    # of a redundant rebuild is one too and its level-1 value is subtracted.
    (6, 5, (1, 2), True), (7, 9, (1, 2, 3), True), (8, 8, (1, 2, 2), True)])
def test_junction_recovery_random(width, height, fanouts, redundant):
    dims = GridDims(width, height)
    vals = GridValues.random(dims, seed=61)
    cfg = HierarchyConfig(dims, fanouts)
    states, _ = run_construction(vals, cfg, mode="ps", redundant=redundant)
    h = build_hierarchy(vals, cfg)
    from gridcubes.protocol import junction_level
    for level in range(1, cfg.height):
        for cell in h.cells_of(level):
            j = cell.junction
            if junction_level(j, cfg) == cfg.height:
                continue  # also closes a top cell: its data reaches no other node
            rec = recover_junction(drop(states, j), j, level, cfg, redundant)
            assert rec.value == h.value(cell)


@pytest.mark.parametrize("scale", [1, 0.25])
def test_junction_escalation_with_dead_donor(scale):
    vals = GridValues.random(GridDims(6, 6), seed=62)
    # scale 0.25 gives the floating-point mode, with quarters that add exactly.
    vals = GridValues(vals.dims, vals.array * scale)
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    states, _ = run_construction(vals, cfg, mode="ps")
    h = build_hierarchy(vals, cfg)
    # Kill the junction and its east peer: the direct scheme fails, the
    # complement against the parent cell still succeeds.
    rec = recover_junction(drop(states, (2, 2), (5, 2)), (2, 2), 1, cfg)
    assert rec.value == h.value(h.cell_at(1, (0, 0)))
    assert isinstance(rec.value, (int, Fraction))
    assert (5, 5) in rec.donors


@pytest.mark.parametrize("level, dropped, donors, reads", [
    (1, [(3, 3), (7, 3)], [(1, 1), (1, 3), (3, 1), (3, 7), (7, 7)], 10),
    (0, [(3, 3)], [(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2), (3, 7), (7, 3), (7, 7)], 16)])
def test_an_escalated_corner_is_not_read(level, dropped, donors, reads):
    # (3, 3) is the corner junction of its parent cell, whose total comes
    # from the level above: the corner's prefix is that total, not a read.
    dims = GridDims(8, 8)
    vals = GridValues.random(dims, seed=1)
    cfg = HierarchyConfig(dims, (2, 2, 2))
    states, _ = run_construction(vals, cfg, mode="ps")
    alive = drop(states, *dropped)
    rec = recover_junction(alive, (3, 3), level, cfg)
    assert rec.value == build_hierarchy(vals, cfg).value(cell_of(cfg, level, (3, 3)))
    assert sorted(rec.donors) == donors and rec.reads == reads
    assert all(d in alive for d in rec.donors)


def _rank(rows) -> int:
    """Exact rank of a list of integer rows."""
    rows, rank = [[Fraction(a) for a in r] for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1:]:
            f = r[col] / pivot[col]
            r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def test_linear_block_solve_against_dominance_rank(rng):
    # The unknowns are the dead children's sums. A readable prefix B(i, j)
    # sums every child (a, b) with a <= i and b <= j, so it gives one
    # dominance row over the dead children; the target is determined iff
    # its unit row adds nothing to their rank.
    # Every other block holds float quarters, as in the floating-point mode:
    # the solve must still be exact and return a Fraction.
    determined = 0
    for n in range(1500):
        cols, rows = rng.randint(1, 5), rng.randint(1, 5)
        grid = [(i, j) for j in range(rows) for i in range(cols)]
        scale = 0.25 if n % 2 else 1
        child = {p: rng.randint(-50, 50) * scale for p in grid}
        prefix = {(i, j): sum(child[a, b] for a, b in grid if a <= i and b <= j)
                  for i, j in grid}
        dead = [p for p in grid if rng.random() < 0.6]
        if not dead:
            continue
        target, corner = rng.choice(dead), (cols - 1, rows - 1)
        from_above = rng.random() < 0.5 and corner in dead

        def b_of(i, j):
            readable = (i, j) not in dead or (from_above and (i, j) == corner)
            return prefix[i, j] if readable else None

        def child_of(i, j):
            return None if (i, j) in dead else child[i, j]

        value, used = _linear_block_solve(b_of, child_of, cols, rows, target)
        known = [(i, j) for i, j in grid if b_of(i, j) is not None]
        dominance = [[int(a <= i and b <= j) for a, b in dead] for i, j in known]
        unit = [int(p == target) for p in dead]
        assert (value is not None) == (_rank(dominance + [unit]) == _rank(dominance))
        if value is not None:
            determined += 1
            assert value == child[target]
            assert isinstance(value, Fraction)
        readable = {p for p in grid if p not in dead}
        assert used == sorted(readable | ({corner} if from_above and target == corner else set()))
    assert determined > 300


def _reads_by_rank(lost, fanouts, level, i, j):
    """`_cell_readable` by the dominance-rank rule, cell by cell and with no
    memo, and whether the cell's block escalated: a dead junction's cell is
    read from its parent's block when the alive prefixes determine it, at 2
    reads per alive junction; otherwise, when the parent's junction is dead
    and the parent readable, its total joins the prefixes as the block
    corner's, at the parent's reads."""
    if not lost[level][j, i]:
        return 1, False
    if level == len(fanouts):
        return None, False
    f = fanouts[level]
    rows, cols = lost[level].shape
    block = [(a, b) for b in range(j - j % f, min(j - j % f + f, rows))
             for a in range(i - i % f, min(i - i % f + f, cols))]
    dead = [p for p in block if lost[level][p[1], p[0]]]
    alive = [p for p in block if p not in dead]
    unit = [int(p == (i, j)) for p in dead]

    def determined(known):
        dominance = [[int(a <= x and b <= y) for a, b in dead] for x, y in known]
        return _rank(dominance + [unit]) == _rank(dominance)

    if determined(alive):
        return 2 * len(alive), False
    if not lost[level + 1][j // f, i // f]:
        return None, False
    upper = _reads_by_rank(lost, fanouts, level + 1, i // f, j // f)[0]
    if upper is None or not determined(alive + [block[-1]]):
        return None, True
    return 2 * len(alive) + upper, True


def test_cell_readable_against_dominance_rank(rng):
    # Grids the fanouts mostly do not divide, so edge blocks are clipped, and
    # dead junctions only, so parent junctions die and blocks escalate often.
    seen = Counter()
    for _ in range(500):
        fanouts = tuple(rng.randint(2, 3) for _ in range(rng.randint(2, 3)))
        dims = GridDims(rng.randint(3, 14), rng.randint(3, 14))
        config = HierarchyConfig(dims, fanouts)
        junctions = [(x, y) for y, x in np.argwhere(config.junction_levels()).tolist()]
        nodes = set(rng.sample(junctions, rng.randint(1, -(-len(junctions) // 3))))
        lost = FailureSet.of(nodes=nodes).lost(config)
        memo = {}
        cells = [(level, i, j) for level in range(1, len(fanouts) + 1)
                 for j in range(lost[level].shape[0]) for i in range(lost[level].shape[1])]
        rng.shuffle(cells)  # the memo holds earlier answers at every level
        for level, i, j in cells:
            reads = recovery._cell_readable(lost, fanouts, level, i, j, memo)
            expected, escalated = _reads_by_rank(lost, fanouts, level, i, j)
            assert reads == expected
            if lost[level][j, i] and level < len(fanouts):
                f = fanouts[level]
                seen["clipped"] += (i - i % f + f > lost[level].shape[1]
                                    or j - j % f + f > lost[level].shape[0])
                kind = "readable" if reads is not None else "unreadable"
                seen[kind] += 1
                seen["escalated " + kind] += escalated
    assert min(seen[k] for k in ("clipped", "readable", "unreadable", "escalated readable",
                                 "escalated unreadable")) > 50, seen


def test_failed_datapoints_include_enclosing_junctions():
    vals = GridValues.random(GridDims(8, 8), seed=63)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2, 2)))
    failures = FailureSet.of(nodes=[(7, 7)])
    cells = failed_datapoints(h, failures)
    assert {c.level for c in cells} == {0, 1, 2, 3}
    with pytest.raises(BoundsError):
        failed_datapoints(h, FailureSet.of(nodes=[(8, 0)]))


def area_failure_setup():
    """A 2-wide strip of three level-1 cells down the right column of the
    top-left level-2 cell and into the one below it. The strip's first cell
    alone is underdetermined (its junction and its parent's junction both
    died), while the top 2-cell portion is reconstructible from above."""
    vals = GridValues.random(GridDims(8, 8), seed=7, low=1, high=9)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2, 2)))
    strip = [h.cell_at(1, (2, 0)), h.cell_at(1, (2, 2)), h.cell_at(1, (2, 4))]
    return vals, h, FailureSet.of(cells=strip)


def test_failures_disjoint_from_query_plan_exactly():
    vals, h, failures = area_failure_setup()
    query = region_from_rectangles([((4, 0), (7, 3))], h.dims)
    res = plan_with_failures(h, failures, query)
    assert isinstance(res, QueryPlan)
    assert res.value == naive_region_sum(vals, query)
    direct = recover_region(h, failures, query)
    assert direct.kind is RecoveryKind.EXACT and direct.value == res.value
    assert direct.requested_area == direct.recovered_area == frozenset()
    assert direct.points_read == res.size


def test_recoverable_area_failure_plans_exactly():
    vals, h, failures = area_failure_setup()
    # Query covering the whole top 2-cell portion: the planner itself finds a
    # complement route through alive summaries.
    query = region_from_rectangles([((2, 0), (3, 3))], h.dims)
    res = plan_with_failures(h, failures, query)
    assert isinstance(res, QueryPlan)
    assert res.value == naive_region_sum(vals, query)


def test_recover_region_exact_when_enclosure_matches():
    vals, h, failures = area_failure_setup()
    query = region_from_rectangles([((2, 0), (3, 3))], h.dims)
    res = recover_region(h, failures, query)
    assert res.kind is RecoveryKind.EXACT
    assert res.value == naive_region_sum(vals, query)
    assert res.recovered_area == res.requested_area


def test_recover_region_solves_each_block_once(monkeypatch):
    # The dead level-2 cell kills the junctions of its four level-1 cells,
    # whose block solves all escalate to it, and its own.
    dims = GridDims(8, 8)
    vals = GridValues.random(dims, seed=3)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    failures = FailureSet.of(cells=[h.cell_at(2, (0, 0))])
    query = region_from_rectangles([((0, 0), (5, 5))], dims)
    solved, asking = [], []  # the cells solved; the cells whose readability is being decided
    cell_readable, parent_block = recovery._cell_readable, recovery._parent_block

    def deciding(lost, fanouts, level, i, j, memo):
        asking.append(h.config.indexed_cells(level, [i], [j])[0])
        try:
            return cell_readable(lost, fanouts, level, i, j, memo)
        finally:
            asking.pop()

    def counting(*args):
        solved.append(asking[-1])
        return parent_block(*args)

    monkeypatch.setattr(recovery, "_cell_readable", deciding)
    monkeypatch.setattr(recovery, "_parent_block", counting)
    res = recover_region(h, failures, query)
    assert res.kind is RecoveryKind.EXACT and res.value == naive_region_sum(vals, query)
    assert res.points_read == 11
    assert sorted(c.label() for c in solved) == [
        "L1(0,0)", "L1(0,2)", "L1(2,0)", "L1(2,2)", "L2(0,0)"]


def test_partial_area_failure_estimates_smallest_portion():
    vals, h, failures = area_failure_setup()
    query = region_from_rectangles([((2, 0), (3, 1))], h.dims)
    res = plan_with_failures(h, failures, query)
    assert res.kind is RecoveryKind.ESTIMATE
    top_two = vals.rect_sum(Rect(2, 0, 3, 3))
    assert res.value == Fraction(top_two, 2)
    whole_strip = vals.rect_sum(Rect(2, 0, 3, 5))
    assert res.value != Fraction(whole_strip, 3)
    assert len(res.recovered_area) == 8 and len(res.requested_area) == 4


def test_unrecoverable_when_top_junction_dies():
    vals = GridValues.random(GridDims(4, 4), seed=64)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(4, 4), (2, 2)))
    failures = FailureSet.of(cells=[h.cell_at(1, (2, 2))])  # kills (3, 3) too
    query = region_from_rectangles([((2, 2), (3, 3))], h.dims)
    res = plan_with_failures(h, failures, query)
    assert res.kind is RecoveryKind.UNRECOVERABLE
    assert res.value is None


def test_estimate_exact_under_uniform_data():
    vals = GridValues.from_rows([[3] * 8] * 8)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2, 2)))
    strip = [h.cell_at(1, (2, 0)), h.cell_at(1, (2, 2)), h.cell_at(1, (2, 4))]
    res = plan_with_failures(h, FailureSet.of(cells=strip),
                             region_from_rectangles([((2, 0), (3, 1))], h.dims))
    assert res.kind is RecoveryKind.ESTIMATE
    assert res.value == 4 * 3  # uniform data makes the estimate exact


def test_exact_bypass_matches_plain_plan():
    vals = GridValues.random(GridDims(8, 8), seed=65)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2)))
    query = region_from_rectangles([((0, 0), (3, 3))], h.dims)
    res = plan_with_failures(h, FailureSet(), query)
    assert isinstance(res, QueryPlan)
    assert res.value == naive_region_sum(vals, query)


def assert_recovery_bounds(vals, failures, query, res):
    area = failures.area()
    assert res.requested_area == query.cells & area
    assert res.recovered_area <= area
    if res.kind is RecoveryKind.EXACT:
        assert res.value == naive_region_sum(vals, query)
    elif res.kind is RecoveryKind.ESTIMATE:
        alive = sum(vals.at(p) for p in query.cells - area)
        readings = [vals.at(p) for p in res.recovered_area]
        n = len(res.requested_area)
        assert alive + min(readings) * n <= res.value <= alive + max(readings) * n


def test_overlapping_portions_count_each_location_once():
    # The portion seeded at (0, 0) recovers the cell L1(0,0), (1, 1) included;
    # the portion of the component (1, 1)-(1, 3) must not count it again.
    vals = GridValues.random(GridDims(8, 8), seed=5, low=1, high=9)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(8, 8), (2, 2, 2)))
    failures = FailureSet.of(nodes=[(0, 0), (1, 1), (1, 2), (1, 3)])
    query = region_from_rectangles([((0, 0), (1, 3))], h.dims)
    res = recover_region(h, failures, query)
    assert res.kind is RecoveryKind.EXACT
    assert res.value == naive_region_sum(vals, query) == 34


def test_overlapping_portions_keep_the_estimate_bound():
    vals = GridValues.random(GridDims(10, 11), seed=1664, low=1, high=9)
    h = build_hierarchy(vals, HierarchyConfig(GridDims(10, 11), (2, 2, 2)))
    dead = [(0, 10), (1, 3), (2, 2), (2, 5), (2, 9), (3, 3), (3, 4), (3, 7), (5, 10), (6, 10)]
    query = region_from_rectangles([((1, 2), (6, 4))], h.dims)
    res = plan_with_failures(h, FailureSet.of(nodes=dead), query)
    assert res.kind is RecoveryKind.ESTIMATE
    assert res.value == Fraction(177, 2)
    assert_recovery_bounds(vals, FailureSet.of(nodes=dead), query, res)


def test_nested_earlier_enclosures_are_taken_out_once():
    # (2, 1) is enclosed by L1(2,0), (3, 3) by L2(0,0), which takes L1(2,0)
    # in, and (3, 7) by L3(0,0), which takes L2(0,0) in: the readings of
    # L1(2,0) are inside both later enclosures and must leave only once.
    dims = GridDims(16, 16)
    vals = GridValues.random(dims, seed=1, low=1, high=9)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2, 2)))
    failures = FailureSet.of(nodes=[(1, 3), (2, 1), (3, 3), (3, 7), (7, 7)])
    query = region_from_rectangles([((2, 1), (3, 7))], dims)
    res = recover_region(h, failures, query)
    assert res == reference_recover_region(h, failures, query)
    assert res.kind is RecoveryKind.ESTIMATE and res.value == Fraction(145, 2)
    assert_recovery_bounds(vals, failures, query, res)


@st.composite
def failure_cases(draw, dense=False):
    """A cube with up to 10 dead nodes and 2 dead areas, and a one-rectangle
    query. `dense` draws up to 24 a side, fanouts up to (2, 2, 2, 2), up to a
    quarter of the nodes dead, up to 3 dead areas, a second rectangle half
    the time and quarter readings, which add exactly, in a fifth of the cubes."""
    side = st.integers(4, 24 if dense else 12)
    width, height = draw(side), draw(side)
    # With F1 = 1 the level-1 cells are single locations.
    fanouts = draw(st.sampled_from([(2, 2), (2, 2, 2), (3, 2), (2, 3), (1, 2, 2)]
                                   + ([(2, 2, 2, 2), (3, 3)] if dense else [])))
    dims = GridDims(width, height)
    vals = GridValues.random(dims, seed=draw(st.integers(0, 2**16)), low=1, high=9)
    if dense and draw(st.integers(0, 4)) == 0:
        vals = GridValues(dims, vals.array * 0.25)
    h = build_hierarchy(vals, HierarchyConfig(dims, fanouts))
    point = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    if dense:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        ys, xs = np.nonzero(rng.random((height, width)) < draw(st.sampled_from([0.05, 0.1, 0.25])))
        nodes = list(zip(xs.tolist(), ys.tolist()))
    else:
        nodes = draw(st.lists(point, max_size=10))
    cells = [h.cell_at(draw(st.integers(1, h.height - 1)), p)
             for p in draw(st.lists(point, max_size=3 if dense else 2))]
    rects = []
    for _ in range(draw(st.integers(1, 2)) if dense else 1):
        (x0, y0), (x1, y1) = draw(point), draw(point)
        rects.append(((min(x0, x1), min(y0, y1)), (max(x0, x1), max(y0, y1))))
    return vals, h, FailureSet.of(nodes=nodes, cells=cells), region_from_rectangles(rects, dims)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(failure_cases())
def test_answers_under_failure_match_naive_summation(case):
    vals, h, failures, query = case
    res = plan_with_failures(h, failures, query)
    if isinstance(res, QueryPlan):
        area = failures.area()
        assert all(cell.junction not in area for cell, _ in res.terms)
        assert res.value == naive_region_sum(vals, query)
    else:
        assert_recovery_bounds(vals, failures, query, res)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(failure_cases(dense=True))
def test_recover_region_matches_the_portion_loop(case):
    # All five fields: kind, value, both areas and the points read. Dense
    # failures make later enclosures take in earlier ones.
    _, h, failures, query = case
    assert recover_region(h, failures, query) == reference_recover_region(h, failures, query)


def assert_close_to_the_portion_loop(h, failures, query):
    """recover_region against the portion loop on float readings: the alive
    part's value is one masked sum of the readings here and the plan's cube
    sums there, so the values may differ in the last bits, but nothing else."""
    res, ref = recover_region(h, failures, query), reference_recover_region(h, failures, query)
    assert (res.kind, res.points_read, type(res.value)) == (ref.kind, ref.points_read,
                                                            type(ref.value))
    assert (res.recovered_area, res.requested_area) == (ref.recovered_area, ref.requested_area)
    assert res.value == (None if ref.value is None else pytest.approx(ref.value, rel=1e-12))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(failure_cases(dense=True), st.integers(0, 2**16))
def test_recover_region_matches_the_portion_loop_on_float_readings(case, seed):
    # The dense cases' cube, over non-dyadic float readings in [0, 100).
    _, h, failures, query = case
    readings = np.random.default_rng(seed).random((h.dims.height, h.dims.width)) * 100
    h = build_hierarchy(GridValues(h.dims, readings), h.config)
    assert_close_to_the_portion_loop(h, failures, query)


def test_a_fully_dead_query_on_float_readings_keeps_its_fraction():
    # The query's alive part is empty and adds the int 0, as an empty plan
    # does: a float 0.0 would turn the estimate's Fraction into a float.
    dims = GridDims(8, 8)
    vals = GridValues(dims, np.random.default_rng(0).random((8, 8)) * 100)
    h = build_hierarchy(vals, HierarchyConfig(dims, (2, 2, 2)))
    failures = FailureSet.of(nodes=[(2, 2), (3, 2), (2, 3), (3, 3)])
    query = region_from_rectangles([((2, 2), (3, 2))], dims)
    assert_close_to_the_portion_loop(h, failures, query)
    res = recover_region(h, failures, query)
    assert res.kind is RecoveryKind.ESTIMATE
    assert res.value == Fraction(4750672004639691, 35184372088832)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(failure_cases(), st.data())
def test_failed_datapoints_match_the_per_location_rule(case, data):
    _, h, failures, _ = case
    point = st.tuples(st.integers(0, h.dims.width - 1), st.integers(0, h.dims.height - 1))
    points = [h.cell_at(data.draw(st.integers(0, h.height)), p)
              for p in data.draw(st.lists(point, max_size=3))]
    failures = FailureSet.of(failures.nodes, failures.cells, points)
    assert failed_datapoints(h, failures) == reference_failed_datapoints(h, failures)


def test_recover_region_refuses_lost_data_points():
    vals, h, failures = area_failure_setup()
    query = region_from_rectangles([((2, 0), (3, 1))], h.dims)
    with pytest.raises(ValidationError):
        recover_region(h, FailureSet.of(failures.nodes, failures.cells,
                                        [h.cell_at(1, (0, 0))]), query)


@pytest.mark.parametrize("query, node", [
    (RectilinearRegion({(-1, 2)}), (7, 2)),
    (region_from_rectangles([((6, 6), (9, 9))]), (7, 7))], ids=["negative-origin", "past-the-edge"])
def test_recover_region_refuses_a_query_off_the_grid(query, node):
    dims = GridDims(8, 8)
    h = build_hierarchy(GridValues.random(dims, seed=1), HierarchyConfig(dims, (2, 2, 2)))
    failures = FailureSet.of(nodes=[node])
    for answer in (plan_with_failures, recover_region):
        with pytest.raises(BoundsError, match="region extends outside the grid"):
            answer(h, failures, query)


def reference_component(dead: set, seed) -> frozenset:
    """The 4-connected component of the dead locations holding `seed`, by
    a flood fill over the set."""
    comp, stack = {seed}, [seed]
    while stack:
        x, y = stack.pop()
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if n in dead and n not in comp:
                comp.add(n)
                stack.append(n)
    return frozenset(comp)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**16),
       st.sampled_from([0.2, 0.5, 0.7]))
def test_component_labels_match_a_flood_fill(width, height, seed, density):
    dead = np.random.default_rng(seed).random((height, width)) < density
    labels = recovery._components(dead)
    ys, xs = np.nonzero(dead)
    locations = set(zip(xs.tolist(), ys.tolist()))
    assert (labels > 0).sum() == len(locations)
    for p in locations:
        ys, xs = np.nonzero(labels == labels[p[1], p[0]])
        assert set(zip(xs.tolist(), ys.tolist())) == reference_component(locations, p)
