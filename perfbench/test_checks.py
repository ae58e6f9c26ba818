"""The benchmark's output checks accept the program's answers and reject
tampered ones.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
from gridcubes.division import greedy_divide  # noqa: E402
from gridcubes.flow import build_flow_graph, combined_plan, min_cut_plan  # noqa: E402
from gridcubes.grid import GridDims, GridValues, region_from_rectangles  # noqa: E402
from gridcubes.hierarchy import HierarchyConfig, build_hierarchy, color_tree  # noqa: E402
from gridcubes.prefix import build_ps_cube, ps_query_plan, rectilinear_sum  # noqa: E402
from gridcubes.protocol import run_construction  # noqa: E402
from gridcubes.recovery import FailureSet, RecoveryKind, plan_with_failures  # noqa: E402
from gridcubes.scenario import load_scenario  # noqa: E402

FANOUTS = (2, 2, 2)
SIZE = 16
RECTS = [(1, 2, 9, 7), (5, 5, 12, 13)]
OTHER = [(0, 0, 6, 3)]


@pytest.fixture(scope="module")
def cube():
    values = np.random.default_rng(0).integers(0, 100, size=(SIZE, SIZE))
    dims = GridDims(SIZE, SIZE)
    config = HierarchyConfig(dims, FANOUTS)
    return checks.Grid(values, FANOUTS), GridValues(dims, values), config, \
        build_hierarchy(GridValues(dims, values), config)


def region(rects):
    return region_from_rectangles([((a, b), (c, d)) for a, b, c, d in rects], GridDims(SIZE, SIZE))


def cell_terms(terms):
    return [(c.level, c.bounds.x0, c.bounds.y0, c.bounds.x1, c.bounds.y1, s) for c, s in terms]


def test_plan_checks_accept_min_cut_plan(cube):
    grid, _, _, h = cube
    g = build_flow_graph(color_tree(h, region(RECTS)))
    plan = min_cut_plan(g, h)
    terms = cell_terms(plan.terms)
    assert checks.plan_errors(grid, grid.mask(RECTS), "q", plan.value, plan.size, terms) == []
    assert checks.min_cut_size_errors("q", plan.size, g) == []


def test_plan_value_off_by_one_is_rejected(cube):
    grid, _, _, h = cube
    plan = min_cut_plan(build_flow_graph(color_tree(h, region(RECTS))), h)
    terms = cell_terms(plan.terms)
    mask = grid.mask(RECTS)
    assert checks.plan_errors(grid, mask, "q", plan.value + 1, plan.size, terms)
    flipped = [terms[0][:5] + (-terms[0][5],)] + terms[1:]
    assert checks.plan_errors(grid, mask, "q", plan.value, plan.size, flipped)
    shifted = [(terms[0][0],) + tuple(v + 1 for v in terms[0][1:5]) + (terms[0][5],)] + terms[1:]
    assert checks.plan_errors(grid, mask, "q", plan.value, plan.size, shifted)


def test_min_cut_size_rejects_a_larger_plan(cube):
    _, _, _, h = cube
    g = build_flow_graph(color_tree(h, region(RECTS)))
    assert checks.min_cut_size_errors("q", min_cut_plan(g, h).size + 1, g)


def test_retrieval_set_must_be_the_union_of_terms(cube):
    _, _, _, h = cube
    result = combined_plan([color_tree(h, region(RECTS)), color_tree(h, region(OTHER))], h)
    per_query = [cell_terms(p.terms) for p in result.plans]
    retrieval = [(c.level, c.bounds.x0, c.bounds.y0, c.bounds.x1, c.bounds.y1)
                 for c in result.retrieval]
    assert checks.retrieval_errors("b", per_query, retrieval) == []
    assert checks.retrieval_errors("b", per_query, retrieval[1:])
    assert checks.retrieval_errors("b", per_query, retrieval + [(0, 15, 15, 15, 15)])


def test_maximal_inside_cells_matches_enumeration(cube):
    grid, _, _, _ = cube
    rng = np.random.default_rng(5)
    for _ in range(20):
        x0, y0 = rng.integers(0, SIZE, size=2)
        x1, y1 = rng.integers(x0, SIZE), rng.integers(y0, SIZE)
        mask = grid.mask([(x0, y0, x1, y1), (3, 3, 8, 8)])
        inside = set()
        for level in range(grid.levels + 1):
            for y, x in itertools.product(range(SIZE), repeat=2):
                b = grid.cell_bounds(level, (x, y))
                if mask[b[1]:b[3] + 1, b[0]:b[2] + 1].all():
                    inside.add((level, b))
        maximal = [(lv, b) for lv, b in inside
                   if lv == grid.levels or (lv + 1, grid.cell_bounds(lv + 1, b[:2])) not in inside]
        assert checks.maximal_inside_cells(grid, mask) == len(maximal)


def test_divide_checks_accept_greedy_cover_and_reject_a_missing_cell(cube):
    grid, _, _, h = cube
    cover = greedy_divide(h, region(RECTS))
    cells = [(c.level, c.bounds.x0, c.bounds.y0, c.bounds.x1, c.bounds.y1) for c in cover.cells]
    mask = grid.mask(RECTS)
    assert checks.divide_errors(grid, mask, "d", cover.size, cells) == []
    assert checks.divide_errors(grid, mask, "d", cover.size - 1, cells[1:])
    big = next(c for c in cells if c[0] >= 1)
    split = [c for c in cells if c != big] + [
        (0, x, y, x, y) for x in range(big[1], big[3] + 1) for y in range(big[2], big[4] + 1)]
    assert checks.divide_errors(grid, mask, "d", len(split), split)


def test_ps_plan_checks(cube):
    grid, values, config, _ = cube
    ps = build_ps_cube(values, config)
    rects = [(1, 1, 5, 4), (4, 3, 7, 6)]
    plan = ps_query_plan(ps, region(rects))
    corner_value, corner_points = rectilinear_sum(ps, region(rects))
    terms = [(p.covered.x0, p.covered.y0, p.covered.x1, p.covered.y1, s, ps.entry(p))
             for p, s in plan.terms]
    mask = grid.mask(rects)
    args = (corner_value, len(corner_points))
    assert checks.ps_plan_errors(grid, mask, "p", plan.value, plan.size, terms, *args) == []
    assert checks.ps_plan_errors(grid, mask, "p", plan.value + 1, plan.size, terms, *args)
    bad_entry = [terms[0][:5] + (terms[0][5] + 1,)] + terms[1:]
    assert checks.ps_plan_errors(grid, mask, "p", plan.value, plan.size, bad_entry, *args)
    assert checks.ps_plan_errors(grid, mask, "p", plan.value, plan.size, terms,
                                 corner_value, plan.size - 1)
    assert checks.ps_plan_errors(grid, mask, "p", plan.value, plan.size, terms,
                                 corner_value + 1, len(corner_points))


def test_construction_checks(cube):
    grid, values, config, _ = cube
    states, stats = run_construction(values, config, mode="ps", redundant=True)
    stored = {p: s.stored for p, s in states.items()}
    assert checks.construction_errors(grid, stats.total_messages, stats.max_received, stored) == []
    assert checks.construction_errors(grid, stats.total_messages + 1, stats.max_received, stored)
    assert checks.construction_errors(grid, stats.total_messages, 4, stored)
    junction = (SIZE - 1, SIZE - 1)
    tampered = dict(stored)
    tampered[junction] = (stored[junction][0] + 1,) + stored[junction][1:]
    assert checks.construction_errors(grid, stats.total_messages, stats.max_received, tampered)
    assert checks.rebuilt_errors(grid, "r", (2, 3), 1, stored[(2, 3)][0]) == []
    assert checks.rebuilt_errors(grid, "r", (2, 3), 1, stored[(2, 3)][0] + 1)


def test_exact_plan_rejects_a_term_on_a_dead_junction(cube):
    grid, _, _, h = cube
    plan = plan_with_failures(h, FailureSet(), region(RECTS))
    terms = cell_terms(plan.terms)
    qmask = grid.mask(RECTS)
    dead = np.zeros((SIZE, SIZE), dtype=bool)
    assert checks.exact_plan_errors(grid, qmask, dead, "q", plan.value, terms) == []
    for level, x0, y0, x1, y1, _ in terms:
        dead[:] = False
        dead[y1, x1] = True
        assert checks.exact_plan_errors(grid, qmask, dead, "q", plan.value, terms)


def test_estimate_checks():
    scenario = load_scenario(str(ROOT / "fixtures" / "deep_area_failure.json"))
    failures = scenario.named_failure("f24")
    query = scenario.region("G")
    res = plan_with_failures(scenario.hierarchy(), failures, query)
    assert res.kind is RecoveryKind.ESTIMATE
    values = scenario.values.array
    grid = checks.Grid(values, scenario.config.fanouts)
    qmask = np.zeros(values.shape, dtype=bool)
    for x, y in query.cells:
        qmask[y, x] = True
    dead = np.zeros(values.shape, dtype=bool)
    for x, y in failures.area():
        dead[y, x] = True

    def errors(value=res.value, requested=res.requested_area, recovered=res.recovered_area):
        return checks.recovered_errors(grid, qmask, dead, "e", "estimate", value,
                                       requested, recovered)

    assert errors() == []
    readings = [int(values[y, x]) for x, y in res.recovered_area]
    alive = int(values[qmask & ~dead].sum())
    high = alive + max(readings) * len(res.requested_area)
    assert errors(value=Fraction(high) + Fraction(1, 2))
    assert errors(value=alive + min(readings) * len(res.requested_area) - 1)
    assert errors(requested=set(list(res.requested_area)[1:]))
    outside = next((x, y) for y, x in zip(*np.nonzero(~dead)))
    assert errors(recovered=set(res.recovered_area) | {outside})


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prefix-sum",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]


def test_has_pinch():
    grid = checks.Grid(np.zeros((8, 8), dtype=np.int64), (2, 2))
    assert checks.has_pinch(grid.mask([(0, 0, 1, 1), (2, 2, 3, 3)]))
    assert checks.has_pinch(grid.mask([(2, 0, 3, 1), (0, 2, 1, 3)]))
    assert not checks.has_pinch(grid.mask([(0, 0, 1, 1), (2, 1, 3, 3)]))
    assert not checks.has_pinch(grid.mask([(0, 0, 3, 3)]))
