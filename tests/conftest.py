"""Shared oracles and generators for the test suite.

Oracles here are deliberately independent of the implementation paths they
check: corner classification is re-derived by scanning every lattice point,
cover minimality by branch-and-bound exact cover, cut properties by
enumerating all partial-node assignments, prefix-sum plan costs by exact
cover over every single-cell piece, prefix-sum answers by direct
summation, the construction wave by applying the per-node protocol rule
node by node, the lost summaries location by location, region recovery
by the portion loop that tracks recovered locations and earlier cells as
explicit sets, and a scenario file by json for the whole file with
`array.array` for its readings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from gridcubes import recovery, scenario
from gridcubes.flow import _array_plan, lost_points
from gridcubes.grid import GridDims, GridValues, Rect, RectilinearRegion
from gridcubes.hierarchy import Cell, CubeHierarchy, HierarchyConfig, cell_of
from gridcubes.protocol import NodeState, Packet, node_step


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_region(rng: random.Random, width: int, height: int,
                  max_rects: int = 3, span: int | None = None) -> RectilinearRegion:
    """Union of 1..max_rects random rectangles, guaranteed non-empty."""
    span = span or max(width, height)
    cells: set = set()
    for _ in range(rng.randint(1, max_rects)):
        x0 = rng.randrange(width)
        y0 = rng.randrange(height)
        x1 = min(width - 1, x0 + rng.randrange(span))
        y1 = min(height - 1, y0 + rng.randrange(span))
        cells.update((x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1))
    return RectilinearRegion(frozenset(cells))


def row_rectangles(region: RectilinearRegion) -> list[Rect]:
    """Maximal horizontal runs of the region, one Rect per run, by row."""
    by_row: dict[int, list[int]] = {}
    for x, y in region.cells:
        by_row.setdefault(y, []).append(x)
    rects = []
    for y in sorted(by_row):
        xs = sorted(by_row[y])
        start = prev = xs[0]
        for x in xs[1:]:
            if x != prev + 1:
                rects.append(Rect(start, y, prev, y))
                start = x
            prev = x
        rects.append(Rect(start, y, prev, y))
    return rects


def scan_corners(region: RectilinearRegion, width: int, height: int):
    """Classify every lattice point by direct 4-cell neighbourhood scan."""
    convex, concave = [], []
    for ly in range(height + 1):
        for lx in range(width + 1):
            n = sum(((cx, cy) in region.cells)
                    for cx, cy in ((lx - 1, ly - 1), (lx, ly - 1), (lx - 1, ly), (lx, ly)))
            if n == 1:
                convex.append((lx, ly))
            elif n == 3:
                concave.append((lx, ly))
    return convex, concave


def component_count(region: RectilinearRegion) -> int:
    remaining = set(region.cells)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            x, y = stack.pop()
            for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if n in remaining:
                    remaining.discard(n)
                    stack.append(n)
    return count


def has_hole(region: RectilinearRegion, width: int, height: int) -> bool:
    """True when the complement has a component not touching the border."""
    outside = {(x, y) for x in range(width) for y in range(height)} - region.cells
    border = {p for p in outside if p[0] in (0, width - 1) or p[1] in (0, height - 1)}
    seen = set(border)
    stack = list(border)
    while stack:
        x, y = stack.pop()
        for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if n in outside and n not in seen:
                seen.add(n)
                stack.append(n)
    return seen != outside


def has_pinch(region: RectilinearRegion) -> bool:
    """True at any lattice point whose two inside cells meet only diagonally."""
    lattice = set()
    for x, y in region.cells:
        lattice.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
    for lx, ly in lattice:
        nw = (lx - 1, ly - 1) in region.cells
        ne = (lx, ly - 1) in region.cells
        sw = (lx - 1, ly) in region.cells
        se = (lx, ly) in region.cells
        if nw + ne + sw + se == 2 and ((nw and se) or (ne and sw)):
            return True
    return False


def reference_failed_datapoints(h: CubeHierarchy, failures) -> set:
    """The lost summaries, location by location: each failed location's
    reading and every cell junctioned at it, and the lost data points."""
    out = set(failures.points)
    for p in failures.area():
        out.add(cell_of(h.config, 0, p))
        out.update(h.cells_at(p))
    return out


def mask_locations(mask) -> frozenset:
    ys, xs = np.nonzero(mask)
    return frozenset(zip(xs.tolist(), ys.tolist()))


def reference_recover_region(h: CubeHierarchy, failures, query: RectilinearRegion):
    """`recovery.recover_region` as a portion loop over explicit bookkeeping:
    a `pending` array of the dead query locations, rescanned for the next
    portion's seed and its component, a `recovered` mask, and the set of
    earlier enclosure cells, each one looked up to take its dead sum out."""
    dead = failures.dead(h.dims)
    in_query = np.zeros(dead.shape, dtype=bool)
    in_query[query.y0:, query.x0:][:query.mask.shape[0], :query.mask.shape[1]] = query.mask
    plan = _array_plan(h, (RectilinearRegion.from_mask(0, 0, in_query & ~dead),),
                       lost_points(h, failures))[0][0]
    total, reads = plan.value, plan.size
    q_dead = in_query & dead
    requested = mask_locations(q_dead)
    ys, xs = np.nonzero(q_dead)
    labels = recovery._components(dead)[ys, xs]
    pending = np.ones(len(ys), dtype=bool)
    recovered = np.zeros(dead.shape, dtype=bool)
    done: set[Cell] = set()
    readable: dict = {}
    any_estimate = False
    while pending.any():
        portion = pending & (labels == labels[pending.argmax()])
        cols, rows = xs[portion], ys[portion]
        for level in range(1, h.height + 1):
            f, width = h.config.fanouts[level - 1], h.level_array(level).shape[1]
            rows, cols = np.divmod(np.flatnonzero(np.bincount(rows // f * width + cols // f)),
                                   width)
            cells = h.config.indexed_cells(level, cols.tolist(), rows.tolist())
            cell_reads = [recovery._cell_readable(h, c, dead, readable) for c in cells]
            if None not in cell_reads:
                break
        else:
            return recovery.RecoveryResult(recovery.RecoveryKind.UNRECOVERABLE, None,
                                           mask_locations(recovered),
                                           requested, reads)
        covered = np.zeros(dead.shape, dtype=bool)
        for c in cells:
            covered[c.bounds.y0:c.bounds.y1 + 1, c.bounds.x0:c.bounds.x1 + 1] = True
        alive_inside = covered & ~dead
        value = sum(h.value(c) for c in cells) - h.values.array[alive_inside].sum().item()
        reads += sum(cell_reads) + int(alive_inside.sum())
        inside = {e for e in done if covered[e.bounds.y0, e.bounds.x0]}
        for e in inside:
            b = np.s_[e.bounds.y0:e.bounds.y1 + 1, e.bounds.x0:e.bounds.x1 + 1]
            value -= h.value(e) - h.values.array[b][~dead[b]].sum().item()
        done = (done - inside) | set(cells)
        new = covered & dead & ~recovered
        count, wanted = int(new.sum()), int((new & in_query).sum())
        if wanted < count:
            any_estimate, value = True, Fraction(value) * Fraction(wanted, count)
        total += value
        recovered |= new
        pending &= ~recovered[ys, xs]
    if isinstance(total, Fraction) and total.denominator == 1:
        total = int(total)
    kind = recovery.RecoveryKind.ESTIMATE if any_estimate else recovery.RecoveryKind.EXACT
    return recovery.RecoveryResult(kind, total, mask_locations(recovered),
                                   requested, reads)


def naive_region_sum(values: GridValues, region: RectilinearRegion) -> int:
    return sum(values.at(p) for p in region.cells)


# Set-based references for the array-backed region: each reads only the
# explicit location set.

def set_within(cells: frozenset, dims: GridDims) -> bool:
    return all(dims.contains(p) for p in cells)


def set_bounding_rect(cells: frozenset) -> Rect:
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    return Rect(min(xs), min(ys), max(xs), max(ys))


def set_count_in(cells: frozenset, rect: Rect) -> int:
    return sum(1 for p in cells if rect.contains_point(p))


def set_corner_weights(cells: frozenset) -> dict:
    """Mixed difference of the indicator over the four cells around each
    lattice point touching the set, keeping the nonzero ones."""
    weights = {}
    lattice = set()
    for x, y in cells:
        lattice.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
    for lx, ly in lattice:
        w = (((lx - 1, ly - 1) in cells) - ((lx, ly - 1) in cells)
             - ((lx - 1, ly) in cells) + ((lx, ly) in cells))
        if w:
            weights[(lx, ly)] = w
    return weights


def min_cover_oracle(h: CubeHierarchy, region: RectilinearRegion, greedy_bound: int) -> int:
    """Branch-and-bound exact cover over all hierarchy cells (incl. level 0).

    Branches on the first uncovered grid location; candidate cells are the
    nested chain of cells containing it that fit inside the residual. Cells
    with equal bounds (level 1 and level 0 when F1 = 1) are one candidate.
    """
    best = [greedy_bound]

    def candidates(residual: frozenset, p):
        out = []
        for level in range(h.height, -1, -1):
            cell = cell_of(h.config, level, p)
            cover = frozenset(cell.bounds.coords())
            if cover <= residual and cover not in out:
                out.append(cover)
        return out

    def rec(residual: frozenset, count: int):
        if not residual:
            best[0] = min(best[0], count)
            return
        if count + 1 > best[0]:
            return
        p = min(residual, key=lambda c: (c[1], c[0]))
        for cover in candidates(residual, p):
            rec(residual - cover, count + 1)

    rec(frozenset(region.cells), 0)
    return best[0]


@dataclass(frozen=True)
class PSPiece:
    """A candidate piece of a prefix-sum plan: the area it answers exactly
    and the number of entries it reads."""

    effective: frozenset
    cost: int


def enumerate_cut_assignments(g):
    """Yield (side lookup, crossing data arcs) for every assignment of the
    free (partial replica) nodes; skips nothing, so keep instances small."""
    free = g.free_nodes()
    assert len(free) <= 18, f"instance too large to enumerate: {len(free)} free nodes"
    for bits in range(2 ** len(free)):
        side = {}
        for idx, node in enumerate(free):
            side[node] = "S" if (bits >> idx) & 1 else "T"

        def node_side(n, side=side):
            return g.forced_side(n) or side[n]

        crossing = [da for da in g.data_arcs
                    if node_side(da.u) == "S" and node_side(da.v) == "T"]
        yield node_side, crossing


def plan_terms_for_query(g, node_side, crossing, q: int):
    """Replicate the per-query inclusion rule from graph metadata."""
    terms = []
    for da in crossing:
        if q in da.base:
            terms.append((da.cell, da.sign))
        elif q in da.cond:
            wanted = "S" if da.sign > 0 else "T"
            if node_side(g.u_node[da.cell]) == wanted:
                terms.append((da.cell, da.sign))
    return terms


def ps_piece_candidates(h: CubeHierarchy, region: RectilinearRegion) -> list[PSPiece]:
    """Every (cell, nonempty union of its child blocks inside the region) pair.

    Child blocks of a level-1 cell are grid locations. A piece costs the
    nonzero corner weights of its block set in the cell's block grid, skipping
    the top and left lattice lines (the implicit zero row and column). Pieces
    with the same area keep the cheapest cost.
    """
    best: dict[frozenset, int] = {}
    for level_cells in h.levels:
        for cell in level_cells:
            side = h.config.side(cell.level - 1)
            b = cell.bounds
            blocks = {}
            for y0 in range(b.y0, b.y1 + 1, side):
                for x0 in range(b.x0, b.x1 + 1, side):
                    area = frozenset((x, y) for x in range(x0, min(x0 + side, b.x1 + 1))
                                     for y in range(y0, min(y0 + side, b.y1 + 1)))
                    if area <= region.cells:
                        blocks[((x0 - b.x0) // side, (y0 - b.y0) // side)] = area
            keys = list(blocks)
            for bits in range(1, 2 ** len(keys)):
                chosen = {k for i, k in enumerate(keys) if bits >> i & 1}
                cols = max(ci for ci, _ in chosen) + 1
                rows = max(cj for _, cj in chosen) + 1
                cost = sum(1 for lx in range(1, cols + 1) for ly in range(1, rows + 1)
                           if ((lx - 1, ly - 1) in chosen) - ((lx, ly - 1) in chosen)
                           - ((lx - 1, ly) in chosen) + ((lx, ly) in chosen))
                area = frozenset().union(*(blocks[k] for k in chosen))
                best[area] = min(cost, best.get(area, cost))
    return [PSPiece(area, cost) for area, cost in best.items()]


def ps_min_cost_oracle(candidates, target: frozenset) -> int | None:
    """Exhaustive exact cover of target by disjoint candidates, memoized on
    the residual; returns the least total cost or None if none covers it."""
    memo: dict[frozenset, int | None] = {frozenset(): 0}

    def rec(residual: frozenset) -> int | None:
        if residual not in memo:
            p = min(residual, key=lambda c: (c[1], c[0]))
            costs = [cand.cost + rest for cand in candidates
                     if p in cand.effective and cand.effective <= residual
                     for rest in [rec(residual - cand.effective)] if rest is not None]
            memo[residual] = min(costs, default=None)
        return memo[residual]

    return rec(frozenset(target))


def reference_construction(values: GridValues, config: HierarchyConfig,
                           mode: str = "ps", redundant: bool = False):
    """The construction wave as `node_step` applied node by node in row-major
    order, which runs every node after its north, west and north-west
    neighbours. Returns (states, sent, received), each a dict keyed by node."""
    extra = (1 if mode == "ps" else 0) + (1 if redundant else 0)
    packets: dict = {}
    states: dict = {}
    sent: dict = {}
    received: dict = {}
    for p in config.dims.coords():
        x, y = p
        pa = packets.get((x, y - 1))
        pb = packets.get((x - 1, y))
        pc = packets.get((x - 1, y - 1))
        pre = NodeState(p, config.junction_level(p), values.at(p), ())
        state, packet = node_step(pre, pa, pb, pc, config)
        keep = min(state.junction_level + extra, config.height)
        states[p] = NodeState(p, state.junction_level, state.local_value, packet.slots[:keep])
        packets[p] = packet
        sent[p] = 1
        received[p] = sum(q is not None for q in (pa, pb, pc))
    return states, sent, received


def reference_load_scenario(path: str):
    """`scenario.load_scenario` with json parsing the whole file, readings
    included, which `array.array` then converts."""
    with mock.patch.object(scenario, "_parse", json.loads):
        return scenario.load_scenario(path)
