"""Reconstruction of lost values and query answers after node/area failures.

Node values: every stored prefix satisfies the local combination identity, so
a failed node's entry is solvable from a neighbouring 2x2 square, reading the
square's other three nodes (plus the solver's own lower-level value). Junction
values: a failed junction's cell sum is rebuilt from the next-level prefixes
stored at its south-east peer junctions, from one extra stored slot at the
three immediate neighbours in redundant mode, or by complementing the parent
sum against alive siblings.

Query recovery reads one dead mask (`FailureSet.dead`), and the planner the
lost masks that `flow.lost_points` samples from it. The query's alive part
is no plan: its reads are the size of `flow._cut`'s cut and its value one
masked sum of its readings, so no Cell is built for it. Each 4-connected dead
component meeting the query is visited once and grown level by level until
readable cells enclose it. Which cells are readable, and at how many reads,
depends only on which junctions are dead, so it is decided on the lost
masks alone. Every sum is a masked sum, and one `enclosed` mask, with the
enclosure cells' sums beside it, takes out what earlier components'
enclosures already counted. If the enclosure is larger than requested, the
answer falls back to a uniformity estimate that scales the recovered sum by
the requested/recovered area ratio, taken over the smallest recoverable
enclosure. Queries untouched by failures plan exactly as usual.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import BoundsError, RecoveryError, ValidationError
# FailureSet, lost_points and failed_datapoints live in flow; this re-exports them.
from .flow import (FailureSet, _array_plan, _cut, _NoFiniteCut, failed_datapoints,  # noqa: F401
                   lost_points)
from .grid import Coord, RectilinearRegion
from .hierarchy import CubeHierarchy, HierarchyConfig, cell_of
from .protocol import NodeState, node_slot


class RecoveryKind(Enum):
    EXACT = "exact"
    ESTIMATE = "estimate"
    UNRECOVERABLE = "unrecoverable"


@dataclass(frozen=True)
class RecoveryResult:
    kind: RecoveryKind
    value: object  # int, Fraction or None when unrecoverable
    recovered_area: frozenset[Coord]
    requested_area: frozenset[Coord]
    points_read: int


@dataclass(frozen=True)
class Reconstruction:
    value: object
    donors: tuple[Coord, ...]
    reads: int
    distance: int = 0


def _chebyshev(a: Coord, b: Coord) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def recover_node(states: Mapping[Coord, NodeState], failed: Coord, level: int,
                 config: HierarchyConfig) -> Reconstruction:
    """Rebuild a failed node's stored level value from one neighbour square.

    Tries the squares where the failed node plays the c, b and a role, in
    that order; a square is usable when the failed term survives the cell
    boundary resets and the remaining terms are held by alive nodes.
    """
    fx, fy = failed
    side = config.side(level)
    w, h = config.dims.width, config.dims.height
    for role, m in (("c", (fx + 1, fy + 1)), ("b", (fx + 1, fy)), ("a", (fx, fy + 1))):
        mx, my = m
        if mx >= w or my >= h:
            continue
        reset_x = mx % side == 0
        reset_y = my % side == 0
        terms = {}  # position -> coefficient in T(m) = A + B - C + D
        if not reset_y:
            terms[(mx, my - 1)] = +1
        if not reset_x:
            terms[(mx - 1, my)] = +1
        if not (reset_x or reset_y):
            terms[(mx - 1, my - 1)] = -1
        if failed not in terms:
            continue
        lhs = node_slot(states, m, level)
        if lhs is None:
            continue
        reads = 1
        donors = {m}
        if config.junction_level(m) >= level - 1:
            d = node_slot(states, m, level - 1)
            if d is None:
                continue
            lhs -= d
            reads += 1
        ok = True
        acc = lhs
        for pos, coef in terms.items():
            if pos == failed:
                continue
            v = node_slot(states, pos, level)
            if v is None:
                ok = False
                break
            acc -= coef * v
            donors.add(pos)
            reads += 1
        if not ok:
            continue
        value = acc if terms[failed] == 1 else -acc
        return Reconstruction(value, tuple(sorted(donors)), reads)
    raise RecoveryError(f"no usable neighbour square for {failed} at level {level}")


def _linear_block_solve(b_of, child_of, cols, rows, target):
    """Solve the block-prefix identities of one parent cell for a child sum.

    b_of(i, j) and child_of(i, j) return the stored next-level prefix and the
    child cell sum at child (i, j), or None when that junction is dead. Every
    alive child gives the identity B(i,j) - B(i-1,j) - B(i,j-1) + B(i-1,j-1)
    = childV(i,j), a row over the dead prefixes; the rows are eliminated
    exactly, and the target's identity, reduced by the same pivots, gives
    its child sum iff no dead prefix remains in it. Returns (value or None,
    positions read).
    """
    b = {(i, j): b_of(i, j) for j in range(rows) for i in range(cols)}
    column = {pos: k for k, pos in enumerate(pos for pos in b if b[pos] is None)}
    used = set()

    def identity(i, j, rhs):
        """The identity at (i, j) minus rhs: dead-prefix coefficients, then the constant."""
        row = [Fraction(0)] * len(column) + [Fraction(-rhs)]
        for pos, sign in (((i, j), 1), ((i - 1, j), -1), ((i, j - 1), -1), ((i - 1, j - 1), 1)):
            if min(pos) < 0:
                continue
            if b[pos] is None:
                row[column[pos]] += sign
            else:
                row[-1] += sign * Fraction(b[pos])
                used.add(pos)
        return row

    pivots = []  # (column, row): 1 at the column, 0 at every earlier pivot's

    def reduce(row):
        for k, pivot in pivots:
            if factor := row[k]:
                row = [a - factor * p for a, p in zip(row, pivot)]
        return row

    for pos in b:
        value = child_of(*pos)
        if value is not None:
            used.add(pos)
            row = reduce(identity(*pos, value))
            k = next((k for k, a in enumerate(row[:-1]) if a), None)
            if k is not None:
                pivots.append((k, [a / row[k] for a in row]))
    row = reduce(identity(*target, 0))
    return (None if any(row[:-1]) else row[-1]), sorted(used)


def _parent_block(prefix, child, cols, rows, target, escalate):
    """V(target) from the block-prefix identities of its parent cell.

    prefix(i, j) and child(i, j) return the stored next-level prefix and the
    child sum at child (i, j) of the parent's block, or None when that
    junction is dead. If the block leaves the target unsolved and the
    parent's junction, the block's corner, is dead too, escalate() may
    rebuild the parent total (a Reconstruction, or None) as the corner's
    prefix; the corner is then not read. Returns (value or None, block
    positions read, escalation), the last an empty Reconstruction when there
    was none.
    """
    value, used = _linear_block_solve(prefix, child, cols, rows, target)
    corner = (cols - 1, rows - 1)
    if value is None and prefix(*corner) is None:
        upper = escalate()
        if upper is not None:
            value, used = _linear_block_solve(
                lambda i, j: upper.value if (i, j) == corner else prefix(i, j),
                child, cols, rows, target)
            return value, [pos for pos in used if pos != corner], upper
    return value, used, Reconstruction(None, (), 0)


def recover_junction(states: Mapping[Coord, NodeState], failed: Coord, level: int,
                     config: HierarchyConfig, redundant: bool = False) -> Reconstruction:
    """Rebuild V(cell) for the level-`level` cell whose junction failed.

    The fast path reads the south-east peer junctions of the parent cell
    (plus the north-west peers for interior children); redundant mode solves
    the next-level identity from the 3 immediate neighbours when the failed
    junction opens its parent cell. When donors are dead too, all available
    block-prefix identities of the parent cell are solved jointly, recovering
    the parent total from the next level up if its junction is the failed
    node itself.
    """
    if config.junction_level(failed) < level:
        raise RecoveryError(f"{failed} is not a junction for level {level}")
    fx, fy = failed
    w, h = config.dims.width, config.dims.height
    cell = cell_of(config, level, failed)
    if level >= config.height:
        raise RecoveryError(f"junction {failed} at top level has no recovery donors")
    parent = cell_of(config, level + 1, failed)
    side, cols, rows = config.child_grid(parent)
    junction = partial(config.child_junction, parent)
    p = (cell.bounds.x0 - parent.bounds.x0) // side
    q = (cell.bounds.y0 - parent.bounds.y0) // side

    if redundant:
        first_child = (p, q) == (0, 0)
        slot = level + 1
        slot_side = config.side(slot)
        m = (fx + 1, fy + 1)
        if (first_child and m[0] < w and m[1] < h
                and m[0] % slot_side != 0 and m[1] % slot_side != 0):
            a, b = (fx + 1, fy), (fx, fy + 1)
            va = node_slot(states, a, slot)
            vb = node_slot(states, b, slot)
            vm = node_slot(states, m, slot)
            if None not in (va, vb, vm):
                value = va + vb - vm
                reads = 3
                if config.junction_level(m) >= slot - 1:
                    d = node_slot(states, m, slot - 1)
                    if d is not None:
                        value += d
                        reads += 1
                return Reconstruction(value, (a, b, m), reads, distance=3)

    if p + 1 < cols and q + 1 < rows:
        south, east, se = junction(p, q + 1), junction(p + 1, q), junction(p + 1, q + 1)
        b_s = node_slot(states, south, level + 1)
        b_e = node_slot(states, east, level + 1)
        b_se = node_slot(states, se, level + 1)
        v_se = node_slot(states, se, level)
        if None not in (b_s, b_e, b_se, v_se):
            b_pq = b_s + b_e - b_se + v_se
            donors = [south, east, se]
            reads = 4
            value = b_pq
            ok = True
            for di, dj, sign in ((p - 1, q, -1), (p, q - 1, -1), (p - 1, q - 1, +1)):
                if di < 0 or dj < 0:
                    continue
                peer = junction(di, dj)
                bv = node_slot(states, peer, level + 1)
                if bv is None:
                    ok = False
                    break
                value += sign * bv
                donors.append(peer)
                reads += 1
            if ok:
                distance = sum(_chebyshev(failed, d) for d in donors)
                return Reconstruction(value, tuple(donors), reads, distance)

    value, used, upper = _parent_block(
        lambda i, j: node_slot(states, junction(i, j), level + 1),
        lambda i, j: node_slot(states, junction(i, j), level), cols, rows, (p, q),
        lambda: recover_junction(states, parent.junction, level + 1, config, redundant))
    if value is None:
        raise RecoveryError(f"block identities underdetermined for {failed} at level {level}")
    if value.denominator == 1:
        value = int(value)
    used = [junction(i, j) for i, j in used]
    donors = tuple(dict.fromkeys(used + list(upper.donors)))
    reads = 2 * len(used) + upper.reads
    distance = sum(_chebyshev(failed, d) for d in donors)
    return Reconstruction(value, donors, reads, distance)


def _cell_readable(lost: Sequence[np.ndarray], fanouts: Sequence[int], level: int,
                   i: int, j: int, memo: dict[tuple[int, int, int], int | None]) -> int | None:
    """Reads needed to obtain V of the level-`level` cell (above 0) in block
    column i and row j under the lost masks (`lost_points`), or None. A dead
    junction's cell is solved as in recover_junction's last resort, from its
    parent's block: the slice of lost[level] its children fill, whose corner
    is the parent's junction. Solvability and reads depend only on which
    junctions are dead, so every alive slot reads as 0. `memo` holds the
    results so far by (level, i, j); dead junctions that escalate to one
    parent share its solve.
    """
    key = (level, i, j)
    if key in memo:
        return memo[key]
    if not lost[level][j, i]:
        return 1
    if level >= len(fanouts):
        return None
    f = fanouts[level]
    i0, j0 = i - i % f, j - j % f
    dead = lost[level][j0:j0 + f, i0:i0 + f].tolist()  # clipped at the grid edge

    def slot(bi, bj):
        return None if dead[bj][bi] else 0

    def escalate():
        reads = _cell_readable(lost, fanouts, level + 1, i // f, j // f, memo)
        return None if reads is None else Reconstruction(0, (), reads)

    value, used, upper = _parent_block(slot, slot, len(dead[0]), len(dead), (i - i0, j - j0),
                                       escalate)
    memo[key] = None if value is None else 2 * len(used) + upper.reads
    return memo[key]


def _components(dead: np.ndarray) -> np.ndarray:
    """Per location, a label that two dead locations share iff they are
    4-connected through dead locations (0 where alive). Each run of dead
    locations in a row starts with its own label; two runs touching across
    rows meet in one stretch of columns, whose first column pairs them.
    Until every pair agrees, the larger label of each differing pair points
    to the smaller, and every label is followed to the end of its pointers.
    """
    starts, touch = dead.copy(), dead[1:] & dead[:-1]
    starts[:, 1:] &= ~dead[:, :-1]
    runs = np.cumsum(starts, dtype=np.int32).reshape(dead.shape) * dead
    first = touch.copy()
    first[:, 1:] &= ~touch[:, :-1]
    below, above = runs[1:][first], runs[:-1][first]
    label = np.arange(int(runs.max(initial=0)) + 1, dtype=np.int32)
    while True:
        a, b = label[below], label[above]
        apart = a != b
        if not apart.any():
            return label[runs]
        np.minimum.at(label, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while not np.array_equal(jumped := label[label], label):
            label = jumped


def _locations(mask: np.ndarray) -> frozenset[Coord]:
    """The True entries of a grid-sized mask as (x, y) locations."""
    ys, xs = np.nonzero(mask)
    return frozenset(zip(xs.tolist(), ys.tolist()))


def recover_region(h: CubeHierarchy, failures: FailureSet,
                   query: RectilinearRegion) -> RecoveryResult:
    """Answer a query across failures, exactly when possible.

    The alive part of the query reads the cut size of its own plan, which
    is not built, and adds its readings' masked sum (the int 0 when empty).
    Each 4-connected dead component meeting the query is visited once: its
    locations outside earlier enclosures grow level by level into readable
    enclosure cells. Their sum is the cells' values minus the earlier
    enclosures inside and the alive readings outside those, one masked sum
    each. An enclosure larger than the requested part gives a uniformity
    estimate scaled by the area ratio. The dead and lost masks are the
    ones `failures` keeps for every call that shares it. ValidationError for
    lost data points (recovery rebuilds dead nodes and areas only);
    BoundsError for a query off the grid.
    """
    if failures.points:
        raise ValidationError("recovery takes dead nodes and areas, not lost data points")
    if not query.within(h.dims):
        raise BoundsError("region extends outside the grid")
    dead, lost = failures.dead(h.dims), lost_points(h, failures)
    in_query = np.zeros(dead.shape, dtype=bool)
    in_query[query.y0:, query.x0:][:query.mask.shape[0], :query.mask.shape[1]] = query.mask
    # Every grey cell of an all-alive region has its junction in it, so its
    # summary is readable and the cut reading the maximal grey cells is finite.
    # An empty part adds the int 0, as an empty plan did, so a Fraction stays one.
    alive = in_query & ~dead
    reads = _cut(h, (RectilinearRegion.from_mask(0, 0, alive),), lost)[1]
    total = h.values.array[alive].sum().item() if alive.any() else 0
    q_dead = in_query & dead
    requested = _locations(q_dead)
    ys, xs = np.nonzero(q_dead)  # row-major, so the first not enclosed seeds each portion
    labels = _components(dead)[ys, xs]
    members = np.argsort(labels, kind="stable")  # each component's locations, row-major
    enclosed = np.zeros(dead.shape, dtype=bool)  # every enclosure cell's locations so far
    earlier = np.zeros(dead.shape, dtype=h.values.array.dtype)  # their sums, at top-left
    readable: dict[tuple[int, int, int], int | None] = {}
    for y, x, label in zip(ys.tolist(), xs.tolist(), labels.tolist()):
        if enclosed[y, x]:
            continue
        portion = members[np.searchsorted(labels, label, sorter=members):
                          np.searchsorted(labels, label, "right", members)]
        portion = portion[~enclosed[ys[portion], xs[portion]]]
        cols, rows = xs[portion], ys[portion]  # level-0 block indices
        for level in range(1, h.height + 1):
            f, width = h.config.fanouts[level - 1], h.level_array(level).shape[1]
            blocks = rows // f * width + cols // f
            lo = blocks.min()  # counts over the portion's span of block rows only
            rows, cols = np.divmod(np.flatnonzero(np.bincount(blocks - lo)) + lo, width)
            solve = lost[level][rows, cols]  # a cell with an alive junction reads 1
            cell_reads = [_cell_readable(lost, h.config.fanouts, level, i, j, readable)
                          for i, j in zip(cols[solve].tolist(), rows[solve].tolist())]
            if None not in cell_reads:
                break
        else:
            return RecoveryResult(RecoveryKind.UNRECOVERABLE, None,
                                  _locations(enclosed & dead), requested, reads)
        # The cells' locations, on the window of their blocks clipped to the grid.
        side = h.config.side(level)
        x0, y0 = cols.min() * side, rows.min() * side
        covered = np.zeros((rows.max() + 1 - rows.min(), cols.max() + 1 - cols.min()), dtype=bool)
        covered[rows - rows.min(), cols - cols.min()] = True
        covered = covered.repeat(side, 0).repeat(side, 1)[:h.dims.height - y0, :h.dims.width - x0]
        window = np.s_[y0:y0 + covered.shape[0], x0:x0 + covered.shape[1]]
        # Every cell holds a location no earlier portion enclosed, so an earlier
        # enclosure cell that meets it lies wholly inside it and leaves whole.
        sums = h.level_array(level)[rows, cols]
        fresh, alive = covered & ~enclosed[window], covered & ~dead[window]
        value = (sums.sum() - earlier[window][covered].sum()
                 - h.values.array[window][fresh & alive].sum()).item()
        reads += sum(cell_reads) + len(rows) - len(cell_reads) + int(alive.sum())
        new = fresh & dead[window]
        count, wanted = int(new.sum()), int((new & in_query[window]).sum())
        total += value if wanted == count else Fraction(value) * Fraction(wanted, count)
        earlier[window][covered] = 0
        earlier[rows * side, cols * side] = sums
        enclosed[window] |= covered

    if isinstance(total, Fraction) and total.denominator == 1:
        total = int(total)
    # Every dead query location is recovered; any other recovered one makes an estimate.
    recovered = _locations(enclosed & dead)
    kind = RecoveryKind.EXACT if recovered == requested else RecoveryKind.ESTIMATE
    return RecoveryResult(kind, total, recovered, requested, reads)


def plan_with_failures(h: CubeHierarchy, failures: FailureSet,
                       query: RectilinearRegion):
    """Exact min-cut plan avoiding failed data points, else region recovery.

    Returns a QueryPlan when a finite cut exists and a RecoveryResult (exact,
    estimated or unrecoverable) otherwise.
    """
    try:
        return _array_plan(h, (query,), lost_points(h, failures))[0][0]
    except _NoFiniteCut:  # the explanation of no finite cut is not built
        return recover_region(h, failures, query)
