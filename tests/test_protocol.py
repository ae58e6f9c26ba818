import math
import random

import numpy as np
import pytest

from gridcubes.errors import ValidationError
from gridcubes.grid import GridDims, GridValues
from gridcubes.hierarchy import HierarchyConfig, build_hierarchy, cell_of
from gridcubes.prefix import build_ps_cube
from gridcubes.protocol import (NodeState, Packet, junction_level, node_slot,
                                node_step, run_construction)

from conftest import reference_construction


def ones(w, h):
    return GridValues.from_rows([[1] * w for _ in range(h)])


def expected_ps_stored(ps, coord, levels):
    """Centralized oracle: the enclosing cells' table entries at this node."""
    out = []
    for level in range(1, levels + 1):
        cell = ps.hierarchy.cell_at(level, coord)
        side = ps.config.side(level - 1)
        child = ((coord[0] - cell.bounds.x0) // side, (coord[1] - cell.bounds.y0) // side)
        point = ps.point(cell, child)
        assert point.location == coord
        out.append(ps.entry(point))
    return tuple(out)


def test_junction_levels_6x6():
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    assert junction_level((2, 2), cfg) == 1
    assert junction_level((5, 5), cfg) == 2
    assert junction_level((5, 2), cfg) == 1
    assert junction_level((1, 1), cfg) == 0


def test_junction_levels_clipped_grid():
    cfg = HierarchyConfig(GridDims(5, 5), (3,))
    assert junction_level((4, 2), cfg) == 1   # clipped cell ends at the grid edge
    assert junction_level((4, 4), cfg) == 1
    assert junction_level((3, 2), cfg) == 0


def test_single_node_grid():
    vals = GridValues.from_rows([[9]])
    states, stats = run_construction(vals, HierarchyConfig(GridDims(1, 1), (1,)))
    assert states[(0, 0)].stored == (9,)
    assert stats.total_messages == 1
    assert stats.received[(0, 0)] == 0


def test_all_ones_junction_values():
    vals = ones(6, 6)
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    states, stats = run_construction(vals, cfg, mode="ps")
    assert node_slot(states, (2, 2), 1) == 9
    assert node_slot(states, (5, 5), 2) == 36
    assert all(v == 1 for v in stats.sent.values())


def test_message_counts():
    vals = GridValues.random(GridDims(9, 6), seed=40)
    cfg = HierarchyConfig(GridDims(9, 6), (3, 2))
    states, stats = run_construction(vals, cfg)
    assert stats.total_messages == 54
    assert stats.max_received == 3
    for (x, y), n in stats.received.items():
        expected = sum(1 for nx, ny in ((x, y - 1), (x - 1, y), (x - 1, y - 1))
                       if nx >= 0 and ny >= 0)
        assert n == expected


def test_corner_node_packet():
    # No inputs: the first slot carries just the local value; higher slots
    # stay zero because no finer cell has completed yet.
    cfg = HierarchyConfig(GridDims(4, 4), (2, 2))
    pre = NodeState((0, 0), junction_level((0, 0), cfg), 5, ())
    state, packet = node_step(pre, None, None, None, cfg)
    assert packet.slots == (5, 0)
    assert state.stored == (5,)


def test_boundary_reset_zeroes_carries():
    # A node in the first column of a new level-1 cell ignores the western
    # carries for slot 1 but forwards them untouched for slot 2.
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    pre = NodeState((3, 0), junction_level((3, 0), cfg), 2, ())
    pb = Packet((2, 0), (30, 40))
    state, packet = node_step(pre, None, pb, None, cfg)
    assert packet.slots[0] == 2    # western slot-1 carry dropped
    assert packet.slots[1] == 40   # slot-2 carry crosses level-1 cells


def test_wrong_origin_rejected():
    cfg = HierarchyConfig(GridDims(4, 4), (2,))
    pre = NodeState((1, 1), 0, 1, ())
    with pytest.raises(ValidationError):
        node_step(pre, Packet((3, 3), (0,)), None, None, cfg)


def test_interior_non_junction_stores_one_value():
    vals = GridValues.random(GridDims(6, 6), seed=41)
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    states, _ = run_construction(vals, cfg, mode="ps")
    assert len(states[(0, 0)].stored) == 1
    ps = build_ps_cube(vals, cfg)
    assert states[(0, 0)].stored == expected_ps_stored(ps, (0, 0), 1)


def test_ps_mode_matches_centralized_tables():
    vals = GridValues.random(GridDims(9, 6), seed=42)
    cfg = HierarchyConfig(GridDims(9, 6), (3, 2))
    states, _ = run_construction(vals, cfg, mode="ps")
    ps = build_ps_cube(vals, cfg)
    for coord, state in states.items():
        levels = min(state.junction_level + 1, cfg.height)
        assert state.stored == expected_ps_stored(ps, coord, levels)


def test_simple_mode_matches_centralized_sums():
    vals = GridValues.random(GridDims(12, 12), seed=43)
    cfg = HierarchyConfig(GridDims(12, 12), (2, 3))
    states, _ = run_construction(vals, cfg, mode="simple")
    h = build_hierarchy(vals, cfg)
    for coord, state in states.items():
        levels = min(state.junction_level, cfg.height)
        expected = tuple(h.value(h.cell_at(level, coord)) for level in range(1, levels + 1))
        assert state.stored == expected


def test_redundant_mode_stores_one_extra_slot():
    vals = GridValues.random(GridDims(6, 6), seed=44)
    cfg = HierarchyConfig(GridDims(6, 6), (3, 2))
    plain, _ = run_construction(vals, cfg, mode="ps")
    redundant, _ = run_construction(vals, cfg, mode="ps", redundant=True)
    for coord in vals.dims.coords():
        k = plain[coord].junction_level
        want = min(k + 2, cfg.height)
        assert len(redundant[coord].stored) == want
        assert redundant[coord].stored[:len(plain[coord].stored)] == plain[coord].stored


def test_deterministic_repeat():
    vals = GridValues.random(GridDims(7, 5), seed=45)
    cfg = HierarchyConfig(GridDims(7, 5), (2, 2))
    a = run_construction(vals, cfg)
    b = run_construction(vals, cfg)
    assert a[0] == b[0]
    assert a[1].sent == b[1].sent and a[1].received == b[1].received


def test_clipped_grids_match_oracle():
    for w, h, fanouts, seed in ((7, 5, (3, 2), 50), (10, 9, (2, 2), 51), (5, 8, (4,), 52)):
        vals = GridValues.random(GridDims(w, h), seed=seed)
        cfg = HierarchyConfig(GridDims(w, h), fanouts)
        states, stats = run_construction(vals, cfg, mode="simple")
        hier = build_hierarchy(vals, cfg)
        for level in range(1, cfg.height + 1):
            for cell in hier.cells_of(level):
                assert node_slot(states, cell.junction, level) == hier.value(cell), \
                    (w, h, fanouts, cell)
        assert stats.total_messages == w * h


@pytest.mark.parametrize("mode", ["simple", "ps"])
@pytest.mark.parametrize("redundant", [False, True])
@pytest.mark.parametrize("w,h,fanouts", [(7, 5, (3, 2)), (10, 9, (2, 2, 2)), (5, 8, (4,))])
def test_anti_diagonal_schedule_matches_run_construction(w, h, fanouts, mode, redundant):
    # A synchronous network fires node (x, y) in round x + y, after all three
    # of its inputs; the stored tuples must not depend on the schedule.
    vals = GridValues.random(GridDims(w, h), seed=w * h)
    cfg = HierarchyConfig(GridDims(w, h), fanouts)
    states, stats = run_construction(vals, cfg, mode=mode, redundant=redundant)
    packets = {}
    for x, y in sorted(vals.dims.coords(), key=lambda p: (p[0] + p[1], p[1])):
        pre = NodeState((x, y), junction_level((x, y), cfg), vals.at((x, y)), ())
        _, packets[(x, y)] = node_step(pre, packets.get((x, y - 1)), packets.get((x - 1, y)),
                                       packets.get((x - 1, y - 1)), cfg)
    assert states.keys() == packets.keys()
    for (x, y), state in states.items():
        assert state.stored == packets[(x, y)].slots[:len(state.stored)]
        neighbours = [(x, y - 1), (x - 1, y), (x - 1, y - 1)]
        assert stats.received[(x, y)] == sum(n in packets for n in neighbours)


@pytest.mark.parametrize("mode", ["simple", "ps"])
@pytest.mark.parametrize("redundant", [False, True])
@pytest.mark.parametrize("dtype", [int, float])
@pytest.mark.parametrize("w,h,fanouts", [
    (1, 1, (1,)), (1, 1, (2, 2)), (1, 7, (2, 2)), (9, 1, (2, 3)), (6, 5, (1, 2, 2)),
    (7, 5, (3, 2)), (10, 9, (2, 2, 2)), (13, 11, (4, 2, 2)), (5, 8, (4,)), (16, 16, (2, 4))])
def test_run_construction_matches_the_node_by_node_reference(w, h, fanouts, dtype, mode,
                                                             redundant):
    """Every state and both count maps equal the reference's, which applies
    node_step node by node. Integer readings give exactly its Python ints.
    Float readings agree within math.isclose: the slot arrays add by cumsum,
    in another order than node_step's a + b - c + d, so the last bits may
    differ."""
    rng = random.Random(w * 100 + h)
    rows = [[rng.randint(-9, 9) if dtype is int else rng.uniform(-100, 100)
             for _ in range(w)] for _ in range(h)]
    vals = GridValues.from_rows(rows, dtype=dtype)
    cfg = HierarchyConfig(GridDims(w, h), fanouts)
    states, stats = run_construction(vals, cfg, mode=mode, redundant=redundant)
    ref_states, ref_sent, ref_received = reference_construction(vals, cfg, mode, redundant)
    assert list(states) == list(ref_states) and len(states) == w * h
    scale = sum(abs(v) for row in rows for v in row)
    for p, ref in ref_states.items():
        state = states[p]
        assert (state.coord, state.junction_level, state.local_value) == \
            (ref.coord, ref.junction_level, ref.local_value)
        if dtype is int:
            assert state.stored == ref.stored
            assert all(type(v) is int for v in state.stored)
        else:
            assert len(state.stored) == len(ref.stored)
            assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * scale)
                       for a, b in zip(state.stored, ref.stored)), (p, state.stored, ref.stored)
    assert dict(stats.sent) == ref_sent and dict(stats.received) == ref_received
    assert stats.total_messages == sum(ref_sent.values())
    assert stats.total_received == sum(ref_received.values())
    assert stats.max_received == max(ref_received.values())


def test_states_are_a_read_only_mapping_built_on_first_access():
    vals = GridValues.random(GridDims(5, 4), seed=46)
    states, stats = run_construction(vals, HierarchyConfig(GridDims(5, 4), (2, 2)))
    assert states[(3, 2)] is states[(3, 2)]
    assert states.get((5, 0)) is None and (0, -1) not in states and "x" not in states
    assert stats.received.get((0, 4)) is None
    with pytest.raises(KeyError):
        states[(0, 4)]
    with pytest.raises(TypeError):
        states[(0, 0)] = None
    alive = {p: s for p, s in states.items() if p != (1, 1)}
    assert len(alive) == 19 and alive[(3, 2)] is states[(3, 2)]


@pytest.mark.parametrize("key", [(0.5, 1), (0, 1.0), ("a", "b"), ((0, 0), (1, 1)), "cell"])
def test_only_a_pair_of_integers_is_a_node_key(key):
    # A Cell is a pair too: (level, bounds).
    dims = GridDims(4, 4)
    config = HierarchyConfig(dims, (2, 2))
    states, stats = run_construction(GridValues.random(dims, seed=1), config)
    key = cell_of(config, 1, (0, 0)) if key == "cell" else key
    assert key not in states and key not in stats.received
    assert states.get(key) is None and stats.received.get(key) is None
    with pytest.raises(KeyError):
        states[key]
    assert (0, 1) in states and states.get((np.int64(0), np.int64(1))) is states[(0, 1)]
