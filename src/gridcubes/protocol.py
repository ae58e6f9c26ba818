"""Deterministic message-passing simulation of distributed cube construction.

Every node broadcasts exactly one packet and combines the packets of its
north, west and north-west neighbours, so message counts are independent of
the network size. Packets carry one slot per hierarchy level; slot i holds
the running block prefix of complete level-(i-1) cells inside the enclosing
level-i cell. A node whose west (north) neighbour lies in the previous
level-i cell zeroes the corresponding carries before combining, which anchors
every prefix at its own cell.

A node is a junction for level k when it sits at the lower-right corner of a
level-k cell; nodes clipped against the grid edge count as junctions of the
cells they terminate. A level-k junction adds its stored level-(k-1) value
into slot k (completing the cell sum) and persists slots 1..k+1; slots above
that are forwarded as combined. Dropping the trailing partial-prefix slot
yields the plain summary scheme ("simple" mode); redundant mode persists one
extra slot to cheapen failure recovery.

`node_step` is the per-node rule. Its combination `a + b - c + d`, with the
carries zeroed at cell boundaries, is a 2-D prefix sum restarted in every
cell, so the wave has a closed form: slot 1 is the in-level-1-cell prefix of
the readings, and slot i is the in-level-i-cell prefix of the slot-(i-1)
values at the level-(i-1) junctions, zero elsewhere. `run_construction`
computes each level with `hierarchy.cell_prefix`, the in-cell prefix
routine the cube's prefix arrays use too, and builds a node's state when
it is first read, then keeps it. The routine is shared but its input is
not: each slot level is computed from the wave's own level below, never
from the cube's summaries, so the construction stays an independent
computation of what the cube holds. The result equals applying
`node_step` to every node after its north, west and north-west neighbours,
in any such order; with float readings the sums may differ in the last
bits, because the cumsum adds in another order.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import Coord, GridDims, GridValues
from .hierarchy import HierarchyConfig, cell_prefix


@dataclass(frozen=True)
class Packet:
    origin: Coord
    slots: tuple  # one value per hierarchy level


@dataclass(frozen=True)
class NodeState:
    coord: Coord
    junction_level: int
    local_value: object
    stored: tuple  # level values starting at level 1


class _GridMapping(Mapping):
    """Read-only mapping keyed by every grid coordinate, in row-major order."""

    def __init__(self, dims: GridDims):
        self.dims = dims

    def __contains__(self, p) -> bool:
        """Only a pair of integers on the grid is a key: not a pair of
        floats, nor a Cell, which is a pair too."""
        return (isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], (int, np.integer))
                and isinstance(p[1], (int, np.integer)) and self.dims.contains(p))

    def __getitem__(self, p: Coord):
        if p not in self:
            raise KeyError(p)
        return self._at(int(p[0]), int(p[1]))

    def __iter__(self) -> Iterator[Coord]:
        return self.dims.coords()

    def __len__(self) -> int:
        return self.dims.width * self.dims.height


class Counts(_GridMapping):
    """Per-node packet counts over an int array indexed [y, x]."""

    def __init__(self, counts: np.ndarray):
        super().__init__(GridDims(counts.shape[1], counts.shape[0]))
        self._counts = counts

    def _at(self, x: int, y: int) -> int:
        return int(self._counts[y, x])

    def total(self) -> int:
        return int(self._counts.sum())

    def max(self) -> int:
        return int(self._counts.max())


class NodeStates(_GridMapping):
    """Final node states over the slot arrays; a state is built on first
    access and kept."""

    def __init__(self, values: GridValues, levels: np.ndarray, slots: np.ndarray,
                 extra: int):
        super().__init__(values.dims)
        self._values = values.array
        self._levels = levels
        self._slots = slots
        self._extra = extra
        self._built: dict[Coord, NodeState] = {}

    def _at(self, x: int, y: int) -> NodeState:
        state = self._built.get((x, y))
        if state is None:
            k = int(self._levels[y, x])
            keep = min(k + self._extra, self._slots.shape[2])
            state = NodeState((x, y), k, self._values[y, x].item(),
                              tuple(self._slots[y, x, :keep].tolist()))
            self._built[(x, y)] = state
        return state

    def _all(self) -> dict[Coord, NodeState]:
        """Every state, built if not yet, in row-major order."""
        if len(self._built) < len(self):
            self._built = {(x, y): self._at(x, y) for x, y in self.dims.coords()}
        return self._built

    def items(self):
        return self._all().items()


@dataclass
class SimStats:
    sent: Counts
    received: Counts

    @property
    def total_messages(self) -> int:
        return self.sent.total()

    @property
    def total_received(self) -> int:
        return self.received.total()

    @property
    def max_received(self) -> int:
        return self.received.max()


def junction_level(p: Coord, config: HierarchyConfig) -> int:
    """Highest level whose cell has p as its lower-right corner (0 if none)."""
    return config.junction_level(p)


def node_step(state: NodeState, pa: Packet | None, pb: Packet | None,
              pc: Packet | None, config: HierarchyConfig) -> tuple[NodeState, Packet]:
    """Combine incoming packets, update stored values and emit the broadcast.

    pa, pb, pc must originate from (x, y-1), (x-1, y) and (x-1, y-1); missing
    neighbours at the grid edge are treated as all-zero packets.
    """
    x, y = state.coord
    for packet, origin in ((pa, (x, y - 1)), (pb, (x - 1, y)), (pc, (x - 1, y - 1))):
        if packet is not None and packet.origin != origin:
            raise ValidationError(
                f"node {state.coord} received packet from {packet.origin}, expected {origin}")

    k = state.junction_level
    slots_out = []
    stored = []
    prev = state.local_value  # level-0 value
    for i in range(1, config.height + 1):
        side = config.side(i)
        a = pa.slots[i - 1] if pa else 0
        b = pb.slots[i - 1] if pb else 0
        c = pc.slots[i - 1] if pc else 0
        if x % side == 0:   # west neighbour belongs to the previous level-i cell
            b = 0
            c = 0
        if y % side == 0:   # north neighbour belongs to the previous level-i cell
            a = 0
            c = 0
        combined = a + b - c
        if k >= i - 1:      # junction for level i-1: completes this prefix
            t = combined + prev
            stored.append(t)
            prev = t
        else:
            t = combined
        slots_out.append(t)
    new_state = NodeState(state.coord, k, state.local_value, tuple(stored))
    return new_state, Packet(state.coord, tuple(slots_out))


def run_construction(values: GridValues, config: HierarchyConfig,
                     mode: str = "ps", redundant: bool = False
                     ) -> tuple[NodeStates, SimStats]:
    """Run the construction wave and return final node states plus stats.

    The slot arrays come from the closed form in the module docstring: one
    zero-pad, block reshape and cumsum over both block axes per level, each
    level from the one below. The states are a read-only mapping in
    row-major order that builds a node's NodeState on first access and
    keeps it; stored values are Python scalars. Integer readings give
    exactly the values of `node_step` applied node by node; float readings
    agree up to rounding, since the cumsum adds in another order. Every
    node sends one packet and receives one from each existing north, west
    and north-west neighbour, so the counts need no simulation.

    mode "ps" persists slots 1..k+1 per node (the prefix scheme); "simple"
    drops the trailing partial prefix and keeps only completed cell sums.
    redundant persists one extra slot. Transmissions are identical in every
    mode.
    """
    if mode not in ("ps", "simple"):
        raise ValidationError(f"unknown mode {mode!r}")
    if config.dims != values.dims:
        raise ValidationError("config dims do not match values dims")
    extra = (1 if mode == "ps" else 0) + (1 if redundant else 0)
    levels = config.junction_levels()
    h, w = levels.shape
    # Integer readings of any width are summed in int64, other readings at
    # least as wide as the Python floats node_step would add.
    kind = values.array.dtype.kind
    dtype = np.int64 if kind in "biu" else np.result_type(values.array.dtype, np.float64)
    slots = np.empty((h, w, config.height), dtype=dtype)
    below = values.array.astype(dtype, copy=False)
    for i in range(1, config.height + 1):
        if i > 1:
            below = np.where(levels >= i - 1, slots[:, :, i - 2], 0)
        slots[:, :, i - 1] = cell_prefix(below, config.side(i))
    received = np.zeros((h, w), dtype=np.int8)
    received[1:, :] += 1
    received[:, 1:] += 1
    received[1:, 1:] += 1
    sent = np.broadcast_to(np.int8(1), (h, w))
    return NodeStates(values, levels, slots, extra), SimStats(Counts(sent), Counts(received))


def node_slot(states: Mapping[Coord, NodeState], p: Coord, level: int):
    """Stored level value at a node, or None if absent or not persisted."""
    state = states.get(p)
    if state is None:
        return None
    if level == 0:
        return state.local_value
    if level <= len(state.stored):
        return state.stored[level - 1]
    return None
