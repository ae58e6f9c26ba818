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

The simulation is a logical dataflow: any schedule that runs a node after
its north, west and north-west neighbours produces identical results. The
reference runs the nodes in row-major order, which is such a schedule: the
north and north-west neighbours sit in the previous row, the west
neighbour earlier in the same row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .grid import Coord, GridValues
from .hierarchy import HierarchyConfig


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


@dataclass
class SimStats:
    sent: dict
    received: dict

    @property
    def total_messages(self) -> int:
        return sum(self.sent.values())

    @property
    def max_received(self) -> int:
        return max(self.received.values(), default=0)


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
                     ) -> tuple[dict[Coord, NodeState], SimStats]:
    """Run the construction wave and return final node states plus stats.

    Nodes run in row-major order, so every node's north, west and north-west
    packets exist before it runs.

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
    packets: dict[Coord, Packet] = {}
    states: dict[Coord, NodeState] = {}
    sent: dict[Coord, int] = {}
    received: dict[Coord, int] = {}
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
    return states, SimStats(sent, received)


def node_slot(states: dict[Coord, NodeState], p: Coord, level: int):
    """Stored level value at a node, or None if absent or not persisted."""
    state = states.get(p)
    if state is None:
        return None
    if level == 0:
        return state.local_value
    if level <= len(state.stored):
        return state.stored[level - 1]
    return None
