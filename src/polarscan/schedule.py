"""Frozen-mask classification and decoding-schedule compilation.

A schedule is the pruned decoding tree: top-down, each node's frozen-mask
slice is pattern-matched against the enabled special-node types; a match
becomes a leaf (maximal-size matching, no further descent), anything else
becomes an Internal node and recurses. Leaves of a compiled schedule
partition the index range.

Patterns over a slice of size 2^t (F = frozen, I = information):

    Rate0   all F                     Rate1   all I
    Rep     F...FI (one info, last)   Spc     FI...I (one frozen, first)
    TypeI   F...FII (size >= 4)       TypeIII FFI...I (size >= 4)
    TypeII  F...FIII (size >= 4)      TypeIV  FFFI...I (size >= 8)

Every pattern is F^j I^(size-j), so a slice is a special node only if its
j frozen positions lead, and stair_kind(size, j, enabled) then names it.
Precedence: Rate0 > Rate1 > Rep > Spc > TypeI > TypeIII > TypeII > TypeIV.
The size-4 slice FFII matches both TypeI and TypeIII; the two kernels
produce identical feedback, so precedence cannot change decoder output.
Size-2 FI classifies as Rep (Spc matches too; kernels coincide).
"""

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codes import PolarCode


class NodeType(Enum):
    RATE0 = "rate0"
    RATE1 = "rate1"
    REP = "rep"
    SPC = "spc"
    TYPE_I = "type1"
    TYPE_II = "type2"
    TYPE_III = "type3"
    TYPE_IV = "type4"
    INTERNAL = "internal"


KERNEL_TYPES = frozenset(NodeType) - {NodeType.INTERNAL}
CONSTANT_TYPES = frozenset({NodeType.RATE0, NodeType.RATE1})
DEFAULT_TYPES = KERNEL_TYPES - {NodeType.TYPE_II, NodeType.TYPE_IV}


@dataclass(frozen=True)
class NodeDescriptor:
    stage: int
    index: int
    kind: NodeType
    j: int   # frozen positions in the node's span; a leaf's pattern is F^j I^(size-j)

    @property
    def size(self) -> int:
        return 1 << self.stage

    @property
    def offset(self) -> int:
        return self.index * self.size


# (kind, least size, j of its pattern, counted from the end if negative), by precedence
_STAIR_KINDS = ((NodeType.REP, 2, -1), (NodeType.SPC, 2, 1), (NodeType.TYPE_I, 4, -2),
                (NodeType.TYPE_III, 4, 2), (NodeType.TYPE_II, 4, -3), (NodeType.TYPE_IV, 8, 3))


def stair_kind(size: int, j: int, enabled_types: frozenset = DEFAULT_TYPES) -> NodeType:
    """Kind of the F^j I^(size-j) node: Rate0 or Rate1 whatever is enabled,
    else the first enabled kind whose pattern it is; Internal if none is or
    j is outside [0, size]."""
    if size < 1 or size & (size - 1):
        raise ValueError(f"slice length {size} is not a power of two")
    if not 0 < j < size:
        return NodeType.RATE0 if j == size else NodeType.RATE1 if j == 0 else NodeType.INTERNAL
    for kind, least, lead in _STAIR_KINDS:
        if size >= least and j == lead % size and kind in enabled_types:
            return kind
    return NodeType.INTERNAL


def classify(frozen_slice: np.ndarray, enabled_types: frozenset = DEFAULT_TYPES) -> NodeType:
    """Pattern-match one frozen-mask slice; Internal if nothing enabled matches."""
    sl = np.asarray(frozen_slice, dtype=bool)
    j = int(sl.sum())
    kind = stair_kind(sl.size, j, enabled_types)   # the kind, if the j frozen positions lead
    return kind if kind is NodeType.INTERNAL or sl[:j].all() else NodeType.INTERNAL


@dataclass(frozen=True)
class DecodingSchedule:
    code: PolarCode         # the code it was compiled for; build_schedule is its only maker
    nodes: tuple            # NodeDescriptors, depth-first order, root first
    enabled_types: frozenset

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def leaves(self):
        return [d for d in self.nodes if d.kind is not NodeType.INTERNAL]

    def to_json(self) -> str:
        return json.dumps(
            [{"stage": d.stage, "index": d.index, "kind": d.kind.value} for d in self.nodes]
        )


def _checked_types(enabled_types) -> frozenset:
    """enabled_types plus Rate0/Rate1; raises naming each entry not a special NodeType."""
    bad = frozenset(enabled_types) - KERNEL_TYPES
    if bad:
        raise ValueError(f"not special node types (NodeType, not INTERNAL): {sorted(map(repr, bad))}")
    return frozenset(enabled_types) | CONSTANT_TYPES


def build_schedule(code: PolarCode, enabled_types: frozenset = DEFAULT_TYPES) -> DecodingSchedule:
    """Compile the pruned decoding tree for a code's frozen mask."""
    enabled = _checked_types(enabled_types)
    mask = code.frozen_mask
    nodes, frozen = [], [0, *np.cumsum(mask).tolist()]   # frozen positions before each index

    def rec(t, i):
        lo, hi = i << t, (i + 1) << t
        kind = classify(mask[lo:hi], enabled)   # stage 0 is Rate0 or Rate1
        nodes.append(NodeDescriptor(stage=t, index=i, kind=kind, j=frozen[hi] - frozen[lo]))
        if kind is NodeType.INTERNAL:
            rec(t - 1, 2 * i)
            rec(t - 1, 2 * i + 1)

    rec(code.n, 0)
    return DecodingSchedule(code=code, nodes=tuple(nodes), enabled_types=enabled)


def node_census(code: PolarCode, enabled_types: frozenset = DEFAULT_TYPES) -> dict:
    """Tally of schedule leaves: {(NodeType, size): count}."""
    return dict(Counter((d.kind, d.size) for d in build_schedule(code, enabled_types).leaves()))


def census_csv(census: dict) -> str:
    """Render a census as 'kind,size,count' lines (header included)."""
    lines = ["kind,size,count"]
    for (kind, size), count in sorted(census.items(), key=lambda kv: (kv[0][0].value, kv[0][1])):
        lines.append(f"{kind.value},{size},{count}")
    return "\n".join(lines) + "\n"


def parse_node_types(spec: str) -> frozenset:
    """Parse a comma-separated node-type list, e.g. 'rep,spc,type1,type3'.

    'default' means the standard set; 'all' additionally enables
    type2/type4. Rate0/Rate1 are always included.
    """
    if spec in ("", "default"):
        return DEFAULT_TYPES
    if spec == "all":
        return KERNEL_TYPES
    by_value = {t.value: t for t in KERNEL_TYPES}
    out = set(CONSTANT_TYPES)
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token not in by_value:
            raise ValueError(f"unknown node type {token!r} (choose from {sorted(by_value)})")
        out.add(by_value[token])
    return frozenset(out)
