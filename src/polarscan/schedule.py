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

Precedence: Rate0 > Rate1 > Rep > Spc > TypeI > TypeIII > TypeII > TypeIV.
The size-4 slice FFII matches both TypeI and TypeIII; the two kernels
produce identical feedback, so precedence cannot change decoder output.
Size-2 FI classifies as Rep (Spc matches too; kernels coincide).
"""

import json
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

    @property
    def size(self) -> int:
        return 1 << self.stage

    @property
    def offset(self) -> int:
        return self.index * self.size


def classify(frozen_slice: np.ndarray, enabled_types: frozenset = DEFAULT_TYPES) -> NodeType:
    """Pattern-match one frozen-mask slice; Internal if nothing enabled matches."""
    sl = np.asarray(frozen_slice, dtype=bool)
    size = sl.size
    if size < 1 or (size & (size - 1)) != 0:
        raise ValueError(f"slice length {size} is not a power of two")
    nfro = int(sl.sum())
    if nfro == size:
        return NodeType.RATE0
    if nfro == 0:
        return NodeType.RATE1
    checks = (
        (NodeType.REP, nfro == size - 1 and not sl[-1]),
        (NodeType.SPC, nfro == 1 and sl[0]),
        (NodeType.TYPE_I, size >= 4 and nfro == size - 2 and not sl[-1] and not sl[-2]),
        (NodeType.TYPE_III, size >= 4 and nfro == 2 and sl[0] and sl[1]),
        (NodeType.TYPE_II, size >= 4 and nfro == size - 3 and not sl[-1] and not sl[-2] and not sl[-3]),
        (NodeType.TYPE_IV, size >= 8 and nfro == 3 and sl[0] and sl[1] and sl[2]),
    )
    for kind, hit in checks:
        if hit and kind in enabled_types:
            return kind
    return NodeType.INTERNAL


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
    nodes = []

    def rec(t, i):
        size = 1 << t
        kind = classify(mask[i * size:(i + 1) * size], enabled)   # stage 0 is Rate0 or Rate1
        nodes.append(NodeDescriptor(stage=t, index=i, kind=kind))
        if kind is NodeType.INTERNAL:
            rec(t - 1, 2 * i)
            rec(t - 1, 2 * i + 1)

    rec(code.n, 0)
    return DecodingSchedule(code=code, nodes=tuple(nodes), enabled_types=enabled)


def node_census(code: PolarCode, enabled_types: frozenset = DEFAULT_TYPES) -> dict:
    """Tally of schedule leaves: {(NodeType, size): count}."""
    census: dict = {}
    for d in build_schedule(code, enabled_types).leaves():
        key = (d.kind, d.size)
        census[key] = census.get(key, 0) + 1
    return census


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
