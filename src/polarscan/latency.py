"""Clock-cycle accounting for SCAN, fast-SCAN schedules, and product codes.

The cost model charges message computation per tree edge and per kernel:
descending into an internal node costs one demand pair (4 cycles), the
demand into a kernel leaf costs 2, constant leaves (Rate0/Rate1 at stage
>= 1) are free, every kernel evaluation costs 2, and the root feedback
costs 2. Stage-0 leaf edges cost 2, which makes an unpruned schedule cost
exactly the flat-SCAN figure 6(N-1).
"""

from dataclasses import dataclass

from .schedule import CONSTANT_TYPES, DEFAULT_TYPES, DecodingSchedule, NodeType, build_schedule


@dataclass(frozen=True)
class CostModel:
    internal_edge: int = 4
    leaf_stage0_edge: int = 2
    constant_leaf_edge: int = 0
    kernel_leaf_edge: int = 2
    kernel_cost: int = 2
    root_cost: int = 2

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0 or int(value) != value:
                raise ValueError(f"{name} must be a non-negative integer")


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class LatencyReport:
    total_cycles: int
    per_node: tuple        # (NodeDescriptor or 'root', cycles) in schedule order
    gain_vs_scan: float


def scan_latency(N: int) -> int:
    """Flat SCAN schedule over the full tree: 6(N-1) cycles per iteration."""
    return 6 * (N - 1)


def sscan_node_latency(kind: NodeType, t: int) -> int:
    """Per-node cycles when a special node is still decoded as a subtree
    with only constant-node shortcuts: Spc/Rep need 4(t-1)+2, TypeI/TypeIII
    4(t-2)+2, constants are instantaneous."""
    if kind in CONSTANT_TYPES:
        return 0
    if kind in (NodeType.SPC, NodeType.REP):
        return 4 * (t - 1) + 2
    if kind in (NodeType.TYPE_I, NodeType.TYPE_III):
        return 4 * (t - 2) + 2
    raise ValueError(f"no subtree-latency formula for {kind}")


def schedule_latency(schedule: DecodingSchedule, model: CostModel = DEFAULT_COST_MODEL) -> LatencyReport:
    """Cycle count of one fast-SCAN iteration over a compiled schedule."""
    breakdown = []
    total = 0
    for pos, d in enumerate(schedule.nodes):
        cycles = 0
        is_root = pos == 0
        if d.kind is NodeType.INTERNAL:
            cycles += 0 if is_root else model.internal_edge
        elif d.kind in CONSTANT_TYPES:
            if not is_root:
                cycles += model.leaf_stage0_edge if d.stage == 0 else model.constant_leaf_edge
        else:
            cycles += 0 if is_root else model.kernel_leaf_edge
            cycles += model.kernel_cost
        breakdown.append((d, cycles))
        total += cycles
    total += model.root_cost
    breakdown.append(("root", model.root_cost))
    N = schedule.N
    return LatencyReport(
        total_cycles=total,
        per_node=tuple(breakdown),
        gain_vs_scan=gain(scan_latency(N), total),
    )


def gain(scan_cycles: int, fast_cycles: int) -> float:
    """Latency reduction percentage, one decimal."""
    return round(100.0 * (1.0 - fast_cycles / scan_cycles), 1)


def ppc_latency(row_cycles: int, col_cycles: int, half_iteration_pairs: int) -> int:
    """Product-code latency: each pair costs one row pass plus one column pass."""
    return half_iteration_pairs * (row_cycles + col_cycles)


def latency_table(codes, enabled_types=None, model: CostModel = DEFAULT_COST_MODEL):
    """Rows of (label, scan_cycles, fast_cycles, gain_percent) for PolarCodes."""
    types = DEFAULT_TYPES if enabled_types is None else enabled_types
    rows = []
    for code in codes:
        fast = schedule_latency(build_schedule(code, types), model).total_cycles
        scan = scan_latency(code.N)
        rows.append((f"({code.N},{code.K})", scan, fast, gain(scan, fast)))
    return rows
