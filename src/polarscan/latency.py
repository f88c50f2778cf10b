"""Clock-cycle accounting for SCAN, fast-SCAN schedules, and product codes.

The cost model charges message computation per tree edge and per kernel:
descending into an internal node costs one demand pair (INTERNAL_EDGE = 4
cycles), the demand into a kernel leaf costs KERNEL_LEAF_EDGE = 2, constant
leaves (Rate0/Rate1 at stage >= 1) are free, every kernel evaluation costs
KERNEL_COST = 2, and the root feedback costs ROOT_COST = 2. Stage-0 leaf
edges cost LEAF_STAGE0_EDGE = 2, which makes an unpruned schedule cost
exactly the flat-SCAN figure 6(N-1).
"""

from dataclasses import dataclass

from .schedule import CONSTANT_TYPES, DEFAULT_TYPES, DecodingSchedule, NodeType, build_schedule

INTERNAL_EDGE = 4
LEAF_STAGE0_EDGE = 2
KERNEL_LEAF_EDGE = 2
KERNEL_COST = 2
ROOT_COST = 2


@dataclass(frozen=True)
class LatencyReport:
    total_cycles: int
    per_node: tuple        # (NodeDescriptor or 'root', cycles) in schedule order
    gain_vs_scan: float


def scan_latency(N: int) -> int:
    """Flat SCAN schedule over the full tree: 6(N-1) cycles per iteration."""
    return 6 * (N - 1)


def schedule_latency(schedule: DecodingSchedule) -> LatencyReport:
    """Cycle count of one fast-SCAN iteration over a compiled schedule."""
    breakdown = []
    total = 0
    for pos, d in enumerate(schedule.nodes):
        cycles = 0
        is_root = pos == 0
        if d.kind is NodeType.INTERNAL:
            cycles += 0 if is_root else INTERNAL_EDGE
        elif d.kind in CONSTANT_TYPES:
            if not is_root and d.stage == 0:
                cycles += LEAF_STAGE0_EDGE
        else:
            cycles += 0 if is_root else KERNEL_LEAF_EDGE
            cycles += KERNEL_COST
        breakdown.append((d, cycles))
        total += cycles
    total += ROOT_COST
    breakdown.append(("root", ROOT_COST))
    return LatencyReport(
        total_cycles=total,
        per_node=tuple(breakdown),
        gain_vs_scan=gain(scan_latency(schedule.code.N), total),
    )


def gain(scan_cycles: int, fast_cycles: int) -> float:
    """Latency reduction percentage, one decimal."""
    return round(100.0 * (1.0 - fast_cycles / scan_cycles), 1)


def ppc_latency(row_cycles: int, col_cycles: int, half_iteration_pairs: int) -> int:
    """Product-code latency: each pair costs one row pass plus one column pass."""
    return half_iteration_pairs * (row_cycles + col_cycles)


def latency_table(codes, enabled_types=DEFAULT_TYPES):
    """Rows of (label, scan_cycles, fast_cycles, gain_percent) for PolarCodes."""
    rows = []
    for code in codes:
        fast = schedule_latency(build_schedule(code, enabled_types)).total_cycles
        scan = scan_latency(code.N)
        rows.append((f"({code.N},{code.K})", scan, fast, gain(scan, fast)))
    return rows
