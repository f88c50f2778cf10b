"""Clock-cycle accounting for SCAN, fast-SCAN schedules, and product codes.

A schedule's cost is read off the program scan._compile emits for it: 2
cycles per op, charged to the node whose demand or feedback the op
computes, plus ROOT_COST = 2 for the root feedback, which stands for an
internal root's feedback op. The demand into a Rate0 or Rate1 leaf above
stage 0 and a Rate0 leaf's +inf write are free too, and an unpruned
schedule costs exactly the flat-SCAN figure 6(N-1).
"""

from dataclasses import dataclass

from .codes import _check_dims
from .fastscan import _program
from .scan import _check_count
from .schedule import DEFAULT_TYPES, DecodingSchedule, build_schedule

ROOT_COST = 2


@dataclass(frozen=True)
class LatencyReport:
    total_cycles: int
    per_node: tuple        # (NodeDescriptor or 'root', cycles) in schedule order
    gain_vs_scan: float


def scan_latency(N: int) -> int:
    """Flat SCAN schedule over the full tree: 6(N-1) cycles per iteration."""
    _check_dims(N, 0)
    return 6 * (N - 1)


def schedule_latency(schedule: DecodingSchedule) -> LatencyReport:
    """Cycle count of one fast-SCAN iteration over a compiled schedule."""
    n, cost = schedule.code.n, _program(schedule)[2]
    breakdown = [(d, 2 * int(cost[(1 << (n - d.stage)) + d.index])) for d in schedule.nodes]
    breakdown.append(("root", ROOT_COST))
    total = 2 * int(cost.sum()) + ROOT_COST
    return LatencyReport(total, tuple(breakdown), gain(scan_latency(schedule.code.N), total))


def gain(scan_cycles: int, fast_cycles: int) -> float:
    """Latency reduction percentage, one decimal."""
    return round(100.0 * (1.0 - fast_cycles / scan_cycles), 1)


def ppc_latency(row_cycles: int, col_cycles: int, half_iteration_pairs: int) -> int:
    """Product-code latency: each pair costs one row pass plus one column pass."""
    _check_count("row_cycles", row_cycles, 0)
    _check_count("col_cycles", col_cycles, 0)
    _check_count("half_iteration_pairs", half_iteration_pairs, 0)
    return half_iteration_pairs * (row_cycles + col_cycles)


def latency_table(codes, enabled_types=DEFAULT_TYPES):
    """Rows of (label, scan_cycles, fast_cycles, gain_percent) for PolarCodes."""
    reports = [(c, schedule_latency(build_schedule(c, enabled_types))) for c in codes]
    return [(f"({c.N},{c.K})", scan_latency(c.N), r.total_cycles, r.gain_vs_scan) for c, r in reports]
