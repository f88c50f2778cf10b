"""Cycle accounting for flat SCAN, compiled schedules, and product codes."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarscan import (
    DEFAULT_TYPES,
    KERNEL_TYPES,
    NodeType,
    build_code,
    build_schedule,
    fastscan,
    gain,
    latency_table,
    ppc_latency,
    sc_latency,
    scan_latency,
    schedule_latency,
)
from polarscan.latency import ROOT_COST
from polarscan.schedule import CONSTANT_TYPES

from conftest import code_from_mask
from test_properties import masks

# (N, K) -> fast-SCAN cycles under the default cost model and node set.
# Regression values computed from the per-node cost model; they pin the
# model so accidental changes to schedule or costs are caught.
MODEL_CYCLES = {
    (128, 16): 50, (128, 64): 98, (128, 96): 86, (128, 112): 50,
    (256, 32): 90, (256, 128): 170, (256, 192): 138, (256, 224): 106,
    (512, 64): 178, (512, 256): 282, (512, 384): 250, (512, 448): 194,
    (1024, 128): 266, (1024, 512): 522, (1024, 768): 442, (1024, 896): 286,
}


def fast_cycles(N, K, types=DEFAULT_TYPES):
    return schedule_latency(build_schedule(build_code(N, K), types)).total_cycles


def test_scan_latency_values():
    assert scan_latency(128) == 762
    assert scan_latency(256) == 1530
    assert scan_latency(512) == 3066
    assert scan_latency(1024) == 6138
    assert scan_latency(2) == 6


def test_256_239_cycles():
    sched = build_schedule(build_code(256, 239))
    assert sched.node_count == 17
    assert schedule_latency(sched).total_cycles == 58


def test_model_regression_table():
    for (N, K), cycles in MODEL_CYCLES.items():
        assert fast_cycles(N, K) == cycles, (N, K)


def test_rate1_root_is_root_cost_only():
    assert fast_cycles(8, 8) == 2


def test_kernel_root():
    # single Spc root: kernel cost 2 + root feedback 2
    assert fast_cycles(8, 7) == 4


def test_unpruned_schedule_equals_flat_scan():
    # alternating mask has no constant span above stage 0: full tree
    for n in (2, 3, 4, 5):
        N = 1 << n
        code = code_from_mask([1, 0] * (N // 2))
        report = schedule_latency(build_schedule(code, CONSTANT_TYPES))
        assert report.total_cycles == scan_latency(N)
        assert report.gain_vs_scan == 0.0


def test_gain():
    assert gain(6138, 338) == 94.5
    assert gain(762, 50) == 93.4
    assert gain(1530, 1530) == 0.0


def test_ppc_latency():
    assert ppc_latency(58, 58, 8) == 928
    assert ppc_latency(1530, 1530, 8) == 24480
    assert ppc_latency(100, 200, 0) == 0


def test_cycle_models_reject_impossible_sizes():
    assert scan_latency(np.int64(8)) == 42 and sc_latency(np.int64(8)) == 14
    for N in (0, 1, 3, 12, 8.0):
        for model in (scan_latency, sc_latency):
            with pytest.raises(ValueError, match=f"N={N} must be a power of two"):
                model(N)
    for bad in ((-1, 5, 0), (5, -1, 2), (5, 5, -1), (5, 5, 2.5), (5.0, 5, 2)):
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            ppc_latency(*bad)


def test_more_types_never_slower():
    for N, K in ((64, 32), (128, 96), (256, 128), (1024, 512)):
        kernel = fast_cycles(N, K, KERNEL_TYPES)
        default = fast_cycles(N, K, DEFAULT_TYPES)
        constant = fast_cycles(N, K, CONSTANT_TYPES)
        assert kernel <= default <= constant <= scan_latency(N)


def test_breakdown_sums_to_total():
    report = schedule_latency(build_schedule(build_code(256, 239)))
    assert sum(c for _, c in report.per_node) == report.total_cycles
    assert report.per_node[-1][0] == "root"
    assert report.per_node[-1][1] == 2


def test_latency_table_rows():
    rows = latency_table([build_code(128, 16), build_code(256, 239)])
    assert rows[0] == ("(128,16)", 762, 50, 93.4)
    assert rows[1] == ("(256,239)", 1530, 58, 96.2)


def per_kind_latency(schedule):
    """(total_cycles, per_node) by the per-kind cost walk that schedule_latency
    replaced: an internal node costs 4 cycles (0 at the root), a stage-0 leaf
    2 (its demand), a Rate0 or Rate1 leaf above stage 0 nothing, a kernel
    leaf 4 (2 at the root), and the root feedback 2."""
    per_node = []
    for pos, d in enumerate(schedule.nodes):
        is_root = pos == 0
        if d.kind is NodeType.INTERNAL:
            cycles = 0 if is_root else 4
        elif d.kind in CONSTANT_TYPES:
            cycles = 2 if d.stage == 0 and not is_root else 0
        else:
            cycles = 2 if is_root else 4
        per_node.append((d, cycles))
    per_node.append(("root", 2))
    return sum(c for _, c in per_node), tuple(per_node)


def assert_matches_per_kind_walk(schedule):
    report = schedule_latency(schedule)
    assert (report.total_cycles, report.per_node) == per_kind_latency(schedule)
    cost = fastscan._program(schedule)[2]
    assert report.total_cycles == 2 * int(cost.sum()) + ROOT_COST


F, I = True, False


@settings(derandomize=True, max_examples=300, deadline=None)
@given(masks(), st.sampled_from([CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES]))
@example(np.array([I] * 4 + [F] * 4), DEFAULT_TYPES)   # Rate0 right child
@example(np.array([F] * 8), DEFAULT_TYPES)             # Rate0 root
@example(np.array([I] * 8), DEFAULT_TYPES)             # Rate1 root
@example(build_code(8, 7).frozen_mask, DEFAULT_TYPES)   # Spc root
def test_schedule_latency_counts_the_program_as_the_per_kind_walk_did(mask, types):
    assert_matches_per_kind_walk(build_schedule(code_from_mask(mask), types))


@pytest.mark.parametrize("types", [CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES], ids=["constant", "default", "all"])
def test_model_table_codes_cost_as_the_per_kind_walk_did(types):
    for N, K in MODEL_CYCLES:
        assert_matches_per_kind_walk(build_schedule(build_code(N, K), types))
