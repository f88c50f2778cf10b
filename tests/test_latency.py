"""Cycle accounting for flat SCAN, compiled schedules, and product codes."""

import numpy as np
import pytest

from polarscan import (
    DEFAULT_TYPES,
    KERNEL_TYPES,
    build_code,
    build_schedule,
    gain,
    latency_table,
    ppc_latency,
    sc_latency,
    scan_latency,
    schedule_latency,
)
from polarscan.schedule import CONSTANT_TYPES

from conftest import code_from_mask

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
