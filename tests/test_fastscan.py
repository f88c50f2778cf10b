"""Schedule-driven decoder equivalence with the full message-passing decoder."""

import json

import numpy as np
import pytest

from conftest import code_from_mask
from polarscan import (
    DEFAULT_TYPES,
    DecoderSpec,
    FastScanDecoder,
    KERNEL_TYPES,
    ScanConfig,
    ScanDecoder,
    build_code,
    build_schedule,
    fast_scan_decode,
    scan_decode,
)
from polarscan import fastscan, kernels, scan
from polarscan.cli import main
from polarscan.arithmetic import DEFAULT_SAT
from reference_scan import ref_scan

FIELDS = ("leaf_extrinsic", "root_extrinsic", "u_hat", "x_hat")


def assert_outputs_equal(a, b, exact=False):
    for name in FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        if exact:
            np.testing.assert_allclose(va, vb, rtol=1e-9, atol=1e-9, err_msg=name)
        else:
            np.testing.assert_array_equal(va, vb, err_msg=name)


def test_minsum_bit_identical_to_full_decoder(rng):
    for N, K in ((16, 9), (32, 8), (32, 24), (64, 32)):
        code = build_code(N, K)
        llrs = rng.normal(size=(32, N)) * 2.0
        for iters in (1, 2, 3):
            cfg = ScanConfig(iterations=iters, arithmetic="minsum")
            assert_outputs_equal(
                scan_decode(code, llrs, cfg), fast_scan_decode(code, llrs, cfg)
            )


def test_exact_arithmetic_close(rng):
    code = build_code(32, 16)
    llrs = rng.normal(size=(16, 32)) * 2.0
    cfg = ScanConfig(iterations=2, arithmetic="exact")
    assert_outputs_equal(
        scan_decode(code, llrs, cfg), fast_scan_decode(code, llrs, cfg), exact=True
    )


def test_all_types_enabled_still_identical(rng):
    code = build_code(64, 40)
    llrs = rng.normal(size=(16, 64)) * 2.0
    cfg = ScanConfig(iterations=2, arithmetic="minsum")
    full = scan_decode(code, llrs, cfg)
    fast = FastScanDecoder(code, cfg, schedule=build_schedule(code, KERNEL_TYPES)).decode(llrs)
    assert_outputs_equal(full, fast)


def test_rate1_root_single_kernel(rng):
    # all-information code prunes to one node; feedback is exactly zero
    code = build_code(16, 16)
    dec = FastScanDecoder(code)
    assert dec.schedule.node_count == 1
    llrs = rng.normal(size=16) * 2.0
    out = dec.decode(llrs)
    np.testing.assert_array_equal(out.root_extrinsic, 0.0)
    np.testing.assert_array_equal(out.x_hat, (llrs < 0).astype(np.uint8))


def test_schedule_code_mismatch():
    sched = build_schedule(build_code(16, 8))
    with pytest.raises(ValueError):
        FastScanDecoder(build_code(32, 16), schedule=sched)
    # same N, another frozen mask: the schedule would run the wrong kernels
    with pytest.raises(ValueError, match=r"\(64,40\)"):
        FastScanDecoder(build_code(64, 40), schedule=build_schedule(build_code(64, 32)))
    code = build_code(64, 32)
    FastScanDecoder(code, schedule=build_schedule(code))
    dec = FastScanDecoder(code, schedule=build_schedule(code, KERNEL_TYPES))
    assert dec.schedule.enabled_types == KERNEL_TYPES
    # frozenset() is a type set (constant nodes only), not "use the default"
    assert FastScanDecoder(code, schedule=build_schedule(code, frozenset())).schedule.node_count == 47


def spy(monkeypatch, module, name):
    """Calls of module.name, counted while the test runs."""
    calls, original = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_node_types_reach_the_decoder(monkeypatch, capsys):
    # outputs are identical whatever the pruning, so watch the kernel instead:
    # FFFFFIII is one TypeII node under KERNEL_TYPES, Internal under DEFAULT_TYPES
    code = build_code(8, 3)
    assert code == code_from_mask([True] * 5 + [False] * 3)
    type2 = spy(monkeypatch, kernels, "type2_update")
    llrs = np.full(8, 2.0)
    argv = ["decode", "--n", "8", "--k", "3", "--decoder", "fast_scan", "--llrs", "2,2,2,2,2,2,2,2"]
    for types, option, used in ((DEFAULT_TYPES, "default", False), (KERNEL_TYPES, "all", True)):
        DecoderSpec("fast_scan", node_types=types).build(code)(llrs)
        assert bool(type2) is used
        type2.clear()
        assert main(argv + ["--node-types", option]) == 0
        assert json.loads(capsys.readouterr().out)["x_hat"] == [0] * 8
        assert bool(type2) is used
        type2.clear()


def test_each_construction_builds_its_schedule_at_most_once(monkeypatch):
    # a given schedule is used as it is, not rebuilt to be compared
    code = build_code(64, 32)
    sched = build_schedule(code)
    builds = spy(monkeypatch, fastscan, "build_schedule")
    for make, want in ((lambda: FastScanDecoder(code), 1), (lambda: FastScanDecoder(code, schedule=sched), 0),
                       (lambda: DecoderSpec("fast_scan").build(code), 1)):
        builds.clear()
        make()
        assert len(builds) == want


def test_leaf_extrinsic_flag(rng):
    # skipping the leaf-extrinsic reconstruction returns None for it and
    # leaves the other outputs intact
    code = build_code(32, 20)
    llrs = rng.normal(size=(8, 32)) * 2.0
    cfg = ScanConfig(iterations=2)
    full = scan_decode(code, llrs, cfg)
    fast = FastScanDecoder(code, cfg, leaf_extrinsic=False).decode(llrs)
    assert fast.leaf_extrinsic is None
    np.testing.assert_array_equal(fast.root_extrinsic, full.root_extrinsic)
    np.testing.assert_array_equal(fast.u_hat, full.u_hat)
    np.testing.assert_array_equal(fast.x_hat, full.x_hat)


@pytest.mark.parametrize("N, K, calls", [(128, 64, 8), (1024, 512, 14)])
def test_leaf_replay_runs_once_per_stage(monkeypatch, rng, N, K, calls):
    # per iteration: the pruned tree, then one replay per distinct stage of the
    # kernel leaves ((128,64): 14 leaves on stages 2, 3, 5; (1024,512): 75 on 2-7)
    dec = FastScanDecoder(build_code(N, K), ScanConfig(iterations=2))
    stages = {d.stage for d in dec.schedule.leaves() if d.stage > 0}
    seen, run_ops = [], scan._run_ops

    def counting(*args, **kwargs):
        seen.append(args[0])
        return run_ops(*args, **kwargs)

    monkeypatch.setattr(scan, "_run_ops", counting)
    dec.decode(rng.normal(size=(4, N)))
    assert len(seen) == 2 * (1 + len(stages)) == calls


def _bits(x):
    return np.asarray(x).view(np.int64)


@pytest.mark.parametrize("iters", (1, 3))
@pytest.mark.parametrize("batch", (1, 8))
def test_stacked_leaf_replay_is_bit_identical_at_1024(rng, final_memory, batch, iters):
    # (1024,512) min-sum replays 34 stage-2 leaves as one group, and the stages
    # alternate in visit order, so a leaf written to the wrong frame rows shows
    code = build_code(1024, 512)
    cfg = ScanConfig(iterations=iters)
    llrs = rng.normal(size=(batch, 1024)) * 2.0 + 1.0
    for start, value in enumerate((0.0, -0.0, DEFAULT_SAT, 1e-300, -1e-300)):
        llrs[:, start::41] = value
    llrs = llrs[0] if batch == 1 else llrs
    full = ScanDecoder(code, cfg)
    want = full.decode(llrs).leaf_extrinsic
    full_mem = final_memory[-1]
    for kw in ({}, {"schedule": build_schedule(code, KERNEL_TYPES)}):
        dec = FastScanDecoder(code, cfg, **kw)
        np.testing.assert_array_equal(_bits(dec.decode(llrs).leaf_extrinsic), _bits(want))
        np.testing.assert_array_equal(_bits(final_memory[-1].lam[0]), _bits(full_mem.lam[0]))


def test_determinism(rng):
    code = build_code(64, 32)
    llrs = rng.normal(size=(4, 64)) * 2.0
    a = fast_scan_decode(code, llrs, ScanConfig(iterations=3))
    b = fast_scan_decode(code, llrs, ScanConfig(iterations=3))
    assert_outputs_equal(a, b)


def test_single_frame_squeezes(rng):
    code = build_code(16, 9)
    llrs = rng.normal(size=16)
    out = fast_scan_decode(code, llrs)
    assert out.u_hat.shape == (16,)
    assert out.leaf_extrinsic.shape == (16,)


def test_negative_certainty_on_frozen_position_matches_scan():
    # all-frozen (2,0) code: the -SAT channel value is finite, so SCAN, the
    # oracle and fast-SCAN's Rate0 root all feed back certainty [inf, inf]
    code = code_from_mask([True, True])
    llrs = np.array([0.0, -DEFAULT_SAT])
    ref = ref_scan([True, True], llrs.tolist())
    np.testing.assert_array_equal(scan_decode(code, llrs).root_extrinsic, ref["beta_n"])
    np.testing.assert_array_equal(fast_scan_decode(code, llrs).root_extrinsic, ref["beta_n"])
