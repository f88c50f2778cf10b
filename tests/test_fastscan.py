"""Schedule-driven decoder equivalence with the full message-passing decoder."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from conftest import code_from_mask
from polarscan import (
    DEFAULT_TYPES,
    DecoderSpec,
    FastScanDecoder,
    KERNEL_TYPES,
    NodeType,
    ScanConfig,
    ScanDecoder,
    build_code,
    build_schedule,
    fast_scan_decode,
    scan_decode,
)
from polarscan import arithmetic, fastscan, kernels, scan
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


@pytest.mark.parametrize("N, K", [(128, 64), (1024, 512)])
def test_executor_runs_once_per_iteration(monkeypatch, rng, N, K):
    # the leaf extrinsics come from a closed form after the decode, not from
    # extra executor runs: one run of the pruned tree per iteration, leaf on or off
    code = build_code(N, K)
    seen, run_ops = [], scan._run_ops

    def counting(*args, **kwargs):
        seen.append(args[0])
        return run_ops(*args, **kwargs)

    monkeypatch.setattr(scan, "_run_ops", counting)
    for iters in (1, 2, 3):
        for leaf in (True, False):
            dec = FastScanDecoder(code, ScanConfig(iterations=iters), leaf_extrinsic=leaf)
            seen.clear()
            dec.decode(rng.normal(size=(4, N)))
            assert len(seen) == iters
            assert all(ops is dec._ops for ops in seen)


@pytest.mark.parametrize("types", [DEFAULT_TYPES, KERNEL_TYPES], ids=["default", "all"])
@pytest.mark.parametrize("N, K", [(128, 64), (1024, 512)])
def test_program_fills_are_the_kernel_leaves_and_shared(N, K, types):
    # scan._compile's fill plan sweeps the stage >= 1 leaves level by level:
    # the level of half-size h holds every size-2h node of the leaves of at
    # least 2h positions, and nothing else; decoders of equal trees share
    # one cached program
    code = build_code(N, K)
    dec = FastScanDecoder(code, schedule=build_schedule(code, types))
    leaves = [d for d in dec.schedule.leaves() if d.stage > 0]
    top = max(d.stage for d in leaves)
    _, levels = dec._fill
    assert [h for h, *_ in levels] == [1 << k for k in range(top - 1, -1, -1)]
    for h, rows, *_ in levels:
        want = [r for d in leaves if d.size >= 2 * h for r in range(d.offset, d.offset + d.size)]
        np.testing.assert_array_equal(np.sort(rows), want)
        starts = rows[:rows.size // 2:h]   # each node's first row
        left = (starts[:, None] + np.arange(h)).ravel()
        np.testing.assert_array_equal(starts % (2 * h), 0)
        np.testing.assert_array_equal(rows, np.concatenate([left, left + h]))
        assert not rows.flags.writeable
    twin = FastScanDecoder(code, schedule=build_schedule(code, types))
    assert twin._ops is dec._ops and twin._fill is dec._fill
    full = ScanDecoder(code)
    assert full._fill is None and ScanDecoder(code)._ops is full._ops


@pytest.mark.parametrize("code, count", [
    (build_code(128, 64), 51), (build_code(1024, 512), 279),
    (code_from_mask([False] * 4 + [True] * 4), 4), (code_from_mask([True] * 8), 1), (code_from_mask([False] * 8), 0),
], ids=["128-64", "1024-512", "IIIIFFFF", "all-frozen", "all-info"])
def test_constant_leaves_read_the_prior(monkeypatch, rng, code, count):
    # A Rate0 or Rate1 leaf above stage 0 feeds back its prior rows and runs
    # no op, but for a Rate0 right child or root: its rows must read 0 until
    # its first visit. No op writes the channel or prior rows.
    N = code.N
    dec = FastScanDecoder(code, ScanConfig(iterations=2))
    assert len(dec._ops) == count
    for op in dec._ops:
        written = {scan._FEEDBACK: op[1:3], scan._RIGHT: (op[1], op[5])}.get(op[0], op[1:2])
        for rows in written:
            assert N <= rows.start and rows.stop <= 3 * N or 4 * N <= rows.start, op
    constant = (NodeType.RATE0, NodeType.RATE1)
    rate0_kept = [d for d in dec.schedule.leaves()
                  if d.stage and d.kind is NodeType.RATE0 and (d.index % 2 or d.stage == code.n)]
    kernel_leaves = [d for d in dec.schedule.leaves() if d.kind not in constant]
    demand_rows = {(0, N) if d.stage == code.n else (2 * N + d.offset, 2 * N + d.offset + d.size)
                   for d in rate0_kept + kernel_leaves}
    assert {(op[2].start, op[2].stop) for op in dec._ops if op[0] == scan._LEAF} == demand_rows
    calls = {"rate0_update": 0, "rate1_update": 0}
    for name in calls:
        def spy(*args, _name=name, _kernel=getattr(kernels, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, spy)
    dec.decode(rng.normal(size=(3, N)))
    assert calls == {"rate0_update": 2 * len(rate0_kept), "rate1_update": 0}


def _bits(x):
    return np.asarray(x).view(np.int64)


def _assert_leaf_demands_bit_identical(code, cfg, llrs, final_memory):
    """leaf_extrinsic and the raw leaf region finalize receives, bit for bit
    against SCAN, under default and all node types."""
    want = ScanDecoder(code, cfg).decode(llrs).leaf_extrinsic
    full_mem = final_memory[-1]
    for kw in ({}, {"schedule": build_schedule(code, KERNEL_TYPES)}):
        dec = FastScanDecoder(code, cfg, **kw)
        np.testing.assert_array_equal(_bits(dec.decode(llrs).leaf_extrinsic), _bits(want))
        np.testing.assert_array_equal(_bits(final_memory[-1].leaf), _bits(full_mem.leaf))


@pytest.mark.parametrize("iters", (1, 2, 3, 4))
@pytest.mark.parametrize("batch", (1, 8))
def test_stacked_leaf_replay_is_bit_identical_at_1024(rng, final_memory, batch, iters):
    # (1024,512) min-sum fills the leaves of each (stage, frozen count) as one
    # group (15 Rep and 13 SPC leaves on stage 2 among them), and the groups
    # alternate in visit order, so a leaf written to the wrong place shows
    code = build_code(1024, 512)
    llrs = rng.normal(size=(batch, 1024)) * 2.0 + 1.0
    for start, value in enumerate((0.0, -0.0, DEFAULT_SAT, 1e-300, -1e-300)):
        llrs[:, start::41] = value
    llrs = llrs[0] if batch == 1 else llrs
    _assert_leaf_demands_bit_identical(code, ScanConfig(iterations=iters), llrs, final_memory)


@pytest.mark.parametrize("iters", (1, 2, 3))
def test_leaf_demands_are_bit_identical_in_exact_arithmetic_at_128(rng, final_memory, iters):
    # exact box-plus adds log1p corrections, so zero signs and roundings
    # differ from min-sum's; the closed form must still reproduce every bit
    code = build_code(128, 64)
    llrs = rng.normal(size=(16, 128)) * 2.0 + 1.0
    for start, value in enumerate((0.0, -0.0, DEFAULT_SAT, -DEFAULT_SAT, 1e-300)):
        llrs[:, start::23] = value
    _assert_leaf_demands_bit_identical(code, ScanConfig(iterations=iters, arithmetic="exact"), llrs, final_memory)


def _box_plus_calls(monkeypatch, dec, llrs):
    """Exact box-plus calls of one decode."""
    calls = []
    boxplus = arithmetic.boxplus

    def counting(*args, **kwargs):
        calls.append(None)
        return boxplus(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(arithmetic, "boxplus", counting)
        dec.decode(llrs)
    return len(calls)


def test_leaf_fill_makes_few_box_plus_calls(monkeypatch, rng):
    # one f over the left demands and one over the right demands per level,
    # 5 levels; the per-group fill made 58 box-plus calls here, and a fill
    # that ran the stair children's kernels again 22
    code = build_code(128, 64)
    llrs = rng.normal(1.0, 2.0, size=(16, 128))
    counts = {leaf: _box_plus_calls(monkeypatch, FastScanDecoder(code, ScanConfig(iterations=2, arithmetic="exact"),
                                                                 leaf_extrinsic=leaf), llrs)
              for leaf in (True, False)}
    assert counts[False] > 0 and counts[True] - counts[False] <= 10


def test_decode_makes_few_box_plus_calls(monkeypatch, rng):
    # a whole (128,64) decode, exact, 2 iterations, 16 frames: every kernel
    # level unfolds in one call, and the fill runs no kernel (154 calls with
    # leaf extrinsics and 132 without when each level unfolded in two and
    # the fill ran the stair children's kernels)
    code = build_code(128, 64)
    cfg = ScanConfig(iterations=2, arithmetic="exact")
    llrs = rng.normal(1.0, 2.0, size=(16, 128))
    assert _box_plus_calls(monkeypatch, FastScanDecoder(code, cfg), llrs) <= 124
    assert _box_plus_calls(monkeypatch, FastScanDecoder(code, cfg, leaf_extrinsic=False), llrs) <= 114


@pytest.mark.parametrize("arithmetic_mode", ["minsum", "exact"])
def test_leaf_fill_runs_no_kernel(monkeypatch, rng, arithmetic_mode):
    # the fill reads the stair children's feedback from the fold blocks the
    # kernel leaves wrote, so it calls no kernel of its own
    fill, fills, kernel_calls = scan._fill, [], []

    def watched(*args):
        fills.append(None)
        with monkeypatch.context() as m:
            for module in (kernels, scan):
                m.setattr(module, "stair", lambda *a, **k: kernel_calls.append(a[1]))
            fill(*args)

    monkeypatch.setattr(scan, "_fill", watched)
    for N, K in ((128, 64), (1024, 512)):
        code = build_code(N, K)
        for types in (DEFAULT_TYPES, KERNEL_TYPES):
            for iters in (1, 2, 3):
                dec = FastScanDecoder(code, ScanConfig(iters, arithmetic_mode), build_schedule(code, types))
                dec.decode(rng.normal(1.0, 2.0, size=(2, N)))
    assert len(fills) == 12 and kernel_calls == []


@pytest.mark.parametrize("N, K, frames, arithmetic_mode, mib", [
    (128, 64, 16, "exact", 0.2140), (1024, 512, 64, "minsum", 7.384),
])
def test_leaf_fill_peak_memory_is_below_the_per_group_fill(N, K, frames, arithmetic_mode, mib):
    # mib is the per-group fill's tracemalloc peak for one leaf-on decode,
    # measured as here: from a collected heap, after a warm-up decode
    code = build_code(N, K)
    dec = FastScanDecoder(code, ScanConfig(iterations=2, arithmetic=arithmetic_mode))
    llrs = np.random.default_rng(3).normal(1.0, 2.0, size=(frames, N))
    dec.decode(llrs)   # compiles the program outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        dec.decode(llrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mib * 2**20


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
