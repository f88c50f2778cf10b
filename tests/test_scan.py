import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import code_from_mask
from polarscan import (
    FastScanDecoder,
    ScanConfig,
    ScanDecoder,
    ScanOutput,
    build_code,
    butterfly_transform,
    init_messages,
    scan,
    scan_decode,
)
from polarscan.arithmetic import DEFAULT_SAT
from reference_scan import ref_scan

SAT = DEFAULT_SAT
inf = np.inf


def test_init_messages_8_4():
    code = build_code(8, 4)
    mem = init_messages(code, np.zeros(8))
    assert mem.buffer.shape == (56, 1) and mem.buffer.flags.c_contiguous   # (n/2 + 5.5) N rows
    np.testing.assert_array_equal(mem.prior[0], [inf, inf, inf, 0, inf, 0, 0, 0])
    assert not mem.demands[:, 8:].any()    # all but the channel
    assert not mem.feedback[:, 8:].any()   # all but the prior
    for view in (mem.channel, mem.leaf, mem.prior, mem.root):
        assert view.shape == (1, 8) and view.base is mem.buffer


def test_init_messages_clamps_channel():
    code = build_code(4, 4)
    mem = init_messages(code, np.array([3.0, -2 * SAT, 5.0, 2 * SAT]))
    np.testing.assert_array_equal(mem.channel[0], [3.0, -SAT, 5.0, SAT])
    assert not mem.feedback.any()  # rate-1: no frozen priors


@pytest.mark.parametrize("n", range(1, 11))
def test_messages_fit_one_buffer_of_sc_size(n):
    # one (E, frames) buffer of at most (n/2 + 6) N rows, against the
    # 2 (n+1) N of a full demand grid plus a full feedback grid
    code = build_code(1 << n, 1 << (n - 1))
    mem = init_messages(code, np.zeros((3, code.N)))
    assert mem.buffer.ndim == 2 and mem.buffer.base is None
    assert mem.buffer.shape[1] == 3 and mem.buffer.flags.c_contiguous
    assert mem.buffer.shape[0] <= (n / 2 + 6) * code.N
    for view in (mem.channel, mem.demands, mem.leaf, mem.prior, mem.feedback, mem.root):
        assert view.base is mem.buffer
    assert mem.demands.shape[1] + mem.feedback.shape[1] == mem.buffer.shape[0]


def test_decode_peak_memory_is_below_the_full_grid():
    # the (n+1)-grid layout alone needs 2 * 11 * 1024 * 64 * 8 bytes
    # (11.0 MB) at 64 frames of (1024,512)
    code = build_code(1024, 512)
    dec = ScanDecoder(code, ScanConfig(iterations=2))
    llrs = np.random.default_rng(3).normal(1.0, 2.0, size=(64, 1024))
    dec.decode(llrs)   # compiles the program outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        dec.decode(llrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2 * 11 * 1024 * 64 * 8


@pytest.mark.parametrize("arithmetic", ["minsum", "exact"])
@pytest.mark.parametrize("decoder", [ScanDecoder, FastScanDecoder])
def test_an_iteration_allocates_at_most_three_half_blocks(decoder, arithmetic):
    # Every op writes into its destination rows; b + br goes to one (N/2,
    # frames) scratch block, made here as a decode makes it. Beyond the
    # message buffer, an iteration holds at most three such blocks at once:
    # scratch, one float temporary and boolean masks.
    code = build_code(1024, 512)
    frames = 64
    cfg = ScanConfig(iterations=2, arithmetic=arithmetic)
    dec = decoder(code, cfg)
    mem = init_messages(code, np.random.default_rng(5).normal(1.0, 2.0, size=(frames, code.N)))
    scan._run_ops(dec._ops, mem, cfg, np.empty((code.N // 2, frames)))   # the first iteration, unmeasured
    gc.collect()
    tracemalloc.start()
    try:
        scan._run_ops(dec._ops, mem, cfg, np.empty((code.N // 2, frames)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (code.N // 2 * frames * 8)


def test_size2_example():
    # F={0}, llrs=[-1,4]: feedback [4,-1], a-posteriori [3,3] -> bits [0,0]
    code = build_code(2, 1)
    out = scan_decode(code, np.array([-1.0, 4.0]))
    np.testing.assert_array_equal(out.root_extrinsic, [4.0, -1.0])
    np.testing.assert_array_equal(out.x_hat, [0, 0])
    np.testing.assert_array_equal(out.u_hat, [0, 0])


def test_rate0_feedback_is_certainty(rng):
    code = build_code(8, 0)
    out = scan_decode(code, rng.normal(size=8))
    np.testing.assert_array_equal(out.root_extrinsic, np.full(8, inf))
    np.testing.assert_array_equal(out.x_hat, np.zeros(8, dtype=np.uint8))


def test_rate1_feedback_is_zero(rng):
    code = build_code(8, 8)
    llrs = rng.normal(size=8)
    out = scan_decode(code, llrs)
    np.testing.assert_array_equal(out.root_extrinsic, np.zeros(8))
    np.testing.assert_array_equal(out.x_hat, (llrs < 0).astype(np.uint8))


def test_against_straight_line_oracle(rng):
    for N, K in [(8, 4), (8, 3), (16, 9), (32, 20)]:
        code = build_code(N, K)
        frozen = code.frozen_mask.tolist()
        for iters in (1, 2, 3):
            for arith in ("minsum", "exact"):
                llrs = rng.normal(0, 2.5, size=N)
                out = scan_decode(code, llrs, ScanConfig(iterations=iters, arithmetic=arith))
                ref = ref_scan(frozen, llrs.tolist(), iterations=iters, arithmetic=arith)
                if arith == "minsum":
                    np.testing.assert_array_equal(out.root_extrinsic, ref["beta_n"])
                    np.testing.assert_array_equal(out.leaf_extrinsic, ref["lam0"])
                else:
                    np.testing.assert_allclose(out.root_extrinsic, ref["beta_n"], rtol=1e-12, atol=1e-12)
                    np.testing.assert_allclose(out.leaf_extrinsic, ref["lam0"], rtol=1e-12, atol=1e-12)
                np.testing.assert_array_equal(out.x_hat, ref["x_hat"])
                np.testing.assert_array_equal(out.u_hat, ref["u_hat"])


def test_oracle_with_saturated_inputs(rng):
    # frozen priors interact with saturated channel values
    mask = np.array([1, 1, 0, 0, 1, 0, 0, 0], dtype=bool)
    code = code_from_mask(mask)
    llrs = rng.normal(0, 2, size=8)
    llrs[1] = SAT
    llrs[5] = -SAT
    out = scan_decode(code, llrs, ScanConfig(iterations=2))
    ref = ref_scan(mask.tolist(), llrs.tolist(), iterations=2)
    np.testing.assert_array_equal(out.root_extrinsic, ref["beta_n"])
    np.testing.assert_array_equal(out.leaf_extrinsic, ref["lam0"])


def test_channel_and_priors_untouched(rng, final_memory):
    code = build_code(16, 7)
    llrs = rng.normal(size=(3, 16))
    dec = ScanDecoder(code, ScanConfig(iterations=3))
    dec.decode(llrs)
    mem, = final_memory
    np.testing.assert_array_equal(mem.channel, llrs)
    expected = np.where(code.frozen_mask, inf, 0.0)
    np.testing.assert_array_equal(mem.prior, np.broadcast_to(expected, (3, 16)))


@pytest.mark.parametrize("decoder, kw", [
    (ScanDecoder, {}),
    (FastScanDecoder, {"leaf_extrinsic": True}),
    (FastScanDecoder, {"leaf_extrinsic": False}),
])
def test_messages_are_freed_when_decode_returns(rng, final_memory, decoder, kw):
    # by reference counts alone, with the collector off: a decoder that kept
    # them would hold a second message set while the next decode allocates
    code = build_code(64, 32)
    dec = decoder(code, ScanConfig(iterations=2), **kw)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = dec.decode(rng.normal(size=(4, 64)))   # kept: outputs view no message
        mem, = final_memory
        ref = weakref.ref(mem.buffer)
        del mem
        final_memory.clear()
        assert ref() is None
        del out
    finally:
        if was_enabled:
            gc.enable()


def test_deterministic(rng):
    code = build_code(32, 16)
    llrs = rng.normal(size=(4, 32))
    a = scan_decode(code, llrs, ScanConfig(iterations=2))
    b = scan_decode(code, llrs, ScanConfig(iterations=2))
    np.testing.assert_array_equal(a.root_extrinsic, b.root_extrinsic)
    np.testing.assert_array_equal(a.u_hat, b.u_hat)


def test_batch_matches_single(rng):
    code = build_code(16, 8)
    llrs = rng.normal(size=(5, 16))
    batch = scan_decode(code, llrs)
    for j in range(5):
        single = scan_decode(code, llrs[j])
        np.testing.assert_array_equal(batch.root_extrinsic[j], single.root_extrinsic)
        np.testing.assert_array_equal(batch.u_hat[j], single.u_hat)


def test_certainty_conflict_erases_feedback():
    # -SAT channel on an all-frozen code: -SAT is a finite channel value, so
    # the frozen certainty +inf absorbs it and the bits decide 0
    code = build_code(2, 0)
    out = scan_decode(code, np.array([-SAT, -SAT]))
    ref = ref_scan([True, True], [-SAT, -SAT])
    np.testing.assert_array_equal(out.root_extrinsic, [inf, inf])
    np.testing.assert_array_equal(out.root_extrinsic, ref["beta_n"])
    np.testing.assert_array_equal(out.x_hat, ref["x_hat"])
    np.testing.assert_array_equal(out.x_hat, [0, 0])


def test_tie_breaks_to_zero():
    # a-posteriori exactly 0 (channel -SAT against feedback +SAT, and a
    # plain 0 channel on a rate-1 code) decides bit 0
    code = build_code(2, 1)
    out = scan_decode(code, np.array([-SAT, SAT]))
    np.testing.assert_array_equal(out.root_extrinsic, [SAT, -SAT])
    np.testing.assert_array_equal(out.x_hat, [0, 0])

    code = build_code(4, 4)
    out = scan_decode(code, np.zeros(4))
    np.testing.assert_array_equal(out.x_hat, [0, 0, 0, 0])


def test_config_and_input_validation():
    for bad in ({"iterations": 0}, {"iterations": 2.5}, {"iterations": "2"}, {"arithmetic": "sum"}):
        with pytest.raises(ValueError):
            ScanConfig(**bad)
    assert ScanConfig(iterations=np.int64(2)).iterations == 2
    code = build_code(8, 4)
    with pytest.raises(ValueError, match="LLR length"):
        init_messages(code, np.zeros(4))
    with pytest.raises(ValueError, match=r"\(2, 3, 8\)"):
        init_messages(code, np.zeros((2, 3, 8)))
    with pytest.raises(ValueError, match="NaN"):
        init_messages(code, [np.nan, 1, -1, 2, -2, 1, 1, -3])


@pytest.mark.parametrize("field, value", [("iterations", 0), ("arithmetic", "sum")])
def test_config_is_frozen(field, value):
    # set after construction, a field skipped __post_init__'s checks:
    # iterations = 0 gave an all-zero root_extrinsic without running an iteration
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ScanConfig(), field, value)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_iterations_reject_bools(flag):
    # True is a numbers.Integral, and was taken as one iteration
    with pytest.raises(ValueError, match=f"iterations must be an integer >= 1, got {flag!r}"):
        ScanConfig(iterations=flag)


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("decoder", [ScanDecoder, FastScanDecoder])
def test_messages_are_frame_last_and_outputs_contiguous(rng, final_memory, decoder, single):
    # Every operand of every op is one contiguous block only while the buffer
    # is (E, frames) in C order and the ops name row slices of it.
    code = build_code(64, 32)
    llrs = rng.normal(1.0, 2.0, size=64 if single else (5, 64))
    dec = decoder(code, ScanConfig(iterations=2))
    out = dec.decode(llrs)
    batch = 1 if single else 5
    mem, = final_memory
    assert mem.buffer.shape[1] == batch and mem.buffer.flags.c_contiguous
    for view in (mem.channel, mem.leaf, mem.prior, mem.root):
        assert view.shape == (batch, code.N) and view.T.flags.c_contiguous
    arity = {scan._LEFT: 4, scan._RIGHT: 5, scan._FEEDBACK: 5, scan._LEAF: 2}
    for op in dec._ops:
        operands = [x for x in op[1:] if isinstance(x, slice)]
        assert len(operands) == arity[op[0]]
        for rows in operands:
            block = mem.buffer[rows]
            assert block.shape == (rows.stop - rows.start, batch) and block.flags.c_contiguous
    for field in ("leaf_extrinsic", "root_extrinsic", "u_hat", "x_hat"):
        value = getattr(out, field)
        assert value.shape == ((code.N,) if single else (batch, code.N))
        assert value.flags.c_contiguous, field
    assert out.u_hat.dtype == out.x_hat.dtype == np.uint8
    np.testing.assert_array_equal(out.u_hat, butterfly_transform(out.x_hat))


def test_output_stores_what_the_decode_computed():
    # u_hat is butterfly(x_hat), derived on each read instead of stored
    assert [f.name for f in dataclasses.fields(ScanOutput)] == ["leaf_extrinsic", "root_extrinsic", "x_hat"]
    assert isinstance(ScanOutput.u_hat, property)
