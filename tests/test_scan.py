import dataclasses
import gc
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
    scan_decode,
)
from polarscan.arithmetic import DEFAULT_SAT
from reference_scan import ref_scan

SAT = DEFAULT_SAT
inf = np.inf


def test_init_messages_8_4():
    code = build_code(8, 4)
    mem = init_messages(code, np.zeros(8))
    np.testing.assert_array_equal(mem.beta[0][0], [inf, inf, inf, 0, inf, 0, 0, 0])
    assert not mem.lam[:3].any()
    assert not mem.beta[1:].any()


def test_init_messages_clamps_channel():
    code = build_code(4, 4)
    mem = init_messages(code, np.array([3.0, -2 * SAT, 5.0, 2 * SAT]))
    np.testing.assert_array_equal(mem.lam[2][0], [3.0, -SAT, 5.0, SAT])
    assert not mem.beta[0].any()  # rate-1: no frozen priors


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
    np.testing.assert_array_equal(mem.lam[code.n], llrs)
    expected = np.where(code.frozen_mask, inf, 0.0)
    np.testing.assert_array_equal(mem.beta[0], np.broadcast_to(expected, (3, 16)))


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
        refs = [weakref.ref(mem.lam.base), weakref.ref(mem.beta.base)]
        del mem
        final_memory.clear()
        assert all(ref() is None for ref in refs)
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


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("decoder", [ScanDecoder, FastScanDecoder])
def test_messages_are_frame_last_and_outputs_contiguous(rng, final_memory, decoder, single):
    # Each node slice lam[t][:, lo:hi] is one contiguous block only while the
    # (n+1, batch, N) arrays are views of C-ordered (n+1, N, batch) buffers.
    code = build_code(64, 32)
    llrs = rng.normal(1.0, 2.0, size=64 if single else (5, 64))
    dec = decoder(code, ScanConfig(iterations=2))
    out = dec.decode(llrs)
    batch = 1 if single else 5
    mem, = final_memory
    for arr in (mem.lam, mem.beta):
        assert arr.shape == (code.n + 1, batch, code.N)
        for t in range(code.n + 1):
            assert arr[t].T.shape == (code.N, batch) and arr[t].T.flags.c_contiguous
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
