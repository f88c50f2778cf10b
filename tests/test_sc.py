"""Hard-decision SC baseline decoder."""

import numpy as np
import pytest

from polarscan import build_code, butterfly_transform, sc_decode, sc_latency
from polarscan.arithmetic import DEFAULT_SAT as SAT
from polarscan.codes import encode, insert_info

from conftest import code_from_mask
from reference_scan import ref_sc


def test_rate0_all_zero():
    code = code_from_mask([1, 1, 1, 1])
    out = sc_decode(code, np.array([-3.0, 2.0, -1.0, 9.0]))
    np.testing.assert_array_equal(out.u_hat, 0)
    np.testing.assert_array_equal(out.x_hat, 0)
    assert out.leaf_extrinsic is None and out.root_extrinsic is None   # hard decisions only


def test_size2_hand_evaluation():
    # left: minsum(-1, 4) = -1 -> u0 frozen to 0
    # right: g(-1, 4, 0) = 4 + (-1) = 3 > 0 -> u1 = 0
    code = code_from_mask([1, 0])
    out = sc_decode(code, np.array([-1.0, 4.0]))
    np.testing.assert_array_equal(out.u_hat, [0, 0])


def test_channel_llrs_are_clamped(rng):
    # unclamped, [inf, -inf] on the (2,1) code computed inf - inf in the right
    # demand; clamped, it is -SAT + SAT = 0, and a tie decides 0
    out = sc_decode(code_from_mask([True, False]), np.array([np.inf, -np.inf]))
    np.testing.assert_array_equal(out.x_hat, [0, 0])
    values = np.array([np.inf, -np.inf, 1e7, -1e7, 0.5, -0.5, 2.0, -3.0])
    for _ in range(50):
        code = build_code(16, int(rng.integers(1, 16)))
        llrs = rng.choice(values, size=(4, 16))
        clamped = np.clip(llrs, -SAT, SAT)
        np.testing.assert_array_equal(sc_decode(code, llrs).x_hat, sc_decode(code, clamped).x_hat)


def test_noiseless_all_zero_codeword():
    code = build_code(8, 4)
    out = sc_decode(code, np.full(8, 2.0))
    np.testing.assert_array_equal(out.u_hat, 0)


def test_matches_reference_decoder(rng):
    for N in (4, 8, 16, 32):
        for _ in range(20):
            K = int(rng.integers(1, N))
            code = build_code(N, K)
            llrs = rng.normal(size=N) * 3.0
            out = sc_decode(code, llrs)
            u_ref, x_ref = ref_sc(code.frozen_mask, llrs)
            np.testing.assert_array_equal(out.u_hat, u_ref)
            np.testing.assert_array_equal(out.x_hat, x_ref)


def test_noiseless_recovery(rng):
    # saturated LLRs matching a codeword decode back to that codeword
    for n in range(1, 9):
        N = 1 << n
        K = max(1, N // 2)
        code = build_code(N, K)
        info = rng.integers(0, 2, size=K).astype(np.uint8)
        x = encode(code, insert_info(code, info))
        llrs = np.where(x == 0, SAT, -SAT).astype(float)
        out = sc_decode(code, llrs)
        np.testing.assert_array_equal(out.x_hat, x)
        np.testing.assert_array_equal(out.u_hat, insert_info(code, info))


def test_batch_matches_single(rng):
    code = build_code(16, 10)
    llrs = rng.normal(size=(7, 16)) * 2.0
    batch = sc_decode(code, llrs)
    for b in range(7):
        single = sc_decode(code, llrs[b])
        np.testing.assert_array_equal(batch.u_hat[b], single.u_hat)
        np.testing.assert_array_equal(batch.x_hat[b], single.x_hat)


@pytest.mark.parametrize("shape", [(16,), (7, 16)])
def test_u_hat_is_butterfly_of_x_hat(rng, shape):
    # sc_decode keeps only the codeword its recursion returns; u_hat is derived from it
    out = sc_decode(build_code(16, 10), rng.normal(size=shape) * 2.0)
    for bits in (out.u_hat, out.x_hat):
        assert bits.shape == shape and bits.dtype == np.uint8 and bits.flags.c_contiguous
    np.testing.assert_array_equal(out.u_hat, butterfly_transform(out.x_hat))


def test_length_mismatch():
    code = build_code(8, 4)
    with pytest.raises(ValueError):
        sc_decode(code, np.zeros(4))
    with pytest.raises(ValueError, match="NaN"):
        sc_decode(code, [np.nan, 1, -1, 2, -2, 1, 1, -3])
    with pytest.raises(ValueError, match=r"\(2, 3, 8\)"):
        sc_decode(code, np.ones((2, 3, 8)))


def test_latency_formula():
    assert sc_latency(65536) == 131070
    assert sc_latency(2) == 2
    assert sc_latency(256) == 510
