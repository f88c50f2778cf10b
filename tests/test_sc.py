"""Hard-decision SC baseline decoder."""

import numpy as np
import pytest

from polarscan import build_code, sc_decode, sc_latency
from polarscan.arithmetic import DEFAULT_SAT as SAT
from polarscan.codes import encode, insert_info

from conftest import code_from_mask
from reference_scan import ref_sc


def test_rate0_all_zero():
    code = code_from_mask([1, 1, 1, 1])
    out = sc_decode(code, np.array([-3.0, 2.0, -1.0, 9.0]))
    np.testing.assert_array_equal(out["u_hat"], 0)
    np.testing.assert_array_equal(out["x_hat"], 0)


def test_size2_hand_evaluation():
    # left: minsum(-1, 4) = -1 -> u0 frozen to 0
    # right: g(-1, 4, 0) = 4 + (-1) = 3 > 0 -> u1 = 0
    code = code_from_mask([1, 0])
    out = sc_decode(code, np.array([-1.0, 4.0]))
    np.testing.assert_array_equal(out["u_hat"], [0, 0])


def test_noiseless_all_zero_codeword():
    code = build_code(8, 4)
    out = sc_decode(code, np.full(8, 2.0))
    np.testing.assert_array_equal(out["u_hat"], 0)


def test_matches_reference_decoder(rng):
    for N in (4, 8, 16, 32):
        for _ in range(20):
            K = int(rng.integers(1, N))
            code = build_code(N, K)
            llrs = rng.normal(size=N) * 3.0
            out = sc_decode(code, llrs)
            u_ref, x_ref = ref_sc(code.frozen_mask, llrs)
            np.testing.assert_array_equal(out["u_hat"], u_ref)
            np.testing.assert_array_equal(out["x_hat"], x_ref)


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
        np.testing.assert_array_equal(out["x_hat"], x)
        np.testing.assert_array_equal(out["u_hat"], insert_info(code, info))


def test_batch_matches_single(rng):
    code = build_code(16, 10)
    llrs = rng.normal(size=(7, 16)) * 2.0
    batch = sc_decode(code, llrs)
    for b in range(7):
        single = sc_decode(code, llrs[b])
        np.testing.assert_array_equal(batch["u_hat"][b], single["u_hat"])
        np.testing.assert_array_equal(batch["x_hat"][b], single["x_hat"])


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
