"""Seeded property-based differential tests against the straight-line oracle.

Random frozen masks, node-type sets and iteration counts, with LLRs drawn
from the values where saturating arithmetic is delicate: zeros, exact
magnitude ties, +SAT certainty and tiny magnitudes. In min-sum both
decoders must agree bit for bit with tests/reference_scan.py on all four
outputs. -SAT inputs are checked for SCAN alone: fast-SCAN's Rate0 kernel
cannot follow the recursion there (see test_fastscan.py).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import code_from_mask
from polarscan import FastScanDecoder, ScanConfig, ScanDecoder
from polarscan.arithmetic import DEFAULT_SAT
from polarscan.schedule import CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES
from reference_scan import ref_scan

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)

LLR_VALUES = st.one_of(
    st.just(0.0),
    st.sampled_from([1.5, -1.5, 2.0, -2.0]),       # exact magnitude ties
    st.just(DEFAULT_SAT),
    st.sampled_from([1e-300, -1e-300]),
    st.floats(-20.0, 20.0),
)


@st.composite
def cases(draw, values):
    """(mask, (frames, N) LLRs, iterations). The mask is a row of equal blocks,
    each random bits or F^j I^(size-j): every special node has that shape."""
    N = 1 << draw(st.integers(1, 6))
    size = 1 << draw(st.integers(0, N.bit_length() - 1))
    mask = []
    for _ in range(N // size):
        if draw(st.booleans()):
            j = draw(st.integers(0, size))
            mask += [True] * j + [False] * (size - j)
        else:
            mask += draw(st.lists(st.booleans(), min_size=size, max_size=size))
    frames = draw(st.integers(1, 3))
    llrs = draw(st.lists(st.lists(values, min_size=N, max_size=N),
                         min_size=frames, max_size=frames))
    return np.array(mask, dtype=bool), np.array(llrs), draw(st.integers(1, 3))


def assert_matches_oracle(out, mask, llrs, iterations):
    for j, frame in enumerate(llrs):
        ref = ref_scan(mask.tolist(), frame.tolist(), iterations=iterations)
        np.testing.assert_array_equal(out.leaf_extrinsic[j], ref["lam0"])
        np.testing.assert_array_equal(out.root_extrinsic[j], ref["beta_n"])
        np.testing.assert_array_equal(out.x_hat[j], ref["x_hat"])
        np.testing.assert_array_equal(out.u_hat[j], ref["u_hat"])


@SETTINGS
@given(cases(LLR_VALUES), st.sampled_from([CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES]))
def test_scan_and_fast_scan_match_oracle(case, types):
    mask, llrs, iterations = case
    code = code_from_mask(mask)
    cfg = ScanConfig(iterations=iterations, arithmetic="minsum")
    assert_matches_oracle(ScanDecoder(code, cfg).decode(llrs), mask, llrs, iterations)
    fast = FastScanDecoder(code, cfg, enabled_types=types)
    assert_matches_oracle(fast.decode(llrs), mask, llrs, iterations)


@SETTINGS
@given(cases(st.one_of(LLR_VALUES, st.just(-DEFAULT_SAT))))
def test_scan_matches_oracle_with_negative_certainty(case):
    mask, llrs, iterations = case
    cfg = ScanConfig(iterations=iterations, arithmetic="minsum")
    out = ScanDecoder(code_from_mask(mask), cfg).decode(llrs)
    assert_matches_oracle(out, mask, llrs, iterations)
