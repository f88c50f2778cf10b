import dataclasses
import io
import re

import numpy as np
import pytest

from polarscan import (
    PolarCode,
    ProductPolarCode,
    bhattacharyya_order,
    build_code,
    butterfly_transform,
    encode,
    extract_info,
    insert_info,
)
from polarscan.sequences import (
    default_sequence,
    load_reliability_sequence,
    subcode_order,
)
from reference_scan import ref_butterfly


def test_frozen_set_8_4():
    code = build_code(8, 4)
    np.testing.assert_array_equal(np.flatnonzero(code.frozen_mask), [0, 1, 2, 4])
    np.testing.assert_array_equal(code.info_positions, [3, 5, 6, 7])
    assert code.K == 4 and code.N == 8 and code.n == 3 and code.rate == 0.5


def test_code_is_its_frozen_mask():
    # n, N and K follow from the mask; nothing else is settable
    assert [f.name for f in dataclasses.fields(PolarCode) if f.init] == ["frozen_mask"]
    mask = [True, False]
    code = PolarCode(mask)
    assert (code.n, code.N, code.K) == (1, 2, 1)
    assert code.frozen_mask.dtype == bool and not code.frozen_mask.flags.writeable
    np.testing.assert_array_equal(code.frozen_mask, mask)
    with pytest.raises(ValueError, match=r"1-D.*\(2, 4\)"):
        PolarCode(np.zeros((2, 4), dtype=bool))
    with pytest.raises(ValueError, match="N=6"):
        PolarCode([True, False, True, False, False, False])


def test_codes_compare_and_hash_by_mask():
    a, b = build_code(8, 4), build_code(8, 4)
    assert a == b and hash(a) == hash(b)
    assert a != build_code(8, 5) and a != build_code(16, 4) and a != "code"
    assert {a: "a"}[b] == "a"
    assert ProductPolarCode(a, build_code(4, 2)) == ProductPolarCode(b, build_code(4, 2))
    assert ProductPolarCode(a, a) != ProductPolarCode(a, build_code(8, 5))


def test_insert_encode_8_4():
    code = build_code(8, 4)
    u = insert_info(code, np.array([1, 1, 0, 1]))
    np.testing.assert_array_equal(u, [0, 0, 0, 1, 0, 1, 0, 1])
    x = encode(code, u)
    # self-inverse transform
    np.testing.assert_array_equal(butterfly_transform(x), u)
    np.testing.assert_array_equal(extract_info(code, u), [1, 1, 0, 1])


def test_butterfly_size2():
    np.testing.assert_array_equal(butterfly_transform(np.array([1, 0])), [1, 0])
    np.testing.assert_array_equal(butterfly_transform(np.array([0, 1])), [1, 1])
    np.testing.assert_array_equal(butterfly_transform(np.array([1, 1])), [0, 1])


def test_butterfly_involution(rng):
    for N in (2, 4, 8, 16, 64, 256):
        u = rng.integers(0, 2, size=(7, N), dtype=np.uint8)
        np.testing.assert_array_equal(butterfly_transform(butterfly_transform(u)), u)


@pytest.mark.parametrize("layout", ["1-D", "2-D", "3-D", "swapped axes"])
def test_butterfly_matches_reference_in_every_layout(rng, layout):
    # product decoding transforms columns through a swapped-axes view
    u = {"1-D": lambda: rng.integers(0, 2, size=64),
         "2-D": lambda: rng.integers(0, 2, size=(5, 32), dtype=np.uint8),
         "3-D": lambda: rng.integers(0, 2, size=(3, 4, 16)),
         "swapped axes": lambda: np.swapaxes(rng.integers(0, 2, size=(3, 16, 8), dtype=np.uint8), -1, -2)}[layout]()
    x = butterfly_transform(u)
    rows = u.reshape(-1, u.shape[-1])
    want = np.array([ref_butterfly(row.tolist()) for row in rows], dtype=np.uint8).reshape(u.shape)
    assert x.dtype == np.uint8 and x.flags.c_contiguous
    np.testing.assert_array_equal(x, want)


def test_encode_rejects_nonzero_frozen():
    code = build_code(8, 4)
    u = np.zeros(8, dtype=np.uint8)
    u[0] = 1  # frozen position
    with pytest.raises(ValueError):
        encode(code, u)


def test_bits_are_checked_where_they_enter():
    # a value other than 0 or 1 used to be read modulo 2 (0.7 as 0, 2 as 0)
    code = build_code(8, 4)
    for info, bad in (([1, 0.7, 0, 1], "0.7"), ([1, 2, 0, 1], "2"), ([1, -1, 0, 1], "-1"),
                      ([1, np.nan, 0, 1], "nan")):
        with pytest.raises(ValueError, match=f"0 or 1, got {bad}$"):
            insert_info(code, info)
    u = insert_info(code, [1, 1, 0, 1])
    u[3] = 2  # an information position
    with pytest.raises(ValueError, match="0 or 1, got 2$"):
        encode(code, u)
    np.testing.assert_array_equal(insert_info(code, [True, False, True, True]), [0, 0, 0, 1, 0, 0, 1, 1])


def test_insert_extract_roundtrip(rng):
    for N, K in [(16, 5), (64, 40), (128, 100)]:
        code = build_code(N, K)
        info = rng.integers(0, 2, size=(11, K), dtype=np.uint8)
        np.testing.assert_array_equal(extract_info(code, insert_info(code, info)), info)


def test_rate_extremes():
    assert not build_code(8, 8).frozen_mask.any()
    assert build_code(8, 0).frozen_mask.all()


def test_subcode_order_prefix_property():
    # filtering the universal order to < N preserves relative order
    seq = default_sequence()
    for N in (8, 32, 256):
        order = subcode_order(seq, N)
        assert sorted(order.tolist()) == list(range(N))
        full = [v for v in seq if v < N]
        np.testing.assert_array_equal(order, full)


def test_subcode_order_tiny(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("1 0 3 2\n")
    seq = load_reliability_sequence(str(p))
    np.testing.assert_array_equal(subcode_order(seq, 2), [1, 0])
    np.testing.assert_array_equal(subcode_order(seq, 4), [1, 0, 3, 2])
    with pytest.raises(ValueError):
        subcode_order(seq, 8)


def test_sequence_validation(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("# comment\n0 1 2 3\n")
    seq = load_reliability_sequence(str(p))
    np.testing.assert_array_equal(seq, [0, 1, 2, 3])

    p.write_text("0 1 2 x\n")
    with pytest.raises(ValueError):
        load_reliability_sequence(str(p))

    p.write_text("0 1 2 2\n")  # duplicate
    with pytest.raises(ValueError):
        load_reliability_sequence(str(p))

    p.write_text("0 1 2\n")  # not a power of two
    with pytest.raises(ValueError):
        load_reliability_sequence(str(p))

    # bytes and file objects are content, never a path
    np.testing.assert_array_equal(load_reliability_sequence(b"0 1 2 3"), [0, 1, 2, 3])
    np.testing.assert_array_equal(load_reliability_sequence(io.StringIO("1 0\n")), [1, 0])


def test_build_code_validation():
    with pytest.raises(ValueError):
        build_code(12, 4)
    with pytest.raises(ValueError):
        build_code(8, 9)
    with pytest.raises(ValueError):
        build_code(8, 4, method="genie")


@pytest.mark.parametrize("K", [True, False, 2.5, 4.0, "4", None])
def test_build_code_rejects_a_k_that_is_not_an_integer(K):
    with pytest.raises(ValueError, match=re.escape(f"K={K!r} must be an integer in [0, 8]")):
        build_code(8, K)


def test_build_code_accepts_numpy_integer_k():
    assert build_code(8, np.int64(4)) == build_code(8, 4)
    assert build_code(8, np.uint8(3)).K == 3


def test_bhattacharyya_sanity():
    # last index is always the most reliable, index 0 the least
    for N in (8, 64, 512):
        order = bhattacharyya_order(N)
        assert order[-1] == N - 1
        assert order[0] == 0
        assert sorted(order.tolist()) == list(range(N))
    # higher design SNR keeps it a permutation
    order = bhattacharyya_order(64, design_snr_db=3.0)
    assert sorted(order.tolist()) == list(range(64))


def test_custom_orders_must_be_permutations(tmp_path):
    # a list or an array, checked the same way on its way into build_code
    for bad, why in (([0] * 8, "duplicate index 0"), ([7, 6, 5, 4, 3, 2, 1, 9], "index 9 out of range")):
        for seq in (bad, np.array(bad)):
            with pytest.raises(ValueError, match=why):
                build_code(8, 4, seq=seq)
            with pytest.raises(ValueError, match=why):
                subcode_order(seq, 4)
    with pytest.raises(ValueError, match="length 6 is not a power of two"):
        build_code(4, 2, seq=[3, 2, 1, 0, 4, 5])
    p = tmp_path / "seq.txt"
    p.write_text("6 0 5 1 4 2 7 3\n")
    from_list = build_code(8, 3, seq=[6, 0, 5, 1, 4, 2, 7, 3])
    assert from_list == build_code(8, 3, seq=load_reliability_sequence(p))
    np.testing.assert_array_equal(np.flatnonzero(from_list.frozen_mask), [0, 1, 4, 5, 6])


def test_order_check_names_the_entry_a_loop_stops_at(rng):
    def first_fault(order):   # the per-entry loop the vectorised check replaced
        seen = set()
        for v in order:
            if not 0 <= v < len(order):
                return f"index {v} out of range for length {len(order)}"
            if v in seen:
                return f"duplicate index {v}"
            seen.add(v)

    for _ in range(200):
        order = rng.integers(-2, 10, size=8).tolist()
        want = first_fault(order)
        if want is not None:
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                subcode_order(order, 8)


def test_bhattacharyya_design_snr_must_start_z_inside_0_1():
    # outside (0, 1) every index ties and the order falls back to the identity
    for snr in (np.nan, np.inf, -np.inf, 28.8, -163.6, 1e9):
        with pytest.raises(ValueError, match=re.escape(f"design SNR of {snr!r} dB")):
            bhattacharyya_order(16, snr)
    frozen = {snr: np.flatnonzero(build_code(32, 12, method="bhattacharyya", design_snr_db=snr).frozen_mask)
              for snr in (0.0, 2.0)}
    np.testing.assert_array_equal(frozen[0.0], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20, 24])
    np.testing.assert_array_equal(frozen[2.0], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 20, 24])


def test_bhattacharyya_code_decodes_noiseless(rng):
    code = build_code(32, 12, method="bhattacharyya")
    info = rng.integers(0, 2, size=12, dtype=np.uint8)
    x = encode(code, insert_info(code, info))
    assert x.shape == (32,)


def test_to_json():
    import json

    code = build_code(8, 4)
    payload = json.loads(code.to_json())
    assert payload == {"N": 8, "K": 4, "frozen": [0, 1, 2, 4]}
