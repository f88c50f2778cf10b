import dataclasses
import io

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
        full = [v for v in seq.universal_order if v < N]
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
    np.testing.assert_array_equal(seq.universal_order, [0, 1, 2, 3])

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
    np.testing.assert_array_equal(load_reliability_sequence(b"0 1 2 3").universal_order, [0, 1, 2, 3])
    np.testing.assert_array_equal(load_reliability_sequence(io.StringIO("1 0\n")).universal_order, [1, 0])


def test_build_code_validation():
    with pytest.raises(ValueError):
        build_code(12, 4)
    with pytest.raises(ValueError):
        build_code(8, 9)
    with pytest.raises(ValueError):
        build_code(8, 4, method="genie")


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
