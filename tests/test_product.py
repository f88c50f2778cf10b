"""Product polar codes: grid encoding and turbo-style soft decoding."""

import dataclasses
import re

import numpy as np
import pytest

from polarscan import (
    PpcConfig,
    ProductPolarCode,
    build_code,
    butterfly_transform,
    ppc_decode,
    ppc_encode,
)
from polarscan import fastscan
from polarscan.arithmetic import DEFAULT_SAT as SAT
from polarscan.channel import channel_llrs, modulate, noise_sigma


def square_ppc(N, K):
    code = build_code(N, K)
    return ProductPolarCode(row_code=code, col_code=code)


def test_2x2_hand_example():
    # single info bit at the bottom-right corner, value 1:
    # u = [[0,0],[0,1]], rows then columns -> all-ones codeword
    ppc = square_ppc(2, 1)
    x = ppc_encode(ppc, np.array([[1]], dtype=np.uint8))
    np.testing.assert_array_equal(x, [[1, 1], [1, 1]])
    np.testing.assert_array_equal(ppc_encode(ppc, np.array([[0]])), 0)


def test_shapes_and_rate():
    ppc = ProductPolarCode(row_code=build_code(8, 5), col_code=build_code(4, 3))
    assert ppc.shape == (4, 8)
    assert ppc.info_shape == (3, 5)
    assert ppc.N == 32 and ppc.K == 15
    assert ppc.rate == pytest.approx(15 / 32)


def test_encode_row_col_membership(rng):
    # every row of the codeword is a row-code word; every column a col-code word
    ppc = ProductPolarCode(row_code=build_code(8, 4), col_code=build_code(4, 2))
    info = rng.integers(0, 2, size=ppc.info_shape).astype(np.uint8)
    x = ppc_encode(ppc, info)
    u_rows = butterfly_transform(x)  # inverse row transform
    assert not u_rows[:, ~np.isin(np.arange(8), ppc.row_code.info_positions)].any()
    u_cols = butterfly_transform(x.T)
    assert not u_cols[:, ~np.isin(np.arange(4), ppc.col_code.info_positions)].any()


def test_encode_shape_mismatch():
    ppc = square_ppc(4, 2)
    with pytest.raises(ValueError):
        ppc_encode(ppc, np.zeros((3, 2), dtype=np.uint8))


def test_encode_rejects_values_that_are_not_bits():
    ppc = square_ppc(4, 2)
    info = np.array([[1, 0], [2, 1]])
    with pytest.raises(ValueError, match="0 or 1, got 2$"):
        ppc_encode(ppc, info)
    with pytest.raises(ValueError, match="0 or 1, got 0.25$"):
        ppc_encode(ppc, info[None] / 4)


def test_noiseless_decodes_in_one_pair(rng):
    ppc = square_ppc(8, 5)
    info = rng.integers(0, 2, size=ppc.info_shape).astype(np.uint8)
    x = ppc_encode(ppc, info)
    llrs = np.where(x == 0, SAT, -SAT).astype(float)
    out = ppc_decode(ppc, llrs)
    np.testing.assert_array_equal(out.x_hat, x)
    np.testing.assert_array_equal(out.info_hat, info)
    assert out.iterations_used == 1


def noisy_llr_batch(ppc, ebn0_db, frames, rng):
    info = rng.integers(0, 2, size=(frames,) + ppc.info_shape).astype(np.uint8)
    x = ppc_encode(ppc, info)
    sigma = noise_sigma(ebn0_db, ppc.rate)
    y = modulate(x) + rng.normal(scale=sigma, size=x.shape)
    return info, x, channel_llrs(y, sigma)


def test_scan_and_fast_identical(rng):
    ppc = square_ppc(16, 13)
    _, _, llrs = noisy_llr_batch(ppc, 3.0, 40, rng)
    cfg = PpcConfig(half_iteration_pairs=4)
    a = ppc_decode(ppc, llrs, cfg, decoder="scan")
    b = ppc_decode(ppc, llrs, cfg, decoder="fast_scan")
    np.testing.assert_array_equal(a.x_hat, b.x_hat)
    np.testing.assert_array_equal(a.info_hat, b.info_hat)
    np.testing.assert_array_equal(a.iterations_used, b.iterations_used)


def test_batch_decode_shapes(rng):
    ppc = square_ppc(8, 6)
    _, _, llrs = noisy_llr_batch(ppc, 4.0, 5, rng)
    out = ppc_decode(ppc, llrs, PpcConfig(half_iteration_pairs=2))
    assert out.x_hat.shape == (5, 8, 8)
    assert out.info_hat.shape == (5, 6, 6)
    assert out.iterations_used.shape == (5,)
    assert np.all(out.iterations_used >= 1)
    assert np.all(out.iterations_used <= 2)


@pytest.mark.parametrize("decoder", ["scan", "fast_scan"])
def test_batch_frames_match_their_lone_decodes(rng, decoder):
    # frames that stop at different pairs leave the batch without disturbing the rest
    ppc = square_ppc(16, 11)
    _, _, llrs = noisy_llr_batch(ppc, 2.5, 24, rng)
    cfg = PpcConfig(half_iteration_pairs=8)
    batch = ppc_decode(ppc, llrs, cfg, decoder=decoder)
    assert len(set(batch.iterations_used.tolist())) >= 3
    for j in range(len(llrs)):
        alone = ppc_decode(ppc, llrs[j], cfg, decoder=decoder)
        np.testing.assert_array_equal(batch.x_hat[j], alone.x_hat)
        np.testing.assert_array_equal(batch.info_hat[j], alone.info_hat)
        assert batch.iterations_used[j] == alone.iterations_used


@pytest.mark.parametrize("decoder", ["scan", "fast_scan"])
def test_non_square_frames_stop_only_on_a_codeword(rng, decoder):
    ppc = ProductPolarCode(row_code=build_code(16, 11), col_code=build_code(8, 4))
    _, _, llrs = noisy_llr_batch(ppc, 1.5, 48, rng)
    cap = 4
    out = ppc_decode(ppc, llrs, PpcConfig(half_iteration_pairs=cap), decoder=decoder)
    assert out.x_hat.shape == (48, 8, 16) and out.info_hat.shape == (48, 4, 11)
    reencodes = np.all(ppc_encode(ppc, out.info_hat) == out.x_hat, axis=(1, 2))
    stopped = out.iterations_used < cap
    assert stopped.any() and not reencodes.all()
    assert reencodes[stopped].all()
    assert np.all(out.iterations_used[~reencodes] == cap)
    # the info grid of x_hat, read through both butterflies written out here
    u = np.swapaxes(butterfly_transform(np.swapaxes(butterfly_transform(out.x_hat), 1, 2)), 1, 2)
    np.testing.assert_array_equal(
        out.info_hat, u[:, ppc.col_code.info_positions[:, None], ppc.row_code.info_positions])


def test_early_stop_on_valid_word(rng):
    # mild noise: most frames converge before the pair budget runs out
    ppc = square_ppc(16, 11)
    info, _, llrs = noisy_llr_batch(ppc, 6.0, 30, rng)
    out = ppc_decode(ppc, llrs, PpcConfig(half_iteration_pairs=8))
    assert np.median(out.iterations_used) < 8
    errors = np.any(out.info_hat != info, axis=(1, 2)).sum()
    assert errors <= 2


def test_iteration_gain(rng):
    # more half-iteration pairs never hurt much; at low SNR they help
    ppc = square_ppc(16, 13)
    info, _, llrs = noisy_llr_batch(ppc, 3.0, 300, rng)
    err1 = np.any(
        ppc_decode(ppc, llrs, PpcConfig(half_iteration_pairs=1)).info_hat != info,
        axis=(1, 2),
    ).sum()
    err4 = np.any(
        ppc_decode(ppc, llrs, PpcConfig(half_iteration_pairs=4)).info_hat != info,
        axis=(1, 2),
    ).sum()
    assert err4 <= err1


def test_config_validation():
    for bad in ({"half_iteration_pairs": 0}, {"half_iteration_pairs": 2.5},
                {"inner_scan_iterations": 1.5}, {"arithmetic": "approx"}):
        with pytest.raises(ValueError):
            PpcConfig(**bad)
    assert PpcConfig(half_iteration_pairs=np.int64(2)).half_iteration_pairs == 2


@pytest.mark.parametrize("name", ["half_iteration_pairs", "inner_scan_iterations"])
def test_config_rejects_bool_counts(name):
    # True is a numbers.Integral, and was taken as one pair or iteration
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got True"):
        PpcConfig(**{name: True})


@pytest.mark.parametrize("field, value", [("half_iteration_pairs", 0), ("inner_scan_iterations", 0),
                                          ("arithmetic", "approx")])
def test_config_is_frozen(field, value):
    # set after construction, a field skipped __post_init__'s checks:
    # half_iteration_pairs = 0 gave all-zero x_hat and info_hat with iterations_used 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(PpcConfig(), field, value)


@pytest.mark.parametrize("decoder", ["sc", "bogus"])
def test_component_decoder_must_have_soft_output(decoder):
    with pytest.raises(ValueError, match=f"'{decoder}'"):
        ppc_decode(square_ppc(4, 2), np.zeros((4, 4)), decoder=decoder)


def test_decode_llr_shape_mismatch(rng):
    ppc = square_ppc(4, 2)
    with pytest.raises(ValueError):
        ppc_decode(ppc, np.zeros((4, 8)))
    for bad in (np.zeros(16), np.zeros((1, 2, 4, 4))):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
            ppc_decode(ppc, bad)


def test_decode_names_nan_by_matrix_coordinates():
    ppc = square_ppc(4, 2)
    with pytest.raises(ValueError, match=re.escape("(frame, row, column) (0, 0, 0)")):
        ppc_decode(ppc, np.full((4, 4), np.nan))
    llrs = np.ones((3, 4, 4))
    llrs[2, 1, 3] = np.nan
    with pytest.raises(ValueError, match=re.escape("(frame, row, column) (2, 1, 3)")):
        ppc_decode(ppc, llrs)


def test_square_product_code_builds_one_component_decoder(monkeypatch):
    # equal row and column codes share one decoder, so one schedule per call
    builds, original = [], fastscan.build_schedule
    monkeypatch.setattr(fastscan, "build_schedule", lambda *args: builds.append(args) or original(*args))
    for ppc, want in ((square_ppc(16, 11), 1), (ProductPolarCode(build_code(16, 11), build_code(8, 4)), 2)):
        builds.clear()
        ppc_decode(ppc, np.full((2,) + ppc.shape, 2.0), decoder="fast_scan")
        assert len(builds) == want
