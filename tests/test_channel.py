"""BPSK/AWGN channel helpers."""

import re

import numpy as np
import pytest

from polarscan import channel_llrs, modulate, noise_sigma
from polarscan.arithmetic import DEFAULT_SAT as SAT


def test_modulate_mapping():
    np.testing.assert_array_equal(modulate([0, 1, 0, 1]), [1.0, -1.0, 1.0, -1.0])


def test_noise_sigma_formula():
    # sigma^2 = 1 / (2 R 10^(EbN0/10)); at 0 dB rate 1/2 -> sigma = 1
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0)
    assert noise_sigma(3.0, 0.5) == pytest.approx(np.sqrt(1.0 / 10 ** 0.3))
    ebn0, rate = 2.5, 0.75
    expect = np.sqrt(1.0 / (2 * rate * 10 ** (ebn0 / 10)))
    assert noise_sigma(ebn0, rate) == pytest.approx(expect)


def test_noise_sigma_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        noise_sigma(1.0, 0.0)
    with pytest.raises(ValueError):
        noise_sigma(1.0, -0.5)
    with pytest.raises(ValueError, match="^rate must be positive$"):
        noise_sigma(1.0, float("nan"))


def test_modulate_rejects_values_that_are_not_bits():
    with pytest.raises(ValueError, match="0 or 1, got 2$"):
        modulate([0, 1, 2])


def test_noise_sigma_rejects_ebn0_without_finite_positive_sigma():
    # +inf gave sigma 0, -inf and -1e9 ZeroDivisionError, 1e9 OverflowError,
    # and NaN a NaN sigma that surfaced only as NaN channel LLRs
    for ebn0 in (np.inf, -np.inf, -1e9, 1e9, np.nan):
        with pytest.raises(ValueError, match=re.escape(f"Eb/N0 of {ebn0!r} dB")):
            noise_sigma(ebn0, 0.5)


def test_llr_of_clean_zero_bit():
    # bit 0, no noise, sigma = 1 -> LLR exactly +2
    y = modulate([0])
    np.testing.assert_array_equal(channel_llrs(y, 1.0), [2.0])


def test_llr_scaling():
    y = np.array([0.5, -1.5])
    np.testing.assert_allclose(channel_llrs(y, 2.0), [0.25, -0.75])


def test_llr_clamping():
    llrs = channel_llrs(np.array([1e12, -1e12]), 1.0)
    np.testing.assert_array_equal(llrs, [SAT, -SAT])


@pytest.mark.parametrize("sigma", [-1.0, 0.0, np.nan, np.inf])
def test_llrs_reject_sigma_not_finite_and_positive(sigma):
    # -1 returned LLRs silently, 0 warned of a division by zero, and NaN gave
    # NaN LLRs that decoders reported as a NaN channel value
    with pytest.raises(ValueError, match=re.escape(f"sigma must be finite and > 0, got {sigma!r}")):
        channel_llrs(np.array([0.5, -1.5]), sigma)


def test_seeded_noise_reproducible():
    sigma = noise_sigma(1.0, 0.5)
    a = np.random.default_rng(7).normal(scale=sigma, size=100)
    b = np.random.default_rng(7).normal(scale=sigma, size=100)
    np.testing.assert_array_equal(a, b)
