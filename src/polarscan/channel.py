"""BPSK over AWGN: modulation, noise scaling, and channel LLRs."""

import numpy as np

from .arithmetic import clamp
from .codes import _check_bits


def modulate(bits) -> np.ndarray:
    """BPSK mapping: bit 0 -> +1.0, bit 1 -> -1.0; raises ValueError on any other value."""
    return 1.0 - 2.0 * _check_bits(bits)


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """Per-dimension noise std for unit-energy BPSK at a given Eb/N0."""
    if not rate > 0:   # NaN too
        raise ValueError("rate must be positive")
    try:
        sigma = float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))
    except (ZeroDivisionError, OverflowError):   # 10 ** (ebn0_db / 10) underflowed or overflowed
        sigma = 0.0
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"Eb/N0 of {ebn0_db!r} dB gives no finite noise sigma > 0")
    return sigma


def channel_llrs(received, sigma: float) -> np.ndarray:
    """LLR of received BPSK samples, 2y / sigma^2 clamped to [-SAT, SAT], for a finite sigma > 0."""
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"noise sigma must be finite and > 0, got {sigma!r}")
    return clamp(2.0 * np.asarray(received, dtype=float) / (sigma * sigma))


def checked_llrs(channel_llrs, N: int) -> np.ndarray:
    """Channel LLRs, (N,) or (batch, N), as a (batch, N) float array clamped
    to [-SAT, SAT]; every decoder takes its LLRs through here. Raises
    ValueError naming the shape, the length or the first NaN."""
    llrs = np.atleast_2d(np.asarray(channel_llrs, dtype=float))
    if llrs.ndim > 2:
        raise ValueError(f"LLRs must be (N,) or (batch, N), got shape {llrs.shape}")
    if llrs.shape[-1] != N:
        raise ValueError(f"LLR length {llrs.shape[-1]} != N={N}")
    nan = np.argwhere(np.isnan(llrs))
    if nan.size:
        raise ValueError(f"channel LLR is NaN at (frame, position) {tuple(nan[0].tolist())}")
    return clamp(llrs)
