"""BPSK over AWGN: modulation, noise scaling, and channel LLRs."""

import numpy as np

from .arithmetic import clamp


def modulate(bits) -> np.ndarray:
    """BPSK mapping: bit 0 -> +1.0, bit 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """Per-dimension noise std for unit-energy BPSK at a given Eb/N0."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return float(np.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))))


def channel_llrs(received, sigma: float) -> np.ndarray:
    """LLR of received BPSK samples: 2y / sigma^2, clamped to [-SAT, SAT]."""
    return clamp(2.0 * np.asarray(received, dtype=float) / (sigma * sigma))


def checked_llrs(channel_llrs, N: int) -> np.ndarray:
    """Channel LLRs, (N,) or (batch, N), as a (batch, N) float array; raises
    ValueError naming the shape, the length or the first NaN."""
    llrs = np.atleast_2d(np.asarray(channel_llrs, dtype=float))
    if llrs.ndim > 2:
        raise ValueError(f"LLRs must be (N,) or (batch, N), got shape {llrs.shape}")
    if llrs.shape[-1] != N:
        raise ValueError(f"LLR length {llrs.shape[-1]} != N={N}")
    nan = np.argwhere(np.isnan(llrs))
    if nan.size:
        raise ValueError(f"channel LLR is NaN at (frame, position) {tuple(nan[0].tolist())}")
    return llrs
