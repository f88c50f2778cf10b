"""Polar code construction and encoding.

A code is its frozen mask over the N=2^n bit-channel indices, which fixes
n, N and K. build_code freezes the N-K least reliable indices, ranked by
the shipped 5G sequence or a Bhattacharyya-parameter recursion. Encoding
is the n-stage XOR butterfly x = u * G2^(kron n), which is its own inverse
over GF(2).
"""

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .sequences import default_sequence, subcode_order


@dataclass(frozen=True, eq=False)
class PolarCode:
    frozen_mask: np.ndarray   # any 1-D bool sequence, True = frozen; kept as a read-only copy
    n: int = field(init=False)
    N: int = field(init=False)
    K: int = field(init=False)

    def __post_init__(self):
        mask = np.array(self.frozen_mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError(f"frozen mask must be 1-D, got shape {mask.shape}")
        mask.flags.writeable = False
        K = mask.size - int(mask.sum())
        vars(self).update(frozen_mask=mask, n=_check_dims(mask.size, K), N=mask.size, K=K)

    def __eq__(self, other):   # a code is its frozen mask; a 1-D bool mask's bytes fix its length
        if not isinstance(other, PolarCode):
            return NotImplemented
        return self.frozen_mask.tobytes() == other.frozen_mask.tobytes()

    def __hash__(self):
        return hash(self.frozen_mask.tobytes())

    @property
    def info_positions(self) -> np.ndarray:
        """Non-frozen indices in natural order."""
        return np.flatnonzero(~self.frozen_mask)

    @property
    def rate(self) -> float:
        return self.K / self.N

    def to_json(self) -> str:
        return json.dumps(
            {"N": self.N, "K": self.K, "frozen": np.flatnonzero(self.frozen_mask).tolist()}
        )


def _check_dims(N: int, K: int) -> int:
    if not isinstance(N, numbers.Integral) or N < 2 or (N & (N - 1)) != 0:
        raise ValueError(f"N={N} must be a power of two >= 2")
    if not isinstance(K, numbers.Integral) or isinstance(K, bool) or not 0 <= K <= N:
        raise ValueError(f"K={K!r} must be an integer in [0, {N}]")
    return int(N).bit_length() - 1


def bhattacharyya_order(N: int, design_snr_db: float = 0.0) -> np.ndarray:
    """Reliability order from the Bhattacharyya parameter recursion.

    z starts at exp(-Es/N0); each polarization level maps z to 2z - z^2
    (worse) and z^2 (better). Smaller final z = more reliable. Ties break
    toward the lower index being less reliable.
    """
    n = _check_dims(N, 0)
    try:
        z0 = np.exp(-(10.0 ** (float(design_snr_db) / 10.0)))
    except OverflowError:   # 10 ** (snr / 10) beyond float range
        z0 = 0.0
    if not 0.0 < z0 < 1.0:   # every index would tie: the identity order
        raise ValueError(f"design SNR of {design_snr_db!r} dB gives no Bhattacharyya parameter in (0, 1)")
    z = np.full(1, z0, dtype=np.longdouble)
    for _ in range(n):
        nxt = np.empty(2 * z.size, dtype=np.longdouble)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    # descending z = ascending reliability; stable sort keeps lower indices first
    return np.argsort(-z, kind="stable").astype(np.int64)


def build_code(N: int, K: int, method: str = "5g",
               seq=None, design_snr_db: float = 0.0) -> PolarCode:
    """Construct a PolarCode with the N-K least reliable indices frozen. For
    method '5g', seq is any reliability order, default the shipped 5G one."""
    _check_dims(N, K)
    if method == "5g":
        order = subcode_order(seq if seq is not None else default_sequence(), N)
    elif method == "bhattacharyya":
        order = bhattacharyya_order(N, design_snr_db)
    else:
        raise ValueError(f"unknown construction method {method!r}")
    mask = np.zeros(N, dtype=bool)
    mask[order[: N - K]] = True
    return PolarCode(mask)


def butterfly_transform(u: np.ndarray) -> np.ndarray:
    """x = u * G2^(kron n) over GF(2), along the last axis. Self-inverse.

    The XOR levels run over a positions-first copy, frames last, so every
    level XORs runs of h * frames contiguous bytes instead of h; the result
    is C-contiguous in the caller's layout."""
    u = np.asarray(u)
    N = u.shape[-1]
    _check_dims(N, 0)
    x = np.moveaxis(u % 2, -1, 0).astype(np.uint8, order="C")
    h = 1
    while h < N:
        shaped = x.reshape((N // (2 * h), 2, h) + x.shape[1:])
        shaped[:, 0] ^= shaped[:, 1]
        h *= 2
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def _check_bits(values) -> np.ndarray:
    """values as uint8; raises naming the first value that is not 0 or 1."""
    values = np.asarray(values)
    bad = np.flatnonzero((values != 0) & (values != 1))
    if bad.size:
        raise ValueError(f"bits must be 0 or 1, got {values.flat[bad[0]]}")
    return values.astype(np.uint8, copy=False)


def encode(code: PolarCode, u: np.ndarray) -> np.ndarray:
    """Encode a full length-N vector of bits; frozen positions must be 0."""
    u = np.asarray(u)
    if u.shape[-1] != code.N:
        raise ValueError(f"u has length {u.shape[-1]}, expected {code.N}")
    if np.any(u[..., code.frozen_mask] != 0):
        raise ValueError("nonzero value in a frozen position")
    return butterfly_transform(_check_bits(u))


def insert_info(code: PolarCode, info_bits: np.ndarray) -> np.ndarray:
    """Place K info bits into the non-frozen positions (natural index order)."""
    info_bits = np.asarray(info_bits)
    if info_bits.shape[-1] != code.K:
        raise ValueError(f"info has length {info_bits.shape[-1]}, expected {code.K}")
    u = np.zeros(info_bits.shape[:-1] + (code.N,), dtype=np.uint8)
    u[..., code.info_positions] = _check_bits(info_bits)
    return u


def extract_info(code: PolarCode, u: np.ndarray) -> np.ndarray:
    """Read the K info bits back out of a length-N vector."""
    u = np.asarray(u)
    if u.shape[-1] != code.N:
        raise ValueError(f"u has length {u.shape[-1]}, expected {code.N}")
    return (u[..., code.info_positions] % 2).astype(np.uint8)
