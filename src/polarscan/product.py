"""Product polar codes: encoding and turbo-style iterative soft decoding.

A codeword is an N_c x N_r bit matrix whose every row belongs to the row
code and every column to the column code. Decoding alternates row and
column half-iterations; each half runs the component soft decoder on
channel LLRs plus the extrinsic from the other dimension and stores
the decoder's root feedback as the new extrinsic. Decoding stops early
when the combined hard decision re-encodes cleanly in both dimensions.
"""

from dataclasses import dataclass

import numpy as np

from .arithmetic import combiner
from .codes import PolarCode, _check_bits, butterfly_transform
from .fastscan import DecoderSpec
from .scan import _check_count


@dataclass(frozen=True)
class ProductPolarCode:
    row_code: PolarCode
    col_code: PolarCode

    @property
    def shape(self):
        """(N_c, N_r) codeword matrix shape."""
        return (self.col_code.N, self.row_code.N)

    @property
    def info_shape(self):
        return (self.col_code.K, self.row_code.K)

    @property
    def N(self) -> int:
        return self.row_code.N * self.col_code.N

    @property
    def K(self) -> int:
        return self.row_code.K * self.col_code.K

    @property
    def rate(self) -> float:
        return self.K / self.N


@dataclass
class PpcConfig:
    half_iteration_pairs: int = 8
    inner_scan_iterations: int = 1
    arithmetic: str = "minsum"

    def __post_init__(self):
        _check_count("half_iteration_pairs", self.half_iteration_pairs)
        _check_count("inner_scan_iterations", self.inner_scan_iterations)
        combiner(self.arithmetic)


@dataclass
class PpcOutput:
    x_hat: np.ndarray            # (..., N_c, N_r) hard codeword matrix
    info_hat: np.ndarray         # (..., K_c, K_r) recovered info bits
    iterations_used: np.ndarray  # per-frame half-iteration pairs executed


def ppc_encode(ppc: ProductPolarCode, info_matrix: np.ndarray) -> np.ndarray:
    """Embed info on the (col-info x row-info) grid, then encode rows, then columns."""
    info = _check_bits(info_matrix)
    single = info.ndim == 2
    info = info[None] if single else info
    if info.shape[-2:] != ppc.info_shape:
        raise ValueError(f"info shape {info.shape[-2:]} != {ppc.info_shape}")
    B = info.shape[0]
    u = np.zeros((B,) + ppc.shape, dtype=np.uint8)
    u[np.ix_(np.arange(B), ppc.col_code.info_positions, ppc.row_code.info_positions)] = info
    x = butterfly_transform(u)                    # each row through the row code
    x = _transform_columns(x)                     # each column through the column code
    return x[0] if single else x


def _transform_columns(mat: np.ndarray) -> np.ndarray:
    return np.swapaxes(butterfly_transform(np.swapaxes(mat, -1, -2)), -1, -2)


def _matrix_info(ppc: ProductPolarCode, x_hat: np.ndarray) -> np.ndarray:
    """Invert both transforms (self-inverse) and read the info grid."""
    u = _transform_columns(butterfly_transform(x_hat))
    B = u.shape[0]
    return u[np.ix_(np.arange(B), ppc.col_code.info_positions, ppc.row_code.info_positions)]


def _valid_frames(ppc: ProductPolarCode, x_hat: np.ndarray) -> np.ndarray:
    """Per-frame check that every row and column re-encodes cleanly."""
    u_rows = butterfly_transform(x_hat)
    u_cols = _transform_columns(x_hat)
    rows_ok = ~np.any(u_rows[:, :, ppc.row_code.frozen_mask], axis=(1, 2))
    cols_ok = ~np.any(u_cols[:, ppc.col_code.frozen_mask, :], axis=(1, 2))
    return rows_ok & cols_ok


def ppc_decode(ppc: ProductPolarCode, channel_llr_matrix: np.ndarray,
               cfg: PpcConfig | None = None, decoder: str = "scan") -> PpcOutput:
    """Iterative row/column soft decoding with extrinsic exchange."""
    cfg = cfg or PpcConfig()
    llrs = np.asarray(channel_llr_matrix, dtype=float)
    if llrs.ndim not in (2, 3):
        raise ValueError(f"LLR matrices must be (N_c, N_r) or (batch, N_c, N_r), got shape {llrs.shape}")
    single = llrs.ndim == 2
    llrs = llrs[None] if single else llrs
    if llrs.shape[-2:] != ppc.shape:
        raise ValueError(f"LLR matrix shape {llrs.shape[-2:]} != {ppc.shape}")
    nan = np.argwhere(np.isnan(llrs))
    if nan.size:
        raise ValueError(f"channel LLR is NaN at (frame, row, column) {tuple(nan[0].tolist())}")
    B, N_c, N_r = llrs.shape
    if decoder == "sc":
        raise ValueError("component decoders exchange soft output; 'sc' has none")

    spec = DecoderSpec(decoder, cfg.inner_scan_iterations, cfg.arithmetic)
    row_dec, col_dec = spec.build(ppc.row_code), spec.build(ppc.col_code)

    x_hat = np.zeros((B, N_c, N_r), dtype=np.uint8)
    iters = np.full(B, cfg.half_iteration_pairs, dtype=int)
    idx, e_col = np.arange(B), np.zeros_like(llrs)   # idx, llrs, e_col: frames still decoding

    for pair in range(1, cfg.half_iteration_pairs + 1):
        if idx.size == 0:
            break
        e_row = row_dec((llrs + e_col).reshape(-1, N_r)).root_extrinsic.reshape(llrs.shape)
        cols_in = np.swapaxes(llrs + e_row, -1, -2).reshape(-1, N_c)
        e_col = np.swapaxes(col_dec(cols_in).root_extrinsic.reshape(-1, N_r, N_c), -1, -2)
        hard = (llrs + e_row + e_col < 0).astype(np.uint8)
        x_hat[idx] = hard
        ok = _valid_frames(ppc, hard)
        iters[idx[ok]] = pair
        idx, llrs, e_col = idx[~ok], llrs[~ok], e_col[~ok]

    rows = 0 if single else slice(None)
    info_hat = _matrix_info(ppc, x_hat)
    return PpcOutput(x_hat=x_hat[rows], info_hat=info_hat[rows], iterations_used=iters[rows])
