"""Product polar codes: encoding and turbo-style iterative soft decoding.

A codeword is an N_c x N_r bit matrix whose every row belongs to the row
code and every column to the column code. Decoding alternates row and
column half-iterations; each half runs the component soft decoder on
channel LLRs plus the extrinsic from the other dimension and stores
the decoder's root feedback as the new extrinsic. One transform, rows then
columns, encodes the bit grid and is its own inverse. Each pair applies it
once to every undecided frame's hard decision: the grid gives the frame's
info_hat, and the frame stops early once the grid is 0 on every frozen row
and column.
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


@dataclass(frozen=True)
class PpcConfig:
    half_iteration_pairs: int = 8
    inner_scan_iterations: int = 1
    arithmetic: str = "minsum"

    def __post_init__(self):
        _check_count("half_iteration_pairs", self.half_iteration_pairs)
        _check_count("inner_scan_iterations", self.inner_scan_iterations)
        combiner(self.arithmetic)


def _component_spec(cfg: PpcConfig, decoder: str) -> DecoderSpec:
    """The row and column decoders' spec; raises ValueError for a decoder that cannot run."""
    if decoder == "sc":
        raise ValueError("component decoders exchange soft output; 'sc' has none")
    return DecoderSpec(decoder, cfg.inner_scan_iterations, cfg.arithmetic)


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
    u = np.zeros((info.shape[0],) + ppc.shape, dtype=np.uint8)
    u[:, ppc.col_code.info_positions[:, None], ppc.row_code.info_positions] = info
    x = _transform(u)
    return x[0] if single else x


def _transform(mat: np.ndarray) -> np.ndarray:
    """Butterfly every row, then every column; self-inverse, so it encodes and decodes."""
    rows = butterfly_transform(mat)
    return np.swapaxes(butterfly_transform(np.swapaxes(rows, -1, -2)), -1, -2)


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
    spec = _component_spec(cfg, decoder)
    row_dec = spec.build(ppc.row_code)
    col_dec = row_dec if ppc.col_code == ppc.row_code else spec.build(ppc.col_code)

    x_hat = np.zeros((B, N_c, N_r), dtype=np.uint8)
    info_hat = np.zeros((B,) + ppc.info_shape, dtype=np.uint8)
    iters = np.full(B, cfg.half_iteration_pairs, dtype=int)
    idx, e_col = np.arange(B), np.zeros_like(llrs)   # idx, llrs, e_col: frames still decoding
    frozen = ppc.col_code.frozen_mask[:, None] | ppc.row_code.frozen_mask   # (N_c, N_r) grid

    for pair in range(1, cfg.half_iteration_pairs + 1):
        if idx.size == 0:
            break
        e_row = row_dec((llrs + e_col).reshape(-1, N_r)).root_extrinsic.reshape(llrs.shape)
        cols_in = np.swapaxes(llrs + e_row, -1, -2).reshape(-1, N_c)
        e_col = np.swapaxes(col_dec(cols_in).root_extrinsic.reshape(-1, N_r, N_c), -1, -2)
        hard = (llrs + e_row + e_col < 0).astype(np.uint8)
        u = _transform(hard)
        x_hat[idx] = hard
        info_hat[idx] = u[:, ppc.col_code.info_positions[:, None], ppc.row_code.info_positions]
        ok = ~u[:, frozen].any(axis=1)   # decided: the transform is 0 on every frozen row and column
        iters[idx[ok]] = pair
        idx, llrs, e_col = idx[~ok], llrs[~ok], e_col[~ok]

    rows = 0 if single else slice(None)
    return PpcOutput(x_hat=x_hat[rows], info_hat=info_hat[rows], iterations_used=iters[rows])
