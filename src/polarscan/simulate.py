"""Monte-Carlo BLER/BER estimation with deterministic parallelism.

Frames are generated and decoded in fixed-size chunks. Chunk c of SNR
point p draws its randomness from np.random.default_rng([seed, p, c]), so
any worker count produces the same frames. Stopping (enough block errors
or the frame budget) is decided by scanning chunk results in index order;
chunks past the stopping index are discarded even if a worker already
computed them. The resulting CSV is byte-identical for 1 or many workers.
A chunk is a self-contained job that builds its own decoder: any worker
can run any chunk, no worker holds state between chunks, and serial and
pooled runs call the same job through starmap.
"""

import csv
import functools
import io
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import channel_llrs, modulate, noise_sigma
from .codes import PolarCode, encode, extract_info, insert_info
from .fastscan import DecoderSpec
from .product import PpcConfig, ProductPolarCode, _component_spec, ppc_decode, ppc_encode
from .scan import _check_count

CHUNK_FRAMES = 256


@dataclass(frozen=True)
class ChannelConfig:
    ebn0_db: tuple
    seed: int = 0


@dataclass
class SimPoint:
    ebn0_db: float
    frames: int = 0
    block_errors: int = 0
    bit_errors: int = 0

    @property
    def bler(self) -> float:
        return self.block_errors / self.frames if self.frames else 0.0

    def bler_ber(self, K: int):
        return self.bler, (self.bit_errors / (self.frames * K) if self.frames else 0.0)


@dataclass
class SimResult:
    code_label: str
    K: int
    points: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ebn0_db", "frames", "block_errors", "bit_errors", "bler", "ber"])
        for p in self.points:
            bler, ber = p.bler_ber(self.K)
            writer.writerow(
                [f"{p.ebn0_db:g}", p.frames, p.block_errors, p.bit_errors, f"{bler:.8e}", f"{ber:.8e}"]
            )
        return buf.getvalue()


def _chunk(rate: float, info_shape: tuple, encode_info, decode_info,
           point_idx, chunk_idx, ebn0_db, seed, frames):
    """One chunk: seeded info bits, encode_info, BPSK over AWGN, then
    decode_info from channel LLRs back to info bits, scored per frame."""
    rng = np.random.default_rng([seed, point_idx, chunk_idx])
    info = rng.integers(0, 2, size=(frames,) + info_shape, dtype=np.uint8)
    x = encode_info(info)
    sigma = noise_sigma(ebn0_db, rate)
    y = modulate(x) + sigma * rng.standard_normal(x.shape)
    bit_err = decode_info(channel_llrs(y, sigma)) != info
    return frames, int(np.any(bit_err.reshape(frames, -1), axis=1).sum()), int(bit_err.sum())


def _polar_chunk(code: PolarCode, spec: DecoderSpec, *task):
    decoder = spec.build(code)
    return _chunk(code.rate, (code.K,), lambda info: encode(code, insert_info(code, info)),
                  lambda llrs: extract_info(code, decoder(llrs).u_hat), *task)


def _ppc_chunk(ppc: ProductPolarCode, cfg: PpcConfig, decoder: str, *task):
    return _chunk(ppc.rate, ppc.info_shape, lambda info: ppc_encode(ppc, info),
                  lambda llrs: ppc_decode(ppc, llrs, cfg, decoder=decoder).info_hat, *task)


def _in_waves(map_wave, tasks, workers: int):
    """Results of map_wave over the tasks in order, one wave of `workers` tasks at a time."""
    tasks = iter(tasks)
    while wave := list(itertools.islice(tasks, workers)):
        yield from map_wave(wave)


def _estimate(job, result: SimResult, ebn0_points, seed: int, max_frames: int,
              min_block_errors: int, workers: int, chunk_frames: int) -> SimResult:
    """Shared chunk loop: job(*task) scores one chunk; identical chunk
    schedule for any worker count."""
    if np.ndim(ebn0_points) != 1:
        raise ValueError(f"ebn0_db must be a sequence of Eb/N0 values, got {ebn0_points!r}")
    if len(ebn0_points) == 0:
        raise ValueError("empty SNR list")
    for name, count in (("max_frames", max_frames), ("min_block_errors", min_block_errors),
                        ("workers", workers), ("chunk_frames", chunk_frames)):
        _check_count(name, count)
    start = time.perf_counter()

    pool = None
    if workers > 1:
        import multiprocessing as mp   # here, not at the top: it would slow `import polarscan`
        # spawn: a forked child would inherit the state of the caller's threads
        pool = mp.get_context("spawn").Pool(workers)
    map_wave = functools.partial(itertools.starmap if pool is None else pool.starmap, job)
    try:
        for point_idx, ebn0 in enumerate(ebn0_points):
            point = SimPoint(ebn0_db=float(ebn0))
            # chunk c holds min(chunk_frames, max_frames - c * chunk_frames) frames
            tasks = ((point_idx, c, float(ebn0), seed, min(chunk_frames, max_frames - c * chunk_frames))
                     for c in range(-(-max_frames // chunk_frames)))
            # fold results in chunk order; stop at the chunk that reaches the error target
            for frames, blk, bits in _in_waves(map_wave, tasks, workers):
                point.frames += frames
                point.block_errors += blk
                point.bit_errors += bits
                if point.block_errors >= min_block_errors:
                    break
            result.points.append(point)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    result.wall_seconds = time.perf_counter() - start
    return result


def run_sim(code: PolarCode, spec: DecoderSpec, channel: ChannelConfig,
            max_frames: int = 1_000_000, min_block_errors: int = 100,
            workers: int = 1, chunk_frames: int = CHUNK_FRAMES) -> SimResult:
    """Estimate BLER/BER per SNR point for a single polar code."""
    result = SimResult(code_label=f"({code.N},{code.K})", K=code.K)
    return _estimate(functools.partial(_polar_chunk, code, spec), result, channel.ebn0_db,
                     channel.seed, max_frames, min_block_errors, workers, chunk_frames)


def run_ppc_sim(ppc: ProductPolarCode, cfg: PpcConfig, channel: ChannelConfig,
                decoder: str = "fast_scan", max_frames: int = 1_000_000,
                min_block_errors: int = 100, workers: int = 1,
                chunk_frames: int = CHUNK_FRAMES) -> SimResult:
    """Estimate BLER/BER per SNR point for a product polar code."""
    label = f"({ppc.row_code.N},{ppc.row_code.K})x({ppc.col_code.N},{ppc.col_code.K})"
    result = SimResult(code_label=label, K=ppc.K)
    _component_spec(cfg, decoder)   # a decoder that cannot run fails before any worker starts
    return _estimate(functools.partial(_ppc_chunk, ppc, cfg, decoder), result, channel.ebn0_db,
                     channel.seed, max_frames, min_block_errors, workers, chunk_frames)


def parse_ebn0_range(text: str) -> tuple:
    """'a:b:step' inclusive range, or a comma list, or a single value."""
    ranged = ":" in text
    values = tuple(float(p) for p in text.split(":" if ranged else ","))
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"SNR values must be finite, got {text!r}")
    if not ranged:
        return values
    if len(values) != 3:
        raise ValueError("SNR range must be a:b:step")
    a, b, step = values
    if step <= 0:
        raise ValueError("SNR step must be positive")
    if b < a:
        raise ValueError("SNR range end must not be below its start")
    n = int(round((b - a) / step))
    return tuple(round(a + i * step, 10) for i in range(n + 1) if a + i * step <= b + 1e-9)
