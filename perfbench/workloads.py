"""The benchmark's three workloads, driven through polarscan's public API.

Each workload is a closed loop with one caller: a call starts only after
the previous one returns. ``rep(r, order)`` runs one repetition, which sends
the same inputs (derived from the run seed and ``r``) through every decoder
role of the workload in the given order, times each public call, and checks
the outputs. Every workload times a ``scan`` and a ``fast_scan`` role;
sim-1024 also times ``sc``.
"""

import time
from dataclasses import dataclass

import numpy as np

import polarscan as ps

SOFT_FIELDS = ("leaf_extrinsic", "root_extrinsic", "u_hat", "x_hat")


def _seed(seed, r):
    """One integer channel seed per (run seed, repetition)."""
    return seed * 1_000_003 + r


def _scaled_deviation(a, b):
    """max |a-b| / (1 + max(|a|,|b|)), the deviation of acceptance criterion 3."""
    return float(np.max(np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))))


def _sim_rep(order, frames, simulate):
    """Run one simulation call per role on the same seeded frames. min_block_errors
    lies above the frame budget, so every call decodes exactly ``frames`` frames.
    scan and fast_scan are min-sum bit-identical, so their error counts must match."""
    calls, counts = [], {}
    for role in order:
        t0 = time.perf_counter()
        pt = simulate(role).points[0]
        calls.append((role, frames, time.perf_counter() - t0))
        counts[role] = (pt.frames, pt.block_errors, pt.bit_errors)
    failures = [f"{role}: decoded {c[0]} frames, expected {frames}"
                for role, c in counts.items() if c[0] != frames]
    failures += [f"{role}: {c[1]} block errors in {c[0]} frames"
                 for role, c in counts.items() if 2 * c[1] > c[0]]
    if counts["scan"] != counts["fast_scan"]:
        failures.append(f"scan {counts['scan']} != fast_scan {counts['fast_scan']} "
                        "(frames, block errors, bit errors)")
    return calls, failures


class Workload:
    roles: tuple = ()

    def __init__(self, params, seed: int):
        self.p = params
        self.seed = seed

    def make_inputs(self):
        """Pre-generate inputs that the timed calls receive (untimed)."""

    def precheck(self):
        """Untimed checks before the loop: (calls made, failure messages)."""
        return 0, []


@dataclass(frozen=True)
class SimParams:
    N: int = 1024
    K: int = 512
    ebn0_db: float = 2.0
    iterations: int = 2
    frames: int = 256          # frame budget of one run_sim call: one 256-frame chunk


class SimWorkload(Workload):
    """Monte-Carlo BLER through simulate.run_sim: sc, scan, fast_scan on the
    same seeded frames, (1024,512) min-sum, 2 iterations, one Eb/N0 point."""

    roles = ("sc", "scan", "fast_scan")

    def setup(self):
        p = self.p
        self.code = ps.build_code(p.N, p.K)
        self.schedule = ps.build_schedule(self.code)
        self.specs = {role: ps.DecoderSpec(kind=role, iterations=p.iterations) for role in self.roles}

    def rep(self, r, order):
        p = self.p
        channel = ps.ChannelConfig(ebn0_db=(p.ebn0_db,), seed=_seed(self.seed, r))
        return _sim_rep(order, p.frames, lambda role: ps.run_sim(
            self.code, self.specs[role], channel, max_frames=p.frames,
            min_block_errors=p.frames + 1, workers=1, chunk_frames=p.frames))


@dataclass(frozen=True)
class SoftoutParams:
    N: int = 128
    K: int = 64
    ebn0_db: float = 2.0
    iterations: int = 2
    frames: int = 16           # frames per decode call
    batches: int = 32          # distinct pre-generated batches, cycled


class SoftoutWorkload(Workload):
    """Soft-output calls as a concatenated receiver makes them: ScanDecoder and
    FastScanDecoder on pre-generated LLRs, exact box-plus, all four outputs read."""

    roles = ("scan", "fast_scan")

    def setup(self):
        p = self.p
        self.code = ps.build_code(p.N, p.K)
        self.schedule = ps.build_schedule(self.code)
        cfg = ps.ScanConfig(iterations=p.iterations, arithmetic="exact")
        self.decoders = {
            "scan": ps.ScanDecoder(self.code, cfg),
            "fast_scan": ps.FastScanDecoder(self.code, cfg, schedule=self.schedule),
        }

    def make_inputs(self):
        p, code = self.p, self.code
        rng = np.random.default_rng([self.seed, p.N, p.K])
        info = rng.integers(0, 2, size=(p.batches, p.frames, code.K), dtype=np.uint8)
        self.x = ps.encode(code, ps.insert_info(code, info))
        sigma = ps.noise_sigma(p.ebn0_db, code.rate)
        y = ps.modulate(self.x) + sigma * rng.standard_normal(self.x.shape)
        self.llrs = ps.channel_llrs(y, sigma)

    def rep(self, r, order):
        b = r % self.p.batches
        llrs = self.llrs[b]
        calls, outs = [], {}
        for role in order:
            t0 = time.perf_counter()
            out = self.decoders[role].decode(llrs)
            outs[role] = [np.asarray(getattr(out, f)) for f in SOFT_FIELDS]
            calls.append((role, llrs.shape[0], time.perf_counter() - t0))
        (leaf_a, root_a, u_a, x_a), (leaf_b, root_b, u_b, x_b) = outs["scan"], outs["fast_scan"]
        failures = []
        if not (np.array_equal(u_a, u_b) and np.array_equal(x_a, x_b)):
            failures.append("fast_scan hard outputs differ from scan")
        dev = max(_scaled_deviation(leaf_a, leaf_b), _scaled_deviation(root_a, root_b))
        if not dev <= 1e-9:
            failures.append(f"soft outputs deviate by {dev:.3e} > 1e-9")
        block_errors = int(np.any(x_a != self.x[b], axis=-1).sum())
        if 2 * block_errors > llrs.shape[0]:
            failures.append(f"scan: {block_errors} block errors in {llrs.shape[0]} frames")
        return calls, failures


@dataclass(frozen=True)
class PpcParams:
    N: int = 64
    K: int = 57
    ebn0_db: float = 4.0
    pairs: int = 4
    frames: int = 32           # frame budget of one run_ppc_sim call, one chunk
    sample: int = 8            # frames of the frame-by-frame precheck


class PpcWorkload(Workload):
    """Product code (64,57)^2 through simulate.run_ppc_sim, min-sum, up to 4
    half-iteration pairs with early stop, scan and fast_scan components."""

    roles = ("scan", "fast_scan")

    def setup(self):
        p = self.p
        self.code = ps.build_code(p.N, p.K)
        self.ppc = ps.ProductPolarCode(row_code=self.code, col_code=self.code)
        self.schedule = ps.build_schedule(self.code)
        self.cfg = ps.PpcConfig(half_iteration_pairs=p.pairs)

    def precheck(self):
        """Criterion 7c on a sample: scan and fast_scan components agree frame by frame."""
        p, ppc = self.p, self.ppc
        rng = np.random.default_rng([self.seed, p.N, p.K, p.sample])
        info = rng.integers(0, 2, size=(p.sample,) + ppc.info_shape, dtype=np.uint8)
        x = ps.ppc_encode(ppc, info)
        sigma = ps.noise_sigma(p.ebn0_db, ppc.rate)
        llrs = ps.channel_llrs(ps.modulate(x) + sigma * rng.standard_normal(x.shape), sigma)
        a = ps.ppc_decode(ppc, llrs, self.cfg, decoder="scan")
        b = ps.ppc_decode(ppc, llrs, self.cfg, decoder="fast_scan")
        same = (np.array_equal(a.x_hat, b.x_hat) and np.array_equal(a.info_hat, b.info_hat)
                and np.array_equal(a.iterations_used, b.iterations_used))
        return 2, [] if same else ["product decoding differs between scan and fast_scan components"]

    def rep(self, r, order):
        p = self.p
        channel = ps.ChannelConfig(ebn0_db=(p.ebn0_db,), seed=_seed(self.seed, r))
        return _sim_rep(order, p.frames, lambda role: ps.run_ppc_sim(
            self.ppc, self.cfg, channel, decoder=role, max_frames=p.frames,
            min_block_errors=p.frames + 1, workers=1, chunk_frames=p.frames))


WORKLOADS = {
    "sim-1024": (SimWorkload, SimParams()),
    "softout-128": (SoftoutWorkload, SoftoutParams()),
    "ppc-64x64": (PpcWorkload, PpcParams()),
}
