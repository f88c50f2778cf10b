"""Soft cancellation (SCAN) decoding: one schedule executor for every tree.

SCAN runs the successive-cancellation traversal but passes soft messages in
both directions and keeps them between iterations. Messages live in two
(n+1, batch, N) arrays:

    lam[t][:, i*2^t : (i+1)*2^t]   demands into node i of stage t
    beta[t][...]                   feedback out of node i of stage t

Each array is a transposed view of an (n+1, N, batch) buffer, frames last
(the inter-frame layout of Le Gal, Leroux & Jego, IEEE TSP 2015), so a node
slice lam[t][:, lo:hi] is one contiguous block of (hi-lo)*batch floats and
every update runs over contiguous memory. The arrays index as (n+1, batch,
N) all the same.

lam[n] is the (clamped) channel LLR vector and is never modified; beta[0]
is +SAT at frozen leaf positions and 0 elsewhere and is never modified.
All other entries start at 0 and persist across one decode's iterations.

Per node of half-size h, with a = lam_t[:h], b = lam_t[h:], bl/br the
children's beta:

    left demand   f(a, b + br)        (br still holds last iteration's value)
    right demand  f(a, bl) + b        (bl freshly updated by the left child)
    feedback      [f(bl, b + br), br + f(a, bl)]

where f is box-plus (exact or min-sum) and + saturates. The right subtree
writes neither a nor bl, so the feedback reuses the f(a, bl) of the right
demand instead of computing it again. The decoder is batched: a frame axis
is broadcast through every update.

A tree compiles once into a flat tuple of ops in depth-first order, each
with precomputed index tuples into lam and beta: left demand, right demand
and feedback per internal node, one kernel op per pruned leaf. _run_ops
executes one iteration in a plain loop; the f(a, bl) of each node whose
right subtree is running waits on a stack, as the ops nest. SCAN is this
executor over the unpruned tree, whose stage-0 leaves emit no op as beta[0]
never changes; fast-SCAN (fastscan.py) runs it over a pruned schedule.
Both decoders share one decode body, _decode.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import DEFAULT_SAT, clamp, combiner, sat_add
from .channel import checked_llrs
from .codes import PolarCode, butterfly_transform


def _check_count(name: str, value) -> None:
    """Raise ValueError unless value is an integer (numpy's too) >= 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class ScanConfig:
    iterations: int = 1
    arithmetic: str = "minsum"   # 'exact' or 'minsum'

    def __post_init__(self):
        _check_count("iterations", self.iterations)
        combiner(self.arithmetic)  # validates the mode name


@dataclass
class MessageMemory:
    """One decode's lam/beta arrays, shape (n+1, batch, N) each, frames last
    in memory (see the module docstring); they persist across its iterations."""

    lam: np.ndarray
    beta: np.ndarray


@dataclass
class ScanOutput:
    leaf_extrinsic: np.ndarray   # lam at stage 0 after the final iteration
    root_extrinsic: np.ndarray   # beta at stage n
    x_hat: np.ndarray

    @property
    def u_hat(self) -> np.ndarray:
        """Decided input bits butterfly(x_hat), computed as a fresh array on each read."""
        return butterfly_transform(self.x_hat)


def init_messages(code: PolarCode, channel_llrs: np.ndarray) -> MessageMemory:
    """Fresh memory: channel LLRs at stage n, frozen +SAT at stage 0, zeros elsewhere."""
    llrs = checked_llrs(channel_llrs, code.N)
    mem = _zero_memory(code.n, llrs.shape[0])
    mem.lam[code.n] = clamp(llrs)
    mem.beta[0][:, code.frozen_mask] = DEFAULT_SAT
    return mem


def _zero_memory(n: int, batch: int) -> MessageMemory:
    """All-zero lam/beta of shape (n+1, batch, 2^n), frames last in memory."""
    shape = (n + 1, 1 << n, batch)
    return MessageMemory(lam=np.zeros(shape).transpose(0, 2, 1),
                         beta=np.zeros(shape).transpose(0, 2, 1))


_LEFT, _RIGHT, _FEEDBACK, _LEAF = range(4)


def _compile(n: int, leaves: dict) -> tuple:
    """Flatten the depth-first visit of a stage-n tree into executor ops.

    leaves maps (stage, index) of pruned leaves of stage >= 1 to kernels;
    other nodes of stage >= 1 are internal and emit (op, a, b, l, r) for
    _LEFT, _RIGHT and _FEEDBACK, where a, b index the node's halves and l, r
    its children. A leaf emits (_LEAF, node, kernel, None, None).
    """
    ops, whole = [], slice(None)

    def visit(t, i):
        lo, size = i << t, 1 << t
        if (t, i) in leaves:
            ops.append((_LEAF, (t, whole, slice(lo, lo + size)), leaves[(t, i)], None, None))
        elif t > 0:
            left, right = slice(lo, lo + size // 2), slice(lo + size // 2, lo + size)
            idx = ((t, whole, left), (t, whole, right), (t - 1, whole, left), (t - 1, whole, right))
            ops.append((_LEFT,) + idx)
            visit(t - 1, 2 * i)
            ops.append((_RIGHT,) + idx)
            visit(t - 1, 2 * i + 1)
            ops.append((_FEEDBACK,) + idx)

    visit(n, 0)
    return tuple(ops)


@lru_cache(maxsize=None)
def _unpruned_ops(n: int) -> tuple:
    """Ops of the full stage-n tree; they depend on n alone, as stage 0 emits none."""
    return _compile(n, {})


def _run_ops(ops: tuple, mem: MessageMemory, cfg: ScanConfig, log: list | None = None) -> None:
    """One decoding iteration; kernel leaves append copies of their demands
    to log in visit order, when one is given."""
    lam, beta, arithmetic = mem.lam, mem.beta, cfg.arithmetic
    f = combiner(arithmetic)
    pending = []   # f(a, bl) of each node whose right subtree is running
    for op, a, b, l, r in ops:
        if op == _LEFT:
            lam[l] = f(lam[a], sat_add(lam[b], beta[r]))
        elif op == _RIGHT:
            fab = f(lam[a], beta[l])
            pending.append(fab)
            lam[r] = sat_add(fab, lam[b])
        elif op == _FEEDBACK:
            beta[a] = f(beta[l], sat_add(lam[b], beta[r]))
            beta[b] = sat_add(beta[r], pending.pop())
        else:   # kernel leaf: a is the node, b its kernel
            demand = lam[a]
            if log is not None:
                log.append(demand.copy())
            beta[a] = b(demand, arithmetic)


def _replay_leaves(ops: tuple, mem: MessageMemory, cfg: ScanConfig, log: list) -> None:
    """Fill lam[0] inside each kernel leaf of ops by running the unpruned
    subtree of the leaf on the demands _run_ops logged for it, one per
    iteration. A subtree only sees its own demand and its own beta[0], both
    per frame, so the leaves of one stage are replayed together as extra
    frames: one _run_ops call per stage and iteration, with leaf g in frame
    rows [g*B, (g+1)*B). Log entries are dropped as they are copied in."""
    leaves = [a for op, a, *_ in ops if op == _LEAF]
    B, L = mem.lam.shape[1], len(leaves)
    for t in sorted({t for t, _, _ in leaves}):
        group = [(s, span) for s, (u, _, span) in enumerate(leaves) if u == t]
        group = [(s, span, slice(g * B, (g + 1) * B)) for g, (s, span) in enumerate(group)]
        local = _zero_memory(t, B * len(group))
        for _, span, rows in group:
            local.beta[0][rows] = mem.beta[0][:, span]
        for first in range(0, len(log), L):
            for s, _, rows in group:
                local.lam[t][rows] = log[first + s]
                log[first + s] = None
            _run_ops(_unpruned_ops(t), local, cfg)
        for _, span, rows in group:
            mem.lam[0][:, span] = local.lam[0][rows]
        del local   # free this group's memory before the next is allocated


def finalize(code: PolarCode, mem: MessageMemory, squeeze: bool,
             leaf_extrinsic: bool = True) -> ScanOutput:
    """Hard decisions from channel + root feedback; ties decide 0. The soft
    outputs are C-contiguous copies in which every zero is +0.0, so decoders
    that agree in value agree bit for bit; leaf_extrinsic=False returns None
    in its place."""
    rows = 0 if squeeze else slice(None)
    ap = sat_add(mem.lam[code.n], mem.beta[code.n])
    x_hat = np.ascontiguousarray(ap < 0, dtype=np.uint8)   # ap is frame-last like mem
    return ScanOutput(leaf_extrinsic=_soft_output(mem.lam[0][rows]) if leaf_extrinsic else None,
                      root_extrinsic=_soft_output(mem.beta[code.n][rows]), x_hat=x_hat[rows])


def _soft_output(x: np.ndarray) -> np.ndarray:
    out = x.copy()   # C order; x + 0.0 would keep the frame-last layout
    out += 0.0       # -0.0 + 0.0 == +0.0
    return out


def _decode(dec, channel_llrs: np.ndarray, leaf_extrinsic: bool) -> ScanOutput:
    """The decode body of ScanDecoder and FastScanDecoder: fresh messages,
    cfg.iterations runs of dec._ops, the replay of lam[0] inside kernel
    leaves when leaf_extrinsic is set, then finalize; nothing is kept on dec."""
    squeeze = np.asarray(channel_llrs).ndim == 1
    cfg = dec.cfg
    mem = init_messages(dec.code, channel_llrs)
    log = [] if leaf_extrinsic else None
    for _ in range(cfg.iterations):
        _run_ops(dec._ops, mem, cfg, log)
    if log:
        _replay_leaves(dec._ops, mem, cfg, log)
    return finalize(dec.code, mem, squeeze, leaf_extrinsic)


class ScanDecoder:
    """Full-tree SCAN decoder; it keeps no messages between decodes."""

    def __init__(self, code: PolarCode, cfg: ScanConfig | None = None):
        self.code = code
        self.cfg = cfg or ScanConfig()
        self._ops = _unpruned_ops(code.n)

    def decode(self, channel_llrs: np.ndarray) -> ScanOutput:
        return _decode(self, channel_llrs, True)


def scan_decode(code: PolarCode, channel_llrs: np.ndarray, cfg: ScanConfig | None = None) -> ScanOutput:
    """Functional wrapper around ScanDecoder."""
    return ScanDecoder(code, cfg).decode(channel_llrs)
