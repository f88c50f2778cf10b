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

lam[n] is the channel LLR vector, clamped to [-SAT, SAT], and is never
modified; beta[0] is +inf (certainty) at frozen leaf positions and 0
elsewhere and is never modified. All other entries start at 0 and persist
across one decode's iterations. Every lam stays finite, and beta holds
finite values and +inf only (see arithmetic.py).

Per node of half-size h, with a = lam_t[:h], b = lam_t[h:], bl/br the
children's beta:

    left demand   f(a, b + br)        (br still holds last iteration's value)
    right demand  f(a, bl) + b        (bl freshly updated by the left child)
    feedback      [f(bl, b + br), br + f(a, bl)]

where f is box-plus (exact or min-sum) and + is IEEE addition. The right
subtree writes neither a nor bl, so the feedback reuses the f(a, bl) of the
right demand instead of computing it again. The decoder is batched: a frame
axis is broadcast through every update.

A decoding tree compiles once (_compile, cached) into a program: a flat
tuple of ops in depth-first order, each with precomputed index tuples into
lam and beta (left demand, right demand and feedback per internal node, and
per pruned F^j I^(s-j) leaf one op that carries j and runs kernels.stair),
and the leaf-fill groups. _run_ops executes one iteration in a plain loop;
the f(a, bl) of each node whose right subtree is running waits on a stack,
as the ops nest. SCAN is this executor over the unpruned tree, fast-SCAN
(fastscan.py) over a pruned schedule. Both decoders share one decode body,
_decode, which runs the executor once per iteration. A pruned schedule
leaves lam[0] inside its kernel leaves unwritten; with leaf extrinsics on,
_decode fills it after the last iteration, group by group, from each leaf's
final demand and the one before it.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import combiner, sat_add
from .channel import checked_llrs
from .codes import PolarCode, butterfly_transform
from .kernels import stair, stair_demands


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless value is an integer (numpy's too) >= least."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
    """Fresh memory: clamped channel LLRs at stage n, frozen +inf at stage 0,
    zeros elsewhere; (n+1, batch, N) arrays stored frames last."""
    llrs = checked_llrs(channel_llrs, code.N)
    shape = (code.n + 1, code.N, llrs.shape[0])
    mem = MessageMemory(lam=np.zeros(shape).transpose(0, 2, 1), beta=np.zeros(shape).transpose(0, 2, 1))
    mem.lam[code.n] = llrs
    mem.beta[0][:, code.frozen_mask] = np.inf
    return mem


_LEFT, _RIGHT, _FEEDBACK, _LEAF = range(4)
_PROGRAMS = 32   # programs kept; the full n = 10 tree's takes about 0.7 MB


@lru_cache(maxsize=_PROGRAMS)
def _compile(n: int, leaves: tuple = ()) -> tuple:
    """The program (ops, fills) of a stage-n decoding tree, from one walk.

    leaves holds (stage, index, j) per pruned leaf, j the number of leading
    frozen positions of its F^j I^(s-j) pattern; () is the unpruned tree.
    Stage-0 nodes emit no op, as beta[0] never changes. Other leaves emit
    (_LEAF, node, j, None, None), other nodes (op, a, b, l, r) for _LEFT,
    _RIGHT and _FEEDBACK, a, b indexing the halves and l, r the children.
    fills holds, per (stage, j) in order of first visit, (stage, positions,
    j): positions is a read-only (leaves, 2^stage) array in visit order.
    """
    pruned = {(t, i): j for t, i, j in leaves}
    ops, groups, whole = [], {}, slice(None)

    def visit(t, i):
        if t == 0:
            return
        lo, size = i << t, 1 << t
        if (t, i) in pruned:
            ops.append((_LEAF, (t, whole, slice(lo, lo + size)), pruned[t, i], None, None))
            groups.setdefault((t, pruned[t, i]), []).append(range(lo, lo + size))
            return
        left, right = slice(lo, lo + size // 2), slice(lo + size // 2, lo + size)
        idx = ((t, whole, left), (t, whole, right), (t - 1, whole, left), (t - 1, whole, right))
        ops.append((_LEFT,) + idx)
        visit(t - 1, 2 * i)
        ops.append((_RIGHT,) + idx)
        visit(t - 1, 2 * i + 1)
        ops.append((_FEEDBACK,) + idx)

    visit(n, 0)
    fills = tuple((t, np.array(spans), j) for (t, j), spans in groups.items())
    for _, positions, _ in fills:
        positions.flags.writeable = False   # every decoder of the tree shares them
    return tuple(ops), fills


def _run_ops(ops: tuple, mem: MessageMemory, cfg: ScanConfig) -> None:
    """One decoding iteration."""
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
        else:   # kernel leaf: a is the node, b its j
            beta[a] = stair(lam[a], b, arithmetic)


def finalize(code: PolarCode, mem: MessageMemory, squeeze: bool,
             leaf_extrinsic: bool = True) -> ScanOutput:
    """Hard decisions from channel + root feedback; ties decide 0. The soft
    outputs are C-contiguous copies in which every zero is +0.0, so decoders
    that agree in value agree bit for bit; leaf_extrinsic=False returns None
    in its place. root_extrinsic is +inf, unclamped, exactly where the
    frozen set fixes a bit."""
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
    cfg.iterations runs of dec._ops, then finalize; nothing is kept on dec.

    With leaf_extrinsic set, each (stage, positions, j) of dec._fills, the
    fill groups of _compile, fills lam[0] inside one group of F^j I^(2^stage-j)
    leaves after the last iteration, from the leaves' final demands and, when
    there was an iteration before, their demands from it, copied out before
    the last one."""
    squeeze = np.asarray(channel_llrs).ndim == 1
    cfg = dec.cfg
    mem = init_messages(dec.code, channel_llrs)
    fills = dec._fills if leaf_extrinsic else ()
    prev = [None] * len(fills)
    for k in range(cfg.iterations):
        if k and k == cfg.iterations - 1:
            prev = [mem.lam[t].T[span].swapaxes(-1, -2) for t, span, _ in fills]
        _run_ops(dec._ops, mem, cfg)
    for (t, span, j), p in zip(fills, prev):
        lam = mem.lam[t].T[span]   # (leaves, 2^t, frames), frames last like mem
        stair_demands(lam.swapaxes(-1, -2), p, j, cfg.arithmetic)
        mem.lam[0].T[span] = lam
    return finalize(dec.code, mem, squeeze, leaf_extrinsic)


class ScanDecoder:
    """Full-tree SCAN decoder; it keeps no messages between decodes."""

    def __init__(self, code: PolarCode, cfg: ScanConfig | None = None):
        self.code = code
        self.cfg = cfg or ScanConfig()
        self._ops, self._fills = _compile(code.n)   # no fills: the executor writes every lam[0]

    def decode(self, channel_llrs: np.ndarray) -> ScanOutput:
        return _decode(self, channel_llrs, True)


def scan_decode(code: PolarCode, channel_llrs: np.ndarray, cfg: ScanConfig | None = None) -> ScanOutput:
    """Functional wrapper around ScanDecoder."""
    return ScanDecoder(code, cfg).decode(channel_llrs)
