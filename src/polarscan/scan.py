"""Soft cancellation (SCAN) decoding: one schedule executor for every tree.

SCAN runs the successive-cancellation traversal but passes soft messages in
both directions and keeps them between iterations. A decode keeps only the
messages that are read again, in one (E, frames) buffer in C order, frames
last (the inter-frame layout of Le Gal, Leroux & Jego, IEEE TSP 2015): any
span of rows is one contiguous block, and every update runs over contiguous
memory. In a stage-n tree (N = 2^n) the rows are, in order:

    region    rows          holds
    channel   N             clamped channel LLRs, the root's demand; never written
    internal  N             internal nodes' demands at SC offsets: stage t
                            (0 < t < n) at [2^t, 2^(t+1)); rows 0 and 1 unused
    leaf      N             every leaf's demand at its own positions; the
                            leaves, stage-0 nodes and pruned ones, partition [0, N)
    prior     N             +inf (certainty) at frozen positions, 0 elsewhere,
                            constant leaves' feedback (see below); never written
    left      N             left children's feedback, stage t (0 < t < n) at
                            [2^t, 2^(t+1)); rows 0 and 1 unused
    right     (n-1) N/2     right children's feedback, N/2 rows per stage t
                            (0 < t < n), node i at (i // 2) 2^t
    root      N             the root's feedback

E = (n/2 + 5.5) N. MessageMemory views the channel, leaf, prior and root
regions by name, the first three regions together as its demands and the
other four as its feedback. A child's demand is dead once its subtree has
run, so one block per stage holds the demands along the current path, as in
an SC decoder (Leroux et al., IEEE TSP 2013). A left child's feedback is
written and read within one visit of its parent, so one block per stage
holds it too. Only a right child's feedback persists: the parent's next
left demand reads it. Demands stay finite; feedback holds finite values and
+inf only (see arithmetic.py). Every row but the channel and prior starts
at 0.

Per node of half-size h, with a, b its demand's halves and bl, br the
children's feedback:

    left demand   f(a, b + br)        (br still holds last iteration's value)
    right demand  f(a, bl) + b        (bl freshly updated by the left child)
    feedback      [f(bl, b + br), br + f(a, bl)]

where f is box-plus (exact or min-sum) and + is IEEE addition. The right
subtree writes neither a nor bl, so the feedback reuses the f(a, bl) of the
right demand instead of computing it again. It waits in the node's own
right-half feedback rows, where the feedback op adds br to it: nothing
reads those rows while the right subtree runs, and the parent's left
demand, their one reader across iterations, ran before this node's visit. The decoder is batched: a frame axis is
broadcast through every update.

A constant leaf (Rate0 or Rate1, at stage 0 or pruned above it) feeds
back its prior rows and runs no op; only a Rate0 right child or root keeps
rows of its own, which read 0 until its first visit (a parent's left
demand reads br first), and an op writing +inf.

A decoding tree compiles once (_compile, cached) into a program: a flat
tuple of ops in depth-first order, the leaf-fill groups and the cost of
each node. Each op names its operands as row slices of the buffer:

    _LEFT      destination, a, b, br
    _RIGHT     destination, a, b, bl, own right half (receives f(a, bl))
    _FEEDBACK  own left half, own right half, b, bl, br
    _LEAF      feedback, demand, j   (a pruned F^j I^(s-j) leaf: kernels.stair)

An op is charged to the node whose demand or feedback it computes; an
internal root's feedback op, the demand into a constant leaf above stage 0
and a Rate0 leaf's +inf write are free. latency.schedule_latency reads it.

_run_ops executes one iteration in a plain loop, with no stack: every
internal-node op writes its result with out= straight into its destination
rows, and b + br goes to rows of one (N/2, frames) scratch block that each
decode allocates once. A kernel leaf's feedback is copied in from the
kernel's result. SCAN is this executor over the unpruned tree, fast-SCAN
(fastscan.py) over a pruned schedule. Both decoders share one decode body,
_decode, which runs the executor once per iteration. A kernel leaf's row of the leaf region holds
its demand, not its stage-0 demands; with leaf extrinsics on, _decode turns
it into them after the last iteration, group by group, from each leaf's
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
    """Raise ValueError unless value is an integer (numpy's too, not a bool) >= least."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ScanConfig:
    iterations: int = 1
    arithmetic: str = "minsum"   # 'exact' or 'minsum'

    def __post_init__(self):
        _check_count("iterations", self.iterations)
        combiner(self.arithmetic)  # validates the mode name


def _buffer_rows(n: int) -> int:
    """E, the buffer rows of a stage-n decode: (n/2 + 5.5) N."""
    return (n + 11) << n >> 1


@dataclass
class MessageMemory:
    """One decode's messages: buffer, (E, frames) in C order, laid out as in
    the module docstring; it persists across the decode's iterations. Each
    named region is a (frames, rows) view of it, frames last in memory."""

    buffer: np.ndarray
    n: int

    def _view(self, lo: int, hi: int) -> np.ndarray:
        return self.buffer[lo << self.n:hi << self.n].T

    @property
    def channel(self) -> np.ndarray:
        """(frames, N) clamped channel LLRs."""
        return self._view(0, 1)

    @property
    def demands(self) -> np.ndarray:
        """(frames, 3N): the channel, internal-demand and leaf regions."""
        return self._view(0, 3)

    @property
    def leaf(self) -> np.ndarray:
        """(frames, N) leaf demands; after the leaf fill, the stage-0 demands."""
        return self._view(2, 3)

    @property
    def prior(self) -> np.ndarray:
        """(frames, N) frozen prior, the stage-0 feedback."""
        return self._view(3, 4)

    @property
    def feedback(self) -> np.ndarray:
        """(frames, E - 3N): the prior, left, right and root regions."""
        return self.buffer[3 << self.n:].T

    @property
    def root(self) -> np.ndarray:
        """(frames, N) root feedback."""
        return self.buffer[-(1 << self.n):].T


@dataclass
class ScanOutput:
    leaf_extrinsic: np.ndarray   # stage-0 demands after the final iteration
    root_extrinsic: np.ndarray   # the root's feedback
    x_hat: np.ndarray

    @property
    def u_hat(self) -> np.ndarray:
        """Decided input bits butterfly(x_hat), computed as a fresh array on each read."""
        return butterfly_transform(self.x_hat)


def init_messages(code: PolarCode, channel_llrs: np.ndarray) -> MessageMemory:
    """Fresh memory, one (E, frames) buffer: clamped channel LLRs in the
    channel region, +inf at frozen positions of the prior, zeros elsewhere."""
    llrs = checked_llrs(channel_llrs, code.N)
    mem = MessageMemory(np.zeros((_buffer_rows(code.n), llrs.shape[0])), code.n)
    mem.channel[...] = llrs
    mem.prior[:, code.frozen_mask] = np.inf
    return mem


_LEFT, _RIGHT, _FEEDBACK, _LEAF = range(4)
_PROGRAMS = 32   # programs kept; the full n = 10 tree's takes about 1.0 MB


@lru_cache(maxsize=_PROGRAMS)
def _compile(n: int, leaves: tuple = ()) -> tuple:
    """The program (ops, fills, cost) of a stage-n decoding tree, from one walk.

    leaves holds (stage, index, j) per pruned leaf, j the number of leading
    frozen positions of its F^j I^(s-j) pattern; () is the unpruned tree.
    Each op is a 6-tuple (kind, operands..., None padding), its operands row
    slices of the buffer as listed in the module docstring. fills holds, per
    (stage, j) in order of first visit, (stage, positions, j): positions is
    a read-only (leaves, 2^stage) array of leaf-region rows in visit order.
    cost is a read-only int32 array of each node's charged ops, node (t, i)
    at (1 << (n - t)) + i.
    """
    N = 1 << n
    pruned = {(t, i): j for t, i, j in leaves}
    constant = {(t, i) for t, i, j in leaves if t and j in (0, 1 << t)}   # Rate0, Rate1 above stage 0
    on_prior = constant - {(t, i) for t, i, j in leaves if j and (i % 2 or t == n)}   # but Rate0 right, root
    ops, groups, cuts = [], {}, {}
    cost = [0] * (2 * N)

    def rows(lo, size):   # one slice per span, shared by every op that names it
        return cuts.setdefault((lo, size), slice(lo, lo + size))

    def emit(op, t, i):   # op computes (t, i)'s demand or feedback; ROOT_COST prices the root's
        ops.append(op)
        cost[(1 << (n - t)) + i] += (t, i) not in constant and (op[0] != _FEEDBACK or t < n)

    def demand(t, i):
        if t == n:
            return rows(0, N)
        if t == 0 or (t, i) in pruned:
            return rows(2 * N + (i << t), 1 << t)
        return rows(N + (1 << t), 1 << t)

    def feedback(t, i):
        if t == 0 or (t, i) in on_prior:
            return rows(3 * N + (i << t), 1 << t)
        if t == n:
            return rows(_buffer_rows(n) - N, N)
        if i % 2 == 0:
            return rows(4 * N + (1 << t), 1 << t)
        return rows(5 * N + (t - 1) * N // 2 + (i >> 1 << t), 1 << t)

    def visit(t, i):
        if t == 0:
            return
        if (t, i) in pruned:
            groups.setdefault((t, pruned[t, i]), []).append(range(i << t, (i + 1) << t))
            if (t, i) not in on_prior:
                emit((_LEAF, feedback(t, i), demand(t, i), pruned[t, i], None, None), t, i)
            return
        h, own, fb = 1 << (t - 1), demand(t, i), feedback(t, i)
        a, b = rows(own.start, h), rows(own.start + h, h)
        bl, br = feedback(t - 1, 2 * i), feedback(t - 1, 2 * i + 1)
        emit((_LEFT, demand(t - 1, 2 * i), a, b, br, None), t - 1, 2 * i)
        visit(t - 1, 2 * i)
        emit((_RIGHT, demand(t - 1, 2 * i + 1), a, b, bl, rows(fb.start + h, h)), t - 1, 2 * i + 1)
        visit(t - 1, 2 * i + 1)
        emit((_FEEDBACK, rows(fb.start, h), rows(fb.start + h, h), b, bl, br), t, i)

    visit(n, 0)
    fills = tuple((t, np.array(spans), j) for (t, j), spans in groups.items())
    cost = np.array(cost, dtype=np.int32)
    for array in (cost, *(positions for _, positions, _ in fills)):
        array.flags.writeable = False   # every decoder of the tree shares them
    return tuple(ops), fills, cost


def _run_ops(ops: tuple, mem: MessageMemory, cfg: ScanConfig, scratch: np.ndarray) -> None:
    """One decoding iteration; scratch is an (N/2, frames) block for b + br."""
    buf, arithmetic = mem.buffer, cfg.arithmetic
    f = combiner(arithmetic)
    for op, p, q, r, s, u in ops:
        if op == _LEFT:        # destination, a, b, br
            f(buf[q], sat_add(buf[r], buf[s], out=scratch[:p.stop - p.start]), out=buf[p])
        elif op == _RIGHT:     # destination, a, b, bl, own right half
            sat_add(f(buf[q], buf[s], out=buf[u]), buf[r], out=buf[p])
        elif op == _FEEDBACK:  # own halves, b, bl, br
            f(buf[s], sat_add(buf[r], buf[u], out=scratch[:q.start - p.start]), out=buf[p])
            sat_add(buf[q], buf[u], out=buf[q])
        else:                  # kernel leaf: feedback, demand, j
            buf[p] = stair(buf[q].T, r, arithmetic).T


def finalize(code: PolarCode, mem: MessageMemory, squeeze: bool,
             leaf_extrinsic: bool = True) -> ScanOutput:
    """Hard decisions from channel + root feedback; ties decide 0. The soft
    outputs are C-contiguous copies in which every zero is +0.0, so decoders
    that agree in value agree bit for bit; leaf_extrinsic=False returns None
    in its place. root_extrinsic is +inf, unclamped, exactly where the
    frozen set fixes a bit."""
    rows = 0 if squeeze else slice(None)
    ap = sat_add(mem.channel, mem.root)
    x_hat = np.ascontiguousarray(ap < 0, dtype=np.uint8)   # ap is frame-last like mem
    return ScanOutput(leaf_extrinsic=_soft_output(mem.leaf[rows]) if leaf_extrinsic else None,
                      root_extrinsic=_soft_output(mem.root[rows]), x_hat=x_hat[rows])


def _soft_output(x: np.ndarray) -> np.ndarray:
    out = x.copy()   # C order; x + 0.0 would keep the frame-last layout
    out += 0.0       # -0.0 + 0.0 == +0.0
    return out


def _decode(dec, channel_llrs: np.ndarray, leaf_extrinsic: bool) -> ScanOutput:
    """The decode body of ScanDecoder and FastScanDecoder: fresh messages,
    cfg.iterations runs of dec._ops, then finalize; nothing is kept on dec.

    With leaf_extrinsic set, each (stage, positions, j) of dec._fills, the
    fill groups of _compile, turns the leaf region of one group of
    F^j I^(2^stage-j) leaves into their stage-0 demands after the last
    iteration, from the leaves' final demands and, when there was an
    iteration before, their demands from it, gathered before the last one."""
    squeeze = np.asarray(channel_llrs).ndim == 1
    cfg = dec.cfg
    mem = init_messages(dec.code, channel_llrs)
    fills = dec._fills if leaf_extrinsic else ()
    leaf = mem.leaf.T   # (N, frames)
    # a pruned root is the one leaf whose demand is the channel, not the leaf region
    demand = mem.channel.T if fills and fills[0][0] == dec.code.n else leaf
    prev = [None] * len(fills)
    scratch = np.empty((dec.code.N >> 1, mem.buffer.shape[1]))
    for k in range(cfg.iterations):
        if k and k == cfg.iterations - 1:
            prev = [demand[span].swapaxes(-1, -2) for _, span, _ in fills]
        _run_ops(dec._ops, mem, cfg, scratch)
    del scratch   # freed before the fill and finalize, whose temporaries set the decode's peak
    for (t, span, j), p in zip(fills, prev):
        lam = demand[span]   # (leaves, 2^t, frames), frames last like mem
        stair_demands(lam.swapaxes(-1, -2), p, j, cfg.arithmetic)
        leaf[span] = lam
    return finalize(dec.code, mem, squeeze, leaf_extrinsic)


class ScanDecoder:
    """Full-tree SCAN decoder; it keeps no messages between decodes."""

    def __init__(self, code: PolarCode, cfg: ScanConfig | None = None):
        self.code = code
        self.cfg = cfg or ScanConfig()
        self._ops, self._fills, _ = _compile(code.n)   # no fills: the executor writes every leaf demand

    def decode(self, channel_llrs: np.ndarray) -> ScanOutput:
        return _decode(self, channel_llrs, True)


def scan_decode(code: PolarCode, channel_llrs: np.ndarray, cfg: ScanConfig | None = None) -> ScanOutput:
    """Functional wrapper around ScanDecoder."""
    return ScanDecoder(code, cfg).decode(channel_llrs)
