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
tuple of ops in depth-first order, the leaf-fill plan and the cost of
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
_decode, which runs the executor once per iteration. A kernel leaf's rows
of the leaf region hold its demand, not the stage-0 demands inside it;
with leaf extrinsics on, _fill writes those over it after the last
iteration, from each leaf's final demand and the one before it, in one
sweep per level over every leaf at once.
"""

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import combiner, sat_add
from .channel import checked_llrs
from .codes import PolarCode, butterfly_transform
from .kernels import stair


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


def _frozen(array: np.ndarray) -> np.ndarray:
    """array, made read-only: every decoder of the tree shares it."""
    array.flags.writeable = False
    return array


def _last_prev_level(s: int, j: int) -> int:
    """The lowest half-size h at which the F^j I^(s-j) leaf's stair node has
    j' > h, and so reads the iteration before; s if none does."""
    return min((1 << k for k in range(s.bit_length() - 1) if j % (2 << k) > 1 << k), default=s)


def _halves(starts: list, h: int) -> np.ndarray:
    """Rows of the left halves of the size-2h nodes at starts, node after
    node, then of their right halves."""
    left = (np.array(starts, dtype=np.intp)[:, None] + np.arange(h)).ravel()
    return np.concatenate([left, left + h])


def _fill_plan(n: int, leaves: list) -> tuple | None:
    """The leaf fill (see _fill) of the pruned leaves (stage, index, j)
    above stage 0, in visit order; None if there are none. It is a tuple
    (root, prev_rows, levels, spare):

    root       the pruned root is the one leaf, its demand the channel
    prev_rows  the leaf-region rows, ascending, of the leaves whose fill
               reads the iteration before; copied before the last iteration
    levels     one (h, rows, cuts, br, bl, chain) per half-size h, from the
               largest down to 1, for the size-2h nodes inside every leaf of
               at least 2h positions:
      rows     their leaf-region rows: the nodes' left halves, node after
               node, then their right halves (_halves)
      cuts     (r0, rb, r1, r2), row offsets into a half that cut the nodes
               into rule blocks: Rate0 [0, r0), stair with j' == h [r0, rb),
               stair with j' > h [rb, r1), stair with j' < h [r1, r2), Rate1
               [r2, end), j' a stair node's count of frozen positions
      br       (j' - h, lo, hi) per run of equal j' > h: rows [rb + lo, rb + hi)
      bl       (j', lo, hi) per run of equal j' < h: rows [r1 + lo, r1 + hi)
      chain    None if no node here reads the iteration before, else (pick,
               r1 - rb, child): pick, the rows in the prev_rows copy of the
               halves of the nodes [rb, r1) and then of the j' < h nodes
               whose stair child reads it lower down; child, the rows of
               those stair children, right ones then left ones
    spare      the most rows of j' < h and Rate1 nodes that one level with
               j' < h nodes has
    """
    if not leaves:
        return None
    last = {(t, i): _last_prev_level(1 << t, j) for t, i, j in leaves}
    prev_rows = _frozen(np.array([r for t, i, _ in leaves if last[t, i] < 1 << t for r in range(i << t, (i + 1) << t)],
                                 dtype=np.intp))
    levels, spare = [], 0
    for k in range(max(t for t, _, _ in leaves) - 1, -1, -1):
        h, w = 1 << k, 2 << k
        rate0, at_h, rate1, stairs, reading = [], [], [], {}, set()
        for t, i, j in leaves:
            if t <= k:
                continue
            base, lo, hi = i << t, j // w * w, -(-j // w) * w   # Rate0 nodes below lo, Rate1 from hi
            rate0 += range(base, base + lo, w)
            rate1 += range(base + hi, base + (1 << t), w)
            if lo < hi:   # the one stair node in between
                (at_h if j - lo == h else stairs.setdefault(j - lo, [])).append(base + lo)
                if last[t, i] <= h:
                    reading.add(base + lo)
        ge, lt, br, bl = [], [], [], []
        for jj in sorted(stairs):
            nodes, runs, key = (ge, br, jj - h) if jj > h else (lt, bl, jj)
            runs.append((key, len(nodes) * h, (len(nodes) + len(stairs[jj])) * h))
            nodes += stairs[jj]
        order = rate0 + at_h + ge + lt + rate1
        r0 = len(rate0) * h
        rb = r0 + len(at_h) * h
        r1 = rb + len(ge) * h
        r2 = r1 + len(lt) * h
        if bl:
            spare = max(spare, len(order) * h - r1)
        chain = None
        reading = ge + [p for p in lt if p in reading]   # every j' > h node reads it
        if reading:
            pick = _frozen(np.searchsorted(prev_rows, _halves(reading, h)))
            half = len(reading) * h
            chain = (pick, r1 - rb, _frozen(np.concatenate([pick[half:half + r1 - rb], pick[r1 - rb:half]])))
        levels.append((h, _frozen(_halves(order, h)), (r0, rb, r1, r2), tuple(br), tuple(bl), chain))
    return leaves[0][0] == n, prev_rows, tuple(levels), spare


@lru_cache(maxsize=_PROGRAMS)
def _compile(n: int, leaves: tuple = ()) -> tuple:
    """The program (ops, fill, cost) of a stage-n decoding tree, from one walk.

    leaves holds (stage, index, j) per pruned leaf, j the number of leading
    frozen positions of its F^j I^(s-j) pattern; () is the unpruned tree.
    Each op is a 6-tuple (kind, operands..., None padding), its operands row
    slices of the buffer as listed in the module docstring. fill is the
    _fill_plan of the pruned leaves above stage 0, None if there are none.
    cost is a read-only int32 array of each node's charged ops, node (t, i)
    at (1 << (n - t)) + i.
    """
    N = 1 << n
    pruned = {(t, i): j for t, i, j in leaves}
    constant = {(t, i) for t, i, j in leaves if t and j in (0, 1 << t)}   # Rate0, Rate1 above stage 0
    on_prior = constant - {(t, i) for t, i, j in leaves if j and (i % 2 or t == n)}   # but Rate0 right, root
    ops, filled, cuts = [], [], {}
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
            filled.append((t, i, pruned[t, i]))
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
    return tuple(ops), _fill_plan(n, filled), _frozen(np.array(cost, dtype=np.int32))


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


def _nodes(x: np.ndarray, h: int) -> np.ndarray:
    """(nodes, frames, h) view of the rows x (nodes h, frames) of size-h nodes."""
    return x.reshape(-1, h, x.shape[1]).swapaxes(1, 2)


def _fill(fill: tuple, leaf: np.ndarray, prev: np.ndarray | None, arithmetic: str) -> None:
    """Turn the demand of every kernel leaf in leaf (N, frames) into SCAN's
    stage-0 demands inside it, in place, one level sweep per half-size h.

    prev holds the prev_rows of leaf one iteration earlier, None in a
    one-iteration decode; it is folded down as the levels run. At half-size
    h, with halves a, b of each size-2h node, a node is Rate0, Rate1 or a
    stair node with j' of its 2h positions frozen, split as in kernels._level:

    * Rate0: left a + 0.0, right (a + 0.0) + b. In a one-iteration decode the
      left demand above stage 1 is f(a, b): the right sibling has not fed
      back yet.
    * Rate1: left f(a, b), right f(a, 0) + b.
    * stair, j' >= h: the left child is Rate0. Left f(a, b + br), right
      (a + 0.0) + b, where br is the right child's stair on its previous
      demand (the previous a + b), 0 in a one-iteration decode or when the
      right child is Rate1 (j' == h).
    * stair, j' < h: the right child is Rate1. Left f(a, b), right
      f(a, bl) + b, where bl is the left child's stair on its new demand.

    a + 0.0 is f(a, +inf) bit for bit (both turn -0.0 into +0.0), and each
    rule runs SCAN's operations on operands equal to SCAN's in value. Those
    that may differ in the sign of a zero reach only f, which ignores it,
    so leaf ends equal to SCAN's stage-0 demands bit for bit.

    Each level makes one gather of its nodes, one f over every left demand
    but Rate0's, one f over the right demands of the j' < h and Rate1
    nodes, one stair call per run of equal j', and one scatter. The gather
    and result blocks are allocated once, at the size of the h = 1 level,
    which spans every leaf.
    """
    f = combiner(arithmetic)
    frames = leaf.shape[1]
    _, _, levels, spare_rows = fill
    held = np.empty((levels[-1][1].size, frames))
    new = np.empty_like(held)
    spare = np.empty((spare_rows, frames))
    for h, rows, (r0, rb, r1, r2), br, bl, chain in levels:
        m = rows.size >> 1
        leaf.take(rows, axis=0, out=held[:2 * m], mode="clip")   # "raise" would gather through a temporary
        a, b, left, right = held[:m], held[m:2 * m], new[:m], new[m:2 * m]
        start = r0 if prev is not None or h == 1 else 0   # the first node whose left demand is an f
        np.add(a[:r1], 0.0, out=right[:r1])
        if start:
            left[:start] = right[:start]
        right[:r1] += b[:r1]
        if prev is not None and chain is not None:
            pick, ge, child = chain
            k = pick.size >> 1
            halves = prev.take(pick, axis=0)
            pa, pb, folded = halves[:k], halves[k:], np.empty((k, frames))   # folded: the stair children's previous demands,
            np.add(pa[:ge], pb[:ge], out=folded[:ge])   # a right child's a + b
            if ge < k:
                f(pa[ge:], pb[ge:], out=folded[ge:])   # and a left child's f(a, b)
            prev[child] = folded
            for jj, lo, hi in br:
                b_br = _nodes(b[rb + lo:rb + hi], h)
                b_br += stair(_nodes(folded[lo:hi], h), jj, arithmetic)
        if start < m:
            f(a[start:], b[start:], out=left[start:])
        if r1 < m:
            bl_or_0 = 0.0
            if bl:
                bl_or_0 = spare[:m - r1]
                for jj, lo, hi in bl:
                    _nodes(bl_or_0[lo:hi], h)[...] = stair(_nodes(left[r1 + lo:r1 + hi], h), jj, arithmetic)
                bl_or_0[r2 - r1:] = 0.0
            f(a[r1:], bl_or_0, out=right[r1:])
            right[r1:] += b[r1:]
        leaf[rows] = new[:2 * m]


def _decode(dec, channel_llrs: np.ndarray, leaf_extrinsic: bool) -> ScanOutput:
    """The decode body of ScanDecoder and FastScanDecoder: fresh messages,
    cfg.iterations runs of dec._ops, then finalize; nothing is kept on dec.

    With leaf_extrinsic set and a dec._fill plan (a pruned tree's), _fill
    turns every kernel leaf's final demand into its stage-0 demands after the
    last iteration, reading the plan's prev_rows of the leaf region as they
    were before the last iteration when there was one before it."""
    squeeze = np.asarray(channel_llrs).ndim == 1
    cfg = dec.cfg
    mem = init_messages(dec.code, channel_llrs)
    fill = dec._fill if leaf_extrinsic else None
    leaf = mem.leaf.T   # (N, frames)
    if fill and fill[0]:
        leaf[...] = mem.channel.T   # a pruned root's demand is the channel; the fill works in the leaf region
    prev = None
    scratch = np.empty((dec.code.N >> 1, mem.buffer.shape[1]))
    for k in range(cfg.iterations):
        if fill and k and k == cfg.iterations - 1:
            prev = leaf.take(fill[1], axis=0)   # the prev_rows
        _run_ops(dec._ops, mem, cfg, scratch)
    del scratch   # freed before the fill and finalize, whose temporaries set the decode's peak
    if fill:
        _fill(fill, leaf, prev, cfg.arithmetic)
    return finalize(dec.code, mem, squeeze, leaf_extrinsic)


class ScanDecoder:
    """Full-tree SCAN decoder; it keeps no messages between decodes."""

    def __init__(self, code: PolarCode, cfg: ScanConfig | None = None):
        self.code = code
        self.cfg = cfg or ScanConfig()
        self._ops, self._fill, _ = _compile(code.n)   # no fill: the executor writes every leaf demand

    def decode(self, channel_llrs: np.ndarray) -> ScanOutput:
        return _decode(self, channel_llrs, True)


def scan_decode(code: PolarCode, channel_llrs: np.ndarray, cfg: ScanConfig | None = None) -> ScanOutput:
    """Functional wrapper around ScanDecoder."""
    return ScanDecoder(code, cfg).decode(channel_llrs)
