"""Closed-form feedback kernels for special decoding-tree nodes.

Each kernel maps a node's demand vector lam (shape (..., s)) straight to
its feedback beta, skipping the subtree traversal. Every special node has
the frozen pattern F^j I^(s-j), and stair(lam, j, arithmetic) is the one
entry for all of them: Rate0 (j == s) and Rate1 (j == 0) are constants,
any other j runs <kind>_update for the kind schedule.stair_kind gives the
pattern, looked up in this module at call time. One rule per level runs
every kernel (_level). At half-size h, with lo, hi the halves of lam:

* j == h: the left half is Rate0 and the right half Rate1, so the halves
  swap: beta = [hi, lo].
* j > h: the left half is Rate0 and feeds back certainty (+inf), so
  box-plus with it passes values through and the level folds with adds:
  inner = stair(lo + hi, j - h), beta = [hi + inner, lo + inner].
* j < h: the right half is Rate1 and feeds back 0, so the level folds the
  same way with box-plus: inner = stair(f(lo, hi), j).

The folded half is again a special node, so each level runs the kernel of
its own kind (a size-8 TypeIV folds onto a Rep), on the operands of the
subtree recursion. In min-sum and exact arithmetic alike a kernel thus
equals one SCAN iteration over its pattern in value; only the sign of a
zero can differ. Min-sum SPC takes the two-smallest-magnitudes form
instead of its fold: min-sum copies magnitudes, so any order gives the
same values, and the direct form is faster.

Every kernel takes (lam, arithmetic), accepts a batch axis and is
stateless; Rep and TypeI only add. stair_demands runs the same level
split top-down to give SCAN's stage-0 demands inside such a node, which
fast-SCAN's leaf extrinsics read.
"""

from functools import lru_cache

import numpy as np

from .arithmetic import combiner, hard_sign, sat_add
from .schedule import KERNEL_TYPES, NodeType, stair_kind


def _checked(lam, kind, minimum):
    """lam as floats; its last axis must be a power of two >= minimum."""
    lam = np.asarray(lam, dtype=float)
    size = lam.shape[-1] if lam.ndim else 0
    if size < minimum or size & (size - 1):
        raise ValueError(f"{kind} size {size} must be a power of two >= {minimum}")
    return lam


@lru_cache(maxsize=None)
def _kernel_name(s: int, j: int) -> str:
    """Name of the F^j I^(s-j) node's kernel in this module."""
    kind = stair_kind(s, j, KERNEL_TYPES)
    if kind is NodeType.INTERNAL:
        raise ValueError(f"F^{j} I^{s - j} is not a special node")
    return f"{kind.value}_update"


def stair(lam, j, arithmetic="minsum") -> np.ndarray:
    """Feedback of the F^j I^(s-j) node with demand lam, an array (..., s)."""
    s = lam.shape[-1]
    kernel = globals()[_kernel_name(s, j)]
    if j == s or j == 0:   # Rate0, Rate1: constants
        return kernel(lam.shape)
    return kernel(lam, arithmetic)


def _level(lam, j, arithmetic):
    """One level of an F^j I^(s-j) node: swap the halves (j == h), or fold
    them with sat_add (j > h) or box-plus (j < h), run stair on the folded
    half and unfold with the same operation. arithmetic is read only when
    j < h."""
    h = lam.shape[-1] // 2
    lo, hi = lam[..., :h], lam[..., h:]
    if j == h:
        return np.concatenate([hi, lo], axis=-1)
    g = sat_add if j > h else combiner(arithmetic)
    folded = stair(g(lo, hi), j - h if j > h else j, arithmetic)
    return np.concatenate([g(hi, folded), g(lo, folded)], axis=-1)


def stair_demands(lam, prev, j, arithmetic):
    """Turn an F^j I^(s-j) node's demand into the stage-0 demands of SCAN's
    unpruned subtree after the final iteration, in place over lam (..., s).

    prev is the node's demand one iteration earlier, None in a one-iteration
    decode. Level by level, top-down: at half-size h, with halves a, b of
    each node of size 2h, the nodes below (j // 2h) * 2h are Rate0, those
    from ceil(j / 2h) * 2h on are Rate1, and at most one stair node lies
    between, split as in _level:

    * Rate0: left a + 0.0, right (a + 0.0) + b. In a one-iteration decode the
      left demand above stage 1 is f(a, b): the right sibling has not fed
      back yet.
    * Rate1: left f(a, b), right f(a, 0) + b.
    * stair, j >= h: the left child is Rate0. Left f(a, b + br), right
      (a + 0.0) + b, where br is the right child's stair on its previous
      demand (prev's a + b), 0 in a one-iteration decode or when the right
      child is Rate1.
    * stair, j < h: the right child is Rate1. Left f(a, b), right
      f(a, bl) + b, where bl is the left child's stair on its new demand.

    a + 0.0 is f(a, +inf) bit for bit (both turn -0.0 into +0.0), and each
    rule runs SCAN's operations on operands equal to SCAN's in value. Those
    that may differ in the sign of a zero reach only f, which ignores it,
    so lam ends equal to SCAN's stage-0 demands bit for bit.
    """
    f = combiner(arithmetic)
    s = lam.shape[-1]
    one_iteration = prev is None
    # the lowest half-size g whose stair node reads feedback from the iteration before
    last_br = min((1 << k for k in range(s.bit_length() - 1) if j % (2 << k) > 1 << k), default=s)
    h = s // 2
    while h:
        w = 2 * h
        lo, hi = j // w * w, -(-j // w) * w
        if lo:
            a, b = _node_halves(lam[..., :lo], h)
            if one_iteration and h > 1:
                left = f(a, b)
                b += a + 0.0
                a[...] = left
            else:
                a += 0.0
                b += a
        if hi < s:
            a, b = _node_halves(lam[..., hi:], h)
            left = f(a, b)
            b += f(a, 0.0)
            a[...] = left
        if lo < hi:
            a, b = lam[..., lo:lo + h], lam[..., lo + h:hi]
            if prev is not None and last_br <= h:
                pa, pb = prev[..., :h], prev[..., h:]
                prev = pa + pb if j - lo >= h else f(pa, pb)   # the next stair node's
            if j - lo >= h:
                br = stair(prev, j - lo - h, arithmetic) if j - lo > h and not one_iteration else None
                left = f(a, b) if br is None else f(a, b + br)
                b += a + 0.0
            else:
                left = f(a, b)
                b += f(a, stair(left, j - lo, arithmetic))
            a[...] = left
        h //= 2


def _node_halves(x, h):
    """Views of the left and right halves of each size-2h node of x (..., m)."""
    v = x.reshape(x.shape[:-1] + (x.shape[-1] // (2 * h), 2, h))
    return v[..., 0, :], v[..., 1, :]


def rate0_update(shape) -> np.ndarray:
    """All-frozen node: feedback is certainty, all +inf."""
    return np.full(shape, np.inf)


def rate1_update(shape) -> np.ndarray:
    """All-information node: no parity to exploit, feedback all zero."""
    return np.zeros(shape, dtype=float)


def _spc_minsum(lam):
    """Two-smallest-magnitudes form; k0/k1 pick the lowest index on ties."""
    absl = np.abs(lam)
    k0 = np.argmin(absl, axis=-1)
    m0 = np.take_along_axis(absl, k0[..., None], axis=-1)
    masked = absl.copy()
    np.put_along_axis(masked, k0[..., None], np.inf, axis=-1)
    k1 = np.argmin(masked, axis=-1)
    m1 = np.take_along_axis(absl, k1[..., None], axis=-1)
    neg = lam < 0
    parity = np.logical_xor.reduce(neg, axis=-1, keepdims=True)
    signs = np.logical_xor(parity, neg) * -2.0
    signs += 1.0
    beta = signs * m0
    np.put_along_axis(beta, k0[..., None], np.take_along_axis(signs, k0[..., None], axis=-1) * m1, axis=-1)
    return beta


def spc_update(lam, arithmetic="minsum") -> np.ndarray:
    """Single-parity-check node F I^(s-1): extrinsic box-plus of all other
    entries."""
    lam = _checked(lam, "spc", 2)
    if arithmetic == "minsum":
        return _spc_minsum(lam)
    return _level(lam, 1, arithmetic)


def spc_update_forced(lam, arithmetic="minsum") -> np.ndarray:
    """Parity-forcing variant: weakest position as in spc_update, every other
    output takes its own input's sign. The a-posteriori hard decisions then
    always satisfy the parity check, but the output is no longer extrinsic,
    so no decoder uses this kernel; acceptance criterion 5 checks its parity."""
    lam = np.asarray(lam, dtype=float)
    base = spc_update(lam, arithmetic)
    absl = np.abs(lam)
    k0 = np.argmin(absl, axis=-1)[..., None]
    m0 = np.take_along_axis(absl, k0, axis=-1)
    beta = hard_sign(lam) * m0
    np.put_along_axis(beta, k0, np.take_along_axis(base, k0, axis=-1), axis=-1)
    return beta


def rep_update(lam, arithmetic="minsum") -> np.ndarray:
    """Repetition node F^(s-1) I: beta[k] = sum of all entries except k."""
    lam = _checked(lam, "rep", 2)
    return _level(lam, lam.shape[-1] - 1, arithmetic)


def type1_update(lam, arithmetic="minsum") -> np.ndarray:
    """TypeI node F^(s-2) I^2: two trailing info bits."""
    lam = _checked(lam, "type1", 4)
    return _level(lam, lam.shape[-1] - 2, arithmetic)


def type3_update(lam, arithmetic="minsum") -> np.ndarray:
    """TypeIII node F^2 I^(s-2): two leading frozen bits."""
    lam = _checked(lam, "type3", 4)
    return _level(lam, 2, arithmetic)


def type2_update(lam, arithmetic="minsum") -> np.ndarray:
    """TypeII node F^(s-3) I^3: three trailing info bits."""
    lam = _checked(lam, "type2", 4)
    return _level(lam, lam.shape[-1] - 3, arithmetic)


def type4_update(lam, arithmetic="minsum") -> np.ndarray:
    """TypeIV node F^3 I^(s-3): three leading frozen bits."""
    lam = _checked(lam, "type4", 8)
    return _level(lam, 3, arithmetic)
