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
subtree recursion. inner is the feedback of that node, the stair child. In
min-sum and exact arithmetic alike a kernel thus equals one SCAN iteration
over its pattern in value; only the sign of a zero can differ. Min-sum SPC
takes the two-smallest-magnitudes form instead of its fold: min-sum copies
magnitudes, so any order gives the same values, and the direct form is
faster. It works along the rows of the frames-last block (the executor
hands kernels (frames, s) views of (s, frames) rows), so each reduction
runs over contiguous frames. Each level unfolds in one call, over the
(2, h, ...) view of those rows (lam.T) with its halves swapped, against
inner broadcast over both.

Every kernel takes (lam, arithmetic, out, folds), accepts a batch axis and
is stateless; Rep and TypeI only add. out, an array of lam's shape,
receives the feedback and is returned; None gives a fresh array of lam's
memory layout. A level parks its fold in the first half of out until the
unfold overwrites it. folds, None or an array like out, receives every
level's inner at SC offsets: the level of half-size h writes [h, 2h) and
hands [0, h) to the stair child for the levels below. out and folds must
not overlap lam or each other.
fast-SCAN's executor passes each kernel leaf's rows of a per-decode fold
block, and its leaf fill (scan._fill) reads the stair children's feedback
there instead of running the kernels again. With folds given, min-sum SPC
runs its fold too, so that every level leaves its inner. Without, each
level allocates its inner.
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


def stair(lam, j, arithmetic="minsum", out=None, folds=None) -> np.ndarray:
    """Feedback of the F^j I^(s-j) node with demand lam, an array (..., s);
    out and folds as in the module docstring."""
    s = lam.shape[-1]
    kernel = globals()[_kernel_name(s, j)]
    if j == s or j == 0:   # Rate0, Rate1: constants
        return kernel(lam.shape, out)
    return kernel(lam, arithmetic, out, folds)


def _halves(x, h):
    """The (2, h, ...) view of x (2h, ...); splitting the first axis never
    copies."""
    return x.reshape((2, h) + x.shape[1:])


def _level(lam, j, arithmetic, out, folds):
    """One level of an F^j I^(s-j) node: swap the halves (j == h), or fold
    them with sat_add (j > h) or box-plus (j < h) into the first half of
    out, run stair on the folded half into inner and unfold with the same
    operation, both halves in one call. arithmetic is read only when j < h."""
    h = lam.shape[-1] // 2
    if out is None:
        out = np.empty_like(lam)   # lam's memory layout: frames last stays frames last
    x, y = lam.T, out.T   # (s, ...): the rows of the executor's frames-last blocks
    if j == h:
        np.copyto(y[:h], x[h:])
        np.copyto(y[h:], x[:h])
        return out
    g = sat_add if j > h else combiner(arithmetic)
    if folds is None:
        inner, below = np.empty_like(lam[..., :h]), None
    else:
        inner, below = folds[..., h:], folds[..., :h]
    stair(g(x[:h], x[h:], out=y[:h]).T, j - h if j > h else j, arithmetic, inner, below)
    g(_halves(x, h)[::-1], inner.T, out=_halves(y, h))
    return out


def rate0_update(shape, out=None) -> np.ndarray:
    """All-frozen node: feedback is certainty, all +inf."""
    if out is None:
        return np.full(shape, np.inf)
    out.fill(np.inf)
    return out


def rate1_update(shape, out=None) -> np.ndarray:
    """All-information node: no parity to exploit, feedback all zero."""
    if out is None:
        return np.zeros(shape, dtype=float)
    out.fill(0.0)
    return out


def _spc_minsum(lam, out=None):
    """Two-smallest-magnitudes form, reduced along the first axis of lam.T,
    (s, ..., frames) in memory: the rows of the frames-last block for the
    executor's leaves. Every position gets the least magnitude of the
    others: m0, the least of all, but at a minimum m1, the least after
    masking every minimum, or m0 again where the minimum ties."""
    if out is None:
        out = np.empty_like(lam)
    x = lam.T
    absl = np.abs(x)
    m0 = absl.min(axis=0, keepdims=True)
    at_min = absl == m0
    np.copyto(absl, np.inf, where=at_min)
    m1 = absl.min(axis=0, keepdims=True)
    np.copyto(m1, m0, where=np.count_nonzero(at_min, axis=0, keepdims=True) > 1)
    neg = x < 0
    beta = np.multiply(np.logical_xor(np.logical_xor.reduce(neg, axis=0, keepdims=True), neg), -2.0, out=out.T)
    beta += 1.0
    np.copyto(absl, m0)
    np.copyto(absl, m1, where=at_min)
    beta *= absl
    return out


def spc_update(lam, arithmetic="minsum", out=None, folds=None) -> np.ndarray:
    """Single-parity-check node F I^(s-1): extrinsic box-plus of all other
    entries."""
    lam = _checked(lam, "spc", 2)
    if arithmetic == "minsum" and folds is None:
        return _spc_minsum(lam, out)
    return _level(lam, 1, arithmetic, out, folds)


def spc_update_forced(lam, arithmetic="minsum", out=None) -> np.ndarray:
    """Parity-forcing variant: weakest position as in spc_update, every other
    output takes its own input's sign. The a-posteriori hard decisions then
    always satisfy the parity check, but the output is no longer extrinsic,
    so no decoder uses this kernel; acceptance criterion 5 checks its parity."""
    lam = np.asarray(lam, dtype=float)
    base = spc_update(lam, arithmetic)
    absl = np.abs(lam)
    k0 = np.argmin(absl, axis=-1)[..., None]
    m0 = np.take_along_axis(absl, k0, axis=-1)
    beta = hard_sign(lam, out=out)
    beta *= m0
    np.put_along_axis(beta, k0, np.take_along_axis(base, k0, axis=-1), axis=-1)
    return beta


def rep_update(lam, arithmetic="minsum", out=None, folds=None) -> np.ndarray:
    """Repetition node F^(s-1) I: beta[k] = sum of all entries except k."""
    lam = _checked(lam, "rep", 2)
    return _level(lam, lam.shape[-1] - 1, arithmetic, out, folds)


def type1_update(lam, arithmetic="minsum", out=None, folds=None) -> np.ndarray:
    """TypeI node F^(s-2) I^2: two trailing info bits."""
    lam = _checked(lam, "type1", 4)
    return _level(lam, lam.shape[-1] - 2, arithmetic, out, folds)


def type3_update(lam, arithmetic="minsum", out=None, folds=None) -> np.ndarray:
    """TypeIII node F^2 I^(s-2): two leading frozen bits."""
    lam = _checked(lam, "type3", 4)
    return _level(lam, 2, arithmetic, out, folds)


def type2_update(lam, arithmetic="minsum", out=None, folds=None) -> np.ndarray:
    """TypeII node F^(s-3) I^3: three trailing info bits."""
    lam = _checked(lam, "type2", 4)
    return _level(lam, lam.shape[-1] - 3, arithmetic, out, folds)


def type4_update(lam, arithmetic="minsum", out=None, folds=None) -> np.ndarray:
    """TypeIV node F^3 I^(s-3): three leading frozen bits."""
    lam = _checked(lam, "type4", 8)
    return _level(lam, 3, arithmetic, out, folds)
