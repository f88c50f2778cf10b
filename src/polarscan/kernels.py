"""Closed-form feedback kernels for special decoding-tree nodes.

Each kernel maps a node's demand vector lam (shape (..., s)) straight to
its feedback beta, skipping the subtree traversal. Every special node has
the frozen pattern F^j I^(s-j), and one rule per level covers them all. At
a level of half-size h, with lo, hi the two halves of lam:

* j == h: the left half is Rate0 and the right half Rate1, so the halves
  swap: beta = [hi, lo].
* j > h: the left half is Rate0 and feeds back certainty (+inf), so
  box-plus with it passes values through and the level folds with adds:
  inner = kernel(lo + hi), beta = [hi + inner, lo + inner].
* j < h: the right half is Rate1 and feeds back 0, so the level folds the
  same way with box-plus.

The folded half is again an F^j' I^(h-j') node, so one helper (_level)
runs every kernel, level by level: Rep, TypeI and TypeII keep their
information count as they fold, SPC, TypeIII and TypeIV their frozen
count. Each level computes the adds and box-plus of the subtree recursion
on the same operands, so in min-sum and exact arithmetic alike a kernel
equals one SCAN iteration over its pattern in value; only the sign of a
zero can differ. Min-sum SPC takes the two-smallest-magnitudes form
instead of its fold: min-sum copies magnitudes, so any order gives the
same values, and the direct form is faster.

Every kernel accepts a batch axis and is stateless.
"""

import numpy as np

from .arithmetic import combiner, hard_sign, sat_add


def _checked(lam, kind, minimum):
    """lam as floats; its last axis must be a power of two >= minimum."""
    lam = np.asarray(lam, dtype=float)
    size = lam.shape[-1] if lam.ndim else 0
    if size < minimum or size & (size - 1):
        raise ValueError(f"{kind} size {size} must be a power of two >= {minimum}")
    return lam


def _level(lam, j, inner, arithmetic=None):
    """One level of an F^j I^(s-j) node: swap the halves (j == h), or fold
    them with sat_add (j > h) or box-plus (j < h), run inner on the folded
    half and unfold with the same operation. arithmetic is read only when
    j < h."""
    h = lam.shape[-1] // 2
    lo, hi = lam[..., :h], lam[..., h:]
    if j == h:
        return np.concatenate([hi, lo], axis=-1)
    g = sat_add if j > h else combiner(arithmetic)
    folded = inner(g(lo, hi))
    return np.concatenate([g(hi, folded), g(lo, folded)], axis=-1)


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
    return _level(lam, 1, lambda x: spc_update(x, arithmetic), arithmetic)


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


def rep_update(lam) -> np.ndarray:
    """Repetition node F^(s-1) I: beta[k] = sum of all entries except k."""
    lam = _checked(lam, "rep", 2)
    return _level(lam, lam.shape[-1] - 1, rep_update)


def type1_update(lam) -> np.ndarray:
    """TypeI node F^(s-2) I^2: two trailing info bits."""
    lam = _checked(lam, "type1", 4)
    return _level(lam, lam.shape[-1] - 2, type1_update)


def type3_update(lam, arithmetic="minsum") -> np.ndarray:
    """TypeIII node F^2 I^(s-2): two leading frozen bits."""
    lam = _checked(lam, "type3", 4)
    return _level(lam, 2, lambda x: type3_update(x, arithmetic), arithmetic)


def type2_update(lam, arithmetic="minsum") -> np.ndarray:
    """TypeII node F^(s-3) I^3: three trailing info bits; size 4 is an SPC."""
    lam = _checked(lam, "type2", 4)
    if lam.shape[-1] == 4:
        return spc_update(lam, arithmetic)
    return _level(lam, lam.shape[-1] - 3, lambda x: type2_update(x, arithmetic))


def type4_update(lam, arithmetic="minsum") -> np.ndarray:
    """TypeIV node F^3 I^(s-3): three leading frozen bits; size 8 folds
    onto a size-4 Rep."""
    lam = _checked(lam, "type4", 8)
    inner = rep_update if lam.shape[-1] == 8 else lambda x: type4_update(x, arithmetic)
    return _level(lam, 3, inner, arithmetic)
