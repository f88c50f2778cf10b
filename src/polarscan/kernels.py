"""Closed-form feedback kernels for special decoding-tree nodes.

Each kernel maps a node's demand vector lam (shape (..., size)) straight to
its feedback beta, skipping the subtree traversal. The implementations are
written so that in min-sum mode the result is bit-identical to running the
message-passing recursion over the subtree:

* Rep, TypeII and TypeIV share one fold (_fold): fold the two halves of lam
  pairwise, run the inner kernel on the folded half, unfold with the same
  operation. Rep and TypeII fold with saturating adds, as the recursion
  does for the right-child demand (left children are all frozen, and
  demands into all-frozen subtrees never influence feedback); TypeII
  bottoms out in a size-4 SPC. TypeIV folds with box-plus (right children
  are all information, so their feedback is exactly 0 and the left-demand
  box-plus collapses to f(lo, hi)) onto a size-4 Rep.
* Spc in min-sum copies input magnitudes (min is exact), so the direct
  two-smallest-magnitudes form matches any association order. The exact
  mode uses prefix/suffix box-plus arrays, which fixes one association and
  agrees with the subtree to floating-point accuracy.
* TypeI and TypeIII are a Rep and an SPC over the even and odd interleaves
  (Hanif & Ardakani, IEEE Comm. Lett. 2017), run as one batched kernel
  call by _interleaved.

Every kernel accepts a batch axis and is stateless.
"""

import numpy as np

from .arithmetic import DEFAULT_SAT, boxplus, combiner, hard_sign, sat_add


def _fold(lam, g, inner_kernel):
    """One fold level: inner = inner_kernel(g(lo, hi)), beta = [g(hi, inner),
    g(lo, inner)]. g is commutative, so operand order does not matter."""
    h = lam.shape[-1] // 2
    lo, hi = lam[..., :h], lam[..., h:]
    inner = inner_kernel(g(lo, hi))
    return np.concatenate([g(hi, inner), g(lo, inner)], axis=-1)


def _interleaved(kernel, lam):
    """Run kernel once on the even and odd interleaves of lam as a batch:
    (..., 2h) becomes (..., 2, h), the rows being lam[0::2], lam[1::2].
    The rows are copied out contiguous, as the kernels reduce along them."""
    lam = np.asarray(lam, dtype=float)
    pairs = np.ascontiguousarray(lam.reshape(lam.shape[:-1] + (-1, 2)).swapaxes(-1, -2))
    return kernel(pairs).swapaxes(-1, -2).reshape(lam.shape)


def rate0_update(shape) -> np.ndarray:
    """All-frozen node: feedback is certainty, all +SAT."""
    return np.full(shape, DEFAULT_SAT, dtype=float)


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


def _spc_exact(lam):
    """beta[k] = box-plus of all entries except k, via prefix/suffix arrays."""
    size = lam.shape[-1]
    prefix = np.full(lam.shape[:-1] + (size + 1,), DEFAULT_SAT)   # +SAT is the box-plus identity
    suffix = np.full(lam.shape[:-1] + (size + 1,), DEFAULT_SAT)
    for j in range(size):
        prefix[..., j + 1] = boxplus(prefix[..., j], lam[..., j])
    for j in range(size - 1, -1, -1):
        suffix[..., j] = boxplus(suffix[..., j + 1], lam[..., j])
    return boxplus(prefix[..., :size], suffix[..., 1:])


def spc_update(lam, arithmetic="minsum") -> np.ndarray:
    """Single-parity-check node: extrinsic box-plus of all other entries."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] < 2 or (lam.shape[-1] & (lam.shape[-1] - 1)) != 0:
        raise ValueError(f"spc size {lam.shape[-1]} must be a power of two >= 2")
    if arithmetic == "minsum":
        return _spc_minsum(lam)
    return _spc_exact(lam)


def spc_update_forced(lam, arithmetic="minsum") -> np.ndarray:
    """Parity-forcing variant: weakest position as in spc_update, every other
    output takes its own input's sign. The a-posteriori hard decisions then
    always satisfy the parity check, but the output is no longer extrinsic,
    so this kernel is opt-in and excluded from equivalence guarantees."""
    lam = np.asarray(lam, dtype=float)
    base = spc_update(lam, arithmetic)
    absl = np.abs(lam)
    k0 = np.argmin(absl, axis=-1)[..., None]
    m0 = np.take_along_axis(absl, k0, axis=-1)
    beta = hard_sign(lam) * m0
    np.put_along_axis(beta, k0, np.take_along_axis(base, k0, axis=-1), axis=-1)
    return beta


def rep_update(lam) -> np.ndarray:
    """Repetition node: beta[k] = sum of all entries except k.

    Folded pairwise (lo+hi, recurse, unfold) so the add order matches the
    subtree recursion exactly.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] == 1:
        return np.zeros_like(lam)
    if lam.shape[-1] == 2:
        return lam[..., ::-1].copy()
    return _fold(lam, sat_add, rep_update)


def type1_update(lam) -> np.ndarray:
    """Two trailing info bits: a repetition code on each interleave."""
    if np.shape(lam)[-1] < 4:
        raise ValueError("type1 needs size >= 4")
    return _interleaved(rep_update, lam)


def type3_update(lam, arithmetic="minsum") -> np.ndarray:
    """Two leading frozen bits: an SPC on each interleave."""
    if np.shape(lam)[-1] < 4:
        raise ValueError("type3 needs size >= 4")
    return _interleaved(lambda x: spc_update(x, arithmetic), lam)


def type2_update(lam, arithmetic="minsum") -> np.ndarray:
    """Three trailing info bits: columns (mod 4) fold by addition onto a
    size-4 SPC, then unfold like a repetition code."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] < 4:
        raise ValueError("type2 needs size >= 4")
    if lam.shape[-1] == 4:
        return spc_update(lam, arithmetic)
    return _fold(lam, sat_add, lambda x: type2_update(x, arithmetic))


def type4_update(lam, arithmetic="minsum") -> np.ndarray:
    """Three leading frozen bits: columns (mod 4) fold by box-plus onto a
    size-4 repetition node, then unfold with box-plus."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape[-1] < 8:
        raise ValueError("type4 needs size >= 8")
    inner = rep_update if lam.shape[-1] == 8 else lambda x: type4_update(x, arithmetic)
    return _fold(lam, combiner(arithmetic), inner)
