"""Saturated LLR arithmetic: clamping, saturating addition, box-plus.

All soft values live in [-SAT, +SAT], SAT = DEFAULT_SAT = 1e6. +SAT stands
in for infinity (a bit known to be 0 with certainty), -SAT for a certain 1.
SAT is a fixed constant that only represents certainty, not a decoding
parameter. The conventions here are load-bearing for the rest of the
package:

* saturating addition is absorbing at +-SAT (finite + SAT == SAT), and
  +SAT + -SAT == 0 (conflicting certainties cancel to an erasure);
* box-plus treats +-SAT as an exact identity: boxplus(a, +SAT) == a,
  boxplus(a, -SAT) == -a;
* sign(0) == +1 everywhere.

Without the absorbing rule, an all-frozen subtree would feed back
SAT - epsilon instead of exactly SAT and the closed-form node kernels could
not be bit-identical to the message-passing recursion.

The functions run over whole message arrays on every decoder op, so they
keep to one rule: no select that depends on the data runs over a whole
array. A sign comes from a comparison turned into arithmetic (hard_sign is
1 - 2*(x < 0)), not from np.where. A certainty fix-up runs only when its
operands hold a certainty, and is skipped when its mask is empty. On
channel LLRs the signs are random, and an element-wise select on them runs
as a data-dependent branch that the CPU cannot predict, several times
slower than the arithmetic that replaces it. The masks of a certainty
fix-up are mostly empty, or cover whole frozen positions, which
frames-last message storage keeps contiguous.
"""

import numpy as np

DEFAULT_SAT = 1.0e6


def clamp(x):
    """Clip values into [-SAT, +SAT]."""
    return np.asarray(x).clip(-DEFAULT_SAT, DEFAULT_SAT)


def hard_sign(x):
    """Sign with sign(0) = +1, returned as +-1.0 floats."""
    s = np.asarray((np.asarray(x) < 0) * -2.0)   # 0-d stays an array
    s += 1.0
    return s


def sat_add(a, b):
    """Saturating addition with absorbing +-SAT.

    finite + SAT -> SAT, finite + -SAT -> -SAT, SAT + -SAT -> 0.
    Plain sums are clipped into [-SAT, SAT].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.asarray(np.add(a, b))   # a 0-d sum comes back a scalar, which out= rejects
    out.clip(-DEFAULT_SAT, DEFAULT_SAT, out=out)
    # Two certainties already sum to +-SAT or +0.0; a single one is copied
    # over the sum. `>` on the masks broadcasts to the shape of the sum.
    a_sat = (a == DEFAULT_SAT) | (a == -DEFAULT_SAT)
    b_sat = (b == DEFAULT_SAT) | (b == -DEFAULT_SAT)
    for src, only in ((a, a_sat > b_sat), (b, b_sat > a_sat)):
        if only.any():
            np.copyto(out, src, where=only)
    return out


def boxplus_minsum(a, b):
    """Min-sum check-node combination: sign(a)*sign(b)*min(|a|,|b|).

    Needs no saturation special case: min(|x|, SAT) = |x| already treats
    +-SAT as an identity.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return hard_sign(a) * hard_sign(b) * np.minimum(np.abs(a), np.abs(b))


def boxplus(a, b):
    """Exact check-node combination log((1 + e^(a+b)) / (e^a + e^b)).

    Evaluated in the numerically stable form
        sign(a)*sign(b)*min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|)
    and clamped. Saturated operands short-circuit to the exact identity
    boxplus(a, +-SAT) = +-a so that certainty propagates without rounding.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    core = boxplus_minsum(a, b) + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    out = np.asarray(core.clip(-DEFAULT_SAT, DEFAULT_SAT))
    a_sat = np.abs(a) == DEFAULT_SAT
    b_sat = np.abs(b) == DEFAULT_SAT
    if b_sat.any():
        out = np.where(b_sat, hard_sign(b) * a, out)
    if a_sat.any():   # where both are +-SAT, sign(a) * b is sign(a)*sign(b)*SAT
        out = np.where(a_sat, hard_sign(a) * b, out)
    return out


def combiner(arithmetic):
    """Return the check-node function for an arithmetic mode name; the only
    place a mode name becomes a box-plus function."""
    if arithmetic == "minsum":
        return boxplus_minsum
    if arithmetic == "exact":
        return boxplus
    raise ValueError(f"unknown arithmetic mode {arithmetic!r} (want 'exact' or 'minsum')")
