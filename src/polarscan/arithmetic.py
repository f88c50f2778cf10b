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
"""

import numpy as np

DEFAULT_SAT = 1.0e6


def clamp(x):
    """Clip values into [-SAT, +SAT]."""
    return np.clip(x, -DEFAULT_SAT, DEFAULT_SAT)


def hard_sign(x):
    """Sign with sign(0) = +1, returned as +-1.0 floats."""
    x = np.asarray(x)
    return np.where(x < 0, -1.0, 1.0)


def sat_add(a, b):
    """Saturating addition with absorbing +-SAT.

    finite + SAT -> SAT, finite + -SAT -> -SAT, SAT + -SAT -> 0.
    Plain sums are clipped into [-SAT, SAT].
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.asarray(np.add(a, b))   # a 0-d sum comes back a scalar, which out= rejects
    np.clip(out, -DEFAULT_SAT, DEFAULT_SAT, out=out)
    # `|`, not `|=`: either operand may be smaller than the broadcast sum
    top = (a == DEFAULT_SAT) | (b == DEFAULT_SAT)
    bot = (a == -DEFAULT_SAT) | (b == -DEFAULT_SAT)
    np.copyto(out, DEFAULT_SAT, where=top)
    np.copyto(out, -DEFAULT_SAT, where=bot)
    top &= bot
    np.copyto(out, 0.0, where=top)
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
    with np.errstate(over="ignore"):
        core = boxplus_minsum(a, b) + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))
    out = np.clip(core, -DEFAULT_SAT, DEFAULT_SAT)
    a_sat = np.abs(a) == DEFAULT_SAT
    b_sat = np.abs(b) == DEFAULT_SAT
    out = np.where(b_sat, hard_sign(b) * a, out)
    out = np.where(a_sat, hard_sign(a) * b, out)
    out = np.where(a_sat & b_sat, hard_sign(a) * hard_sign(b) * DEFAULT_SAT, out)
    return out


def combiner(arithmetic):
    """Return the check-node function for an arithmetic mode name; the only
    place a mode name becomes a box-plus function."""
    if arithmetic == "minsum":
        return boxplus_minsum
    if arithmetic == "exact":
        return boxplus
    raise ValueError(f"unknown arithmetic mode {arithmetic!r} (want 'exact' or 'minsum')")
