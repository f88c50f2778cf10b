"""LLR arithmetic: clamping, addition, box-plus.

Channel LLRs are clamped to [-SAT, +SAT], SAT = DEFAULT_SAT = 1e6, where
they enter the decoder; inside it they are plain finite numbers. Certainty
is IEEE +inf, and only frozen knowledge carries it: the frozen prior and
the Rate0 feedback. The conventions here are load-bearing for the rest of
the package:

* addition is IEEE addition, so +inf absorbs every finite value;
* box-plus with +inf is the identity: boxplus(a, +inf) == a, +inf
  included;
* sign(0) == +1 everywhere.

A demand only meets +inf through box-plus, which returns the finite
operand, so demands stay finite, and a soft output is +inf exactly where
the frozen set fixes a bit. -inf and inf - inf never arise.

The functions run over whole message arrays on every decoder op, so they
keep to one rule: no select that depends on the data runs over a whole
array. A sign comes from a comparison turned into arithmetic (hard_sign is
1 - 2*(x < 0)), not from np.where. On channel LLRs the signs are random,
and an element-wise select on them runs as a data-dependent branch that
the CPU cannot predict, several times slower than the arithmetic that
replaces it. The one fix-up, exact box-plus of two infinities, runs only
when its mask is not empty.
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
    """LLR addition: IEEE addition, in which +inf absorbs every finite value."""
    return np.asarray(np.add(a, b, dtype=float))   # 0-d stays an array


def boxplus_minsum(a, b):
    """Min-sum check-node combination: sign(a)*sign(b)*min(|a|,|b|).

    Needs no special case: min(|x|, inf) = |x| already makes +inf an
    identity.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return hard_sign(a) * hard_sign(b) * np.minimum(np.abs(a), np.abs(b))


def boxplus(a, b):
    """Exact check-node combination log((1 + e^(a+b)) / (e^a + e^b)).

    Evaluated in the numerically stable form
        sign(a)*sign(b)*min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    whose correction terms vanish when one operand is infinite. Where both
    are, a - b is NaN, so the min-sum term is returned there.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    core = boxplus_minsum(a, b)
    with np.errstate(invalid="ignore"):
        out = np.asarray(core + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b))))
    both = np.isinf(a) & np.isinf(b)
    if both.any():
        out = np.where(both, core, out)
    return out


def combiner(arithmetic):
    """Return the check-node function for an arithmetic mode name; the only
    place a mode name becomes a box-plus function."""
    if arithmetic == "minsum":
        return boxplus_minsum
    if arithmetic == "exact":
        return boxplus
    raise ValueError(f"unknown arithmetic mode {arithmetic!r} (want 'exact' or 'minsum')")
