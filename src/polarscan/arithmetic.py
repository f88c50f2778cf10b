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
when its mask is not empty, and only then does the call enter np.errstate
to silence the inf - inf it evaluates.

Every function but clamp takes out=, an array of the operands' broadcast
shape that receives the result and is returned, so a decoder op writes
straight into its destination rows. Without out, the result is a fresh
array (boxplus_minsum of 0-d operands: a numpy scalar). A call holds at
most one float temporary of the result's size at a time, besides boolean
masks. Aliasing: hard_sign and sat_add may write over an operand;
box-plus may not, since it reads its operands again after writing out.
"""

import numpy as np

DEFAULT_SAT = 1.0e6


def _operand(value):
    """value as a read-only 0-d float array: numpy takes a Python scalar
    operand several times slower than an array one."""
    x = np.full((), value)
    x.flags.writeable = False
    return x


_ZERO, _ONE, _MINUS_ONE, _MINUS_TWO = _operand(0.0), _operand(1.0), _operand(-1.0), _operand(-2.0)


def clamp(x):
    """Clip values into [-SAT, +SAT]."""
    return np.asarray(x).clip(-DEFAULT_SAT, DEFAULT_SAT)


def hard_sign(x, out=None):
    """Sign with sign(0) = +1, returned as +-1.0 floats; out may be x itself."""
    s = np.asarray(np.multiply(np.asarray(x) < _ZERO, _MINUS_TWO, out=out))   # 0-d stays an array
    s += _ONE
    return s


def sat_add(a, b, out=None):
    """LLR addition: IEEE addition, in which +inf absorbs every finite value.
    out may be a or b itself."""
    return np.asarray(np.add(a, b, out=out, dtype=float))   # 0-d stays an array


def boxplus_minsum(a, b, out=None):
    """Min-sum check-node combination: sign(a)*sign(b)*min(|a|,|b|).

    The sign factor is hard_sign(-d), d = 1.0 where (a < 0) != (b < 0) and
    0.0 elsewhere. Needs no special case: min(|x|, inf) = |x| already makes
    +inf an identity. out must not overlap a or b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if out is None:
        out = np.minimum(np.abs(a), np.abs(b))   # 0-d operands give a numpy scalar
    else:
        np.minimum(np.abs(a, out=out), np.abs(b), out=out)
    flip = np.asarray(np.negative(np.not_equal(a < _ZERO, b < _ZERO), dtype=float))   # 0-d stays an array
    out *= hard_sign(flip, out=flip)
    return out


def boxplus(a, b, out=None):
    """Exact check-node combination log((1 + e^(a+b)) / (e^a + e^b)).

    Evaluated in the numerically stable form
        sign(a)*sign(b)*min(|a|,|b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    left to right, whose correction terms vanish when one operand is
    infinite. Where both are, a - b is NaN, so the min-sum term, there a*b,
    is returned. out must not overlap a or b.
    """
    out = np.asarray(boxplus_minsum(a, b, out=out))   # 0-d stays an array
    both = np.isinf(out)   # min(|a|, |b|) is infinite where both operands are
    if not np.count_nonzero(both):   # so a - b is finite everywhere
        return _add_corrections(out, a, b)
    with np.errstate(invalid="ignore"):
        _add_corrections(out, a, b)
    np.multiply(a, b, out=out, where=both)
    return out


def _add_corrections(out, a, b):
    """out + log1p(e^-|a+b|) - log1p(e^-|a-b|), left to right, into out."""
    t = np.asarray(np.add(a, b, dtype=float))
    out += _log1p_exp_minus_abs(t)
    out -= _log1p_exp_minus_abs(np.subtract(a, b, out=t, dtype=float))
    return out


def _log1p_exp_minus_abs(t):
    """log1p(e^-|t|), computed over t in place."""
    np.copysign(t, _MINUS_ONE, out=t)   # -|t| in one call
    np.exp(t, out=t)
    return np.log1p(t, out=t)


def combiner(arithmetic):
    """Return the check-node function for an arithmetic mode name; the only
    place a mode name becomes a box-plus function."""
    if arithmetic == "minsum":
        return boxplus_minsum
    if arithmetic == "exact":
        return boxplus
    raise ValueError(f"unknown arithmetic mode {arithmetic!r} (want 'exact' or 'minsum')")
