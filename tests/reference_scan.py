"""Straight-line scalar reference implementations used as test oracles.

Everything here is written per-frame with plain Python floats and lists,
deliberately avoiding the package's vectorized code paths, so agreement
between the two is meaningful. The helpers take the certainty value as
sat: addition is absorbing at +-sat, box-plus treats +-sat as an exact
identity, sign(0) = +1, LLR < 0 decides bit 1. ref_scan follows the
library contract: channel values are clipped to [-SAT, SAT], and
certainty is sat = +inf, at which these rules are IEEE arithmetic.
"""

import math

SAT = 1.0e6


def ref_clip(x, sat=SAT):
    if x > sat:
        return sat
    if x < -sat:
        return -sat
    return float(x)


def ref_sat_add(a, b, sat=SAT):
    a_top, a_bot = a == sat, a == -sat
    b_top, b_bot = b == sat, b == -sat
    if (a_top and b_bot) or (a_bot and b_top):
        return 0.0
    if a_top or b_top:
        return sat
    if a_bot or b_bot:
        return -sat
    return ref_clip(a + b, sat)


def _sgn(x):
    return -1.0 if x < 0 else 1.0


def ref_minsum(a, b, sat=SAT):
    return _sgn(a) * _sgn(b) * min(abs(a), abs(b))


def ref_boxplus(a, b, sat=SAT):
    if abs(a) == sat and abs(b) == sat:
        return _sgn(a) * _sgn(b) * sat
    if abs(b) == sat:
        return _sgn(b) * a
    if abs(a) == sat:
        return _sgn(a) * b
    core = _sgn(a) * _sgn(b) * min(abs(a), abs(b))
    core += math.log1p(math.exp(-abs(a + b))) - math.log1p(math.exp(-abs(a - b)))
    return ref_clip(core, sat)


def _combiner(arithmetic):
    return ref_minsum if arithmetic == "minsum" else ref_boxplus


def ref_butterfly(bits):
    """x = u G over GF(2), recursive halves: [a ^ b, b]."""
    if len(bits) == 1:
        return list(bits)
    h = len(bits) // 2
    a = [bits[j] ^ bits[j + h] for j in range(h)]
    return ref_butterfly(a) + ref_butterfly(bits[h:])


def ref_scan(frozen, llrs, iterations=1, arithmetic="minsum", sat=math.inf):
    """Full SCAN on one frame; frozen is a bool list, llrs a float list.

    Returns {"lam0", "beta_n", "x_hat", "u_hat"} as plain lists.
    """
    N = len(llrs)
    n = N.bit_length() - 1
    assert 1 << n == N and len(frozen) == N
    f = _combiner(arithmetic)

    lam = [[0.0] * N for _ in range(n + 1)]
    beta = [[0.0] * N for _ in range(n + 1)]
    lam[n] = [ref_clip(v, SAT) for v in llrs]
    beta[0] = [sat if fz else 0.0 for fz in frozen]

    def visit(t, i):
        if t == 0:
            return
        h = 1 << (t - 1)
        off = i * (h << 1)
        for j in range(h):
            a, b = lam[t][off + j], lam[t][off + h + j]
            lam[t - 1][off + j] = f(a, ref_sat_add(b, beta[t - 1][off + h + j], sat), sat)
        visit(t - 1, 2 * i)
        for j in range(h):
            a, b = lam[t][off + j], lam[t][off + h + j]
            lam[t - 1][off + h + j] = ref_sat_add(f(a, beta[t - 1][off + j], sat), b, sat)
        visit(t - 1, 2 * i + 1)
        for j in range(h):
            a, b = lam[t][off + j], lam[t][off + h + j]
            bl, br = beta[t - 1][off + j], beta[t - 1][off + h + j]
            beta[t][off + j] = f(bl, ref_sat_add(b, br, sat), sat)
            beta[t][off + h + j] = ref_sat_add(br, f(a, bl, sat), sat)

    for _ in range(iterations):
        visit(n, 0)

    ap = [ref_sat_add(lam[n][j], beta[n][j], sat) for j in range(N)]
    x_hat = [1 if v < 0 else 0 for v in ap]
    return {
        "lam0": lam[0][:],
        "beta_n": beta[n][:],
        "x_hat": x_hat,
        "u_hat": ref_butterfly(x_hat),
    }


def ref_subtree_feedback(frozen, llrs, arithmetic="minsum", sat=SAT):
    """One-iteration subtree oracle: the beta_n a kernel must reproduce."""
    return ref_scan(frozen, llrs, iterations=1, arithmetic=arithmetic, sat=sat)["beta_n"]


def ref_sc(frozen, llrs):
    """Straight-line successive cancellation; returns (u_hat, x_hat).

    No clamping anywhere, mirroring the baseline decoder's contract.
    """
    N = len(llrs)

    def rec(vals, fz):
        if len(vals) == 1:
            if fz[0]:
                return [0], [0]
            bit = 1 if vals[0] < 0 else 0
            return [bit], [bit]
        h = len(vals) // 2
        left_in = [ref_minsum(vals[j], vals[j + h]) for j in range(h)]
        u_l, x_l = rec(left_in, fz[:h])
        right_in = [vals[j + h] + (1.0 - 2.0 * x_l[j]) * vals[j] for j in range(h)]
        u_r, x_r = rec(right_in, fz[h:])
        return u_l + u_r, [x_l[j] ^ x_r[j] for j in range(h)] + x_r

    u_hat, x_hat = rec([float(v) for v in llrs], list(frozen))
    assert len(u_hat) == N
    return u_hat, x_hat


def ref_spc_exact(llrs, sat=SAT):
    """Leave-one-out box-plus, direct O(n^2) evaluation."""
    out = []
    for k in range(len(llrs)):
        acc = sat
        for j, v in enumerate(llrs):
            if j != k:
                acc = ref_boxplus(acc, v, sat)
        out.append(acc)
    return out


def ref_rep(llrs, sat=SAT):
    """Leave-one-out saturating sum."""
    out = []
    for k in range(len(llrs)):
        acc = 0.0
        for j, v in enumerate(llrs):
            if j != k:
                acc = ref_sat_add(acc, v, sat)
        out.append(acc)
    return out
