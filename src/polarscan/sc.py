"""Hard-decision successive cancellation (SC) decoding, the baseline decoder.

Depth-first over the polarization tree: left messages combine with min-sum,
right messages use g(a, b, bit) = b + (1 - 2*bit) * a, leaf decisions are
sign-based with frozen positions forced to 0, and hard bits propagate back
up as partial codewords. Batched over a leading frame axis.
"""

import numpy as np

from .arithmetic import boxplus_minsum
from .channel import checked_llrs
from .codes import PolarCode, butterfly_transform


def sc_decode(code: PolarCode, channel_llrs: np.ndarray) -> dict:
    """Returns {'u_hat': (..., N) bits, 'x_hat': (..., N) bits}."""
    llrs = checked_llrs(channel_llrs, code.N)
    squeeze = np.asarray(channel_llrs).ndim == 1
    B = llrs.shape[0]
    u_hat = np.zeros((B, code.N), dtype=np.uint8)
    frozen = code.frozen_mask

    def rec(t, i, lam):
        # returns the subtree's hard partial codeword (B, 2^t)
        if t == 0:
            if frozen[i]:
                u_hat[:, i] = 0
                return np.zeros((B, 1), dtype=np.uint8)
            bit = (lam < 0).astype(np.uint8)
            u_hat[:, i] = bit[:, 0]
            return bit
        h = 1 << (t - 1)
        a, b = lam[:, :h], lam[:, h:]
        left_bits = rec(t - 1, 2 * i, boxplus_minsum(a, b))
        right_bits = rec(t - 1, 2 * i + 1, b + (1.0 - 2.0 * left_bits) * a)
        return np.concatenate([left_bits ^ right_bits, right_bits], axis=1)

    rec(code.n, 0, llrs)
    x_hat = butterfly_transform(u_hat)
    if squeeze:
        u_hat, x_hat = u_hat[0], x_hat[0]
    return {"u_hat": u_hat, "x_hat": x_hat}


def sc_latency(N: int) -> int:
    """Clock cycles of the sequential SC schedule: 2N - 2."""
    return 2 * N - 2
