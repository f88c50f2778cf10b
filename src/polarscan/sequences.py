"""Reliability sequences: loading, checking, and subcode extraction.

A reliability sequence is a read-only int64 array holding a permutation of
{0..N_max-1} in ascending reliability (most reliable index last), N_max a
power of two. Every order passes one vectorised check on its way in. The
package ships the 1024-entry universal sequence from the 5G NR standard
(TS 38.212) as a data asset; shorter codes use the subsequence of indices
< N with order preserved.
"""

from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

_ASSET_NAME = "nr_reliability_1024.txt"


def _checked_order(order) -> np.ndarray:
    """order as a read-only int64 copy; raises ValueError unless it is a 1-D
    integer permutation of {0..L-1} with L a power of two, naming the first
    entry that is out of range or repeats an earlier one."""
    order = np.asarray(order)
    if order.ndim != 1 or (order.size and order.dtype.kind not in "iu"):
        raise ValueError(f"a sequence must be 1-D integers, got {order.dtype} of shape {order.shape}")
    order, L = order.astype(np.int64), order.size
    if L == 0 or (L & (L - 1)) != 0:
        raise ValueError(f"sequence length {L} is not a power of two")
    first = np.zeros(L, dtype=bool)
    first[np.unique(order, return_index=True)[1]] = True
    bad = order[(order < 0) | (order >= L) | ~first]
    if bad.size:
        raise ValueError(f"duplicate index {bad[0]}" if 0 <= bad[0] < L else f"index {bad[0]} out of range for length {L}")
    order.flags.writeable = False
    return order


def load_reliability_sequence(source) -> np.ndarray:
    """Parse a reliability sequence from a path (str or Path), or from content
    given as bytes or a file object.

    Format: whitespace/newline separated integers; lines starting with '#'
    are comments. The integers must form a permutation of {0..L-1} with L a
    power of two.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        data = source if isinstance(source, bytes) else source.read()
        text = data.decode() if isinstance(data, bytes) else data
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"malformed token in sequence: {exc}") from None
    return _checked_order(values)


@cache
def default_sequence() -> np.ndarray:
    """The shipped 1024-entry 5G NR universal sequence (cached)."""
    return load_reliability_sequence(
        resources.files(__package__).joinpath("data", _ASSET_NAME).read_bytes())


def subcode_order(seq, N: int) -> np.ndarray:
    """Indices < N of the universal order seq (any 1-D integer sequence),
    order preserved (ascending reliability)."""
    if N <= 0 or (N & (N - 1)) != 0:
        raise ValueError(f"N={N} is not a power of two")
    order = _checked_order(seq)
    if N > order.size:
        raise ValueError(f"N={N} exceeds sequence N_max={order.size}")
    return order[order < N]   # a copy: boolean indexing
