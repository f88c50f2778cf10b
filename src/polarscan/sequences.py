"""Reliability sequences: loading, validation, and subcode extraction.

A reliability sequence is a permutation of {0..N_max-1} listed in ascending
reliability (most reliable index last). The package ships the 1024-entry
universal sequence from the 5G NR standard (TS 38.212) as a data asset;
shorter codes use the subsequence of indices < N with order preserved.
"""

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

_ASSET_NAME = "nr_reliability_1024.txt"


@dataclass(frozen=True)
class ReliabilitySequence:
    """A length-N_max permutation, ascending reliability."""

    universal_order: np.ndarray

    @property
    def n_max(self) -> int:
        return int(self.universal_order.size)

    def __post_init__(self):
        self.universal_order.flags.writeable = False


def _validate(order: np.ndarray) -> None:
    L = order.size
    if L == 0 or (L & (L - 1)) != 0:
        raise ValueError(f"sequence length {L} is not a power of two")
    seen = np.zeros(L, dtype=bool)
    for v in order:
        if v < 0 or v >= L:
            raise ValueError(f"index {v} out of range for length {L}")
        if seen[v]:
            raise ValueError(f"duplicate index {v}")
        seen[v] = True


def load_reliability_sequence(source) -> ReliabilitySequence:
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
    order = np.asarray(values, dtype=np.int64)
    _validate(order)
    return ReliabilitySequence(order)


_default_cache = None


def default_sequence() -> ReliabilitySequence:
    """The shipped 1024-entry 5G NR universal sequence (cached)."""
    global _default_cache
    if _default_cache is None:
        data = resources.files(__package__).joinpath("data", _ASSET_NAME).read_bytes()
        _default_cache = load_reliability_sequence(data)
    return _default_cache


def subcode_order(seq: ReliabilitySequence, N: int) -> np.ndarray:
    """Indices < N of the universal order, order preserved (ascending reliability)."""
    if N <= 0 or (N & (N - 1)) != 0:
        raise ValueError(f"N={N} is not a power of two")
    if N > seq.n_max:
        raise ValueError(f"N={N} exceeds sequence N_max={seq.n_max}")
    return seq.universal_order[seq.universal_order < N]   # a copy: boolean indexing
