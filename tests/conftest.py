import numpy as np
import pytest

from polarscan import PolarCode, scan


def code_from_mask(mask) -> PolarCode:
    """Build a PolarCode with an explicit frozen pattern (tests only)."""
    mask = np.asarray(mask, dtype=bool)
    N = mask.size
    n = N.bit_length() - 1
    assert 1 << n == N
    # reliability order is irrelevant to decoding; frozen first keeps it consistent
    order = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
    return PolarCode(n=n, N=N, K=int(N - mask.sum()), frozen_mask=mask,
                     reliability_order=order)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def final_memory(monkeypatch):
    """The MessageMemory of every decode in the test, in call order, as
    scan.finalize receives it; decoders keep none of it themselves."""
    seen = []
    finalize = scan.finalize

    def recording(code, mem, *args, **kwargs):
        seen.append(mem)
        return finalize(code, mem, *args, **kwargs)

    monkeypatch.setattr(scan, "finalize", recording)
    return seen
