import numpy as np
import pytest

from polarscan import PolarCode, scan


def code_from_mask(mask) -> PolarCode:
    """Build a PolarCode with an explicit frozen pattern (tests only)."""
    return PolarCode(mask)


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
