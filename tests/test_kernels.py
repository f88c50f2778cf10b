"""Closed-form node kernels against hand values and the subtree oracle."""

import numpy as np
import pytest

from polarscan import kernels
from polarscan.arithmetic import DEFAULT_SAT as SAT
from polarscan.kernels import (
    rate0_update,
    rate1_update,
    rep_update,
    spc_update,
    spc_update_forced,
    stair,
    type1_update,
    type2_update,
    type3_update,
    type4_update,
)
from polarscan.schedule import KERNEL_TYPES, NodeType, classify

from reference_scan import ref_rep, ref_spc_exact, ref_subtree_feedback


def rep_mask(size):
    return [True] * (size - 1) + [False]


def spc_mask(size):
    return [False] * size if size == 1 else [True] + [False] * (size - 1)


def type1_mask(size):
    return [True] * (size - 2) + [False, False]


def type3_mask(size):
    return [True, True] + [False] * (size - 2)


def type2_mask(size):
    return [True] * (size - 3) + [False] * 3


def type4_mask(size):
    return [True] * 3 + [False] * (size - 3)


def test_constant_kernels():
    np.testing.assert_array_equal(rate0_update((2, 4)), np.full((2, 4), np.inf))
    np.testing.assert_array_equal(rate1_update((2, 4)), np.zeros((2, 4)))


def test_spc_hand_values():
    np.testing.assert_array_equal(spc_update(np.array([1.0, 2, 3, 4])), [2, 1, 1, 1])
    np.testing.assert_array_equal(spc_update(np.array([-1.0, 2, 3, 4])), [2, -1, -1, -1])


def test_spc_zero_entry(rng):
    # one zero entry makes every other output zero
    lam = rng.normal(size=8) * 4
    j = 5
    lam[j] = 0.0
    beta = spc_update(lam)
    mask = np.ones(8, dtype=bool)
    mask[j] = False
    np.testing.assert_array_equal(beta[mask], 0.0)
    assert beta[j] != 0.0


def test_spc_magnitude_profile(rng):
    # |beta| is the runner-up magnitude at the weakest index, the minimum elsewhere
    for _ in range(50):
        lam = rng.normal(size=16) * 3
        absl = np.sort(np.abs(lam))
        m0, m1 = absl[0], absl[1]
        beta = spc_update(lam)
        k0 = int(np.argmin(np.abs(lam)))
        assert abs(beta[k0]) == pytest.approx(m1)
        others = np.abs(np.delete(beta, k0))
        np.testing.assert_allclose(others, m0)


def _spc_minsum_reference(lam):
    """The take_along_axis form along the last axis, which kernels._spc_minsum
    replaced; k0/k1 pick the lowest index on ties."""
    absl = np.abs(lam)
    k0 = np.argmin(absl, axis=-1)
    m0 = np.take_along_axis(absl, k0[..., None], axis=-1)
    masked = absl.copy()
    np.put_along_axis(masked, k0[..., None], np.inf, axis=-1)
    k1 = np.argmin(masked, axis=-1)
    m1 = np.take_along_axis(absl, k1[..., None], axis=-1)
    neg = lam < 0
    parity = np.logical_xor.reduce(neg, axis=-1, keepdims=True)
    signs = np.logical_xor(parity, neg) * -2.0
    signs += 1.0
    beta = signs * m0
    np.put_along_axis(beta, k0[..., None], np.take_along_axis(signs, k0[..., None], axis=-1) * m1, axis=-1)
    return beta


def test_spc_minsum_matches_the_reference_bit_for_bit(rng):
    # frames-last (frames, s) views and (leaves, frames, s) stacks, as the
    # executor and the leaf fill pass them, and plain C arrays; magnitudes
    # from a short list, so minima tie, with +-0.0 and +-SAT among them
    pool = np.array([0.0, -0.0, SAT, -SAT, 1.0, -1.0, 2.5, -2.5, 1e-300])
    frames = 12
    for s in range(2, 65):
        block = rng.normal(0.0, 3.0, (3, s, frames))
        pick = rng.random(block.shape) < 0.5
        block[pick] = rng.choice(pool, int(pick.sum()))
        block[0, :, 0] = 2.5          # every magnitude ties
        block[0, :2, 1] = [-0.0, 0.0]  # two zero minima of either sign
        block[0, :, 2] = -SAT
        for lam in (block[0].T, block.swapaxes(-1, -2), np.ascontiguousarray(block[1].T), block[2, :, 3]):
            got = kernels._spc_minsum(lam)
            assert got.shape == lam.shape
            np.testing.assert_array_equal(got.view(np.int64), _spc_minsum_reference(lam).view(np.int64))


def test_spc_forced_hand_value():
    np.testing.assert_array_equal(
        spc_update_forced(np.array([-1.0, 2, 3, 4])), [2, 1, 1, 1]
    )


def test_spc_forced_even_parity_is_plain_spc(rng):
    for _ in range(50):
        lam = rng.normal(size=8) * 2
        if np.logical_xor.reduce(lam < 0):
            lam[0] = -lam[0]
        np.testing.assert_array_equal(spc_update_forced(lam), spc_update(lam))


def test_spc_parity_invariants(rng):
    for _ in range(500):
        size = 2 ** int(rng.integers(1, 6))
        lam = rng.normal(size=size) * 3
        in_parity = np.logical_xor.reduce(lam < 0)
        # extrinsic kernel: feedback hard decisions carry the input parity
        beta = spc_update(lam)
        assert np.logical_xor.reduce(beta < 0) == in_parity
        # forcing kernel: a-posteriori hard decisions always even
        ap = lam + spc_update_forced(lam)
        assert not np.logical_xor.reduce(ap < 0)


def test_rep_hand_values():
    np.testing.assert_array_equal(rep_update(np.array([1.0, 2, 3, 4])), [9, 8, 7, 6])
    np.testing.assert_array_equal(rep_update(np.array([5.0, -2])), [-2, 5])


def test_rep_leave_one_out(rng):
    for size in (2, 4, 8, 16):
        lam = rng.normal(size=size) * 3
        np.testing.assert_allclose(rep_update(lam), ref_rep(lam), rtol=1e-12)


def test_type1_hand_values():
    np.testing.assert_array_equal(type1_update(np.array([1.0, 2, 3, 4])), [3, 4, 1, 2])
    beta = type1_update(np.array([1.0, 0, 3, 0, 5, 0, 7, 0]))
    np.testing.assert_array_equal(beta[0::2], [15, 13, 11, 9])
    np.testing.assert_array_equal(beta[1::2], 0)


def test_type3_hand_value():
    np.testing.assert_array_equal(type3_update(np.array([1.0, 2, 3, 4])), [3, 4, 1, 2])


def test_type3_is_interleaved_spc(rng):
    lam = rng.normal(size=16) * 2
    beta = type3_update(lam)
    np.testing.assert_array_equal(beta[0::2], spc_update(lam[0::2]))
    np.testing.assert_array_equal(beta[1::2], spc_update(lam[1::2]))


def test_type2_size4_equals_spc(rng):
    lam = rng.normal(size=(10, 4)) * 3
    np.testing.assert_array_equal(type2_update(lam), spc_update(lam))
    np.testing.assert_allclose(
        type2_update(lam, "exact"), spc_update(lam, "exact"), rtol=1e-12
    )


def kernel_calls(size):
    yield rep_mask(size), rep_update
    yield spc_mask(size), spc_update
    yield type1_mask(size), type1_update
    yield type3_mask(size), type3_update
    yield type2_mask(size), type2_update
    if size >= 8:
        yield type4_mask(size), type4_update


def test_kernels_match_subtree_minsum(rng):
    # min-sum kernels are bit-identical to running the message recursion
    for size in (4, 8, 16):
        for mask, call in kernel_calls(size):
            for _ in range(20):
                lam = rng.normal(size=size) * 4
                expect = ref_subtree_feedback(mask, lam, "minsum")
                np.testing.assert_array_equal(call(lam, "minsum"), expect)


def test_kernels_match_subtree_exact(rng):
    for size in (4, 8, 16):
        for mask, call in kernel_calls(size):
            for _ in range(20):
                lam = rng.normal(size=size) * 4
                expect = ref_subtree_feedback(mask, lam, "exact")
                np.testing.assert_allclose(call(lam, "exact"), expect, rtol=1e-9, atol=1e-9)


def test_spc_exact_leave_one_out(rng):
    for size in (4, 8, 16):
        lam = rng.normal(size=size) * 3
        np.testing.assert_allclose(
            spc_update(lam, "exact"), ref_spc_exact(lam), rtol=1e-9, atol=1e-12
        )


def test_kernels_stateless(rng):
    lam = rng.normal(size=(3, 8))
    keep = lam.copy()
    for fn in (rep_update, spc_update, spc_update_forced, type1_update,
               type2_update, type3_update, type4_update):
        fn(lam)
        np.testing.assert_array_equal(lam, keep)


def test_size_validation():
    with pytest.raises(ValueError):
        spc_update(np.zeros(3))
    with pytest.raises(ValueError):
        type1_update(np.zeros(2))
    with pytest.raises(ValueError):
        type3_update(np.zeros(2))
    with pytest.raises(ValueError):
        type2_update(np.zeros(2))
    with pytest.raises(ValueError):
        type4_update(np.zeros(4))
    # the error names the kernel, the size and the minimum
    with pytest.raises(ValueError, match=r"rep size 3 must be a power of two >= 2"):
        rep_update(np.arange(1.0, 4.0))
    with pytest.raises(ValueError, match=r"type2 size 6 must be a power of two >= 4"):
        type2_update(np.zeros(6))
    with pytest.raises(ValueError, match=r"spc size 0 "):
        spc_update(np.float64(1.0))


def spy_on_kernels(monkeypatch):
    """Wrap every kernel of polarscan.kernels, as a tracer would; returns the
    list that each call appends its kernel's name to."""
    calls = []
    for kind in KERNEL_TYPES:
        name = f"{kind.value}_update"

        def spy(*args, _name=name, _kernel=getattr(kernels, name)):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(kernels, name, spy)
    return calls


def test_a_wrapped_rep_sees_every_level(monkeypatch):
    calls = spy_on_kernels(monkeypatch)
    kernels.rep_update(np.arange(8.0))
    assert calls == ["rep_update"] * 3


def test_stair_first_reaches_the_kernel_classify_names(monkeypatch, rng):
    calls = spy_on_kernels(monkeypatch)
    specials = 0
    for s in (2, 4, 8, 16, 32, 64):
        for j in range(s + 1):
            kind = classify(np.arange(s) < j, KERNEL_TYPES)
            if kind is NodeType.INTERNAL:
                with pytest.raises(ValueError, match=rf"F\^{j} I\^{s - j} is not a special node"):
                    stair(rng.normal(size=s), j)
                continue
            calls.clear()
            beta = stair(rng.normal(size=(3, s)), j, "exact")
            assert calls[0] == f"{kind.value}_update" and beta.shape == (3, s)
            specials += 1
    assert specials == 3 + 5 + 8 * 4   # Rate0, Rate1 and j in {1, 2, 3, s-3, s-2, s-1}
    for j in (-1, 5):
        with pytest.raises(ValueError, match="not a special node"):
            stair(np.zeros(4), j)


def test_rep_and_type1_never_read_the_arithmetic(rng):
    for size in (2, 4, 8, 16, 32, 64):
        lam = rng.normal(size=(5, size)) * 4
        lam[0, 0] = 0.0
        lam[1, :2] = -0.0
        kernels_of_size = (rep_update, type1_update) if size >= 4 else (rep_update,)
        for kernel in kernels_of_size:
            assert kernel(lam, "minsum").tobytes() == kernel(lam, "exact").tobytes()
