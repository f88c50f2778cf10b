"""Seeded property-based differential tests against the straight-line oracle.

Random frozen masks, node-type sets and iteration counts, with LLRs drawn
from the values where LLR arithmetic is delicate: zeros, exact magnitude
ties, the channel extremes +-SAT and tiny magnitudes. In min-sum both
decoders must agree in value with tests/reference_scan.py on all four
outputs. In both arithmetics fast-SCAN's four outputs must equal SCAN's
byte for byte, zero signs included, and -SAT reaching a frozen position
among them.

Each node kernel is also checked on its own against a one-iteration SCAN
over its frozen pattern, in value and in both arithmetics, and every
compiled schedule against the partition and maximality rules of
schedule.py. fast-SCAN's level-sweep leaf fill is checked bit for bit
against the per-group fill it replaced (stair_demands below).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import code_from_mask
from polarscan import FastScanDecoder, ScanConfig, ScanDecoder, kernels, scan
from polarscan.arithmetic import DEFAULT_SAT, combiner
from polarscan.schedule import CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES, NodeType, build_schedule, classify
from reference_scan import ref_scan

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)

LLR_VALUES = st.one_of(
    st.just(0.0),
    st.sampled_from([1.5, -1.5, 2.0, -2.0]),       # exact magnitude ties
    st.sampled_from([DEFAULT_SAT, -DEFAULT_SAT]),   # channel extremes
    st.sampled_from([1e-300, -1e-300]),
    st.floats(-20.0, 20.0),
)


@st.composite
def masks(draw):
    """A frozen mask of length 2..64: a row of equal blocks, each random bits
    or F^j I^(size-j), the shape of every special node."""
    N = 1 << draw(st.integers(1, 6))
    size = 1 << draw(st.integers(0, N.bit_length() - 1))
    mask = []
    for _ in range(N // size):
        if draw(st.booleans()):
            j = draw(st.integers(0, size))
            mask += [True] * j + [False] * (size - j)
        else:
            mask += draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return np.array(mask, dtype=bool)


@st.composite
def llr_batches(draw, N, values):
    """(frames, N) LLRs, 1 to 3 frames."""
    frames = draw(st.integers(1, 3))
    return np.array(draw(st.lists(st.lists(values, min_size=N, max_size=N),
                                  min_size=frames, max_size=frames)))


@st.composite
def cases(draw, values):
    """(mask, (frames, N) LLRs, iterations)."""
    mask = draw(masks())
    return mask, draw(llr_batches(mask.size, values)), draw(st.integers(1, 3))


EXAMPLE_LLRS = np.array([[0.5, -1.5, 2.0, -0.0, DEFAULT_SAT, -3.0, 0.0, 1e-300],
                         [-2.0, 1.5, -DEFAULT_SAT, 0.25, -0.75, 4.0, -1e-300, 1.5]])


def constant_leaf_examples(test):
    """Pin where a Rate0 leaf above stage 0 may not read the constant prior:
    IIIIFFFF's Rate0 right child feeds back 0 until its first visit, and an
    all-frozen mask is one Rate0 root."""
    iiiiffff, all_frozen = np.arange(8) >= 4, np.ones(8, dtype=bool)
    for mask, iterations in ((iiiiffff, 1), (iiiiffff, 2), (all_frozen, 1)):
        test = example((mask, EXAMPLE_LLRS, iterations), DEFAULT_TYPES)(test)
    return test


def assert_matches_oracle(out, mask, llrs, iterations):
    for j, frame in enumerate(llrs):
        ref = ref_scan(mask.tolist(), frame.tolist(), iterations=iterations)
        np.testing.assert_array_equal(out.leaf_extrinsic[j], ref["lam0"])
        np.testing.assert_array_equal(out.root_extrinsic[j], ref["beta_n"])
        np.testing.assert_array_equal(out.x_hat[j], ref["x_hat"])
        np.testing.assert_array_equal(out.u_hat[j], ref["u_hat"])


@SETTINGS
@given(cases(LLR_VALUES), st.sampled_from([CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES]))
@constant_leaf_examples
def test_scan_and_fast_scan_match_oracle(case, types):
    mask, llrs, iterations = case
    code = code_from_mask(mask)
    cfg = ScanConfig(iterations=iterations, arithmetic="minsum")
    assert_matches_oracle(ScanDecoder(code, cfg).decode(llrs), mask, llrs, iterations)
    fast = FastScanDecoder(code, cfg, schedule=build_schedule(code, types))
    assert_matches_oracle(fast.decode(llrs), mask, llrs, iterations)


def assert_fast_scan_equals_scan(case, types, arithmetic):
    mask, llrs, iterations = case
    code = code_from_mask(mask)
    cfg = ScanConfig(iterations=iterations, arithmetic=arithmetic)
    want = ScanDecoder(code, cfg).decode(llrs)
    got = FastScanDecoder(code, cfg, schedule=build_schedule(code, types)).decode(llrs)
    for field in ("leaf_extrinsic", "root_extrinsic", "x_hat", "u_hat"):
        np.testing.assert_array_equal(getattr(got, field).view(np.uint8),
                                      getattr(want, field).view(np.uint8), err_msg=field)


@SETTINGS
@given(cases(LLR_VALUES), st.sampled_from([CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES]))
@constant_leaf_examples
def test_fast_scan_equals_scan_in_exact_mode(case, types):
    assert_fast_scan_equals_scan(case, types, "exact")


@SETTINGS
@given(cases(LLR_VALUES), st.sampled_from([CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES]))
@constant_leaf_examples
def test_fast_scan_equals_scan_in_minsum_mode(case, types):
    assert_fast_scan_equals_scan(case, types, "minsum")


@SETTINGS
@given(cases(LLR_VALUES), st.sampled_from([CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES]),
       st.sampled_from(["minsum", "exact"]))
def test_demands_stay_finite_and_certainty_is_plus_inf(case, types, arithmetic):
    # after every executor iteration of every decode, the demand region is
    # finite and the feedback region finite or +inf (no NaN, no -inf); the
    # leaf fill runs after the last iteration, so the leaf extrinsic output is
    # checked on its own
    mask, llrs, iterations = case
    code = code_from_mask(mask)
    cfg = ScanConfig(iterations=iterations, arithmetic=arithmetic)
    runs, run_ops = [], scan._run_ops

    def checked(ops, mem, *args):
        run_ops(ops, mem, *args)
        runs.append(ops)
        assert np.isfinite(mem.demands).all()
        assert not (np.isnan(mem.feedback) | (mem.feedback == -np.inf)).any()

    # x_j is fixed by the frozen set when every u_i with i & j == j is frozen
    fixed = [all(mask[i] for i in range(mask.size) if i & j == j) for j in range(mask.size)]
    with mock.patch.object(scan, "_run_ops", checked):
        for dec in (ScanDecoder(code, cfg), FastScanDecoder(code, cfg, schedule=build_schedule(code, types))):
            out = dec.decode(llrs)
            assert np.isfinite(out.leaf_extrinsic).all()
            np.testing.assert_array_equal(out.root_extrinsic == np.inf, np.broadcast_to(fixed, llrs.shape))
    assert len(runs) >= 2 * iterations


# Leading frozen positions of each kernel's pattern F^j I^(size-j).
FROZEN_PREFIX = {
    NodeType.RATE0: lambda size: size,
    NodeType.RATE1: lambda size: 0,
    NodeType.REP: lambda size: size - 1,
    NodeType.SPC: lambda size: 1,
    NodeType.TYPE_I: lambda size: size - 2,
    NodeType.TYPE_III: lambda size: 2,
    NodeType.TYPE_II: lambda size: size - 3,
    NodeType.TYPE_IV: lambda size: 3,
}


def pattern(kind, size):
    j = FROZEN_PREFIX[kind](size)
    return [True] * j + [False] * (size - j)


@pytest.mark.parametrize("arithmetic", ["minsum", "exact"])
@pytest.mark.parametrize("kind", sorted(KERNEL_TYPES, key=lambda k: k.value), ids=lambda k: k.value)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matches_one_scan_iteration_over_its_pattern(kind, arithmetic, data):
    size = 1 << data.draw(st.integers(3 if kind is NodeType.TYPE_IV else 2, 5))   # 4..32
    lam = data.draw(llr_batches(size, LLR_VALUES))
    got = kernels.stair(lam, FROZEN_PREFIX[kind](size), arithmetic)
    code = code_from_mask(pattern(kind, size))
    want = ScanDecoder(code, ScanConfig(iterations=1, arithmetic=arithmetic)).decode(lam).root_extrinsic
    np.testing.assert_array_equal(got, want)


@SETTINGS
@given(masks(), st.sampled_from([CONSTANT_TYPES, DEFAULT_TYPES, KERNEL_TYPES]))
def test_schedule_is_a_maximal_partition(mask, types):
    schedule = build_schedule(code_from_mask(mask), types)
    pending = [(mask.size.bit_length() - 1, 0)]   # depth-first order: next node on top
    for d in schedule.nodes:
        assert (d.stage, d.index) == pending.pop()
        span = mask[d.offset:d.offset + d.size]
        assert d.kind is classify(span, schedule.enabled_types)   # internal: no enabled pattern fits
        if d.kind is NodeType.INTERNAL:
            pending += [(d.stage - 1, 2 * d.index + 1), (d.stage - 1, 2 * d.index)]
        else:
            assert d.kind in types | CONSTANT_TYPES
            assert span.tolist() == pattern(d.kind, d.size)
    assert not pending
    leaves = [np.arange(d.offset, d.offset + d.size) for d in schedule.leaves()]
    np.testing.assert_array_equal(np.concatenate(leaves), np.arange(mask.size))


def stair_demands(lam, prev, j, arithmetic):
    """The per-group fill's level loop, which scan._fill replaced. Turn an
    F^j I^(s-j) node's demand into the stage-0 demands of SCAN's
    unpruned subtree after the final iteration, in place over lam (..., s).

    prev is the node's demand one iteration earlier, None in a one-iteration
    decode. Level by level, top-down: at half-size h, with halves a, b of
    each node of size 2h, the nodes below (j // 2h) * 2h are Rate0, those
    from ceil(j / 2h) * 2h on are Rate1, and at most one stair node lies
    between, split as in _level:

    * Rate0: left a + 0.0, right (a + 0.0) + b. In a one-iteration decode the
      left demand above stage 1 is f(a, b): the right sibling has not fed
      back yet.
    * Rate1: left f(a, b), right f(a, 0) + b.
    * stair, j >= h: the left child is Rate0. Left f(a, b + br), right
      (a + 0.0) + b, where br is the right child's stair on its previous
      demand (prev's a + b), 0 in a one-iteration decode or when the right
      child is Rate1.
    * stair, j < h: the right child is Rate1. Left f(a, b), right
      f(a, bl) + b, where bl is the left child's stair on its new demand.

    a + 0.0 is f(a, +inf) bit for bit (both turn -0.0 into +0.0), and each
    rule runs SCAN's operations on operands equal to SCAN's in value. Those
    that may differ in the sign of a zero reach only f, which ignores it,
    so lam ends equal to SCAN's stage-0 demands bit for bit.
    """
    f = combiner(arithmetic)
    s = lam.shape[-1]
    one_iteration = prev is None
    # the lowest half-size g whose stair node reads feedback from the iteration before
    last_br = min((1 << k for k in range(s.bit_length() - 1) if j % (2 << k) > 1 << k), default=s)
    h = s // 2
    while h:
        w = 2 * h
        lo, hi = j // w * w, -(-j // w) * w
        if lo:
            a, b = _node_halves(lam[..., :lo], h)
            if one_iteration and h > 1:
                left = f(a, b)
                b += a + 0.0
                a[...] = left
            else:
                a += 0.0
                b += a
        if hi < s:
            a, b = _node_halves(lam[..., hi:], h)
            left = f(a, b)
            b += f(a, 0.0)
            a[...] = left
        if lo < hi:
            a, b = lam[..., lo:lo + h], lam[..., lo + h:hi]
            if prev is not None and last_br <= h:
                pa, pb = prev[..., :h], prev[..., h:]
                prev = pa + pb if j - lo >= h else f(pa, pb)   # the next stair node's
            if j - lo >= h:
                br = kernels.stair(prev, j - lo - h, arithmetic) if j - lo > h and not one_iteration else None
                left = f(a, b) if br is None else f(a, b + br)
                b += a + 0.0
            else:
                left = f(a, b)
                b += f(a, kernels.stair(left, j - lo, arithmetic))
            a[...] = left
        h //= 2


def _node_halves(x, h):
    """Views of the left and right halves of each size-2h node of x (..., m)."""
    v = x.reshape(x.shape[:-1] + (x.shape[-1] // (2 * h), 2, h))
    return v[..., 0, :], v[..., 1, :]


def per_group_fill(code, cfg, schedule, llrs, final_memory):
    """The leaf region finalize received from the per-group fill: the leaves
    of each (stage, j), stacked as frames, through stair_demands, from the
    final demands of a leaf-off decode and those of one with an iteration
    fewer. A pruned root's demand is the channel."""
    def demands(iterations):
        FastScanDecoder(code, ScanConfig(iterations, cfg.arithmetic), schedule, leaf_extrinsic=False).decode(llrs)
        mem = final_memory[-1]
        return mem.leaf.T.copy(), (mem.channel if len(schedule.nodes) == 1 else mem.leaf).T.copy()

    leaf, lam = demands(cfg.iterations)
    prev = demands(cfg.iterations - 1)[1] if cfg.iterations > 1 else None
    groups = {}
    for d in schedule.leaves():
        if d.stage:
            groups.setdefault((d.stage, d.j), []).append(range(d.offset, d.offset + d.size))
    for (_, j), spans in groups.items():
        span = np.array(spans)
        group = lam[span]   # (leaves, 2^stage, frames)
        stair_demands(group.swapaxes(-1, -2), None if prev is None else prev[span].swapaxes(-1, -2), j, cfg.arithmetic)
        leaf[span] = group
    return leaf.T


FILL_LLRS = st.one_of(LLR_VALUES, st.sampled_from([-0.0, 2.0**21, -2.0**21]))   # the last two beyond the clamp


@settings(SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cases(FILL_LLRS), st.sampled_from([DEFAULT_TYPES, KERNEL_TYPES]), st.sampled_from(["minsum", "exact"]))
@example((np.arange(8) >= 4, EXAMPLE_LLRS, 2), DEFAULT_TYPES, "exact")   # a Rate0 right child
@example((np.ones(8, dtype=bool), EXAMPLE_LLRS, 2), DEFAULT_TYPES, "minsum")   # a Rate0 root
@example((np.arange(8) < 7, EXAMPLE_LLRS, 3), DEFAULT_TYPES, "exact")   # a Rep root: its demand is the channel
@example((np.arange(16) < 2, np.hstack([EXAMPLE_LLRS, -EXAMPLE_LLRS]), 2), KERNEL_TYPES, "minsum")   # a TypeIII root
def test_level_sweep_fill_equals_per_group_fill(final_memory, case, types, arithmetic):
    mask, llrs, iterations = case
    code = code_from_mask(mask)
    cfg = ScanConfig(iterations=iterations, arithmetic=arithmetic)
    schedule = build_schedule(code, types)
    out = FastScanDecoder(code, cfg, schedule).decode(llrs)
    got = final_memory[-1].leaf
    want = per_group_fill(code, cfg, schedule, llrs, final_memory)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    np.testing.assert_array_equal(out.leaf_extrinsic, want)
