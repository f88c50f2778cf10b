import math

import numpy as np
import pytest

from polarscan.arithmetic import (
    DEFAULT_SAT,
    boxplus,
    boxplus_minsum,
    clamp,
    combiner,
    hard_sign,
    sat_add,
)

SAT = DEFAULT_SAT
inf = math.inf


def test_boxplus_defining_formula():
    # log((1 + e^(a+b)) / (e^a + e^b)) evaluated directly
    direct = math.log((1.0 + math.exp(5.0)) / (math.exp(2.0) + math.exp(3.0)))
    assert abs(float(boxplus(2.0, 3.0)) - direct) < 1e-12
    assert abs(direct - 1.6934537) < 1e-6


def test_boxplus_saturation_identity():
    # certainty (+inf) is the identity of box-plus, itself included
    for a in (-3.7, 0.0, 2.5, SAT, -SAT, inf):
        assert float(boxplus(a, inf)) == a
        assert float(boxplus(inf, a)) == a
        assert float(boxplus_minsum(a, inf)) == a


def test_boxplus_zero_absorbs():
    for a in (-5.0, 1.0, SAT):
        assert float(boxplus(a, 0.0)) == 0.0
        assert float(boxplus_minsum(a, 0.0)) == 0.0


def test_minsum_examples():
    assert float(boxplus_minsum(-2.0, 3.0)) == -2.0
    assert float(boxplus_minsum(5.0, -5.0)) == -5.0
    # sign(0) = sign(-0.0) = +1, so the zero takes the sign of the other operand
    assert np.signbit(boxplus_minsum(0.0, -4.0))
    assert not np.signbit(boxplus_minsum(-0.0, 4.0))
    assert float(boxplus_minsum(-1.0, -2.0)) == 1.0


def test_boxplus_symmetry_and_bounds(rng):
    a = rng.uniform(-30, 30, size=4000)
    b = rng.uniform(-30, 30, size=4000)
    bp = boxplus(a, b)
    np.testing.assert_array_equal(bp, boxplus(b, a))
    assert np.all(np.abs(bp) <= np.minimum(np.abs(a), np.abs(b)) + 1e-12)
    nz = (a != 0) & (b != 0)
    np.testing.assert_array_equal(np.sign(bp[nz]), np.sign(a[nz]) * np.sign(b[nz]))


def test_minsum_within_log2_of_exact(rng):
    a = rng.uniform(-50, 50, size=5000)
    b = rng.uniform(-50, 50, size=5000)
    gap = np.abs(boxplus(a, b) - boxplus_minsum(a, b))
    assert gap.max() <= math.log(2.0) + 1e-12


def test_sat_add_absorbing():
    # certainty (+inf) absorbs every finite value
    assert float(sat_add(5.0, inf)) == inf
    assert float(sat_add(-SAT, inf)) == inf
    assert float(sat_add(inf, inf)) == inf
    # channel-range values are plain numbers: they neither absorb nor cancel
    assert float(sat_add(SAT, 5.0)) == SAT + 5.0
    assert float(sat_add(SAT, -SAT)) == 0.0


def test_sat_add_plain_sum_and_clip():
    # IEEE addition: nothing is clipped
    assert float(sat_add(2.0, 3.0)) == 5.0
    assert float(sat_add(SAT - 1.0, 10.0)) == SAT + 9.0
    assert float(sat_add(-(SAT - 1.0), -10.0)) == -(SAT + 9.0)


def test_clamp_and_hard_sign():
    np.testing.assert_array_equal(clamp(np.array([-2 * SAT, 0.5, 2 * SAT])),
                                  np.array([-SAT, 0.5, SAT]))
    np.testing.assert_array_equal(hard_sign(np.array([-3.0, 0.0, 7.0])),
                                  np.array([-1.0, 1.0, 1.0]))


def test_combiner_dispatch():
    f = combiner("minsum")
    assert float(f(2.0, -3.0)) == -2.0
    g = combiner("exact")
    assert abs(float(g(2.0, 3.0)) - 1.6934537) < 1e-6
    try:
        combiner("fixed")
        assert False, "expected ValueError"
    except ValueError:
        pass


# ±SAT, ±0.0, ±1e-300, ±(SAT-1), out-of-range ±2e6, ordinary values and
# certainty +inf; no -inf, which never occurs (and inf + -inf is NaN)
BIT_GRID = np.array([v for x in (SAT, 0.0, 1e-300, SAT - 1.0, 2e6, 1.5, 3.25, 1e5)
                     for v in (x, -x)] + [inf])


def _ref_sat_add(x, y):
    """The documented rules, one pair of Python floats at a time: IEEE
    addition, in which +inf absorbs every finite value."""
    return x + y


def _sign(v):
    return -1.0 if v < 0 else 1.0   # sign(0) = sign(-0.0) = +1


def _ref_minsum(x, y):
    return _sign(x) * _sign(y) * min(abs(x), abs(y))


def _ref_clamp(x):
    return min(max(x, -SAT), SAT)


def _ref_boxplus(x, y):
    """The min-sum term where both operands are infinite; otherwise the
    stable formula, evaluated in the same order as boxplus."""
    if math.isinf(x) and math.isinf(y):
        return _ref_minsum(x, y)
    return (_ref_minsum(x, y) + float(np.log1p(np.exp(-abs(x + y))))
            - float(np.log1p(np.exp(-abs(x - y)))))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.filterwarnings("error")
def test_bit_patterns_match_elementwise_reference():
    col, row = BIT_GRID[:, None], BIT_GRID[None, :]
    for fn, ref in ((sat_add, _ref_sat_add), (boxplus_minsum, _ref_minsum),
                    (boxplus, _ref_boxplus)):
        want = np.array([[ref(float(x), float(y)) for y in BIT_GRID] for x in BIT_GRID])
        # (B,1) x (1,N) broadcasting, and both operands at full shape
        got = fn(col, row)
        assert got.dtype == np.float64 and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
        full = [np.ascontiguousarray(x) for x in np.broadcast_arrays(col, row)]
        np.testing.assert_array_equal(_bits(fn(*full)), _bits(want))
        np.testing.assert_array_equal(_bits(fn(full[0].T, full[1].T)), _bits(want.T))
        for x, y in zip(full[0].ravel()[::7], full[1].ravel()[::7]):
            w = _bits(ref(float(x), float(y)))
            assert _bits(fn(float(x), float(y))) == w          # Python floats
            assert _bits(fn(np.array(x), np.array(y))) == w    # 0-d arrays
        # out=: broadcast, full and transposed operands into a fresh out in C
        # and transposed layouts; the call returns out, holding the out=None bits
        for x, y in ((col, row), full, (full[0].T, full[1].T)):
            plain = fn(x, y)
            for out in (np.empty(plain.shape), np.empty(plain.shape[::-1]).T):
                assert fn(x, y, out=out) is out
                np.testing.assert_array_equal(_bits(out), _bits(plain))
    # sat_add may write over its first operand, as the executor's feedback op does
    x, y = (np.ascontiguousarray(v) for v in np.broadcast_arrays(col, row))
    plain = sat_add(x, y)
    assert sat_add(x, y, out=x) is x
    np.testing.assert_array_equal(_bits(x), _bits(plain))
    # clamp and hard_sign (-0.0 -> +1.0): a column, a row, C and F operands,
    # Python floats and 0-d arrays
    for fn, ref in ((clamp, _ref_clamp), (hard_sign, _sign)):
        want = np.array([ref(float(x)) for x in BIT_GRID])
        for x, w in ((col, want[:, None]), (row, want[None, :]), (full[0], np.tile(want[:, None], BIT_GRID.size)),
                     (full[0].T, np.tile(want[None, :], (BIT_GRID.size, 1)))):
            got = fn(x)
            assert got.dtype == np.float64 and got.shape == w.shape
            np.testing.assert_array_equal(_bits(got), _bits(w))
            if fn is hard_sign:   # out= in C and transposed layouts, and over x itself
                for out in (np.empty(w.shape), np.empty(w.shape[::-1]).T):
                    assert hard_sign(x, out=out) is out
                    np.testing.assert_array_equal(_bits(out), _bits(w))
                own = np.array(np.broadcast_to(x, w.shape))
                assert hard_sign(own, out=own) is own
                np.testing.assert_array_equal(_bits(own), _bits(w))
        for x in BIT_GRID:
            assert _bits(fn(float(x))) == _bits(ref(float(x)))
            assert _bits(fn(np.array(x))) == _bits(ref(float(x)))
    # returned types: sat_add, boxplus and hard_sign give a 0-d array,
    # boxplus_minsum and clamp a numpy scalar; clamp keeps a float32 array's dtype
    for args in ((1.0, 2.0), (np.array(SAT), np.array(-SAT)), (np.array(inf), np.array(inf)), (np.array(2.0), 3.0)):
        for fn in (sat_add, boxplus):
            out = fn(*args)
            assert type(out) is np.ndarray and out.shape == ()
        assert type(boxplus_minsum(*args)) is np.float64
        assert type(clamp(args[0])) is np.float64
        out = hard_sign(args[0])
        assert type(out) is np.ndarray and out.shape == () and out.dtype == np.float64
    assert type(clamp([1.0, 3e6])) is np.ndarray
    assert clamp(np.zeros(3, dtype=np.float32)).dtype == np.float32


@pytest.mark.filterwarnings("error")
def test_large_arrays_match_elementwise_reference():
    """Arrays long enough for numpy's SIMD loops, with random signs: BIT_GRID
    values at random positions (the both-infinite fix-up in use), no
    certainty at all (its mask empty), and certainty everywhere (both
    operands +inf)."""
    rng = np.random.default_rng(7)
    shape = (256, 512)

    def operand():
        x = rng.normal(0.0, 4.0, shape)
        pos = rng.random(shape) < 0.05
        x[pos] = rng.choice(BIT_GRID, int(pos.sum()))
        return x

    pairs = ((operand(), operand()), tuple(rng.normal(0.0, 4.0, (2,) + shape)),
             tuple(np.full((2,) + shape, inf)))
    refs = [(fn, np.vectorize(ref, otypes=[float])) for fn, ref in
            ((sat_add, _ref_sat_add), (boxplus_minsum, _ref_minsum), (boxplus, _ref_boxplus))]
    sign_ref = np.vectorize(_sign, otypes=[float])
    for a, b in pairs:
        a, b = np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T   # frames last, as messages are stored
        for fn, ref in refs:
            got = fn(a, b)
            assert got.dtype == np.float64 and got.shape == shape
            np.testing.assert_array_equal(_bits(got), _bits(ref(a, b)))
            for out in (np.empty(shape), np.empty(shape[::-1]).T):   # C, and frames last
                assert fn(a, b, out=out) is out
                np.testing.assert_array_equal(_bits(out), _bits(got))
        np.testing.assert_array_equal(_bits(hard_sign(a)), _bits(sign_ref(a)))
        sign = sign_ref(a)
        for out in (np.empty(shape), np.empty(shape[::-1]).T):
            assert hard_sign(a, out=out) is out
            np.testing.assert_array_equal(_bits(out), _bits(sign))
        own = a.copy()
        assert hard_sign(own, out=own) is own
        np.testing.assert_array_equal(_bits(own), _bits(sign))
        own = a.copy()   # sat_add over its first operand, as the executor's feedback op runs it
        assert sat_add(own, b, out=own) is own
        np.testing.assert_array_equal(_bits(own), _bits(sat_add(a, b)))


@pytest.mark.filterwarnings("error")
def test_exact_boxplus_enters_errstate_only_for_two_infinities(monkeypatch):
    # a - b is NaN (inf - inf, which warns) only where both operands are
    # infinite; any other pair, one +inf included, needs no np.errstate
    col, row = BIT_GRID[:-1, None], BIT_GRID[None, :]   # finite x finite-or-inf
    want = np.array([[_ref_boxplus(float(x), float(y)) for y in BIT_GRID] for x in BIT_GRID[:-1]])

    def raising(*args, **kwargs):
        raise AssertionError("np.errstate entered")

    with monkeypatch.context() as patched:
        patched.setattr(np, "errstate", raising)
        np.testing.assert_array_equal(_bits(boxplus(col, row)), _bits(want))
        np.testing.assert_array_equal(_bits(boxplus(row, col)), _bits(want))   # box-plus is symmetric
        assert _bits(boxplus(2.0, inf)) == _bits(2.0)
    # both infinite: a*b there, and no warning escapes
    a, b = np.array([inf, inf, -1.5, 0.0]), np.array([inf, 2.0, inf, inf])
    np.testing.assert_array_equal(_bits(boxplus(a, b)), _bits([inf, 2.0, -1.5, 0.0]))
    assert float(boxplus(inf, inf)) == inf
