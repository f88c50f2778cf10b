import math

import numpy as np

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


def test_boxplus_defining_formula():
    # log((1 + e^(a+b)) / (e^a + e^b)) evaluated directly
    direct = math.log((1.0 + math.exp(5.0)) / (math.exp(2.0) + math.exp(3.0)))
    assert abs(float(boxplus(2.0, 3.0)) - direct) < 1e-12
    assert abs(direct - 1.6934537) < 1e-6


def test_boxplus_saturation_identity():
    for a in (-3.7, 0.0, 2.5, SAT, -SAT):
        assert float(boxplus(a, SAT)) == a
        assert float(boxplus(a, -SAT)) == -a
        assert float(boxplus(SAT, a)) == a


def test_boxplus_zero_absorbs():
    for a in (-5.0, 1.0, SAT):
        assert float(boxplus(a, 0.0)) == 0.0
        assert float(boxplus_minsum(a, 0.0)) == 0.0


def test_minsum_examples():
    assert float(boxplus_minsum(-2.0, 3.0)) == -2.0
    assert float(boxplus_minsum(5.0, -5.0)) == -5.0
    # sign(0) = +1
    assert float(boxplus_minsum(0.0, -4.0)) == -0.0 or float(boxplus_minsum(0.0, -4.0)) == 0.0
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
    assert float(sat_add(5.0, SAT)) == SAT
    assert float(sat_add(-SAT, 5.0)) == -SAT
    assert float(sat_add(SAT, SAT)) == SAT
    # conflicting certainties cancel to an erasure
    assert float(sat_add(SAT, -SAT)) == 0.0
    assert float(sat_add(-SAT, SAT)) == 0.0


def test_sat_add_plain_sum_and_clip():
    assert float(sat_add(2.0, 3.0)) == 5.0
    assert float(sat_add(SAT - 1.0, 10.0)) == SAT
    assert float(sat_add(-(SAT - 1.0), -10.0)) == -SAT


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


# ±SAT, ±0.0, ±1e-300, ±(SAT-1), out-of-range ±2e6 and ordinary values
BIT_GRID = np.array([v for x in (SAT, 0.0, 1e-300, SAT - 1.0, 2e6, 1.5, 3.25, 1e5)
                     for v in (x, -x)])


def _ref_sat_add(x, y):
    """The documented rules, one pair of Python floats at a time."""
    if (x == SAT and y == -SAT) or (x == -SAT and y == SAT):
        return 0.0
    if SAT in (x, y):
        return SAT
    if -SAT in (x, y):
        return -SAT
    return min(max(x + y, -SAT), SAT)


def _ref_minsum(x, y):
    sign = lambda v: -1.0 if v < 0 else 1.0   # sign(0) = sign(-0.0) = +1
    return sign(x) * sign(y) * min(abs(x), abs(y))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def test_bit_patterns_match_elementwise_reference():
    col, row = BIT_GRID[:, None], BIT_GRID[None, :]
    for fn, ref in ((sat_add, _ref_sat_add), (boxplus_minsum, _ref_minsum)):
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
    # returned types: sat_add gives a 0-d array, boxplus_minsum a numpy scalar
    for args in ((1.0, 2.0), (np.array(SAT), np.array(-SAT))):
        out = sat_add(*args)
        assert type(out) is np.ndarray and out.shape == ()
        assert type(boxplus_minsum(*args)) is np.float64
