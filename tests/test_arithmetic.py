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
