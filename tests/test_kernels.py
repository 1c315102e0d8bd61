"""Tests for the symmetric ladder power-sum kernel."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from zetaff import BACKEND
from zetaff._kernels import _BLOCK, power_sum_symmetric

A = 4.5238 - 2.3561945j
C = 1.9519924804725239


def oracle(a, C, mu, k):
    mp.mp.dps = 40
    return complex(
        mp.fsum((mp.mpc(a) - 1j * C * j) ** (-mp.mpf(mu)) for j in range(-k, k + 1))
    )


def complex_power_reference(a, C, mu, k):
    """Blocked complex-power sum, every term summed by math.fsum."""
    re_parts, im_parts = [], []
    for lo in range(-k, k + 1, 1 << 16):
        j = np.arange(lo, min(lo + (1 << 16), k + 1), dtype=np.float64)
        t = (a - 1j * C * j) ** (-mu)
        re_parts.extend(t.real.tolist())
        im_parts.extend(t.imag.tolist())
    return complex(math.fsum(re_parts), math.fsum(im_parts))


@pytest.mark.parametrize("mu", [2.6, 1.3, 0.5, -0.5, -2.0])
def test_purepy_matches_high_precision(mu):
    got = power_sum_symmetric(A, C, mu, 50)
    assert got == pytest.approx(oracle(A, C, mu, 50), abs=0, rel=1e-13)


def test_purepy_k0():
    assert power_sum_symmetric(A, C, 2.6, 0) == pytest.approx(
        A ** (-2.6), abs=0, rel=1e-15
    )


# mu = 2.6 is left out: for this a its sum cancels to about 1e-5 of the sum of
# |terms|, so any two double-precision evaluations differ by about 1e-12.
@pytest.mark.parametrize("mu", [1.3, 0.5, -0.5, -2.0])
def test_multi_block_matches_complex_power_reference(mu):
    k = 600000
    assert 2 * k + 1 > _BLOCK
    got = power_sum_symmetric(A, C, mu, k)
    assert got == pytest.approx(complex_power_reference(A, C, mu, k), abs=0, rel=1e-13)


def test_backend_name_is_reported():
    assert BACKEND == "numpy"


#: the scan-mu default grid, formed as scan-mu forms it
DEFAULT_GRID = [-1.45 + i * 0.1 for i in range(41)]


def one_order_reference(a, C, mu, k):
    """The kernel as a one-order loop over the ladder blocks: the reference
    the grid kernel must match bit for bit."""
    re_parts, im_parts = [], []
    lo = -k
    while lo <= k:
        hi = min(lo + _BLOCK, k + 1)
        y = np.arange(lo, hi, dtype=np.float64)
        y *= -C
        y += a.imag
        angle = np.arctan2(y, a.real)
        angle *= -mu
        mag = np.hypot(a.real, y)
        np.log(mag, out=mag)
        mag *= -mu
        np.exp(mag, out=mag)
        re_parts.append(float(np.sum(mag * np.cos(angle))))
        im_parts.append(float(np.sum(mag * np.sin(angle))))
        lo = hi
    return complex(math.fsum(re_parts), math.fsum(im_parts))


@pytest.mark.parametrize("k", [0, 1, 6, 10, 1000])
def test_order_grid_matches_one_order_calls_bitwise(k):
    rng = np.random.default_rng(k)
    for a in (A, *(complex(*rng.uniform(-4.0, 4.0, 2)) for _ in range(5))):
        got = power_sum_symmetric(a, C, np.array(DEFAULT_GRID), k)
        assert got.dtype == np.complex128 and got.shape == (41,)
        for mu, value in zip(DEFAULT_GRID, got.tolist()):
            scalar = power_sum_symmetric(a, C, mu, k)
            assert type(scalar) is complex
            assert value == scalar == one_order_reference(a, C, mu, k), (a, mu, k)


def test_order_grid_over_two_blocks_matches_one_order_calls_bitwise():
    mus = [1.3, -0.5, 0.7]
    got = power_sum_symmetric(A, C, mus, 600000)
    assert got.tolist() == [one_order_reference(A, C, mu, 600000) for mu in mus]


def test_order_grid_memory_stays_that_of_one_order():
    # the orders are taken in row groups of at most _BLOCK elements, so 41
    # orders need no larger temporaries than one
    def peak(mu):
        tracemalloc.start()
        try:
            power_sum_symmetric(A, C, mu, 600000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(DEFAULT_GRID) <= 1.5 * peak(1.3)


def test_order_grid_edge_cases():
    # mu = 0 sums 2k+1 ones exactly, in a grid as alone
    assert power_sum_symmetric(A, C, [0.5, 0.0, -1.0], 7)[1] == 15.0
    assert power_sum_symmetric(A, C, [], 7).shape == (0,)
