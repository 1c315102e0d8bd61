"""Tests for the symmetric ladder power-sum kernel."""

import math

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
