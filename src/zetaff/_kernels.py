"""The hot root-side kernel: symmetric power sums over a root ladder.

The sum sum_{j=-k..k} (a - i*C*j)^(-mu) is evaluated in real arithmetic:
with w = x + i*y, x = Re a and y = Im a - C*j, the principal power is

    w^(-mu) = exp(-mu*log|w|) * (cos(-mu*arg w) + i*sin(-mu*arg w)),

and atan2(y, x) is the principal argument, so the branch is the same as for
the complex power.  The ladder is processed in blocks; block partial sums are
combined with math.fsum per component so the accumulated rounding error stays
far below the 1e-8 relative budget even at k = 10^7.

A call takes one order mu or a 1-d grid of orders.  The geometry of a block,
arg w and log|w|, does not depend on mu and is computed once for the whole
grid; only the products with -mu and their exp, cos and sin are formed per
order, as an (orders x terms) array.  The orders are taken in row groups of
at most _BLOCK elements, so no temporary is larger than in a one-order call
(at k = 10^7 a group is one row).  Every row is the same elementwise
arithmetic and the same row sum as a one-order call, so a grid gives each
order's sum bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_BLOCK = 1 << 20


def power_sum_symmetric(a, C, mu, k):
    """Return sum over j in [-k, k] of (a - i*C*j)^(-mu), principal branch.

    mu is one order, giving a complex, or a 1-d array of orders, giving a
    complex ndarray with one sum per order.
    """
    a = complex(a)
    C = float(C)
    orders = np.asarray(mu, dtype=np.float64)
    k = int(k)
    neg_mu = -orders.reshape(-1, 1)
    starts = range(-k, k + 1, _BLOCK)
    re_parts = np.empty((len(starts), len(neg_mu)))
    im_parts = np.empty_like(re_parts)
    for b, lo in enumerate(starts):
        hi = min(lo + _BLOCK, k + 1)
        y = np.arange(lo, hi, dtype=np.float64)
        y *= -C
        y += a.imag
        angle = np.arctan2(y, a.real)
        # exp(-mu*log|w|), as the complex power computes it: np.power(|w|, -mu)
        # rounds differently and moves the mu = -1.45 identity residual at
        # k = 1000 (a sum of about 3e7) from 4.91e-8 to 5.28e-8
        log_mag = np.hypot(a.real, y)
        np.log(log_mag, out=log_mag)
        rows = max(1, _BLOCK // (hi - lo))
        for r in range(0, len(neg_mu), rows):
            scale = neg_mu[r:r + rows]
            phase = scale * angle
            mag = scale * log_mag
            np.exp(mag, out=mag)
            trig = np.cos(phase)
            trig *= mag
            re_parts[b, r:r + rows] = trig.sum(axis=1)
            np.sin(phase, out=trig)
            trig *= mag
            im_parts[b, r:r + rows] = trig.sum(axis=1)
    re, im = _fsum_columns(re_parts), _fsum_columns(im_parts)
    if orders.ndim == 0:
        return complex(re[0], im[0])
    sums = np.empty(len(re), dtype=np.complex128)
    sums.real, sums.imag = re, im
    return sums


def _fsum_columns(parts):
    """math.fsum down each column of a (blocks, orders) array of block sums.

    With one block that is the block row itself, with -0.0 read as +0.0 as
    fsum reads it: x + 0.0 is x for every other x.
    """
    if len(parts) == 1:
        return parts[0] + 0.0
    return np.array([math.fsum(column) for column in parts.T.tolist()], dtype=np.float64)
