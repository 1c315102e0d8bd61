"""Root side of the generalised root identities.

For a factor with base root r0 the root side is the regularized power sum

    r = e^(i*pi*mu) * nu * sum_{j in Z} (s0 - r_j)^(-mu),   r_j = r0 + i*C*j.

For mu > 1 the symmetric truncation converges classically.  For mu <= 1 the
sum is continued by subtracting the explicit Euler-McLaurin boundary terms
(leading power, half-term, B2 and B4 corrections) from the truncated sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from ._kernels import power_sum_symmetric
from .curve_model import CurveZeta, LambdaFactor, base_root, vertical_spacing
from .deriv_side import SeriesControl, _require_finite, deriv_side_total
from .errors import (
    InvalidInputError,
    OrderInsufficientError,
    RemovableSingularityError,
    WrongRegimeError,
)


@dataclass(frozen=True)
class RegularizedSum:
    """Continued root-side value with a ledger of subtracted terms.

    corrections holds (label, value) pairs for each subtracted divergence;
    est_error is the magnitude scale of the first omitted Euler-McLaurin term.
    """

    value: complex
    k_used: int
    corrections: tuple
    est_error: float

    def __post_init__(self):
        if self.est_error < 0.0:
            raise InvalidInputError("est_error must be nonnegative")
        allowed = {"boundary-power", "half-term", "B2-term", "B4-term"}
        for label, _ in self.corrections:
            if label not in allowed:
                raise InvalidInputError(f"unknown correction label {label!r}")


def root_side_classical(factor: LambdaFactor, q, s0, mu, k) -> complex:
    """Classically convergent root-side sum, valid for mu > 1.

    Returns e^(i*pi*mu) * nu * sum_{j=-k..k} ((s0 - r0) - i*C*j)^(-mu).
    """
    _require_finite(s0, mu)
    if mu <= 1.0:
        raise WrongRegimeError(
            f"classical sum diverges for mu = {mu} <= 1; use root_side_em"
        )
    if k < 0:
        raise InvalidInputError(f"k must be nonnegative, got {k}")
    C = vertical_spacing(q)
    a = complex(s0) - base_root(factor)
    total = power_sum_symmetric(a, C, mu, k)
    return cmath.exp(1j * math.pi * mu) * factor.nu * total


def root_side_em(factor: LambdaFactor, q, s0, mu, k) -> RegularizedSum:
    """Euler-McLaurin continued root-side sum for one factor.

    Subtracts the boundary power, half-term, B2 and B4 corrections from the
    symmetric truncation at k; valid for -5 < mu, mu != 1.
    """
    mu = float(mu)
    _require_finite(s0, mu)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if mu == 1.0:
        raise RemovableSingularityError(
            "mu = 1 makes the (1-mu)^(-1) boundary term singular; "
            "this order is not supported"
        )
    if mu <= -5.0:
        raise OrderInsufficientError(
            f"retained corrections are valid only for mu > -5, got mu = {mu}"
        )
    C = vertical_spacing(q)
    a = complex(s0) - base_root(factor)
    wm = a - 1j * C * k
    wp = a + 1j * C * k

    S = power_sum_symmetric(a, C, mu, k)
    b1 = (1j / ((1.0 - mu) * C)) * (wm ** (1.0 - mu) - wp ** (1.0 - mu))
    b2 = 0.5 * (wm ** (-mu) + wp ** (-mu))
    b3 = (1j * mu * C / 12.0) * (wm ** (-mu - 1.0) - wp ** (-mu - 1.0))
    b4 = (1j * mu * (mu + 1.0) * (mu + 2.0) * C**3 / 720.0) * (
        wm ** (-mu - 3.0) - wp ** (-mu - 3.0)
    )
    pref = cmath.exp(1j * math.pi * mu) * factor.nu
    value = pref * (S - b1 - b2 - b3 - b4)
    est_error = abs(wm) ** (-mu - 5.0)
    corrections = (
        ("boundary-power", pref * b1),
        ("half-term", pref * b2),
        ("B2-term", pref * b3),
        ("B4-term", pref * b4),
    )
    return RegularizedSum(value=value, k_used=int(k), corrections=corrections, est_error=est_error)


def root_side_total(curve: CurveZeta, s0, mu, k) -> complex:
    """Sum of per-factor Euler-McLaurin root-side values over the curve."""
    s0 = complex(s0)
    _require_finite(s0, mu)
    if s0.real <= 1.0:
        raise InvalidInputError(f"Re(s0) must exceed 1, got {s0.real}")
    total = 0.0 + 0.0j
    for f in curve.factors:
        total += root_side_em(f, curve.q, s0, mu, k).value
    return total


def identity_residual(curve: CurveZeta, s0, mu, ctl: SeriesControl, k):
    """Return (abs_diff, rel_diff) between derivative and root sides.

    rel_diff uses the denominator 1 + |d| so it stays meaningful when the
    derivative side vanishes.
    """
    d = deriv_side_total(curve, s0, mu, ctl)
    r = root_side_total(curve, s0, mu, k)
    abs_diff = abs(d - r)
    return abs_diff, abs_diff / (1.0 + abs(d))
