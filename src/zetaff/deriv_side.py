"""Derivative side of the generalised root identities.

For a single factor (1 - lambda*q^(-s))^nu the mu-th generalised derivative
of -ln zeta at s0 expands into the convergent series

    d = (e^(i*pi*mu) / Gamma(mu)) * (ln q)^mu * nu
        * sum_{n=1..N} lambda^n * q^(-n*s0) / n^(1-mu)

valid for Re(s0) > sigma0.  At mu in {0, -1, -2, ...} the reciprocal gamma
prefactor vanishes, so the derivative side is exactly zero there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

from .curve_model import CurveZeta, LambdaFactor, _factor_lambda
from .errors import DivergentSeriesError, InvalidInputError, TailBudgetError


@dataclass(frozen=True)
class SeriesControl:
    """Truncation length and target absolute tail bound for the series."""

    n_terms: int = 20
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.n_terms < 1:
            raise InvalidInputError("n_terms must be >= 1")
        if self.tail_tol <= 0.0:
            raise InvalidInputError("tail_tol must be positive")


def _require_finite(s0, mu) -> None:
    """Raise InvalidInputError unless the order mu and the point s0 are finite."""
    if not (math.isfinite(mu) and cmath.isfinite(s0)):
        raise InvalidInputError(f"mu and s0 must be finite, got mu = {mu}, s0 = {s0}")


def series_tail_bound(ratio: float, mu: float, n_terms: int) -> float:
    """Bound on the omitted tail sum_{n > N} n^(mu-1) * r^n, for every mu.

        t_{N+1} / (1 - r * max(1, ((N+2)/(N+1))^(mu-1))),
        t_{N+1} = (N+1)^(mu-1) * r^(N+1),

    and inf when the denominator is <= 0 or a power overflows a double.  The
    term ratio t_{n+1}/t_n = r * ((n+1)/n)^(mu-1) is at most r for mu <= 1
    and falls with n for mu > 1, so the tail is dominated by a geometric
    series from t_{N+1} with the ratio at n = N+1.
    """
    n = float(n_terms)
    try:
        denom = 1.0 - ratio * max(1.0, ((n + 2.0) / (n + 1.0)) ** (mu - 1.0))
        if denom <= 0.0:
            return math.inf
        return (n + 1.0) ** (mu - 1.0) * ratio ** (n_terms + 1) / denom
    except OverflowError:
        return math.inf


def deriv_side_factor(q, factor: LambdaFactor, s0, mu, ctl: SeriesControl = SeriesControl()) -> complex:
    """Derivative-side value for one factor at s0 and order mu.

    Raises DivergentSeriesError when |lambda*q^(-s0)| >= 1 and TailBudgetError
    when the truncation cannot meet ctl.tail_tol.
    """
    s0 = complex(s0)
    _require_finite(s0, mu)
    lam = _factor_lambda(factor, q)
    x = lam * cmath.exp(-s0 * math.log(q))
    rho = abs(x)
    if rho >= 1.0:
        raise DivergentSeriesError(
            f"|lambda*q^(-s0)| = {rho:.6g} >= 1; need Re(s0) > sigma0 = {factor.sigma0}"
        )
    bound = series_tail_bound(rho, mu, ctl.n_terms)
    if bound > ctl.tail_tol:
        raise TailBudgetError(
            f"tail bound {bound:.3g} exceeds budget {ctl.tail_tol:.3g} "
            f"at n_terms = {ctl.n_terms}",
            achieved=bound,
        )
    rg = float(rgamma(mu))
    if rg == 0.0:
        # mu is a nonpositive integer: 1/Gamma(mu) = 0 exactly.
        return 0.0 + 0.0j
    n = np.arange(1, ctl.n_terms + 1)
    terms = x**n / n.astype(float) ** (1.0 - mu)
    total = complex(np.sum(terms))
    return cmath.exp(1j * math.pi * mu) * rg * math.log(q) ** mu * factor.nu * total


def deriv_side_total(curve: CurveZeta, s0, mu, ctl: SeriesControl = SeriesControl()) -> complex:
    """Sum of deriv_side_factor over every factor of the curve."""
    s0 = complex(s0)
    _require_finite(s0, mu)
    if s0.real <= 1.0:
        raise InvalidInputError(f"Re(s0) must exceed 1, got {s0.real}")
    if float(rgamma(mu)) == 0.0:
        # Every factor vanishes identically; keep the zero bit-exact.
        return 0.0 + 0.0j
    return sum(
        (deriv_side_factor(curve.q, f, s0, mu, ctl) for f in curve.factors),
        start=0.0 + 0.0j,
    )
