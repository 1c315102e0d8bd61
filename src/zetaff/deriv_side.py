"""Derivative side of the generalised root identities.

For a single factor (1 - lambda*q^(-s))^nu the mu-th generalised derivative
of -ln zeta at s0 expands into the convergent series

    d = (e^(i*pi*mu) / Gamma(mu)) * (ln q)^mu * nu
        * sum_{n=1..N} lambda^n * q^(-n*s0) / n^(1-mu)

valid for Re(s0) > sigma0.  At mu in {0, -1, -2, ...} the reciprocal gamma
prefactor vanishes, so the derivative side is exactly zero there; that zero
is decided from mu itself, and elsewhere 1/Gamma(mu) is 1.0 / math.gamma(mu).
An order at which the prefactor or the value is not a finite double raises
InvalidInputError.

deriv_side_factor and deriv_side_total take one order mu or a 1-d grid of
orders; a grid gives each order's value bitwise as a one-order call does.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve_model import CurveZeta, LambdaFactor, _factor_lambda
from .errors import DivergentSeriesError, InvalidInputError, TailBudgetError


@dataclass(frozen=True)
class SeriesControl:
    """Truncation length and target absolute tail bound for the series."""

    n_terms: int = 20
    tail_tol: float = 1e-12

    def __post_init__(self):
        n = self.n_terms
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInputError(f"n_terms must be an integer >= 1, got {n!r}")
        # inf turns the tail check off; NaN would too, silently
        if not self.tail_tol > 0.0:
            raise InvalidInputError(f"tail_tol must be positive, got {self.tail_tol!r}")


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


def _orders(mu):
    """mu as a list of float orders, and whether it was one order or a grid."""
    orders = np.asarray(mu, dtype=np.float64)
    if orders.ndim > 1:
        raise InvalidInputError(f"mu must be one order or a 1-d grid, got shape {orders.shape}")
    return orders.reshape(-1).tolist(), orders.ndim == 0


def _series_values(q, factors, s0, orders, ctl, check_zero_orders):
    """deriv_side_factor of each factor at each order, one list per factor.

    The orders are checked one at a time, in order, and an order raises what
    a one-order deriv_side_factor call raises.  A value that is not a finite
    double (with the tail check off, tail_tol = inf, n ** (1 - mu) can
    underflow to 0) raises InvalidInputError, once every order's checks have
    passed; it is decided from the values, with NumPy's floating-point
    warnings off.  With check_zero_orders false
    a nonpositive integer order is zero without the series checks, as in
    deriv_side_total.  e^(i*pi*mu)/Gamma(mu)*(ln q)^mu and n^(1-mu) are
    computed once per order, and x^n once per factor.
    """
    values = [[0j] * len(orders) for _ in factors]
    xs = None
    live, prefixes = [], []
    for i, mu in enumerate(orders):
        _require_finite(s0, mu)
        zero = mu <= 0.0 and mu.is_integer()
        if zero and not check_zero_orders:
            continue
        if xs is None:
            xs = [_factor_lambda(f, q) * cmath.exp(-s0 * math.log(q)) for f in factors]
        for factor, x in zip(factors, xs):
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
        if zero:
            # 1/Gamma(mu) = 0 exactly, the value stays 0j
            continue
        try:
            prefix = cmath.exp(1j * math.pi * mu) * (1.0 / math.gamma(mu)) * math.log(q) ** mu
        except (OverflowError, ZeroDivisionError):
            prefix = math.nan
        if not cmath.isfinite(prefix):
            raise InvalidInputError(f"e^(i*pi*mu)*(ln q)^mu/Gamma(mu) overflows at mu = {mu}")
        live.append(i)
        prefixes.append(prefix)
    if not live:
        return values
    n = np.arange(1, ctl.n_terms + 1)
    with np.errstate(all="ignore"):
        # n ** (1 - mu) with a scalar exponent for each order: NumPy takes n ** 0.5
        # as a square root, which rounds differently from the general power
        powers = np.array([n.astype(float) ** (1.0 - orders[i]) for i in live])
        sums = [np.sum(x**n / powers, axis=1).tolist() for x in xs]
    for j, (i, p) in enumerate(zip(live, prefixes)):
        for row, factor, factor_sums in zip(values, factors, sums):
            row[i] = p * factor.nu * factor_sums[j]
            if not cmath.isfinite(row[i]):
                raise InvalidInputError(
                    f"the series is not a finite double at mu = {orders[i]}, "
                    f"n_terms = {ctl.n_terms}"
                )
    return values


def deriv_side_factor(q, factor: LambdaFactor, s0, mu, ctl: SeriesControl = SeriesControl()):
    """Derivative-side value for one factor at s0 and order mu.

    mu is one order, giving a complex, or a 1-d grid of orders, giving a
    complex ndarray with one value per order.  Raises DivergentSeriesError
    when |lambda*q^(-s0)| >= 1 and TailBudgetError when the truncation cannot
    meet ctl.tail_tol, at the first order that does.
    """
    orders, one = _orders(mu)
    values = _series_values(q, [factor], complex(s0), orders, ctl, check_zero_orders=True)[0]
    return values[0] if one else np.array(values, dtype=np.complex128)


def deriv_side_total(curve: CurveZeta, s0, mu, ctl: SeriesControl = SeriesControl()):
    """Sum of deriv_side_factor over every factor of the curve.

    mu is one order, giving a complex, or a 1-d grid of orders, giving a
    complex ndarray.  At nonpositive integer mu every factor vanishes, and
    the sum is 0j exactly.
    """
    s0 = complex(s0)
    orders, one = _orders(mu)
    if s0.real <= 1.0:
        raise InvalidInputError(f"Re(s0) must exceed 1, got {s0.real}")
    values = _series_values(curve.q, curve.factors, s0, orders, ctl, check_zero_orders=False)
    totals = [sum(column, start=0.0 + 0.0j) for column in zip(*values)]
    return totals[0] if one else np.array(totals, dtype=np.complex128)
