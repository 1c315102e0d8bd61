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

from .curve_model import CurveZeta, LambdaFactor, _factor_lambda, vertical_spacing
from .errors import (
    DivergentSeriesError,
    InvalidInputError,
    TailBudgetError,
    _computed,
    _finite,
    _is_tol,
    _order_totals,
    _orders,
    _point,
    _record,
    _require_finite,
    _require_int,
    _require_range,
)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation length and target absolute tail bound for the series."""

    n_terms: int = 20
    tail_tol: float = 1e-12

    def __post_init__(self):
        # below 2**53 every term index n is an exact double
        _require_int(self.n_terms, "n_terms", 1, 2**53 - 1)
        # inf turns the tail check off; NaN would too, silently
        if not (_is_tol(self.tail_tol) and self.tail_tol > 0.0):
            raise InvalidInputError(f"tail_tol must be positive, got {self.tail_tol!r}")


def series_tail_bound(ratio: float, mu: float, n_terms: int) -> float:
    """Bound on the omitted tail sum_{n > N} n^(mu-1) * r^n, for every mu.

        t_{N+1} / (1 - r * max(1, ((N+2)/(N+1))^(mu-1))),
        t_{N+1} = (N+1)^(mu-1) * r^(N+1),

    and inf when the denominator is <= 0 or a power overflows a double.  The
    term ratio t_{n+1}/t_n = r * ((n+1)/n)^(mu-1) is at most r for mu <= 1
    and falls with n for mu > 1, so the tail is dominated by a geometric
    series from t_{N+1} with the ratio at n = N+1.  The ratio must be a
    finite real >= 0, the order finite and n_terms an integer >= 0, or
    InvalidInputError is raised.
    """
    _require_range(ratio, "ratio", 0.0)
    _require_finite(mu=mu)
    _require_int(n_terms, "n_terms", 0)
    return _tail_bound(ratio, mu, n_terms)


def _tail_bound(ratio, mu, n_terms) -> float:
    """series_tail_bound for arguments already checked."""
    try:
        n = float(n_terms)
        denom = 1.0 - ratio * max(1.0, ((n + 2.0) / (n + 1.0)) ** (mu - 1.0))
        if denom <= 0.0:
            return math.inf
        return (n + 1.0) ** (mu - 1.0) * ratio ** (n_terms + 1) / denom
    except OverflowError:  # not the rule of errors._computed: inf is this bound's answer
        return math.inf


def _q_power(q, s0) -> complex:
    """q^(-s0), or DivergentSeriesError when its modulus overflows.  That is
    not the rule of errors._computed, since the cause is the domain:
    |q^(-s0)| > 1e308 >= q^-sigma0 for every sigma0 in [0, 1]."""
    try:
        qs = cmath.exp(-s0 * math.log(q))
    except OverflowError:
        qs = math.inf
    if abs(qs) == math.inf:
        raise DivergentSeriesError(
            f"|q^(-s0)| overflows a double; need Re(s0) > sigma0, got s0 = {s0}"
        )
    return qs


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
    _record(ctl, SeriesControl, "ctl")
    values = [[0j] * len(orders) for _ in factors]
    xs = None
    live, prefixes = [], []
    for i, mu in enumerate(orders):
        _require_finite(mu=mu)
        zero = mu <= 0.0 and mu.is_integer()
        if zero and not check_zero_orders:
            continue
        if xs is None:
            vertical_spacing(q)  # q must be a prime power
            qs = _computed("the phase of q^(-s0)", {"s0": s0}, _q_power, q, s0)
            xs = [_factor_lambda(f, q) * qs for f in factors]
        for factor, x in zip(factors, xs):
            rho = abs(x)
            if rho >= 1.0:
                raise DivergentSeriesError(
                    f"|lambda*q^(-s0)| = {rho:.6g} >= 1; need Re(s0) > sigma0 = {factor.sigma0}"
                )
            bound = _tail_bound(rho, mu, ctl.n_terms)
            if bound > ctl.tail_tol:
                raise TailBudgetError(
                    f"tail bound {bound:.3g} exceeds budget {ctl.tail_tol:.3g} "
                    f"at n_terms = {ctl.n_terms}",
                    achieved=bound,
                )
        if zero:
            # 1/Gamma(mu) = 0 exactly, the value stays 0j
            continue
        prefixes.append(_computed("e^(i*pi*mu)*(ln q)^mu/Gamma(mu)", {"mu": mu}, lambda: (
            cmath.exp(1j * math.pi * mu) * (1.0 / math.gamma(mu)) * math.log(q) ** mu)))
        live.append(i)
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
            row[i] = _finite(p * factor.nu * factor_sums[j], "the series",
                             {"mu": orders[i], "n_terms": ctl.n_terms})
    return values


def deriv_side_factor(q, factor: LambdaFactor, s0, mu, ctl: SeriesControl = SeriesControl()):
    """Derivative-side value for one factor at s0 and order mu.

    mu is one order, giving a complex, or a 1-d grid of orders, giving a
    complex ndarray with one value per order.  Raises DivergentSeriesError
    when |lambda*q^(-s0)| >= 1 and TailBudgetError when the truncation cannot
    meet ctl.tail_tol, at the first order that does.
    """
    _record(factor, LambdaFactor, "factor")
    orders, one = _orders(mu)
    values = _series_values(q, [factor], _point(s0), orders, ctl, check_zero_orders=True)[0]
    return values[0] if one else np.array(values, dtype=np.complex128)


def deriv_side_total(curve: CurveZeta, s0, mu, ctl: SeriesControl = SeriesControl()):
    """Sum of deriv_side_factor over every factor of the curve.

    mu is one order, giving a complex, or a 1-d grid of orders, giving a
    complex ndarray.  At nonpositive integer mu every factor vanishes, and
    the sum is 0j exactly, as it is at every order for a curve of no factors.
    """
    _record(curve, CurveZeta, "curve")
    s0 = _point(s0, min_re=1.0)
    orders, one = _orders(mu)
    values = _series_values(curve.q, curve.factors, s0, orders, ctl, check_zero_orders=False)
    return _order_totals(values, orders, one)
