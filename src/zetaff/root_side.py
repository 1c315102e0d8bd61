"""Root side of the generalised root identities.

For a factor with base root r0 the root side is the regularized power sum

    r = e^(i*pi*mu) * nu * sum_{j in Z} (s0 - r_j)^(-mu),   r_j = r0 + i*C*j.

For mu > 1 the symmetric truncation converges classically.  For mu <= 1 the
sum is continued by subtracting the Euler-McLaurin boundary terms of its two
tails from the truncation at k (DLMF 2.10): the leading power, the half-term
and the Bernoulli terms

    i (mu)_(2m-1) C^(2m-1) |B_2m|/(2m)! (w-^(-mu-2m+1) - w+^(-mu-2m+1)),

m = 1 .. 8 (B2 .. B16), with w-/+ = (s0 - r0) -/+ i*C*k.  Without an explicit
k, k is chosen from a few candidates by an error model: the first omitted
Bernoulli term (truncation) plus eps times the scale of what is summed
(rounding), which grows with k.  A small k with many Bernoulli terms beats a
large k with few, where the cancelling sum loses digits: at k = 10 a call
sums 21 kernel terms.

root_side_em and root_side_total take one order mu or a 1-d grid of orders.
A grid is checked and modelled order by order, exactly as one-order calls
would be; the orders of a factor that chose the same k then share one kernel
call, which computes the ladder geometry once for all of them.  Each order's
result is bitwise that of a one-order call.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import power_sum_symmetric
from .curve_model import CurveZeta, LambdaFactor, base_root, vertical_spacing
from .deriv_side import _orders, _require_finite
from .errors import (
    InvalidInputError,
    OrderInsufficientError,
    RemovableSingularityError,
    WrongRegimeError,
)

#: |B_2m| / (2m)! for m = 1 .. 9, that is B2 .. B18 (DLMF 24.2), from the
#: numerator and denominator of |B_2m|
_BERNOULLI = tuple(
    num / (den * math.factorial(2 * m))
    for m, (num, den) in enumerate(
        ((1, 6), (1, 30), (1, 42), (1, 30), (5, 66), (691, 2730), (7, 6),
         (3617, 510), (43867, 798)),
        start=1,
    )
)

#: (m, |B_(2m+2)|(2m)! / (|B_2m|(2m+2)!)) for m = 1 .. 8
_BERNOULLI_STEPS = tuple((m, _BERNOULLI[m] / _BERNOULLI[m - 1]) for m in range(1, 9))

#: Bernoulli terms kept at most, B2 .. B16; the B18 bound is then the
#: truncation error
_EM_TERMS = 8

#: truncations the error model chooses from when no k is given
_K_CANDIDATES = (4, 6, 10, 16, 25, 40, 64, 100, 160, 250, 400, 1000)

_BERNOULLI_LABELS = tuple(f"B{2 * m}-term" for m in range(1, _EM_TERMS + 1))
_LABELS = frozenset(("boundary-power", "half-term", *_BERNOULLI_LABELS))

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class RegularizedSum:
    """Continued root-side value with a ledger of subtracted terms.

    corrections holds (label, value) pairs for each subtracted boundary term;
    k_used is the truncation and order the highest Bernoulli index kept (16
    for B2 .. B16, 0 for none).  est_error bounds the error of value: the
    truncation part (the first omitted Bernoulli term) plus the rounding part
    (double-precision rounding of the truncated sum and of the boundary terms).
    """

    value: complex
    k_used: int
    corrections: tuple
    est_error: float
    order: int = 0
    truncation_error: float = 0.0
    rounding_error: float = 0.0

    def __post_init__(self):
        if not (self.truncation_error >= 0.0 and self.rounding_error >= 0.0):
            raise InvalidInputError("truncation_error and rounding_error must be nonnegative")
        if not self.est_error >= self.truncation_error + self.rounding_error:
            raise InvalidInputError("est_error must be nonnegative and cover both parts")
        for label, _ in self.corrections:
            if label not in _LABELS:
                raise InvalidInputError(f"unknown correction label {label!r}")


def _ladder_offset(factor: LambdaFactor, C, s0) -> complex:
    """a = s0 - r0, checked not to be i*C*j: s0 on the ladder is a root."""
    a = complex(s0) - base_root(factor)
    if a.real == 0.0 and a.imag == C * round(a.imag / C):
        raise InvalidInputError(f"s0 = {s0} lies on the root ladder of {factor}")
    return a


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
    a = _ladder_offset(factor, C, s0)
    total = power_sum_symmetric(a, C, mu, k)
    return cmath.exp(1j * math.pi * mu) * factor.nu * total


def _bernoulli_coefficients(mu, C):
    """(mu)_(2m-1) C^(2m-1) |B_2m|/(2m)! for m = 1 .. 9, that is B2 .. B18.

    The B_2m term of the continuation is i times this coefficient times
    w-^(-mu-2m+1) - w+^(-mu-2m+1).  Each coefficient is the one before times
    (mu + 2m - 1)(mu + 2m) C^2 |B_(2m+2)|(2m)!/(|B_2m|(2m+2)!).
    """
    c = mu * C * _BERNOULLI[0]
    coefs = [c]
    for m, ratio in _BERNOULLI_STEPS:
        c *= (mu + 2 * m - 1) * (mu + 2 * m) * ratio * C * C
        coefs.append(c)
    return coefs


def _bernoulli_bounds(coefs, mu, rm, rp):
    """Bounds on the Bernoulli terms the continuation keeps, and on the next one.

    |B_2m term| <= |coef_m| (rm^(-mu-2m+1) + rp^(-mu-2m+1)), rm = |w-| and
    rp = |w+|.  Terms are kept while these bounds shrink, up to B16.  Returns
    the number of kept terms, the sum of their bounds and the bound on the
    first omitted term, the truncation error.
    """
    em, ep = rm ** (-mu - 1.0), rp ** (-mu - 1.0)
    sm, sp = rm**-2.0, rp**-2.0
    kept, total, prev = 0, 0.0, math.inf
    for c in coefs[:_EM_TERMS]:
        bound = abs(c) * (em + ep)
        if not bound < prev:
            break
        kept, total, prev = kept + 1, total + bound, bound
        em *= sm
        ep *= sp
    else:
        bound = abs(coefs[_EM_TERMS]) * (em + ep)
    return kept, total, bound


def _abs_sum_bound(a, C, mu, k):
    """Closed-form bound on sum_{j=-k..k} |a - i*C*j|^(-mu), p = -mu.

    With x = |Re a| and t_j = Im a - C*j, |w_j| lies between max(x, |t_j|)
    and x + |t_j|.  For p >= 0 the terms (x + |t|)^p form a valley in t, so
    their grid sum is at most the integral over [t_k, t_-k] divided by C
    plus the two end values.  For p < 0 the terms peak at the nearest rung
    j0; every other rung has |t_j| >= C*(|j - j0| - 1/2), so the rest is at
    most twice a decreasing sum of max(x, u)^p, bounded by its first term
    plus an integral.
    """
    p = -mu
    x = abs(a.real)
    lo, hi = a.imag - C * k, a.imag + C * k
    if p >= 0.0:
        def F(T):  # int_0^T (x + u)^p du
            return ((x + T) ** (p + 1.0) - x ** (p + 1.0)) / (p + 1.0)

        span = F(-lo) + F(hi) if lo < 0.0 < hi else abs(F(abs(hi)) - F(abs(lo)))
        return span / C + (x + abs(lo)) ** p + (x + abs(hi)) ** p
    j0 = min(max(round(a.imag / C), -k), k)
    rmin = abs(a - 1j * C * j0)
    u0, u1 = C / 2.0, C * (2 * k + 1)
    x0 = max(x, u0)
    # int_u0^u1 max(x, u)^p du: flat up to x, a power beyond
    tail = (min(x, u1) - u0) * x**p if x > u0 else 0.0
    if u1 > x0:
        e, span = p + 1.0, math.log(u1 / x0)
        tail += x0**e * (math.expm1(e * span) / e if e else span)
    return rmin**p + 2.0 * (x0**p + tail / C)


def _error_model(a, C, mu, k, coefs):
    """(truncation, rounding, number of kept Bernoulli terms) at k.

    The rounding part is eps times the scale of what is summed, the moduli
    of the 2k+1 kernel terms plus those of the boundary terms, times the
    growth of a term's relative error with |mu| log|w|: the kernel and the
    complex powers form w^(-mu) as exp(-mu*log w).  To that it adds the
    rounding of y = Im a - C*j, up to eps*C|j| <= eps*(|Im a| + |w|), which
    the power turns into a relative error |mu| eps |Im a| / |w|: near a
    ladder, where |w| << |Im a|, it is the larger part.
    """
    rm, rp = math.hypot(a.real, a.imag - C * k), math.hypot(a.real, a.imag + C * k)
    hm, hp = rm**-mu, rp**-mu
    kept, kept_sum, truncation = _bernoulli_bounds(coefs, mu, rm, rp)
    boundary = (hm * rm + hp * rp) / (abs(1.0 - mu) * C) + 0.5 * (hm + hp) + kept_sum
    growth = 2.0 + abs(mu) * (abs(math.log(max(rm, rp))) + math.pi)
    rounding = _EPS * growth * (_abs_sum_bound(a, C, mu, k) + boundary)
    if a.imag:
        rounding += _EPS * abs(mu) * abs(a.imag) * _abs_sum_bound(a, C, mu + 1.0, k)
    return truncation, rounding, kept


def _check_em_order(s0, mu, k) -> None:
    """Raise for an order, truncation or point root_side_em cannot handle."""
    _require_finite(s0, mu)
    if k is not None and k < 1:
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


def _em_model(a, C, mu, k, coefs, s0):
    """(k, truncation, rounding, kept): the given k, or the error model's choice.

    The truncation part falls with k and the rounding part grows, so the
    modelled error falls and then rises; the scan takes the candidates in
    increasing order and stops at the first that does no better than the
    one before.  An explicit k is a scan of that one candidate.
    """
    # The error model holds only where the window |j| <= k reaches the rung
    # nearest s0, C*k >= |Im a|: beyond it a tail's terms first grow toward
    # that rung, and the first omitted Bernoulli term at k understates the
    # remainder.  So an explicit k must reach that rung, and the default
    # scan starts at the first candidate that does (the largest if none does).
    if k is None:
        first = next((i for i, c in enumerate(_K_CANDIDATES) if C * c >= abs(a.imag)), -1)
        candidates = _K_CANDIDATES[first:]
    else:
        k = int(k)
        if not C * k >= abs(a.imag):
            raise InvalidInputError(
                f"k = {k} misses the rung nearest s0 = {s0}: C*k < |Im(s0 - r0)|"
            )
        candidates = (k,)
    best = None
    try:
        for k in candidates:
            truncation, rounding, kept = _error_model(a, C, mu, k, coefs)
            if best is not None and truncation + rounding >= best[1] + best[2]:
                break
            best = k, truncation, rounding, kept
    except OverflowError:
        raise InvalidInputError(
            f"root-side terms overflow a double at mu = {mu}, s0 = {s0}"
        ) from None
    return best


def _continued(a, C, mu, coefs, pref, S, k, truncation, rounding, kept) -> RegularizedSum:
    """Subtract the boundary terms at k from the truncated sum S.

    pref is e^(i*pi*mu) * nu, and the model fields are those of _em_model.
    """
    wm = a - 1j * C * k
    wp = a + 1j * C * k
    pm, pp = wm ** (-mu), wp ** (-mu)
    # i/((1-mu)C) * (w-^(1-mu) - w+^(1-mu)) with w-/+ = a -/+ iCk written out,
    # so that at mu = 0 it is 2k exactly and the continuation cancels exactly
    b1 = (k * (pm + pp) + 1j * a * (pm - pp) / C) / (1.0 - mu)
    b2 = 0.5 * (pm + pp)
    corrections = [("boundary-power", pref * b1), ("half-term", pref * b2)]
    rest = S - b1 - b2
    # w^(-mu-2m+1) from w^(-mu-1) by repeated division by w^2
    em, ep = pm / wm, pp / wp
    sm, sp = 1.0 / (wm * wm), 1.0 / (wp * wp)
    for label, c in zip(_BERNOULLI_LABELS, coefs[:kept]):
        term = 1j * c * (em - ep)
        rest -= term
        corrections.append((label, pref * term))
        em *= sm
        ep *= sp
    return RegularizedSum(
        value=pref * rest,
        k_used=k,
        corrections=tuple(corrections),
        est_error=truncation + rounding,
        order=2 * kept,
        truncation_error=truncation,
        rounding_error=rounding,
    )


def _em_sums(factors, q, s0, orders, k):
    """root_side_em of each factor at each order, one list per factor.

    The orders are checked one at a time, in order, so a grid raises what a
    one-order call at its first offending order raises.  The Bernoulli
    coefficients and e^(i*pi*mu) are computed once per order; the error
    model and the boundary terms stay scalar per factor and order.  Each
    factor's kernel runs once per distinct truncation, on all the orders
    that chose it.
    """
    if not orders:
        return [[] for _ in factors]
    plans = [[] for _ in factors]
    for i, mu in enumerate(orders):
        _check_em_order(s0, mu, k)
        if i == 0:
            # q and s0 are checked after the first order, as in a one-order call
            C = vertical_spacing(q)
            offsets = [_ladder_offset(f, C, s0) for f in factors]
        coefs = _bernoulli_coefficients(mu, C)
        for a, plan in zip(offsets, plans):
            plan.append((coefs, _em_model(a, C, mu, k, coefs, s0)))
    phases = [cmath.exp(1j * math.pi * mu) for mu in orders]
    results = []
    for factor, a, plan in zip(factors, offsets, plans):
        by_k = {}
        for i, (_, model) in enumerate(plan):
            by_k.setdefault(model[0], []).append(i)
        S = [0j] * len(orders)
        for k_used, rows in by_k.items():
            sums = power_sum_symmetric(a, C, [orders[i] for i in rows], k_used)
            for i, value in zip(rows, sums.tolist()):
                S[i] = value
        results.append([
            _continued(a, C, mu, coefs, phase * factor.nu, S_mu, *model)
            for mu, phase, S_mu, (coefs, model) in zip(orders, phases, S, plan)
        ])
    return results


def root_side_em(factor: LambdaFactor, q, s0, mu, k=None):
    """Euler-McLaurin continued root-side sum for one factor.

    Subtracts the boundary power, the half-term and the Bernoulli terms
    B2 .. B16 (while their bounds shrink) from the symmetric truncation at k;
    valid for -5 < mu, mu != 1.  With k None, k is the candidate in
    _K_CANDIDATES with the smallest modelled error, truncation plus rounding
    (see RegularizedSum), among those whose window reaches the rung nearest
    s0, chosen per order.  An explicit k >= 1 is used as given if it reaches
    that rung, C*k >= |Im(s0 - r0)|, and raises InvalidInputError if not.
    mu is one order, giving a RegularizedSum, or a 1-d grid of orders,
    giving a list with one per order: the grid shares the kernel's ladder
    geometry across the orders and gives each order's result bit for bit.
    """
    orders, one = _orders(mu)
    sums = _em_sums([factor], q, s0, orders, k)[0]
    return sums[0] if one else sums


def root_side_total(curve: CurveZeta, s0, mu, k=None):
    """Sum of per-factor Euler-McLaurin root-side values over the curve.

    k is passed to root_side_em for every factor; None lets each factor's
    error model choose it.  mu is one order, giving a complex, or a 1-d grid
    of orders, giving a complex ndarray.
    """
    s0 = complex(s0)
    orders, one = _orders(mu)
    if s0.real <= 1.0:
        raise InvalidInputError(f"Re(s0) must exceed 1, got {s0.real}")
    totals = []
    for column in zip(*_em_sums(curve.factors, curve.q, s0, orders, k)):
        total = 0.0 + 0.0j
        for result in column:
            total += result.value
        totals.append(total)
    return totals[0] if one else np.array(totals, dtype=np.complex128)
