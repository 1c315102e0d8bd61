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
from .errors import (
    InvalidInputError,
    OrderInsufficientError,
    RemovableSingularityError,
    WrongRegimeError,
    _computed,
    _finite,
    _orders,
    _point,
    _require_finite,
    _require_int,
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

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class RegularizedSum:
    """Continued root-side value with a ledger of subtracted terms.

    corrections holds (label, value) pairs for each subtracted boundary term;
    k_used is the truncation and order the highest Bernoulli index kept (16
    for B2 .. B16, 0 for none).  est_error bounds the error of value: the
    truncation part (the first omitted Bernoulli term) plus the rounding part
    (double-precision rounding of the truncated sum and of the boundary terms).
    A plain record: root_side_em builds it from numbers it has checked.
    """

    value: complex
    k_used: int
    corrections: tuple
    est_error: float
    order: int = 0
    truncation_error: float = 0.0
    rounding_error: float = 0.0


#: the budget of a root-side truncation: k is at most this, so one order
#: sums at most 2k + 1 = 2*10^8 + 1 kernel terms, in 191 blocks of 2^20
#: terms: 12.7 s and 85 MiB RSS on a 2-CPU Linux container, where the
#: k = 10^7 classical oracle takes 0.83 s
_MAX_K = 10**8


def _check_k(k, smallest) -> None:
    """Raise unless k is an integer from ``smallest`` to the budget ``_MAX_K``."""
    _require_int(k, "k", smallest, _MAX_K, why=" (the root-side budget)")


def _ladder_offset(factor: LambdaFactor, C, s0) -> complex:
    """a = s0 - r0, checked not to be i*C*j: s0 on the ladder is a root."""
    a = s0 - base_root(factor)
    if a.real == 0.0 and a.imag == C * round(a.imag / C):
        raise InvalidInputError(f"s0 = {s0} lies on the root ladder of {factor}")
    return a


def root_side_classical(factor: LambdaFactor, q, s0, mu, k) -> complex:
    """Symmetric truncation of the root-side sum at k, with no error bound.

    Returns e^(i*pi*mu) * nu * sum_{j=-k..k} ((s0 - r0) - i*C*j)^(-mu), for
    an integer k from 0 to ``_MAX_K`` = 10^8; a larger k raises
    InvalidInputError before any term is summed.  The sum converges as k
    grows for mu > 1.  Its truncation error is of the order of the two tails,
    E = 2 (C*k)^(1-mu) / ((mu - 1) C): their leading terms add up to
    |cos(pi*mu/2)| E for large k, so near mu = 1 the error falls very
    slowly (0.38 at mu = 1.1, k = 10^6, q = 25).  No bound is reported; the
    k = 10^7 classical oracle of the acceptance suite (mu >= 2.5) is what
    relies on this sum.
    """
    s0 = _point(s0)
    _require_finite(mu=mu)
    if mu <= 1.0:
        raise WrongRegimeError(
            f"classical sum diverges for mu = {mu} <= 1; use root_side_em"
        )
    _check_k(k, 0)
    C = vertical_spacing(q)
    a = _ladder_offset(factor, C, s0)
    phase = _phase(mu)  # before the kernel, which at such an order only warns
    return phase * factor.nu * power_sum_symmetric(a, C, mu, k)


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


def _windows(a, C, k, s0):
    """(k, w-, w+, |w-|, |w+|) of each window |j| <= k of one factor, in increasing k.

    The error model holds only where the window reaches the rung nearest s0,
    C*k >= |Im a|: beyond it a tail's terms first grow toward that rung, and
    the first omitted Bernoulli term at k understates the remainder.  So the
    windows are those of the given k, or of the candidates, that reach it,
    and if none does the call raises.  The moduli are taken with math.hypot:
    abs(w) can differ from it in the last bit, which est_error would show.
    """
    given = _K_CANDIDATES if k is None else (int(k),)
    ends = [(c, a - 1j * C * c, a + 1j * C * c) for c in given if C * c >= abs(a.imag)]
    if not ends:
        raise InvalidInputError(
            f"k = {given[-1]} misses the rung nearest s0 = {s0}: C*k < |Im(s0 - r0)|"
        )
    return [(c, wm, wp, math.hypot(wm.real, wm.imag), math.hypot(wp.real, wp.imag))
            for c, wm, wp in ends]


def _abs_sum_bound(a, C, mu, window):
    """Closed-form bound on sum_{j=-k..k} |a - i*C*j|^(-mu) over a window, p = -mu.

    With x = |Re a| and t_j = Im a - C*j, |w_j| lies between max(x, |t_j|)
    and x + |t_j|.  For p >= 0 the terms (x + |t|)^p form a valley in t, so
    their grid sum is at most the integral over [t_k, t_-k] divided by C
    plus the two end values.  For p < 0 the terms peak at the nearest rung
    j0, which the window reaches (C*k >= |Im a|, see ``_windows``); every
    other rung has |t_j| >= C*(|j - j0| - 1/2), so the rest is at most twice
    a decreasing sum of max(x, u)^p, bounded by its first term plus an
    integral.
    """
    p = -mu
    x = abs(a.real)
    k, wm, wp, _, _ = window
    lo, hi = wm.imag, wp.imag
    if p >= 0.0:
        def F(T):  # int_0^T (x + u)^p du
            return ((x + T) ** (p + 1.0) - x ** (p + 1.0)) / (p + 1.0)

        # the window reaches the nearest rung, so t_k = lo <= 0 <= hi = t_-k
        return (F(-lo) + F(hi)) / C + (x + abs(lo)) ** p + (x + abs(hi)) ** p
    j0 = round(a.imag / C)
    rmin = abs(a - 1j * C * j0)
    u0, u1 = C / 2.0, C * (2 * k + 1)
    x0 = max(x, u0)
    # int_u0^u1 max(x, u)^p du: flat up to x, a power beyond
    tail = (min(x, u1) - u0) * x**p if x > u0 else 0.0
    if u1 > x0:
        e, span = p + 1.0, math.log(u1 / x0)
        tail += x0**e * (math.expm1(e * span) / e if e else span)
    return rmin**p + 2.0 * (x0**p + tail / C)


def _check_em_order(mu, k) -> None:
    """Raise for an order or truncation root_side_em cannot handle."""
    _require_finite(mu=mu)
    if k is not None:
        _check_k(k, 1)
    if abs(mu - 1.0) <= 1e-9:
        raise RemovableSingularityError(
            f"mu = {mu} lies within 1e-9 of mu = 1, where the (1-mu)^(-1) boundary "
            "term is singular; such orders are not supported"
        )
    if mu <= -5.0:
        raise OrderInsufficientError(
            f"retained corrections are valid only for mu > -5, got mu = {mu}"
        )


def _phase(mu) -> complex:
    """e^(i*pi*mu), which has no phase once pi*mu overflows."""
    return _computed("the phase e^(i*pi*mu)", {"mu": mu}, cmath.exp, 1j * math.pi * mu)


def _em_model(a, C, mu, coefs, windows):
    """(k, w-, w+, |w-|, |w+|, truncation, rounding, kept): the error model's
    choice of window, flat, so that ``errors._finite`` reads each number.

    At a window, |B_2m term| <= |coef_m| (rm^(-mu-2m+1) + rp^(-mu-2m+1)),
    rm = |w-| and rp = |w+|.  Bernoulli terms are kept while these bounds
    shrink, up to B16, and the bound on the first omitted term is the
    truncation part.  The rounding part is eps times the scale of what is
    summed, the moduli of the 2k+1 kernel terms plus those of the boundary
    terms, times the growth of a term's relative error with |mu| log|w|: the
    kernel and the complex powers form w^(-mu) as exp(-mu*log w).  To that
    it adds the rounding of y = Im a - C*j, up to eps*C|j| <= eps*(|Im a| +
    |w|), which the power turns into a relative error |mu| eps |Im a| / |w|:
    near a ladder, where |w| << |Im a|, it is the larger part.

    The truncation part falls with k and the rounding part grows, so the
    modelled error falls and then rises; the scan takes the windows in
    increasing k and stops at the first that does no better than the one
    before.  An explicit k is a scan of its one window.
    """
    best = None
    for window in windows:
        _, _, _, rm, rp = window
        em, ep = rm ** (-mu - 1.0), rp ** (-mu - 1.0)
        sm, sp = rm**-2.0, rp**-2.0
        kept, kept_sum, prev = 0, 0.0, math.inf
        for c in coefs[:_EM_TERMS]:
            truncation = abs(c) * (em + ep)
            if not truncation < prev:
                break
            kept, kept_sum, prev = kept + 1, kept_sum + truncation, truncation
            em *= sm
            ep *= sp
        else:
            truncation = abs(coefs[_EM_TERMS]) * (em + ep)
        hm, hp = rm**-mu, rp**-mu
        boundary = (hm * rm + hp * rp) / (abs(1.0 - mu) * C) + 0.5 * (hm + hp) + kept_sum
        growth = 2.0 + abs(mu) * (abs(math.log(max(rm, rp))) + math.pi)
        rounding = _EPS * growth * (_abs_sum_bound(a, C, mu, window) + boundary)
        if a.imag:
            rounding += _EPS * abs(mu) * abs(a.imag) * _abs_sum_bound(a, C, mu + 1.0, window)
        if best is not None and truncation + rounding >= best[5] + best[6]:
            break
        best = (*window, truncation, rounding, kept)
    return best


def _continued(a, C, mu, coefs, pref, S, model) -> RegularizedSum:
    """Subtract the boundary terms at the window's ends from the truncated sum S.

    pref is e^(i*pi*mu) * nu, and model is what _em_model chose.
    """
    k, wm, wp, _, _, truncation, rounding, kept = model
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
    # at an integer mu w**(-mu) multiplies out w**|mu|: an overflow is a NaN, not an error
    return RegularizedSum(
        value=_finite(pref * rest, "the root side", {"mu": mu, "k": k}),
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
    one-order call at its first offending order raises, except that a
    window that misses the rung raises with the first order, before any
    factor's model runs.  Each factor's windows are built once per call,
    and the Bernoulli coefficients and e^(i*pi*mu) once per order; the error
    model and the boundary terms stay scalar per factor and order.  Each
    factor's kernel runs once per distinct truncation, on all the orders
    that chose it.
    """
    if not orders:
        return [[] for _ in factors]
    plans = [[] for _ in factors]
    for i, mu in enumerate(orders):
        _check_em_order(mu, k)
        if i == 0:
            # q is checked after the first order, as in a one-order call
            C = vertical_spacing(q)
            offsets = [_ladder_offset(f, C, s0) for f in factors]
            windows = [_windows(a, C, k, s0) for a in offsets]
        coefs = _bernoulli_coefficients(mu, C)
        at = {"mu": mu, "s0": s0}
        for a, wins, plan in zip(offsets, windows, plans):
            plan.append((coefs, _computed("the root side", at, _em_model, a, C, mu, coefs, wins)))
    phases = [_phase(mu) for mu in orders]
    results = []
    for factor, a, plan in zip(factors, offsets, plans):
        by_k = {}
        for i, (_, (k_used, *_)) in enumerate(plan):
            by_k.setdefault(k_used, []).append(i)
        S = [0j] * len(orders)
        for k_used, rows in by_k.items():
            sums = power_sum_symmetric(a, C, [orders[i] for i in rows], k_used)
            for i, value in zip(rows, sums.tolist()):
                S[i] = value
        results.append([
            _continued(a, C, mu, coefs, phase * factor.nu, S_mu, model)
            for mu, phase, S_mu, (coefs, model) in zip(orders, phases, S, plan)
        ])
    return results


def root_side_em(factor: LambdaFactor, q, s0, mu, k=None):
    """Euler-McLaurin continued root-side sum for one factor.

    Subtracts the boundary power, the half-term and the Bernoulli terms
    B2 .. B16 (while their bounds shrink) from the symmetric truncation at k;
    valid for mu > -5 and |mu - 1| > 1e-9.  Within 1e-9 of mu = 1, where the
    (1-mu)^(-1) boundary term is singular, RemovableSingularityError is
    raised.  The window |j| <= k must reach the rung nearest s0,
    C*k >= |Im(s0 - r0)|.  An explicit k, an integer from 1 to ``_MAX_K`` =
    10^8, that does is used as given.  With k None, k is the candidate in
    _K_CANDIDATES that does with the smallest modelled error, truncation
    plus rounding (see RegularizedSum), chosen per order.  Either way InvalidInputError is
    raised when no k reaches the rung: for k None, when C*1000 < |Im(s0 - r0)|.
    mu is one order, giving a RegularizedSum, or a 1-d grid of orders,
    giving a list with one per order: the grid shares the kernel's ladder
    geometry across the orders and gives each order's result bit for bit.
    """
    orders, one = _orders(mu)
    sums = _em_sums([factor], q, _point(s0), orders, k)[0]
    return sums[0] if one else sums


def root_side_total(curve: CurveZeta, s0, mu, k=None):
    """Sum of per-factor Euler-McLaurin root-side values over the curve.

    k is passed to root_side_em for every factor; None lets each factor's
    error model choose it.  mu is one order, giving a complex, or a 1-d grid
    of orders, giving a complex ndarray.
    """
    s0 = _point(s0, min_re=1.0)
    orders, one = _orders(mu)
    totals = []
    for column in zip(*_em_sums(curve.factors, curve.q, s0, orders, k)):
        total = 0.0 + 0.0j
        for result in column:
            total += result.value
        totals.append(total)
    return totals[0] if one else np.array(totals, dtype=np.complex128)
