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
A grid is checked order by order, as one-order calls would be, and the
error model runs once per call, as one array over factors x orders x
candidate windows; the orders of a factor that chose the same k then share
one kernel call, which computes the ladder geometry once for all of them.
Each order's result is bitwise that of a one-order call.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._kernels import power_sum_symmetric
from .curve_model import CurveZeta, LambdaFactor, vertical_spacing
from .errors import (
    InvalidInputError,
    OrderInsufficientError,
    RemovableSingularityError,
    WrongRegimeError,
    ZetaffError,
    _computed,
    _finite,
    _finite_rows,
    _order_totals,
    _orders,
    _point,
    _record,
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

#: Bernoulli terms kept at most, B2 .. B16; the B18 bound is then the
#: truncation error
_EM_TERMS = 8

#: 2m and |B_(2m+2)|(2m)! / (|B_2m|(2m+2)!) for m = 1 .. 8, as columns
_EVEN = np.arange(2.0, 2.0 * _EM_TERMS + 1.0, 2.0)[:, None]
_RATIOS = np.array([_BERNOULLI[m] / _BERNOULLI[m - 1] for m in range(1, 9)])[:, None]

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
    a = s0 - complex(factor.sigma0, factor.tau0)
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
    _record(factor, LambdaFactor, "factor")
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
    """(mu)_(2m-1) C^(2m-1) |B_2m|/(2m)! for m = 1 .. 9, that is B2 .. B18,
    one row per m and one column per order of the array mu.

    The B_2m term of the continuation is i times this coefficient times
    w-^(-mu-2m+1) - w+^(-mu-2m+1).  Each coefficient is the one before times
    (mu + 2m - 1)(mu + 2m) C^2 |B_(2m+2)|(2m)!/(|B_2m|(2m+2)!).  Past the
    doubles a coefficient is inf or NaN, which the error model reports.
    """
    with np.errstate(all="ignore"):
        even = mu + _EVEN  # mu + 2m, m = 1 .. 8
        coefs = np.empty((_EM_TERMS + 1, len(mu)))
        coefs[0] = mu * C * _BERNOULLI[0]
        coefs[1:] = (even - 1) * even * _RATIOS * C * C
        return np.multiply.accumulate(coefs, out=coefs)


def _windows(a, C, k, s0):
    """(k, w-, w+, |w-|, |w+|) of each window |j| <= k of one factor, in
    increasing k, and the index of the first that reaches the rung nearest s0.

    The error model holds only where the window reaches that rung,
    C*k >= |Im a|: beyond it a tail's terms first grow toward that rung, and
    the first omitted Bernoulli term at k understates the remainder.  So the
    windows are those of the given k, or of the candidates, and the model
    chooses among those that reach it; if none does the call raises.  The
    moduli are taken with math.hypot: abs(w) can differ from it in the last
    bit, which est_error would show.
    """
    given = _K_CANDIDATES if k is None else (int(k),)
    first = next((i for i, c in enumerate(given) if C * c >= abs(a.imag)), None)
    if first is None:
        raise InvalidInputError(
            f"k = {given[-1]} misses the rung nearest s0 = {s0}: C*k < |Im(s0 - r0)|"
        )
    ends = [(c, a - 1j * C * c, a + 1j * C * c) for c in given]
    return [(c, wm, wp, math.hypot(wm.real, wm.imag), math.hypot(wp.real, wp.imag))
            for c, wm, wp in ends], first


def _abs_sum_bound(x, rmin, C, p, k, lo, hi):
    """Closed-form bound on sum_{j=-k..k} |a - i*C*j|^(-mu) over a window, p = -mu.

    x = |Re a| and rmin = |a - i*C*j0| at the rung j0 nearest s0, per factor;
    k and the window ends lo = Im w- and hi = Im w+, per factor and window;
    p per order.  They broadcast, and so does the bound.  With t_j = Im a -
    C*j, |w_j| lies between max(x, |t_j|) and x + |t_j|.  For p >= 0 the
    terms (x + |t|)^p form a valley in t, so their grid sum is at most the
    integral over [t_k, t_-k] divided by C plus the two end values.  For
    p < 0 the terms peak at the nearest rung j0, which the window reaches
    (C*k >= |Im a|, see ``_windows``; so t_k = lo <= 0 <= hi = t_-k); every
    other rung has |t_j| >= C*(|j - j0| - 1/2), so the rest is at most twice
    a decreasing sum of max(x, u)^p, bounded by its first term plus an
    integral.  Both forms are evaluated everywhere and the sign of p picks
    one, so the caller silences the floating-point errors of the other.
    """
    e = p + 1.0
    # int_0^T (x + u)^p du at T = -lo and T = hi, where x + T = x + |T|
    xl, xh, xe = x + abs(lo), x + abs(hi), x**e
    valley = ((xl**e - xe) / e + (xh**e - xe) / e) / C + xl**p + xh**p
    u0, u1 = C / 2.0, C * (2 * k + 1)
    x0 = np.maximum(x, u0)
    # int_u0^u1 max(x, u)^p du: flat up to x, a power beyond
    tail = np.where(x > u0, (np.minimum(x, u1) - u0) * x**p, 0.0)
    span = np.log(u1 / x0)
    power = x0**e * np.where(e != 0.0, np.expm1(e * span) / e, span)
    tail = np.where(u1 > x0, tail + power, tail)
    peak = rmin**p + 2.0 * (x0**p + tail / C)
    return np.where(p >= 0.0, valley, peak)


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


def _em_model(offsets, C, mu, coefs, windows, s0):
    """The error model's choice of window at each factor and order: one list
    per factor of (window, truncation, rounding, kept) per order.

    One array expression over factors x orders x windows.  At a window,
    |B_2m term| <= |coef_m| (rm^(-mu-2m+1) + rp^(-mu-2m+1)), rm = |w-| and
    rp = |w+|.  Bernoulli terms are kept while these bounds shrink, up to
    B16, and the bound on the first omitted term is the truncation part.
    The rounding part is eps times the scale of what is summed, the moduli
    of the 2k+1 kernel terms plus those of the boundary terms, times the
    growth of a term's relative error with |mu| log|w|: the kernel and the
    complex powers form w^(-mu) as exp(-mu*log w).  To that it adds the
    rounding of y = Im a - C*j, up to eps*C|j| <= eps*(|Im a| + |w|), which
    the power turns into a relative error |mu| eps |Im a| / |w|: near a
    ladder, where |w| << |Im a|, it is the larger part.

    The truncation part falls with k and the rounding part grows, so the
    modelled error falls and then rises; the scan takes the windows that
    reach the rung in increasing k and stops at the first that does no
    better than the one before.  An explicit k is a scan of its one window.
    Windows that miss the rung are masked out of the scan.

    Each element takes the scalar model's operations in the scalar model's
    order, so k and the Bernoulli terms kept are those of a scalar scan;
    NumPy's power, log and expm1 can round the two error parts differently
    from math's in the last bit.  They give an element the same bits
    wherever it sits in the batch, so a grid gives each order what a
    one-order call gives.  A window the scan reaches whose modelled error is
    not finite raises InvalidInputError (``errors._finite``) at the first
    order that has one.
    """
    if not windows:
        return []
    F, M, W = len(windows), len(mu), len(windows[0][0])
    # the windows' geometry, (factor, 1, window), and the factors', (factor, 1, 1)
    geometry = np.array([[(c, rm, rp, wm.imag, wp.imag) for c, wm, wp, rm, rp in wins]
                         for wins, _ in windows]).transpose(2, 0, 1)[:, :, None, :]
    k, rm, rp, lo, hi = geometry
    R = geometry[1:3]
    valid = np.arange(W) >= np.array([first for _, first in windows])[:, None, None]
    x, imag, rmin = np.array([(abs(a.real), a.imag, abs(a - 1j * C * round(a.imag / C)))
                              for a in offsets]).T[:, :, None, None]
    mu = mu[None, :, None]
    cells = np.arange(F * M * W).reshape(F, M, W)
    with np.errstate(all="ignore"):
        # the bounds of B2 .. B18 in the rows of one array, per end of the
        # window: w^(-mu-2m+1) from w^(-mu-1) by repeated multiplication by
        # |w|^-2; the bounds and their partial sums then reuse the buffer
        powers = np.empty((2, _EM_TERMS + 1, F, M, W))
        powers[:, 0] = R ** (-mu - 1.0)
        powers[:, 1:] = R[:, None] ** -2.0
        np.multiply.accumulate(powers, axis=1, out=powers)
        bounds, sums = np.add(powers[0], powers[1], out=powers[0]), powers[1]
        bounds *= np.abs(coefs)[:, None, :, None]
        shrinking = np.empty((_EM_TERMS, F, M, W), dtype=bool)
        shrinking[0] = bounds[0] < math.inf
        np.less(bounds[1:_EM_TERMS], bounds[:_EM_TERMS - 1], out=shrinking[1:])
        kept = np.logical_and.accumulate(shrinking, out=shrinking).sum(axis=0)
        truncation = bounds.take(kept * cells.size + cells)
        sums[0] = 0.0
        np.cumsum(bounds[:_EM_TERMS], axis=0, out=sums[1:])
        kept_sum = sums.take(kept * cells.size + cells)

        H = R**-mu
        boundary = (H[0] * rm + H[1] * rp) / (abs(1.0 - mu) * C) + 0.5 * (H[0] + H[1]) + kept_sum
        growth = 2.0 + abs(mu) * (abs(np.log(np.maximum(rm, rp))) + math.pi)
        bound, shifted = _abs_sum_bound(x, rmin, C, np.stack([-mu, -(mu + 1.0)]), k, lo, hi)
        rounding = _EPS * growth * (bound + boundary)
        rounding = np.where(imag != 0.0, rounding + _EPS * abs(mu) * abs(imag) * shifted, rounding)

        error = truncation + rounding
        # the scan stops at window w when window w + 1, which it reaches, does
        # no better; past the last window it stops anyway
        stops = np.ones((F, M, W), dtype=bool)
        np.greater_equal(error[..., 1:], error[..., :-1], out=stops[..., :-1])
        stops[..., :-1] &= valid[..., :-1]
        chosen = stops.argmax(axis=-1)
        reached = valid & (np.arange(W) <= chosen[..., None] + 1)
    # the modelled error of each window the scan reaches, one row per order
    _finite_rows(np.where(reached, error, 0.0).swapaxes(0, 1), "the root side",
                 lambda i: {"mu": float(mu[0, i, 0]), "s0": s0})
    pick = cells[..., 0] + chosen
    rows = [chosen.tolist()] + [v.take(pick).tolist() for v in (truncation, rounding, kept)]
    return [[(wins[i], t, r, n) for i, t, r, n in zip(*plan)]
            for (wins, _), *plan in zip(windows, *rows)]


def _continued(a, C, mu, coefs, pref, S, model) -> RegularizedSum:
    """Subtract the boundary terms at the window's ends from the truncated sum S.

    pref is e^(i*pi*mu) * nu, coefs the order's Bernoulli coefficients, and
    model what _em_model chose.
    """
    (k, wm, wp, _, _), truncation, rounding, kept = model
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

    The orders are checked one at a time, in order, and the orders before
    the first that fails its check are modelled before it raises, so a grid
    raises what a one-order call at its first offending order raises, except
    that a window that misses the rung raises with the first order, before
    the model runs.  Each factor's windows are built once per call, the
    Bernoulli coefficients and e^(i*pi*mu) once per order, and the error
    model runs once, on all factors and orders; the boundary terms stay
    scalar per factor and order.  Each factor's kernel runs once per
    distinct truncation, on all the orders that chose it.
    """
    if not orders:
        return [[] for _ in factors]
    _check_em_order(orders[0], k)
    # q is checked after the first order, as in a one-order call
    C = vertical_spacing(q)
    offsets = [_ladder_offset(f, C, s0) for f in factors]
    windows = [_windows(a, C, k, s0) for a in offsets]
    mus = np.array(orders)
    coefs = _bernoulli_coefficients(mus, C)
    checked = 1
    try:
        for mu in orders[1:]:
            _check_em_order(mu, k)
            checked += 1
    except ZetaffError:
        # an earlier order whose model overflows raises first
        _em_model(offsets, C, mus[:checked], coefs[:, :checked], windows, s0)
        raise
    models = _em_model(offsets, C, mus, coefs, windows, s0)
    coefs = coefs.T.tolist()
    phases = [_phase(mu) for mu in orders]
    results = []
    for factor, a, plan in zip(factors, offsets, models):
        by_k = {}
        for i, ((k_used, *_), *_) in enumerate(plan):
            by_k.setdefault(k_used, []).append(i)
        S = [0j] * len(orders)
        for k_used, rows in by_k.items():
            sums = power_sum_symmetric(a, C, [orders[i] for i in rows], k_used)
            for i, value in zip(rows, sums.tolist()):
                S[i] = value
        results.append([
            _continued(a, C, mu, c, phase * factor.nu, S_mu, model)
            for mu, c, phase, S_mu, model in zip(orders, coefs, phases, S, plan)
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
    _record(factor, LambdaFactor, "factor")
    orders, one = _orders(mu)
    sums = _em_sums([factor], q, _point(s0), orders, k)[0]
    return sums[0] if one else sums


def root_side_total(curve: CurveZeta, s0, mu, k=None):
    """Sum of per-factor Euler-McLaurin root-side values over the curve.

    k is passed to root_side_em for every factor; None lets each factor's
    error model choose it.  mu is one order, giving a complex, or a 1-d grid
    of orders, giving a complex ndarray.  A curve of no factors sums to 0j.
    """
    _record(curve, CurveZeta, "curve")
    s0 = _point(s0, min_re=1.0)
    orders, one = _orders(mu)
    sums = _em_sums(curve.factors, curve.q, s0, orders, k)
    return _order_totals(([result.value for result in row] for row in sums), orders, one)
