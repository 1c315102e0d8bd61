"""Zeta functions of curves over finite fields in factored form.

A curve zeta function over F_q with genus g is represented as

    zeta(s) = prod over factors (1 - lambda * q^(-s))^nu

where each lambda = q^(sigma0) * exp(i * theta0) contributes a vertical
ladder of generalised roots r_j = sigma0 + i*(tau0 + C*j), tau0 = theta0/ln q,
with spacing C = 2*pi/ln q.  The two pole factors lambda = 1 and lambda = q
carry nu = -1; the 2g root factors carry nu = +1.

The factor multiset of a valid curve is closed under lambda -> q/lambda
(functional equation) and under complex conjugation of lambda (real
coefficients of the numerator polynomial).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InvalidInputError, PoleEvaluationError, ValidationError
from .errors import _computed, _finite, _floats, _is_int, _point, _record
from .errors import _require_int, _require_range, _require_tol

_CLOSURE_TOL = 1e-12


def _is_prime_power(n: int) -> bool:
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return True  # n itself is prime


def vertical_spacing(q) -> float:
    """Return the root spacing C = 2*pi/ln q for a prime power q."""
    if not _is_int(q):
        # a float is rejected even when integral: q is a prime power by definition
        raise InvalidInputError(f"q must be an integer prime power, got {q!r}")
    if q < 2 or not _is_prime_power(q):
        raise InvalidInputError(f"q must be a prime power >= 2, got {q}")
    return 2.0 * math.pi / math.log(q)


@dataclass(frozen=True)
class LambdaFactor:
    """One factor (1 - lambda*q^(-s))^nu with lambda = q^sigma0 * e^(i*theta0).

    sigma0 is the real part of the root ladder, tau0 = theta0/ln q its base
    imaginary part in [0, C), and nu is +1 for roots, -1 for the two poles.
    """

    sigma0: float
    tau0: float
    nu: int = 1

    def __post_init__(self):
        _require_range(self.sigma0, "sigma0", 0.0, 1.0)
        _require_range(self.tau0, "tau0", 0.0)
        if not (_is_int(self.nu) and self.nu in (-1, 1)):
            raise InvalidInputError(f"nu must be +1 or -1, got {self.nu}")
        if self.nu == -1 and not (
            self.tau0 == 0.0 and self.sigma0 in (0.0, 1.0)
        ):
            raise InvalidInputError(
                "nu = -1 is reserved for the pole factors (0, 0) and (1, 0)"
            )


@dataclass(frozen=True)
class CurveZeta:
    """A curve zeta function: q, genus, and the factor multiset.

    Checked on construction, as far as the functions that read a curve need:
    q is an integer prime power, genus an integer >= 0 and factors a tuple
    of ``LambdaFactor``; otherwise InvalidInputError is raised.  The closure
    of the factor set and its pole factors are ``make_curve``'s to check and
    append, so a curve built directly may lack them.
    """

    q: int
    genus: int
    factors: tuple

    def __post_init__(self):
        vertical_spacing(self.q)
        _require_int(self.genus, "genus", 0)
        for factor in _record(self.factors, tuple, "factors"):
            _record(factor, LambdaFactor, "each factor")

    @property
    def C(self) -> float:
        return vertical_spacing(self.q)

    def root_factors(self) -> tuple:
        return tuple(f for f in self.factors if f.nu == 1)


def _match_and_remove(pool, sigma0, tau0, C):
    """Remove one (sigma0, tau0) entry from pool within tolerance; None if absent."""
    for i, (s, t) in enumerate(pool):
        dt = abs(t - tau0)
        dt = min(dt, C - dt)  # tau0 is C-periodic
        if abs(s - sigma0) <= _CLOSURE_TOL and dt <= _CLOSURE_TOL:
            pool.pop(i)
            return True
    return False


def _check_closure(base, C, map_pair, label):
    pool = list(base)
    for s, t in base:
        ms, mt = map_pair(s, t)
        if not _match_and_remove(pool, ms, mt, C):
            raise ValidationError(
                f"factor (sigma0={s}, tau0={t}) has no {label} partner "
                f"(sigma0={ms}, tau0={mt})"
            )


def _check_conjugation(base, C):
    """Check that (sigma0, tau0) pairs are closed under conjugation of lambda."""
    _check_closure(base, C, lambda s, t: (s, (C - t) % C), "conjugation")


def make_curve(q, genus, base_roots) -> CurveZeta:
    """Build and validate a CurveZeta from 2*genus (sigma0, tau0) pairs.

    tau0 values are normalized into [0, C).  The root multiset must be closed
    under lambda -> q/lambda, i.e. (sigma0, tau0) -> (1 - sigma0, (C - tau0) mod C),
    and under conjugation (sigma0, tau0) -> (sigma0, (C - tau0) mod C).  The two
    pole factors are appended automatically.
    """
    C = vertical_spacing(q)
    _require_int(genus, "genus", 0)
    # finite pairs: a NaN tau0 would fail closure as a missing partner; each
    # factor checks its sigma0
    roots = tuple(LambdaFactor(s, t % C, 1)
                  for s, t in _floats(base_roots, "base roots", width=2, count=2 * genus))
    norm = [(f.sigma0, f.tau0) for f in roots]
    _check_closure(norm, C, lambda s, t: (1.0 - s, (C - t) % C), "q/lambda")
    _check_conjugation(norm, C)

    poles = (LambdaFactor(0.0, 0.0, -1), LambdaFactor(1.0, 0.0, -1))
    return CurveZeta(q=int(q), genus=int(genus), factors=roots + poles)


def base_root(factor: LambdaFactor) -> complex:
    """Return r0 = sigma0 + i*tau0, the ladder root with Im in [0, C)."""
    _record(factor, LambdaFactor, "factor")
    return complex(factor.sigma0, factor.tau0)


def _factor_lambda(factor: LambdaFactor, q) -> complex:
    theta0 = factor.tau0 * math.log(q)
    return q**factor.sigma0 * cmath.exp(1j * theta0)


def eval_zeta(curve: CurveZeta, s) -> complex:
    """Evaluate the factored zeta at a finite s (raises at poles, and where
    q^(-s) or the product leaves the doubles)."""
    _record(curve, CurveZeta, "curve")
    s = _point(s, "s")
    qs = _computed("q^(-s)", {"s": s}, cmath.exp, -s * math.log(curve.q))
    value = 1.0 + 0.0j
    for f in curve.factors:
        base = 1.0 - _factor_lambda(f, curve.q) * qs
        if f.nu == -1:
            if abs(base) < 1e-12:
                raise PoleEvaluationError(f"s = {s} is a pole (factor {f})")
            value /= base
        else:
            value *= base
    return _finite(value, "zeta(s)", {"s": s})


def check_functional_equation(curve: CurveZeta, s, tol):
    """Check zeta(1-s) = q^((1-g)(1-2s)) * zeta(s).

    Returns (ok, residual) where residual = |zeta(1-s) - q^((1-g)(1-2s))*zeta(s)|
    and ok means residual <= tol * (1 + |zeta(s)| + |zeta(1-s)|).  Both sides
    appear in the scale because for genus != 1 the factor q^((1-g)(1-2s)) can
    be very large, putting the attainable absolute residual far above
    tol * (1 + |zeta(s)|) at double precision.
    """
    _require_tol(tol, "tol")
    s = _point(s, "s")
    left = eval_zeta(curve, 1.0 - s)
    zs = eval_zeta(curve, s)
    scale = _computed("q^((1-g)(1-2s))", {"s": s},
                      cmath.exp, (1 - curve.genus) * (1 - 2 * s) * math.log(curve.q))
    residual = abs(left - scale * zs)
    return residual <= tol * (1.0 + abs(zs) + abs(left)), residual
