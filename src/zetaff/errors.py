"""Exception hierarchy for zetaff.

All library errors derive from ZetaffError so callers can catch one type.
Numerical routines raise specific subclasses that carry enough context to
diagnose the failure (achieved bounds, residual flatness, offending input).
The rules the modules share, for arguments and computed values, are stated once here as well.
"""

import cmath
import math
import numbers

import numpy as np


class ZetaffError(Exception):
    """Base class for all zetaff errors."""


class InvalidInputError(ZetaffError):
    """Malformed or out-of-domain input (bad q, wrong counts, bad grids)."""


class ValidationError(ZetaffError):
    """A structural invariant failed (closure of the factor set, symmetry)."""


class PoleEvaluationError(ZetaffError):
    """Zeta evaluation was requested at (or too near) a pole."""


class DivergentSeriesError(ZetaffError):
    """The derivative-side series does not converge for these inputs."""


class TailBudgetError(ZetaffError):
    """Series truncation cannot meet the requested tail tolerance.

    The achieved bound is stored in ``achieved``.
    """

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = float(achieved)


class WrongRegimeError(ZetaffError):
    """A classical sum was requested where only the continuation is valid."""


class RemovableSingularityError(ZetaffError):
    """mu = 1 hits the removable singularity of the boundary term."""


class OrderInsufficientError(ZetaffError):
    """mu is too negative for the retained correction order."""


class NoClimError(ZetaffError):
    """A Clim found no classical limit it could trust.

    ``residual_flatness`` records the measure that refused it: in plain mode
    the tail flatness of the last stage, after max_p averagings; in profile
    mode the weighted fit residual in the period index, or the phase fit's
    miss of the profiles at the highest degree tried, or inf for a path too
    short to fit; for either route, the rounding carried to z = 0 when that
    exceeds its bound.
    """

    def __init__(self, message, residual_flatness):
        super().__init__(message)
        self.residual_flatness = float(residual_flatness)


class UnsupportedMuError(ZetaffError):
    """mu outside the finite set supported by a closed-form routine."""


def _is_finite(value) -> bool:
    """True for a finite real number, a NumPy scalar included; False for NaN,
    inf, a complex number and anything that is not a number, such as a
    string, None or a list."""
    try:  # math.isfinite would read a NumPy complex by its real part
        return not isinstance(value, (complex, np.complexfloating)) and math.isfinite(value)
    except (TypeError, OverflowError):  # OverflowError: an int past the doubles
        return False


def _require_finite(**named) -> None:
    """Raise InvalidInputError, naming each argument, unless all are finite
    real numbers (see ``_is_finite``)."""
    for value in named.values():
        if not _is_finite(value):
            got = ", ".join(f"{name} = {value!r}" for name, value in named.items())
            raise InvalidInputError(f"expected finite numbers, got {got}")


def _point(value, name="s0", min_re=-math.inf) -> complex:
    """value, a point such as s0, r0 or s, as a finite complex whose real part
    exceeds min_re, or InvalidInputError naming the argument; a string is no
    point, though complex() would parse it.  The totals and the Cesaro values
    take min_re = 1: there Re(s0) must exceed 1."""
    try:
        point = None if isinstance(value, str) else complex(value)
    except (TypeError, ValueError, OverflowError):
        point = None
    if point is None or not cmath.isfinite(point):
        raise InvalidInputError(f"expected finite numbers, got {name} = {value!r}")
    if not point.real > min_re:
        raise InvalidInputError(f"Re({name}) must exceed {min_re:g}, got {point.real!r}")
    return point


def _require_range(value, name, lo, hi=math.inf, lo_open=False) -> None:
    """Raise InvalidInputError naming the argument unless value is a finite
    real number in [lo, hi], or in (lo, hi] with ``lo_open``."""
    if not (_is_finite(value) and (lo < value <= hi if lo_open else lo <= value <= hi)):
        where = f"{'>' if lo_open else '>='} {lo:g}" + (f" and <= {hi:g}" if hi < math.inf else "")
        raise InvalidInputError(f"{name} must be a finite real number {where}, got {value!r}")


def _record(value, cls, name):
    """value, unless it is no ``cls``, a record the library defines (a curve,
    a factor, a path, ...): then InvalidInputError naming the argument, where
    reading its fields would raise a bare AttributeError."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _is_int(value) -> bool:
    """True for an int or a NumPy integer; False for a bool or a float."""
    # int first: the ABC check alone takes 0.7 us for an int
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def _require_int(value, name, lo, hi=math.inf, why="") -> None:
    """Raise InvalidInputError naming the argument unless value is an integer
    (see ``_is_int``) in [lo, hi]; ``why`` says where a finite hi comes from."""
    if not (_is_int(value) and lo <= value <= hi):
        where = f">= {lo}" if hi == math.inf else f"from {lo} to {hi:_}{why}"
        raise InvalidInputError(f"{name} must be an integer {where}, got {value!r}")


def _is_tol(value) -> bool:
    """True for a real number >= 0 that converts to a double, inf included;
    so not NaN, which no comparison can decide, nor an int past the doubles."""
    try:
        return isinstance(value, numbers.Real) and float(value) >= 0.0
    except OverflowError:
        return False


def _require_tol(value, name) -> None:
    """Raise InvalidInputError naming the argument unless _is_tol(value)."""
    if not _is_tol(value):
        raise InvalidInputError(f"{name} must be a number >= 0, got {value!r}")


def _floats(values, name, width=None, count=None) -> list:
    """values, a sequence of finite real numbers, as a list of floats; with a
    width, a sequence of width-tuples of them, as a list of tuples of floats;
    with a count, exactly that many.  Anything else, a string or NumPy
    complex numbers included, raises InvalidInputError naming the argument."""
    try:  # float() would read a NumPy complex by its real part
        rows = None if isinstance(values, str) or np.iscomplexobj(values) else [
            float(v) if width is None else tuple(map(float, v)) for v in values]
    except (TypeError, ValueError, OverflowError):
        rows = None
    if (rows is None or (width is not None and any(len(row) != width for row in rows))
            or not np.isfinite(rows).all()):
        what = "real numbers" if width is None else f"{width}-tuples of real numbers"
        raise InvalidInputError(f"{name} must be a sequence of finite {what}, got {values!r}")
    if count is not None and len(rows) != count:
        raise InvalidInputError(f"expected {count} {name}, got {len(rows)}")
    return rows


def _reals(values, name):
    """values, a real number or an array of them, as a float64 ndarray, or
    InvalidInputError naming the argument (for a string, a complex number or
    an int past the doubles too)."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged sequence
        array = np.asarray(None)
    if array.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be a real number or an array of them, got {values!r}")
    return array.astype(np.float64, copy=False)


def _orders(mu):
    """mu as a list of float orders, and whether it was one order or a grid."""
    orders = _reals(mu, "mu")
    if orders.ndim > 1:
        raise InvalidInputError(f"mu must be one order or a 1-d grid, got shape {orders.shape}")
    return orders.reshape(-1).tolist(), orders.ndim == 0


def _order_totals(rows, orders, one):
    """Each order's total over rows, one row per factor with a value per
    order, added from 0j in row order, so no rows total 0j: a complex for
    one order, else a complex ndarray, as ``_orders`` told."""
    totals = [0j] * len(orders)
    for row in rows:
        totals = [total + value for total, value in zip(totals, row)]
    return totals[0] if one else np.array(totals, dtype=np.complex128)


def _finite(value, what="samples", at=None):
    """value, an ndarray, a number or a dict of numbers, unless one is NaN or
    inf: then InvalidInputError says that ``what`` must be finite, or,
    computed from the inputs ``at`` (a dict by name), overflows a double at
    them.  This runs once per factor and order, so a scalar takes
    cmath.isfinite and the message is formatted only on failure; a complex
    array is tested by its real and imaginary parts, which is faster than
    a complex isfinite."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            finite = np.isfinite(value.real).all() and np.isfinite(value.imag).all()
        else:
            finite = np.isfinite(value).all()
    elif isinstance(value, dict):
        finite = all(map(cmath.isfinite, value.values()))
    else:
        finite = cmath.isfinite(value)
    if finite:
        return value
    if at is None:
        raise InvalidInputError(f"{what} must be finite")
    where = ", ".join(f"{name} = {x}" for name, x in at.items())
    raise InvalidInputError(f"{what} overflows a double at {where}")


def _finite_rows(values, what, at):
    """values, an ndarray, unless a row (an index of its first axis) holds a
    NaN or inf: then _finite raises for the first such row i, computed from
    the inputs at(i)."""
    rows = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    if not rows.all():
        _finite(math.nan, what, at(int(rows.argmin())))
    return values


def _computed(what, at, fn, *args):
    """_finite(fn(*args), what, at), where fn raising OverflowError (a power
    or exp past the doubles), ZeroDivisionError (by a divisor that underflowed
    to 0) or ValueError (cmath.exp at an infinite phase) counts as a NaN."""
    try:
        value = fn(*args)
    except (OverflowError, ZeroDivisionError, ValueError):
        value = math.nan
    return _finite(value, what, at)
