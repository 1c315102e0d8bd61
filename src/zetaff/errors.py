"""Exception hierarchy for zetaff.

All library errors derive from ZetaffError so callers can catch one type.
Numerical routines raise specific subclasses that carry enough context to
diagnose the failure (achieved bounds, residual flatness, offending input).
The argument rules the modules share are stated once here as well.
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
    """The averaged path never flattened within the allowed P power.

    ``residual_flatness`` records the tail variation at the best stage.
    """

    def __init__(self, message, residual_flatness):
        super().__init__(message)
        self.residual_flatness = float(residual_flatness)


class UnsupportedMuError(ZetaffError):
    """mu outside the finite set supported by a closed-form routine."""


def _is_finite(value, real=False) -> bool:
    """True for a finite number, with ``real`` a finite real one, a NumPy
    scalar included; False for NaN, inf and anything that is not a number,
    such as a string, None or a list."""
    try:
        return math.isfinite(value) if real else cmath.isfinite(value)
    except (TypeError, OverflowError):  # OverflowError: an int past the doubles
        return False


def _require_finite(**named) -> None:
    """Raise InvalidInputError, naming each argument, unless all are finite
    numbers (see ``_is_finite``)."""
    for value in named.values():
        if not _is_finite(value):
            got = ", ".join(f"{name} = {value}" for name, value in named.items())
            raise InvalidInputError(f"expected finite numbers, got {got}")


def _is_int(value) -> bool:
    """True for an int or a NumPy integer; False for a bool or a float."""
    # int first: the ABC check alone takes 0.7 us for an int
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def _is_tol(value) -> bool:
    """True for a real number >= 0, so not NaN, which no comparison can decide."""
    return isinstance(value, numbers.Real) and value >= 0.0


def _complex(value, name) -> complex:
    """value as a complex, or InvalidInputError naming the argument when it
    is not a number (a string included, which complex() would parse)."""
    if not isinstance(value, str):
        try:
            return complex(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidInputError(f"{name} must be a number, got {value!r}")


def _floats(values, name, width=None) -> list:
    """values, a sequence of real numbers, as a list of floats; with a width,
    a sequence of width-tuples of them, as a list of tuples of floats.
    Anything else, a string included, raises InvalidInputError naming the
    argument."""
    rows = None
    if not isinstance(values, str):
        try:
            rows = [float(v) if width is None else tuple(map(float, v)) for v in values]
        except (TypeError, ValueError, OverflowError):
            pass
    if rows is None or (width is not None and any(len(row) != width for row in rows)):
        what = "real numbers" if width is None else f"{width}-tuples of real numbers"
        raise InvalidInputError(f"{name} must be a sequence of {what}, got {values!r}")
    return rows


def _orders(mu):
    """mu as a list of float orders, and whether it was one order or a grid."""
    try:
        orders = np.asarray(mu, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"mu must be a real order or a 1-d grid of them, got {mu!r}"
        ) from None
    if orders.ndim > 1:
        raise InvalidInputError(f"mu must be one order or a 1-d grid, got shape {orders.shape}")
    return orders.reshape(-1).tolist(), orders.ndim == 0
