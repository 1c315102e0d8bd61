"""Exception hierarchy for zetaff.

All library errors derive from ZetaffError so callers can catch one type.
Numerical routines raise specific subclasses that carry enough context to
diagnose the failure (achieved bounds, residual flatness, offending input).
The argument rules the modules share are stated once here as well.
"""

import cmath
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


def _require_finite(**named) -> None:
    """Raise InvalidInputError, naming each argument, unless all are finite."""
    for value in named.values():
        if not cmath.isfinite(value):
            got = ", ".join(f"{name} = {value}" for name, value in named.items())
            raise InvalidInputError(f"expected finite numbers, got {got}")


def _is_int(value) -> bool:
    """True for an int or a NumPy integer; False for a bool or a float."""
    # int first: the ABC check alone takes 0.7 us for an int
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def _is_tol(value) -> bool:
    """True for a real number >= 0, so not NaN, which no comparison can decide."""
    return isinstance(value, numbers.Real) and value >= 0.0


def _orders(mu):
    """mu as a list of float orders, and whether it was one order or a grid."""
    orders = np.asarray(mu, dtype=np.float64)
    if orders.ndim > 1:
        raise InvalidInputError(f"mu must be one order or a 1-d grid, got shape {orders.shape}")
    return orders.reshape(-1).tolist(), orders.ndim == 0
