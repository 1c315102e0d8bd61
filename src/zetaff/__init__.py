"""zetaff: generalised root identities for zeta functions of curves over
finite fields.

The library represents such a zeta function by its lambda-factor data,
computes the derivative side of the generalised root identities from the
Euler-product series, the root side by Euler-McLaurin continuation, and the
mu in {0, -1, -2} values by generalized Cesaro limits, including the
critical-line counting pipeline that yields r(s0, -2) = X_epsilon.
"""

from .cesaro import (
    ClimReport,
    CountingFunction,
    CriticalLineResult,
    LemmaParams,
    LemmaVerification,
    SampledPath,
    average_P,
    clim,
    counting_path,
    ladder_path,
    lemma_closed_form,
    make_counting,
    q_av,
    q_eval,
    r_critical_line,
    r_lambda_cesaro,
    s1_av,
    s1_eval,
    s2_eval,
    s_eval,
    verify_lemma,
    x_epsilon_equispaced,
)
from .curve_model import (
    CurveZeta,
    LambdaFactor,
    base_root,
    check_functional_equation,
    eval_zeta,
    make_curve,
    vertical_spacing,
)
from .deriv_side import SeriesControl, deriv_side_factor, deriv_side_total, series_tail_bound
from .errors import (
    DivergentSeriesError,
    InvalidInputError,
    NoClimError,
    OrderInsufficientError,
    PoleEvaluationError,
    RemovableSingularityError,
    TailBudgetError,
    UnsupportedMuError,
    ValidationError,
    WrongRegimeError,
    ZetaffError,
)
from .root_side import (
    RegularizedSum,
    root_side_classical,
    root_side_em,
    root_side_total,
)

__version__ = "0.1.0"

#: name of the power-sum kernel; benchmark run records report it
BACKEND = "numpy"
