"""A fuzz matrix over the public API: malformed arguments raise a ZetaffError.

Each public function gets one valid call (``clim`` two: plain and profile
mode).  Each numeric, name or sequence argument of it is replaced in turn by
each value of ``_BAD``; the objects the library builds (a curve, a factor, a
counting function, a path, lemma parameters, a series control) are kept.
``_BAD`` holds malformed values (a string, None, a list, a ragged list, a
complex number, NaN, inf, an int past the doubles) and finite values at the
edge of the doubles (+-1e308, +-1e-308, +-10**20, 2**70), where what the
library computes from them can overflow or underflow.  Every call must return or
raise a ZetaffError, never a bare Python exception or a warning.

A value is checked once: where it enters the library or where the library
computes it.  The last test keeps downstream re-checks from coming back.
"""

import math

import numpy as np

import zetaff
from zetaff import (
    ClimReport,
    CountingFunction,
    CriticalLineResult,
    CurveZeta,
    LambdaFactor,
    LemmaParams,
    LemmaVerification,
    RegularizedSum,
    SampledPath,
    SeriesControl,
    ZetaffError,
    cesaro,
    deriv_side,
)

_BAD = ("x", None, [1.0], [[1.0], [1.0, 2.0]], 1j, math.nan, math.inf, 10**400,
        1e308, -1e308, 1e-308, -1e-308, 10**20, -(10**20), 2**70)

Q = 25
C = zetaff.vertical_spacing(Q)
DT = C / 16
_FACTOR = LambdaFactor(0.6, 0.7)
_CURVE = zetaff.make_curve(Q, 1, [(0.5, 0.3), (0.5, C - 0.3)])
_CF = zetaff.make_counting(1, C, [0.3, C - 0.3])
_PARAMS = LemmaParams(q=Q, sigma0=0.6, tau0=0.7, s0=5.0, t0=0.5 * DT)
_FLAT = SampledPath(0.0, 0.1, np.ones(40))
_LADDER = zetaff.ladder_path("k", _PARAMS, 60 * C, DT)
_OBJECTS = (CountingFunction, CurveZeta, LambdaFactor, LemmaParams, SampledPath, SeriesControl)

# one valid call of each public function: (function, positional args, keyword args)
_CALLS = [
    (zetaff.average_P, (_FLAT,), {}),
    (zetaff.clim, (_FLAT, 5.0, 0.5, "lower", 1, 2), dict(phase=0.0, flat_tol=1e-7)),
    (zetaff.clim, (_LADDER, 5.0, 0.6, "lower", 1, 0), dict(period=C, phase=0.7, flat_tol=1e-7)),
    (zetaff.counting_path, (_CF, "S", 10 * C, DT), {}),
    (zetaff.ladder_path, ("k", _PARAMS, 60 * C, DT), {}),
    (zetaff.lemma_closed_form, ("k2_alpha", "lower", 1, 5.0, 0.6 + 0.7j, 0.6, 0.7, C), {}),
    (zetaff.make_counting, (1, C, [0.3, C - 0.3]), {}),
    (zetaff.q_av, (_CF,), {}),
    (zetaff.q_eval, (_CF, 5.0), {}),
    (zetaff.r_critical_line, (_CF, 5.0, -2, [0.1, 0.1]), {}),
    (zetaff.r_lambda_cesaro, (_FACTOR, Q, 5.0, -1), {}),
    (zetaff.s1_av, (_CF,), {}),
    (zetaff.s1_eval, (_CF, 5.0), {}),
    (zetaff.s2_eval, (_CF, 5.0), {}),
    (zetaff.s_eval, (_CF, 5.0), {}),
    (zetaff.verify_lemma, ("k", _PARAMS, 60 * C, DT, 1e-6), {}),
    (zetaff.x_epsilon_equispaced, (0.6,), {}),
    (LambdaFactor, (0.6, 0.7, 1), {}),
    (LemmaParams, (Q, 0.6, 0.7, 5.0, "lower", 1, 0.0), {}),
    (SampledPath, (0.0, 0.1, [1.0, 2.0, 3.0]), {}),
    (SeriesControl, (20, 1e-12), {}),
    (zetaff.base_root, (_FACTOR,), {}),
    (zetaff.check_functional_equation, (_CURVE, 2.0, 1e-9), {}),
    (zetaff.eval_zeta, (_CURVE, 2.0), {}),
    (zetaff.make_curve, (Q, 1, [(0.5, 0.3), (0.5, C - 0.3)]), {}),
    (zetaff.vertical_spacing, (Q,), {}),
    (zetaff.deriv_side_factor, (Q, _FACTOR, 5.0, 0.5, SeriesControl()), {}),
    (zetaff.deriv_side_total, (_CURVE, 5.0, 0.5, SeriesControl()), {}),
    (zetaff.series_tail_bound, (0.5, 0.5, 10), {}),
    (zetaff.root_side_classical, (_FACTOR, Q, 5.0, 2.5, 10), {}),
    (zetaff.root_side_em, (_FACTOR, Q, 5.0, 0.5, 10), {}),
    (zetaff.root_side_total, (_CURVE, 5.0, 0.5, 10), {}),
]


def _variants(args, kwargs):
    """Each call of the matrix: one argument replaced by one bad value, with
    the argument's position or keyword."""
    for i, arg in enumerate(args):
        if not isinstance(arg, _OBJECTS):
            for bad in _BAD:
                yield i, bad, args[:i] + (bad,) + args[i + 1 :], kwargs
    for key in kwargs:
        for bad in _BAD:
            yield key, bad, args, {**kwargs, key: bad}


def test_malformed_arguments_raise_only_zetaff_errors():
    # every public function has its valid call; the result types are built
    # by the library, not by its callers
    results = {"ClimReport", "CriticalLineResult", "LemmaVerification", "RegularizedSum",
               "CountingFunction", "CurveZeta"}
    public = {
        name for name, value in vars(zetaff).items()
        if callable(value) and not name.startswith("_") and name not in results
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    assert public == {fn.__name__ for fn, _, _ in _CALLS}
    escapes, calls = [], 0
    for fn, args, kwargs in _CALLS:
        fn(*args, **kwargs)
        for where, bad, bad_args, bad_kwargs in _variants(args, kwargs):
            calls += 1
            try:
                fn(*bad_args, **bad_kwargs)
            except ZetaffError:
                pass
            except Exception as exc:  # noqa: BLE001 - the escapes are what is collected
                escapes.append(f"{fn.__name__} [{where}] = {bad!r:.20}: {exc!r:.100}")
    assert calls > 500
    assert escapes == [], f"{len(escapes)} escapes in {calls} calls:\n" + "\n".join(escapes)


def test_each_value_is_checked_once(monkeypatch):
    # the result types are plain records, built from checked numbers
    for result in (ClimReport, RegularizedSum, LemmaVerification, CriticalLineResult):
        assert "__post_init__" not in vars(result), result.__name__

    # the series reach the tail bound's body, not its argument checks
    def checked(*args):
        raise AssertionError("series_tail_bound re-checked its arguments")

    monkeypatch.setattr(deriv_side, "series_tail_bound", checked)
    zetaff.deriv_side_total(_CURVE, 5.0, [-1.45, 0.5, 2.6])

    # a counting path's heights are built from its checked dt and count
    calls = []
    reals = cesaro._reals

    def counted(*args, **kwargs):
        calls.append(args)
        return reals(*args, **kwargs)

    monkeypatch.setattr(cesaro, "_reals", counted)
    for kind in ("S", "tS", "t2S", "S1", "tS1", "S2"):
        zetaff.counting_path(_CF, kind, 10 * C, DT)
    assert calls == []
    zetaff.s_eval(_CF, 5.0)  # the public evaluator checks its heights
    assert len(calls) == 1

    # a profile clim reads the samples its path checked when it was built,
    # and checks only its fits
    checked = []
    finite = cesaro._finite

    def recorded(value, *args):
        checked.append(value)
        return finite(value, *args)

    monkeypatch.setattr(cesaro, "_finite", recorded)
    zetaff.clim(_LADDER, 5.0, 0.6, "lower", 1, 0, period=C, phase=0.7)
    assert checked
    assert not any(np.shares_memory(value, _LADDER.samples) for value in checked)
