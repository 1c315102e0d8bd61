"""Tests for the generalized Cesaro machinery.

The numeric clim is validated against analytically known limits; the
closed-form lemma table is validated against the numeric clim on exactly
sampled ladder paths; the counting pipeline is validated against trapezoid
quadrature and the analytic period means.
"""

import collections
import functools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaff import (
    InvalidInputError,
    LemmaParams,
    NoClimError,
    SampledPath,
    SeriesControl,
    UnsupportedMuError,
    ValidationError,
    ZetaffError,
    average_P,
    check_functional_equation,
    clim,
    counting_path,
    deriv_side_factor,
    deriv_side_total,
    eval_zeta,
    ladder_path,
    lemma_closed_form,
    make_counting,
    make_curve,
    q_av,
    q_eval,
    r_critical_line,
    r_lambda_cesaro,
    root_side_em,
    root_side_total,
    s1_av,
    s1_eval,
    s2_eval,
    s_eval,
    series_tail_bound,
    verify_lemma,
    vertical_spacing,
    x_epsilon_equispaced,
)
from zetaff import cesaro
from zetaff.cesaro import (
    LEMMA_SYMBOLS,
    SYMBOL_DEGREE,
    _ladder_block,
    _ladder_partial_limit,
)
from zetaff.cli import EXIT_INVALID, main
from zetaff.curve_model import LambdaFactor

Q = 25
C = vertical_spacing(Q)
DT = C / 128.0
S0 = 5.1238
SIGMA0 = 0.6
TAU0 = 0.7


def params(direction="lower", tau0=TAU0, t0=0.0):
    return LemmaParams(q=Q, sigma0=SIGMA0, tau0=tau0, s0=S0, direction=direction, t0=t0)


# ---------------------------------------------------------------- average_P


def test_average_p_constant():
    path = SampledPath(0.0, 0.1, np.full(500, 2.5 + 1.5j))
    out = average_P(path)
    assert np.allclose(out.samples, 2.5 + 1.5j, atol=1e-14)


def test_average_p_linear_is_halved():
    t = 0.05 * np.arange(2000)
    path = SampledPath(0.0, 0.05, t.astype(complex))
    out = average_P(path)
    # trapezoid quadrature is exact for linear integrands
    assert np.allclose(out.samples[1:], 0.5 * t[1:], atol=1e-12)
    assert out.samples[0] == 0.0


def test_average_p_oscillation_decays():
    dt = 0.01
    t = dt * np.arange(200000)
    path = SampledPath(0.0, dt, np.sin(3.0 * t).astype(complex))
    out = average_P(path)
    expected = (1.0 - np.cos(3.0 * t[-1])) / (3.0 * t[-1])
    assert abs(out.samples[-1] - expected) <= 1e-6


def test_average_p_linearity():
    rng = np.random.default_rng(5)
    f = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    g = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    pf = average_P(SampledPath(0.0, 0.2, f)).samples
    pg = average_P(SampledPath(0.0, 0.2, g)).samples
    pfg = average_P(SampledPath(0.0, 0.2, 2.0 * f - 3j * g)).samples
    assert np.allclose(pfg, 2.0 * pf - 3j * pg, atol=1e-12)


def _masked_average_P(path):
    """average_P written with a boolean-mask division over t > 0."""
    f = path.samples
    t = path.times
    integral = np.empty(len(f), dtype=complex)
    integral[0] = 0.0
    np.cumsum(0.5 * (f[1:] + f[:-1]) * path.dt, out=integral[1:])
    out = integral.copy()
    nz = t > 0.0
    out[nz] /= t[nz]
    if not nz[0]:
        out[0] = f[0]
    return out


@pytest.mark.parametrize("t0", [0.0, 0.37])
def test_average_p_matches_masked_division_bitwise(t0):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    path = SampledPath(t0, 0.013, f)
    got = average_P(path).samples
    assert np.array_equal(got.view(np.float64), _masked_average_P(path).view(np.float64))


def test_sampled_path_validation():
    with pytest.raises(InvalidInputError):
        SampledPath(-1.0, 0.1, np.zeros(10))
    with pytest.raises(InvalidInputError):
        SampledPath(0.0, 0.0, np.zeros(10))
    with pytest.raises(InvalidInputError):
        SampledPath(0.0, 0.1, np.zeros(1))
    # "a" escaped as a bare ValueError from the cast to complex
    for samples in (["a", "b"], np.array(["1", "2"]), [None, 1], [1.0, "2"],
                    np.array([1, 2], dtype=object)):
        with pytest.raises(InvalidInputError, match="samples must be real or complex numbers"):
            SampledPath(0.0, 0.1, samples)


@pytest.mark.parametrize("t0, dt", [(math.nan, 0.1), (math.inf, 0.1), (0.0, math.inf), (0.0, math.nan)])
def test_sampled_path_rejects_non_finite_grid(t0, dt):
    with pytest.raises(InvalidInputError):
        SampledPath(t0, dt, np.zeros(10))


# -------------------------------------------------------------------- clim


def test_clim_plain_sawtooth_mean():
    # alpha(T) has classical Cesaro limit C/2; samples offset half a step so
    # none lands exactly on a ladder jump
    path = ladder_path("alpha_n", params(t0=0.5 * DT), 2000 * C, DT)
    rep = clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=2, flat_tol=1e-2)
    assert abs(rep.value - C / 2.0) <= 5e-3
    assert rep.residual_flatness >= 0.0


def test_clim_plain_removes_z_square():
    t = 0.5 * DT + DT * np.arange(int(2000 * C / DT) + 1)
    z = (S0 - SIGMA0) - 1j * t
    path = SampledPath(0.5 * DT, DT, (z**2).astype(complex))
    rep = clim(path, S0, SIGMA0, "lower", max_eigen=2, max_p=1, flat_tol=1e-7)
    assert abs(rep.value) <= 1e-6
    removed = dict(rep.removed_eigen)
    assert removed[2] == pytest.approx(1.0, abs=1e-9)
    assert abs(removed[1]) <= 1e-9
    assert rep.p_power == 0


def test_clim_plain_raises_when_the_z_shift_leaves_only_rounding():
    # the z-fit is carried from the path to z = 0 by |c|/T_half per power,
    # c = z(T_mid): on a constant path the value read 1 - 7.2e67j at
    # s0 = 1e100 and 1 - 7.2e275j at 1e308, each with flatness 0
    path = SampledPath(0.0, 0.1, np.ones(40))
    rep = clim(path, 5.0, 0.5, "lower", max_eigen=1, max_p=2)
    assert abs(rep.value - 1.0) <= 1e-15
    assert rep.residual_flatness == 0.0
    for s0 in (1e20, 1e100, 1e308):
        with pytest.raises(NoClimError, match="rounding") as exc:
            clim(path, s0, 0.5, "lower", max_eigen=1, max_p=2)
        assert exc.value.residual_flatness > 1.0
    # a real path at max_eigen 0 has no z-fit to carry
    assert clim(path, 1e308, 0.5, "lower", max_eigen=0, max_p=2).value == 1.0


def test_clim_plain_raises_on_profile_content():
    # z^2 * alpha carries periodic content multiplying z^2, which plain
    # eigenfunction removal cannot represent
    path = ladder_path("z2_alpha", params(t0=0.5 * DT), 200 * C, DT)
    with pytest.raises(NoClimError) as exc:
        clim(path, S0, SIGMA0, "lower", max_eigen=2, max_p=2, flat_tol=1e-2)
    assert exc.value.residual_flatness > 0.0


def test_clim_profile_needs_enough_periods():
    path = ladder_path("k", params(), 10 * C, DT)
    with pytest.raises(NoClimError):
        clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=1, period=C, phase=TAU0)


def test_clim_period_past_the_path_raises_before_the_bins():
    # int(round(period/dt)) raised OverflowError at 1e308, and building
    # 10**20 bins raised ValueError ("Maximum allowed size exceeded")
    path = ladder_path("k", params(t0=0.5 * DT), 60 * C, DT)
    for period in (1e308, 10**19, 10**20, 2**70, 61 * C):
        with pytest.raises(NoClimError, match="longer than the path"):
            clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=0, period=period, phase=TAU0)
    # a ladder path shorter than one period of more than 2**53 bins
    with pytest.raises(InvalidInputError, match="from 2 to 2[*][*]53 - 1"):
        ladder_path("k", params(t0=0.0), 3 * C * 2.0**-60, C * 2.0**-60)


def test_clim_whose_fit_leaves_the_doubles_raises():
    # profiles and z-fits that grow like (s0 - sigma0)^max_eigen: the phase
    # fit warned of invalid values, and the plain z-fit escaped as an
    # OverflowError from a complex power
    path = ladder_path("k3", params(t0=0.5 * DT), 60 * C, DT)
    for s0, sigma0 in ((1e308, SIGMA0), (S0, -1e308), (1e120, SIGMA0)):
        with pytest.raises(InvalidInputError, match="the phase fit of the profiles overflows"):
            clim(path, s0, sigma0, "lower", max_eigen=3, max_p=0, period=C, phase=TAU0)
    flat = SampledPath(0.0, 0.1, np.ones(40))
    with pytest.raises(InvalidInputError, match="the z-fit overflows"):
        clim(flat, 1e120, SIGMA0, "lower", max_eigen=3, max_p=2)


def test_clim_profile_dt_must_divide_period():
    # ladder_path rejects such a step itself, so the path is built by hand
    t = 0.9 * DT * np.arange(int(100 * C / (0.9 * DT)) + 1)
    path = SampledPath(0.0, 0.9 * DT, np.floor((t - TAU0) / C))
    with pytest.raises(InvalidInputError):
        clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=1, period=C, phase=TAU0)


def test_clim_profile_nan_sample_raises():
    samples = ladder_path("k", params(t0=0.5 * DT), 100 * C, DT).samples.copy()
    samples[1000] = np.nan
    with pytest.raises(ZetaffError):
        clim(
            SampledPath(0.5 * DT, DT, samples), S0, SIGMA0, "lower",
            max_eigen=1, max_p=1, period=C, phase=TAU0,
        )


@pytest.mark.parametrize(
    "s0, sigma0, period, phase",
    [
        (S0, SIGMA0, math.nan, TAU0),
        (S0, SIGMA0, math.inf, TAU0),
        (S0, SIGMA0, -math.inf, TAU0),
        (S0, SIGMA0, C, math.nan),
        (complex(math.nan, 0.0), SIGMA0, C, TAU0),
        (S0, math.inf, C, TAU0),
    ],
)
def test_clim_rejects_non_finite_arguments(s0, sigma0, period, phase):
    path = ladder_path("k", params(t0=0.5 * DT), 100 * C, DT)
    with pytest.raises(InvalidInputError):
        clim(path, s0, sigma0, "lower", max_eigen=1, max_p=1, period=period, phase=phase)


def _reference_profile_clim(path, direction, degree, phase):
    """Per-bin loop reference for profile-mode clim: in each phase bin, fit f
    as a polynomial in z with np.polyfit over the first- and last-quarter
    periods, then take the same period means as clim."""
    f = path.samples
    n = len(f)
    nbin = round(C / DT)
    nfull = (n - 1) // nbin
    idx = np.arange(n)
    per = idx // nbin
    quarters = (per < nfull // 4) | ((per >= nfull - nfull // 4) & (per < nfull))
    sgn = 1.0 if direction == "lower" else -1.0
    z = (S0 - SIGMA0) - sgn * 1j * path.times
    gam = np.empty((degree + 1, nbin), dtype=complex)
    for b in range(nbin):
        m = quarters & (idx % nbin == b)
        gam[:, b] = np.polyfit(z[m], f[m], degree)[::-1]
    alpha = (path.times[:nbin] - phase) % C
    order = np.argsort(alpha)
    x = alpha[order] / C
    fit = [np.polynomial.polynomial.polyfit(x, g[order], min(degree + 2, 8)) for g in gam]
    means = [np.sum(c / (np.arange(len(c)) + 1)) for c in fit]
    value = means[0]
    if degree >= 2:
        q2 = fit[2].copy()
        q2[0] -= means[2]
        m = np.arange(len(q2))
        value += -1j * sgn * (S0 - SIGMA0) * C * np.sum(q2 / ((m + 1) * (m + 2)))
    return value, means[1:]


@pytest.mark.parametrize("symbol", ["k", "k2", "z2_alpha", "k3"])
@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_clim_profile_matches_per_bin_reference(symbol, direction):
    path = ladder_path(symbol, params(direction, t0=0.5 * DT), 200 * C, DT)
    phase = TAU0 if direction == "lower" else -TAU0
    degree = SYMBOL_DEGREE[symbol]
    rep = clim(path, S0, SIGMA0, direction, max_eigen=degree, max_p=1, period=C, phase=phase)
    value, means = _reference_profile_clim(path, direction, degree, phase)
    assert rep.value == pytest.approx(value, rel=1e-9)
    assert [n for n, _ in rep.removed_eigen] == list(range(1, degree + 1))
    for (_, got), want in zip(rep.removed_eigen, means):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_clim_profile_raises_on_underfit():
    # k^3 needs degree 3; a degree-2 profile fit leaves z^3 content behind
    path = ladder_path("k3", params(t0=0.5 * DT), 200 * C, DT)
    with pytest.raises(NoClimError) as exc:
        clim(path, S0, SIGMA0, "lower", max_eigen=2, max_p=1, period=C, phase=TAU0)
    assert 0.0 < exc.value.residual_flatness < math.inf


def test_clim_input_validation():
    path = ladder_path("k", params(), 100 * C, DT)
    with pytest.raises(InvalidInputError):
        clim(path, S0, SIGMA0, "sideways", max_eigen=1, max_p=1)
    with pytest.raises(InvalidInputError):
        clim(path, S0, SIGMA0, "lower", max_eigen=-1, max_p=1)
    with pytest.raises(InvalidInputError):
        clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=-1)
    with pytest.raises(InvalidInputError):
        clim(path, S0, SIGMA0, "lower", max_eigen=0, max_p=1, period=C)
    # these escaped as a bare TypeError
    for max_eigen, max_p in ((1.5, 1), (1, 2.5), (True, 1), (1, 2.0)):
        with pytest.raises(InvalidInputError):
            clim(path, S0, SIGMA0, "lower", max_eigen=max_eigen, max_p=max_p)


# a tolerance NaN passed or failed everything silently; clim raised NoClimError
@pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf, "1e-3", None])
def test_tolerance_must_be_a_number_at_least_zero(tol):
    path = ladder_path("k", params(), 100 * C, DT)
    with pytest.raises(InvalidInputError, match="must be a number >= 0"):
        clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=1, period=C, phase=TAU0, flat_tol=tol)
    with pytest.raises(InvalidInputError, match="must be a number >= 0"):
        clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=1, flat_tol=tol)
    with pytest.raises(InvalidInputError, match="must be a number >= 0"):
        verify_lemma("k", params(), 100 * C, DT, tol)
    curve = make_curve(Q, 1, [(0.5, 0.3), (0.5, C - 0.3)])
    with pytest.raises(InvalidInputError, match="must be a number >= 0"):
        check_functional_equation(curve, 2.0, tol)


# ------------------------------------------------------------- lemma table


def test_lemma_closed_form_basic_values():
    assert lemma_closed_form("alpha_n", "lower", 1, S0, 0.6 + 0.7j, SIGMA0, TAU0, C) == (
        pytest.approx(C / 2.0)
    )
    assert lemma_closed_form("alpha_n", "lower", 2, S0, 0.6 + 0.7j, SIGMA0, TAU0, C) == (
        pytest.approx(C**2 / 3.0)
    )
    assert lemma_closed_form("z_alpha", "upper", 1, S0, 0.6 + 0.7j, SIGMA0, TAU0, C) == 0j
    with pytest.raises(InvalidInputError):
        lemma_closed_form("alpha_n", "lower", 0, S0, 0.6 + 0.7j, SIGMA0, TAU0, C)
    with pytest.raises(InvalidInputError):
        lemma_closed_form("k4", "lower", 1, S0, 0.6 + 0.7j, SIGMA0, TAU0, C)
    with pytest.raises(InvalidInputError):
        lemma_closed_form("k", "sideways", 1, S0, 0.6 + 0.7j, SIGMA0, TAU0, C)


def test_lemma_closed_form_that_overflows_raises():
    # k3's a**3 raised OverflowError for every symbol, and k2's a*a is inf
    # with no error
    r0 = complex(SIGMA0, TAU0)
    for symbol, s0 in (("k", 1e300), ("k3", 1e300), ("k2", 1e160), ("z2_alpha", 1e300)):
        with pytest.raises(InvalidInputError, match="overflows"):
            lemma_closed_form(symbol, "lower", 1, s0, r0, SIGMA0, TAU0, C)
    with pytest.raises(InvalidInputError, match="overflows"):
        lemma_closed_form("alpha_n", "lower", 3000, S0, r0, SIGMA0, TAU0, C)
    # C**2 underflows to 0: this escaped as a ZeroDivisionError
    with pytest.raises(InvalidInputError, match="the closed-form table overflows"):
        lemma_closed_form("k2_alpha", "lower", 1, 5.0, r0, SIGMA0, TAU0, 1e-308)
    with pytest.raises(InvalidInputError, match="overflows"):
        r_lambda_cesaro(LambdaFactor(SIGMA0, TAU0, 1), Q, 1e300, -2)
    assert lemma_closed_form("k", "lower", 3000, S0, r0, SIGMA0, TAU0, C) == (
        lemma_closed_form("k", "lower", 1, S0, r0, SIGMA0, TAU0, C)
    )


def test_lemma_closed_form_rejects_bad_input_before_the_table(monkeypatch):
    # C = 0 escaped as a ZeroDivisionError and C = -1 gave a value; alpha_n
    # took n = 1.5 and True, which LemmaParams rejects; a NaN s0 was reported
    # as an overflow and a string one escaped as a ValueError
    monkeypatch.setattr(cesaro, "_closed_form_table", None)  # not to be reached
    r0 = complex(SIGMA0, TAU0)
    good = dict(symbol="k", direction="lower", n=1, s0=S0, r0=r0, sigma0=SIGMA0, tau0=TAU0, C=C)
    bad = [dict(C=period) for period in (0.0, -1.0, math.nan, math.inf, "x", None)]
    bad += [dict(symbol="alpha_n", n=n) for n in (0, 1.5, True, None)]
    bad += [dict(symbol=symbol, **{name: value})
            for symbol in ("k", "alpha_n")
            for name in ("s0", "r0", "sigma0", "tau0")
            for value in (math.nan, math.inf, "x", None)]
    for change in bad:
        args = {**good, **change}
        # a bad point is named in the finiteness message
        message = None if "C" in change or "n" in change else "expected finite numbers"
        with pytest.raises(InvalidInputError, match=message):
            lemma_closed_form(*args.values())
    # the eight-argument call stays valid
    assert lemma_closed_form("alpha_n", "lower", 3, S0, r0, SIGMA0, TAU0, C) == C**3 / 4.0


def test_every_direction_is_checked_by_the_contour_sign():
    # _geometric_z and _ladder_partial_limit took any name but "lower" for
    # the upper contour
    message = "direction must be 'lower' or 'upper', got 'sideways'"
    path = ladder_path("k", params(), 100 * C, DT)
    a = complex(S0) - complex(SIGMA0, TAU0)
    for call in (
        lambda: cesaro._contour_sign("sideways"),
        lambda: cesaro._geometric_z(np.zeros(2), S0, SIGMA0, "sideways"),
        lambda: _ladder_partial_limit(0, a, "sideways", TAU0, C),
        lambda: lemma_closed_form("k", "sideways", 1, S0, 0.6 + 0.7j, SIGMA0, TAU0, C),
        lambda: params(direction="sideways"),
        lambda: clim(path, S0, SIGMA0, "sideways", max_eigen=1, max_p=1, period=C),
    ):
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert str(exc.value) == message


def test_lemma_closed_form_conjugate_directions():
    # with tau0 = 0 and real s0 the two contours are complex conjugates
    r0 = complex(SIGMA0, 0.0)
    for symbol in LEMMA_SYMBOLS:
        lo = lemma_closed_form(symbol, "lower", 1, S0, r0, SIGMA0, 0.0, C)
        hi = lemma_closed_form(symbol, "upper", 1, S0, r0, SIGMA0, 0.0, C)
        assert hi == pytest.approx(lo.conjugate(), abs=1e-14)


@pytest.mark.parametrize(
    "symbol, periods, nbin, bound",
    [pytest.param(s, 1e3, 128, 1e-11, id=s) for s in LEMMA_SYMBOLS]
    + [pytest.param(s, 1e4, 128, 1e-11, id=f"{s}-1e4") for s in ("z2_alpha", "k3")]
    # nbin*dt rounds away from C: the phase of a bin must not drift with p
    + [pytest.param(s, 1e4, 96, 1e-12, id=f"{s}-1e4-96bins") for s in ("z2_alpha", "k_alpha")],
)
@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_lemma_numeric_verification(symbol, periods, nbin, bound, direction):
    res = verify_lemma(symbol, params(direction), periods * C, C / nbin, 5e-3)
    assert res.passed, f"{symbol}/{direction}: diff {res.abs_diff}"
    # rounding level, far inside the stated tolerance, and it does not grow
    # with the path: the largest samples of z2_alpha and k3 reach 1e11
    assert res.abs_diff <= bound
    # ClimReport is a plain record: profile mode builds it with one Cesaro
    # mean and a flatness that passed
    assert res.report.p_power == 1
    assert 0.0 <= res.report.residual_flatness <= cesaro._FLAT_TOL


def test_lemma_t0_invariance():
    values = []
    for t0 in (0.0, 0.3, 1.234):
        res = verify_lemma("k2_alpha", params(t0=t0), 1e3 * C, DT, 5e-3)
        assert res.passed
        values.append(res.numeric)
    assert abs(values[0] - values[1]) <= 1e-6
    assert abs(values[0] - values[2]) <= 1e-6


def test_lemma_other_configuration():
    # different q, tau0 and complex s0 exercise the table away from the
    # default configuration
    p = LemmaParams(q=9, sigma0=0.5, tau0=1.1, s0=4.0 + 0.3j, direction="lower")
    c9 = vertical_spacing(9)
    for symbol in ("k", "k2", "k_alpha", "z2_alpha"):
        res = verify_lemma(symbol, p, 1e3 * c9, c9 / 128.0, 5e-3)
        assert res.passed, f"{symbol}: diff {res.abs_diff}"


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_lemma_alpha_n_at_high_powers(n, direction):
    # the profile of alpha_n is alpha^n, so the phase fit must reach degree n
    res = verify_lemma("alpha_n", replace(params(direction), n=n), 1e3 * C, DT, 5e-3)
    assert res.abs_diff <= 1e-12, res.abs_diff


def test_lemma_alpha_n_beyond_the_phase_fit_is_rejected(capsys):
    with pytest.raises(InvalidInputError):
        verify_lemma("alpha_n", replace(params(), n=9), 1e3 * C, DT, 5e-3)
    argv = ["lemma", "--symbol", "alpha_n", "--n", "10", "--t-max-periods", "1000"]
    assert main(argv) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid input:")


def test_lemma_rejects_too_few_phase_bins():
    # k is fitted at phase degree 3, so it needs at least four bins
    for nbin in (2, 3):
        with pytest.raises(InvalidInputError):
            verify_lemma("k", params(), 1e3 * C, C / nbin, 5e-3)
    assert verify_lemma("k", params(), 1e3 * C, C / 4, 5e-3).abs_diff <= 1e-12
    path = ladder_path("k", params(t0=C / 6), 100 * C, C / 3)
    with pytest.raises(InvalidInputError):
        clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=1, period=C, phase=TAU0)


def test_lemma_rejects_colliding_phase_bins(capsys):
    # at tau0 = 1e16 the bin phases t0 + b*dt - tau0 round to two values
    assert main(["lemma", "--tau0", "1e16", "--t-max-periods", "100"]) == EXIT_INVALID
    assert "distinct phases" in capsys.readouterr().err
    # at tau0 = 1e12 they are still distinct, and the table holds to rounding
    for symbol in LEMMA_SYMBOLS:
        for direction in ("lower", "upper"):
            res = verify_lemma(symbol, params(direction, tau0=1e12), 1e3 * C, DT, 5e-3)
            assert res.abs_diff <= 1e-12 * (1.0 + abs(res.closed_form)), (symbol, direction)


def test_ladder_path_validation(capsys):
    with pytest.raises(InvalidInputError):
        ladder_path("k4", params(), 100 * C, DT)
    # rejected before any sample is built
    with pytest.raises(InvalidInputError):
        ladder_path("k4", params(), 1e15 * C, DT)
    # a step that does not divide the period, and a path of 2^53 samples or
    # more, whose indices would no longer be exact doubles
    for T_max, dt in ((math.nan, DT), (math.inf, DT), (0.0, DT), (-C, DT),
                      (10 * C, math.nan), (10 * C, 0.0), (10 * C, -DT),
                      (10 * C, 0.9 * DT), (2.0**53 * DT, DT), (1e308, DT)):
        with pytest.raises(InvalidInputError):
            ladder_path("k", params(), T_max, dt)
    assert main(["lemma", "--symbol", "k", "--t-max-periods", "1e300"]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid input:")


def test_lemma_params_rejects_unknown_direction():
    with pytest.raises(InvalidInputError):
        params(direction="sideways")
    assert params(direction="upper").direction == "upper"


@pytest.mark.parametrize(
    "field, value",
    [("q", 0), ("q", 1), ("q", 6), ("q", 25.0), ("s0", complex(math.nan, 0.0)),
     ("sigma0", math.inf), ("tau0", math.nan), ("t0", -DT), ("t0", math.inf),
     ("n", 0), ("n", -2), ("n", 1.5), ("n", 2.0), ("n", True)],
)
def test_lemma_params_rejects_bad_input(field, value):
    # rejected when the parameters are made, before any sample is built
    with pytest.raises(InvalidInputError):
        replace(params(), **{field: value})


def _reference_ladder_samples(symbol, p, T_max, dt):
    """All ten ladder symbols built with np.floor in long double."""
    T = np.longdouble(p.t0) + np.longdouble(dt) * np.arange(int(math.floor((T_max - p.t0) / dt)) + 1)
    Cl = np.longdouble(C)
    c = complex(p.s0) - p.sigma0
    if p.direction == "lower":
        k = np.floor((T - np.longdouble(p.tau0)) / Cl)
        alpha = T - Cl * k - np.longdouble(p.tau0)
        z = np.clongdouble(c) - np.clongdouble(1j) * T
    else:
        k = np.floor((T + np.longdouble(p.tau0)) / Cl)
        alpha = T - Cl * k + np.longdouble(p.tau0)
        z = np.clongdouble(c) + np.clongdouble(1j) * T
    values = {
        "alpha_n": alpha**p.n, "k": k, "k2": k**2, "k3": k**3,
        "k_alpha": k * alpha, "k_alpha2": k * alpha**2, "k2_alpha": k**2 * alpha,
        "z_alpha": z * alpha, "z_alpha2": z * alpha**2, "z2_alpha": z**2 * alpha,
    }
    return values[symbol].astype(complex)


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_ladder_path_matches_reference(direction):
    # t0 < tau0, so the lower contour starts at k = -1
    p = LemmaParams(q=Q, sigma0=SIGMA0, tau0=TAU0, s0=S0 + 0.3j, direction=direction, n=2, t0=0.1)
    for symbol in LEMMA_SYMBOLS:
        got = ladder_path(symbol, p, 50 * C, DT).samples.astype(complex)
        want = _reference_ladder_samples(symbol, p, 50 * C, DT)
        if symbol in ("k", "k2", "k3"):
            assert got.tobytes() == want.tobytes(), symbol
        else:
            assert got == pytest.approx(want, rel=1e-12), symbol
    alpha = ladder_path("alpha_n", replace(p, n=1), 50 * C, DT).samples
    want = _reference_ladder_samples("alpha_n", replace(p, n=1), 50 * C, DT)
    assert np.max(np.abs(alpha - want)) <= 2 * np.finfo(float).eps * C


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_ladder_block_matches_path_slices_bitwise(direction):
    # a block is real unless its symbol reads z, and it is the path's slice
    # bit for bit, dtype included
    p = LemmaParams(q=Q, sigma0=SIGMA0, tau0=TAU0, s0=S0 + 0.3j, direction=direction, n=2, t0=0.1)
    bins = cesaro._bin_grid(p.t0, DT, C, p.phase)
    for symbol in LEMMA_SYMBOLS:
        path = ladder_path(symbol, p, 50 * C, DT).samples
        n = len(path)
        dtype = np.complex128 if symbol.startswith("z") else np.float64
        for i0, i1 in ((0, 1), (3, 130), (1000, 2345), (n - 77, n)):
            got = _ladder_block(symbol, p, bins, DT, i0, i1)
            assert got.dtype == dtype, (symbol, got.dtype)
            assert got.tobytes() == path[i0:i1].tobytes(), (symbol, i0, i1)


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_ladder_block_is_periodic_in_the_phase(direction):
    # one period later a sample has the same phase, bit for bit, and a ladder
    # index larger by exactly one, however far along the path
    p = params(direction, t0=0.5 * DT)
    nbin = round(C / DT)
    i0, i1 = 3, 3 + 2 * nbin + 5
    bins = cesaro._bin_grid(p.t0, DT, C, p.phase)
    alpha = _ladder_block("alpha_n", p, bins, DT, i0, i1)
    k = _ladder_block("k", p, bins, DT, i0, i1)
    for m in (1, 10**4, 10**5):
        shifted = _ladder_block("alpha_n", p, bins, DT, i0 + m * nbin, i1 + m * nbin)
        assert shifted.tobytes() == alpha.tobytes(), m
        shifted = _ladder_block("k", p, bins, DT, i0 + m * nbin, i1 + m * nbin)
        assert np.array_equal(shifted, k + m), m


def test_lemma_values_do_not_depend_on_long_double(monkeypatch):
    # where NumPy's long double is plain double (MSVC, Apple silicon) the
    # lemma values must be the same, bit for bit
    cases = [(s, d) for s in ("z2_alpha", "k3") for d in ("lower", "upper")]
    native = [verify_lemma(s, params(d), 1e3 * C, DT, 5e-3).numeric for s, d in cases]
    monkeypatch.setattr(np, "longdouble", np.float64)
    monkeypatch.setattr(np, "clongdouble", np.complex128)
    plain = [verify_lemma(s, params(d), 1e3 * C, DT, 5e-3).numeric for s, d in cases]
    assert plain == native


@pytest.mark.parametrize(
    ("direction", "q"),
    [("lower", Q), ("upper", Q), ("lower", 9), ("upper", 9)],
    ids=["lower", "upper", "lower-q9", "upper-q9"],
)
def test_streamed_lemma_clim_equals_in_memory_clim(direction, q, monkeypatch):
    # 200.5 periods: 50 quarter periods, 100 middle ones and a trailing half
    # period, none of them a multiple of the 7-period chunks.  The streamed
    # Clim reads the z-free symbols as real samples, the in-memory one their
    # complex copies; alpha_n at n = 5 and 8 takes the highest phase degrees.
    period = vertical_spacing(q)
    dt = period / 128.0
    T_max = 200.5 * period
    p = LemmaParams(q=q, sigma0=SIGMA0, tau0=TAU0, s0=S0, direction=direction)
    phase = TAU0 if direction == "lower" else -TAU0
    cases = [(s, 1) for s in LEMMA_SYMBOLS] + [("alpha_n", 5), ("alpha_n", 8)]
    default = {case: verify_lemma(case[0], replace(p, n=case[1]), T_max, dt, 5e-3).report
               for case in cases}
    monkeypatch.setattr(cesaro, "_CHUNK_PERIODS", 7)
    for symbol, n in cases:
        pn = replace(p, n=n)
        streamed = verify_lemma(symbol, pn, T_max, dt, 5e-3)
        path = ladder_path(symbol, replace(pn, t0=0.5 * dt), T_max, dt)
        path = SampledPath(path.t0, dt, path.samples.astype(complex))
        if symbol == "alpha_n":
            # clim fits the phase at degree 3; alpha_n needs max(3, n)
            in_memory = cesaro._clim_profile(
                lambda i0, i1: path.samples[i0:i1], len(path.samples), path.t0, dt,
                complex(S0), SIGMA0, direction, 1, period, phase, cesaro._FLAT_TOL,
                phase_degree=max(3, n),
            )
        else:
            in_memory = clim(
                path, S0, SIGMA0, direction, max_eigen=SYMBOL_DEGREE[symbol], max_p=1,
                period=period, phase=phase,
            )
        assert streamed.numeric == in_memory.value, (symbol, n)
        assert streamed.report == in_memory, (symbol, n)
        # the fit reads only the kept quarter rows and the flatness is a
        # ratio of maxima, so the chunk length changes neither
        assert streamed.report == default[(symbol, n)], (symbol, n)


@pytest.mark.parametrize("periods", [2100.5, 4100.5])
def test_real_lemma_samples_fit_like_their_complex_copies(periods):
    # the solve reads real samples as complex columns with zero imaginary
    # parts, the matrix it reads for their complex copies, so a BLAS that
    # picks its kernel by matrix size cannot round the two apart
    p = params(t0=0.5 * DT)
    bins = cesaro._bin_grid(p.t0, DT, C, p.phase)
    for symbol in ("k", "k2", "k3"):
        path = ladder_path(symbol, p, periods * C, DT)
        real = cesaro._clim_profile(
            functools.partial(_ladder_block, symbol, p, bins, DT), len(path.samples), p.t0, DT,
            complex(S0), SIGMA0, "lower", SYMBOL_DEGREE[symbol], C, TAU0, 1e-7,
        )
        copy = SampledPath(path.t0, DT, path.samples.astype(complex))
        assert real == clim(copy, S0, SIGMA0, "lower", max_eigen=SYMBOL_DEGREE[symbol],
                            max_p=1, period=C, phase=TAU0), symbol


@pytest.mark.parametrize(
    ("direction", "amplitude"),
    [("lower", 1e-3), ("upper", 1e-3), ("lower", 1e-6), ("upper", 1e-6)],
    ids=["lower", "upper", "lower-1e-06", "upper-1e-06"],
)
def test_streamed_flatness_matches_in_memory_average(direction, amplitude, monkeypatch):
    # e^(i sqrt T) is content no period profile removes, so the guard fails
    # and reports the flatness it measured chunk by chunk
    monkeypatch.setattr(cesaro, "_CHUNK_PERIODS", 7)
    ladder = ladder_path("k", params(direction, t0=0.5 * DT), 200.5 * C, DT)
    f = ladder.samples + amplitude * np.exp(1j * np.sqrt(ladder.times))
    path = SampledPath(ladder.t0, DT, f)
    phase = TAU0 if direction == "lower" else -TAU0
    with pytest.raises(NoClimError) as exc:
        clim(path, S0, SIGMA0, direction, max_eigen=1, max_p=1, period=C, phase=phase)
    # in memory: per-bin fits over the quarter periods, each row weighted by
    # (1 + p)^-degree, the prediction on every sample, and the largest
    # weighted residual over the largest weighted sample
    n, nbin = len(f), round(C / DT)
    nfull = (n - 1) // nbin
    idx = np.arange(n)
    per = idx // nbin
    quarters = (per < nfull // 4) | ((per >= nfull - nfull // 4) & (per < nfull))
    sgn = 1.0 if direction == "lower" else -1.0
    z = (S0 - SIGMA0) - sgn * 1j * path.times
    w = (1.0 + per) ** -1.0
    predicted = np.empty(n, dtype=complex)
    for b in range(nbin):
        col = idx % nbin == b
        m = quarters & col
        fit = np.polyfit(z[m], f[m], 1, w=w[m])
        predicted[col] = np.polyval(fit, z[col])
    flat = np.max(w * np.abs(f - predicted)) / np.max(w * np.abs(f))
    assert exc.value.residual_flatness == pytest.approx(flat, rel=1e-6)


def test_clim_profile_of_an_all_zero_path():
    path = SampledPath(0.5 * DT, DT, np.zeros(round(200.5 * 128)))
    rep = clim(path, S0, SIGMA0, "lower", max_eigen=1, max_p=1, period=C, phase=TAU0)
    assert rep.value == 0j
    assert rep.residual_flatness == 0.0


@pytest.mark.parametrize("bad", [1000, 100 * 128 + 5, -1])
def test_streamed_clim_rejects_non_finite_chunk(bad):
    # a SampledPath cannot hold a NaN, but a streamed source is only checked
    # chunk by chunk: a quarter row (pass one), a middle period (pass two)
    # and the trailing partial period
    samples = ladder_path("k", params(t0=0.5 * DT), 200.5 * C, DT).samples.copy()
    samples[bad] = np.nan
    with pytest.raises(InvalidInputError):
        cesaro._clim_profile(
            lambda i0, i1: samples[i0:i1], len(samples), 0.5 * DT, DT,
            complex(S0), SIGMA0, "lower", 1, C, TAU0, 1e-7,
        )


def test_streamed_lemma_clim_memory_is_bounded():
    # a path of 1.28e6 samples built in memory peaks near 49 MiB; the
    # streamed Clim keeps the quarter rows (10 MiB)
    tracemalloc.start()
    try:
        res = verify_lemma("k3", params(), 1e4 * C, DT, 5e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 32 * 2**20


# ------------------------------------------- one-sided partial-sum limits


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_partial_limit_mu_minus1_matches_numeric_clim(direction):
    # assemble the one-sided partial-sum polynomial from exactly sampled
    # ladder paths and take its numeric profile clim
    p = params(direction, t0=0.5 * DT)
    a = complex(S0) - complex(SIGMA0, TAU0)
    kp = ladder_path("k", p, 1e3 * C, DT)
    k2p = ladder_path("k2", p, 1e3 * C, DT)
    sgn = 1.0 if direction == "lower" else -1.0
    count = 1.0 if direction == "lower" else 0.0
    samples = a * (kp.samples + count) - sgn * 1j * (C / 2.0) * (k2p.samples + kp.samples)
    path = SampledPath(kp.t0, DT, samples)
    phase = TAU0 if direction == "lower" else -TAU0
    rep = clim(path, S0, SIGMA0, direction, max_eigen=2, max_p=1, period=C, phase=phase)
    exact = _ladder_partial_limit(-1, a, direction, TAU0, C)
    assert abs(rep.value - exact) <= 1e-6


def test_partial_limits_cancel():
    a = complex(S0) - complex(SIGMA0, TAU0)
    for mu in (0, -1, -2):
        lo = _ladder_partial_limit(mu, a, "lower", TAU0, C)
        hi = _ladder_partial_limit(mu, a, "upper", TAU0, C)
        assert abs(lo + hi) <= 1e-12 * (1.0 + abs(lo))


def test_each_cesaro_table_is_built_once_per_call(monkeypatch):
    calls = collections.Counter()

    def count(name):
        original = getattr(cesaro, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(cesaro, name, counted)

    count("_bin_grid")
    count("_closed_form_table")
    # one bin table for the path and one for the profile fit, not one per
    # chunk of 256 periods
    verify_lemma("k", params(), 1e4 * C, DT, 5e-3)
    assert calls["_bin_grid"] <= 2
    calls.clear()
    ladder_path("k", params(), 100 * C, DT)
    assert calls == {"_bin_grid": 1}
    # one closed-form table per contour, whichever entries mu reads
    for mu in (0, -1, -2):
        calls.clear()
        assert r_lambda_cesaro(LambdaFactor(SIGMA0, TAU0, 1), Q, S0, mu) == 0j
        assert calls == {"_closed_form_table": 2}, mu


def test_r_lambda_cesaro_exact_zero():
    rng = np.random.default_rng(11)
    for _ in range(10):
        factor = LambdaFactor(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, C)), 1)
        s0 = complex(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0))
        for mu in (0, -1, -2):
            value = r_lambda_cesaro(factor, Q, s0, mu)
            assert value == 0j


def test_r_lambda_cesaro_validation():
    factor = LambdaFactor(0.6, 0.7, 1)
    with pytest.raises(InvalidInputError):
        r_lambda_cesaro(factor, Q, 0.9, 0)
    with pytest.raises(UnsupportedMuError):
        r_lambda_cesaro(factor, Q, S0, -3)
    with pytest.raises(UnsupportedMuError):
        r_lambda_cesaro(factor, Q, S0, 1)
    for s0 in (math.nan, complex(S0, math.inf), complex(math.nan, 0.0)):
        with pytest.raises(InvalidInputError):
            r_lambda_cesaro(factor, Q, s0, 0)
    for q in (0, 1, 6):
        with pytest.raises(InvalidInputError):
            r_lambda_cesaro(factor, q, S0, 0)


def test_r_lambda_cesaro_rejects_limits_that_do_not_cancel(monkeypatch):
    # N_- = -N_+ holds for every valid input; a limit that breaks it must
    # raise, not return the zero
    exact = cesaro._ladder_partial_limit

    def skewed(mu, a, direction, *rest):
        value = exact(mu, a, direction, *rest)
        return value + 1e-3 if direction == "upper" else value

    monkeypatch.setattr(cesaro, "_ladder_partial_limit", skewed)
    with pytest.raises(ValidationError, match="fail to cancel"):
        r_lambda_cesaro(LambdaFactor(0.6, 0.7, 1), Q, S0, -1)


# ------------------------------------------------------ counting pipeline


def test_make_counting_validation():
    for g in (0, True, 1.0):  # True and 1.0 were accepted
        with pytest.raises(InvalidInputError):
            make_counting(g, C, [0.3, C - 0.3])
    with pytest.raises(InvalidInputError):
        make_counting(1, -1.0, [0.3, C - 0.3])
    with pytest.raises(InvalidInputError):
        make_counting(1, C, [0.3])  # wrong count
    with pytest.raises(ValidationError):
        make_counting(1, C, [0.3, 0.4])  # not symmetric under kappa -> C-kappa
    with pytest.raises(ValidationError):
        make_counting(1, C, [0.0, C])  # must lie strictly inside (0, C)
    for period in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            make_counting(1, period, [0.3, C - 0.3])
    for kappas in ([math.nan, C - 0.3], [0.3, math.inf]):
        with pytest.raises(InvalidInputError):
            make_counting(1, C, kappas)
    # the self-paired limit kappa -> C/2 is allowed
    cf = make_counting(1, C, [C / 2.0, C / 2.0])
    assert cf.kappas == (C / 2.0, C / 2.0)


_CF = make_counting(1, C, [0.3, C - 0.3])
_CURVE = make_curve(Q, 1, [(0.5, 0.3), (0.5, C - 0.3)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("evaluate", [
    lambda x: s_eval(_CF, x),
    lambda x: s1_eval(_CF, x),
    lambda x: q_eval(_CF, x),
    lambda x: s2_eval(_CF, x),
    lambda x: s_eval(_CF, np.array([0.5, x])),
    lambda x: eval_zeta(_CURVE, x),
    lambda x: eval_zeta(_CURVE, complex(2.0, x)),
    lambda x: check_functional_equation(_CURVE, complex(x, 1.0), 1e-9),
    lambda x: series_tail_bound(x, 1.0, 10),
    lambda x: series_tail_bound(0.5, x, 10),
], ids=["S", "S1", "Q", "S2", "S-array", "zeta", "zeta-im", "fe", "tail-ratio",
        "tail-mu"])
def test_evaluators_reject_non_finite_input(evaluate, bad):
    # each returned NaN, or a value read from one
    with pytest.raises(InvalidInputError):
        evaluate(bad)


def test_counting_midpoint_convention():
    cf = make_counting(1, C, [0.3, C - 0.3])
    below = s_eval(cf, 0.3 - 1e-6) + (2.0 * cf.g / C) * (0.3 - 1e-6)
    above = s_eval(cf, 0.3 + 1e-6) + (2.0 * cf.g / C) * (0.3 + 1e-6)
    at = s_eval(cf, 0.3) + (2.0 * cf.g / C) * 0.3
    assert below == pytest.approx(0.0, abs=1e-9)
    assert above == pytest.approx(1.0, abs=1e-9)
    assert at == pytest.approx(0.5, abs=1e-12)


def test_counting_periodicity():
    cf = make_counting(2, C, [0.3, C - 0.3, 0.8, C - 0.8])
    for T in (0.13, 0.55, 1.2):
        assert s_eval(cf, T + 7 * C) == pytest.approx(s_eval(cf, T), abs=1e-9)
        assert s1_eval(cf, T + 7 * C) == pytest.approx(s1_eval(cf, T), abs=1e-9)
        assert q_eval(cf, T + 7 * C) == pytest.approx(q_eval(cf, T), abs=1e-9)


def test_s1_is_antiderivative_of_s():
    cf = make_counting(2, C, [0.3, C - 0.3, 0.8, C - 0.8])
    n = 2**16
    dx = C / n
    x = dx * (np.arange(n) + 0.5)
    for T in (0.45, 1.1, 1.9):
        integral = float(np.sum(s_eval(cf, x[x <= T])) * dx)
        assert s1_eval(cf, T) == pytest.approx(integral, abs=1e-4)
    assert s1_eval(cf, 0.0) == 0.0
    assert abs(s1_eval(cf, C - 1e-12)) <= 1e-9


def test_period_means_against_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(5):
        kappa = float(rng.uniform(0.05 * C, 0.45 * C))
        cf = make_counting(1, C, [kappa, C - kappa])
        # analytic pair form
        assert s1_av(cf) == pytest.approx(kappa**2 / C - kappa + C / 6.0, abs=1e-12)
        assert q_av(cf) == pytest.approx((C / 2.0) * s1_av(cf) + C**2 / 12.0, abs=1e-12)
        # 2^16-point midpoint quadrature over one period
        n = 2**16
        x = (C / n) * (np.arange(n) + 0.5)
        assert s1_av(cf) == pytest.approx(float(np.mean(s1_eval(cf, x))), abs=1e-6)
        assert q_av(cf) == pytest.approx(float(np.mean(q_eval(cf, x))), abs=1e-6)


def test_s2_growth_is_linear_with_s1av_slope():
    cf = make_counting(2, C, [0.3, C - 0.3, 0.8, C - 0.8])
    T = 100 * C
    assert s2_eval(cf, T) - s2_eval(cf, T - 10 * C) == pytest.approx(
        10 * C * s1_av(cf), abs=1e-8
    )


def s2_reducing_twice(cf, T):
    """S2 with Q re-reducing the reduced phase, as s2_eval once did: the
    reference the one-reduction s2_eval must match bit for bit."""
    alpha = T % cf.C
    alpha_again = alpha % cf.C
    q = np.zeros_like(alpha_again)
    for k in cf.kappas:
        q += 0.5 * np.maximum(0.0, alpha_again - k) ** 2
    return s1_av(cf) * (T - alpha) + (q - (cf.g / (3.0 * cf.C)) * alpha**3)


def test_s2_reduces_the_height_once_bitwise():
    rng = np.random.default_rng(12)
    for g in (1, 2, 3):
        half = list(rng.uniform(0.05 * C, 0.45 * C, g))
        cf = make_counting(g, C, half + [C - k for k in half])
        t = DT * np.arange(128001)
        assert np.array_equal(s2_eval(cf, t), s2_reducing_twice(cf, t))
        # negative heights too, where T % C is not T
        heights = rng.uniform(-1e3 * C, 1e3 * C, 4000)
        assert np.array_equal(s2_eval(cf, heights), s2_reducing_twice(cf, heights))


def test_s2_is_continuous_where_the_phase_rounds_up_to_c():
    # -1e-20 % C rounds to C itself; reducing that again gave Q(0) in place
    # of Q(C), and S2 was off by Q(C) = 1.18 next to S2(0) = 0
    cf = make_counting(1, C, [0.5, C - 0.5])
    assert -1e-20 % C == C
    assert abs(s2_eval(cf, -1e-20)) <= 1e-14


def test_counting_path_kinds_and_validation():
    cf = make_counting(1, C, [37 * DT, C - 37 * DT])
    with pytest.raises(InvalidInputError):
        counting_path(cf, "S3", 10 * C, DT)
    # the kind is checked before any array is built
    with pytest.raises(InvalidInputError):
        counting_path(cf, "S3", 2e8 * C, DT)
    for t_max, dt in (
        (math.nan, DT), (math.inf, DT), (0.0, DT), (-C, DT),
        (10 * C, math.nan), (10 * C, math.inf), (10 * C, 0.0), (10 * C, -DT),
        (1e308, DT),
    ):
        with pytest.raises(InvalidInputError):
            counting_path(cf, "S1", t_max, dt)
    path = counting_path(cf, "S1", 10 * C, DT)
    assert len(path.samples) == int(10 * C / DT) + 1


# Per-sample scalar evaluators of the counting pieces, in the arithmetic order
# the array evaluators keep; Python's ``**`` rounds through libm ``pow``.
def _ref_steps_below(cf, alpha):
    count = 0.0
    for k in cf.kappas:
        if alpha > k + 1e-12:
            count += 1.0
        elif abs(alpha - k) <= 1e-12:
            count += 0.5
    return count


def _ref_s(cf, T):
    alpha = float(T) % cf.C
    return _ref_steps_below(cf, alpha) - (2.0 * cf.g / cf.C) * alpha


def _ref_s1(cf, T):
    alpha = float(T) % cf.C
    acc = -(cf.g / cf.C) * alpha * alpha
    for k in cf.kappas:
        acc += max(0.0, alpha - k)
    return acc


def _ref_q(cf, T):
    alpha = float(T) % cf.C
    return sum(0.5 * max(0.0, alpha - k) ** 2 for k in cf.kappas)


def _ref_s2(cf, T):
    T = float(T)
    alpha = T % cf.C
    inner = _ref_q(cf, alpha) - (cf.g / (3.0 * cf.C)) * alpha**3
    return s1_av(cf) * (T - alpha) + inner


_REF_KINDS = {
    "S": _ref_s,
    "tS": lambda cf, x: x * _ref_s(cf, x),
    "t2S": lambda cf, x: x * x * _ref_s(cf, x),
    "S1": _ref_s1,
    "tS1": lambda cf, x: x * _ref_s1(cf, x),
    "S2": _ref_s2,
}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_counting_path_matches_per_sample_reference(g):
    # one kappa on the sample grid, so the half step weight is used
    half = [37 * DT, 0.8, 1.1][:g]
    cf = make_counting(g, C, half + [C - k for k in half])
    t = DT * np.arange(int(200 * C / DT) + 1)
    steps = np.array([_ref_steps_below(cf, x % C) for x in t])
    assert np.any(steps % 1.0 == 0.5)
    for kind, fn in _REF_KINDS.items():
        got = counting_path(cf, kind, 200 * C, DT).samples
        ref = np.array([fn(cf, x) for x in t], dtype=complex)
        assert got.shape == ref.shape
        if kind == "S2":
            # NumPy's array power and libm's pow differ by an ulp on some inputs
            assert np.all(np.abs(got - ref) <= 1e-15 * (1.0 + np.abs(ref))), kind
        else:
            assert np.array_equal(got, ref), kind


_EVALUATORS = (s_eval, s1_eval, q_eval, s2_eval)


@given(
    half=st.lists(st.floats(0.01, 0.5 * C - 0.01), min_size=1, max_size=3),
    heights=st.lists(st.floats(0.0, 1e4 * C), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_counting_evaluators_take_floats_and_arrays(half, heights):
    cf = make_counting(len(half), C, half + [C - k for k in half])
    for fn in _EVALUATORS:
        one = [fn(cf, x) for x in heights]
        assert all(type(v) is float for v in one)
        many = fn(cf, np.array(heights))
        assert isinstance(many, np.ndarray) and many.shape == (len(heights),)
        assert np.array_equal(many, np.array(one)), fn.__name__


def test_counting_clims_numeric():
    # kappas snapped to the sample grid so the midpoint step convention makes
    # the trapezoid averages unbiased
    cf = make_counting(2, C, [37 * DT, C - 37 * DT, 55 * DT, C - 55 * DT])
    b = S0 - 0.5
    t_max = 2000 * C
    # Clim S = 0 and Clim S1 = S1av via plain averaging
    rep = clim(counting_path(cf, "S", t_max, DT), S0, 0.5, "lower", max_eigen=0, max_p=2, flat_tol=1e-2)
    assert abs(rep.value) <= 1e-3
    rep = clim(counting_path(cf, "S1", t_max, DT), S0, 0.5, "lower", max_eigen=0, max_p=2, flat_tol=1e-2)
    assert abs(rep.value - s1_av(cf)) <= 1e-3
    # Clim T*S = 0 under P^2 and Clim T^2*S = 0 under P^3
    p2 = average_P(average_P(counting_path(cf, "tS", t_max, DT)))
    assert abs(p2.samples[-1]) <= 1e-4
    p3 = average_P(average_P(average_P(counting_path(cf, "t2S", t_max, DT))))
    assert abs(p3.samples[-1]) <= 2e-3
    # Clim T*S1 = Clim S2 = -i b S1av on the lower contour
    for kind in ("tS1", "S2"):
        rep = clim(
            counting_path(cf, kind, t_max, DT), S0, 0.5, "lower",
            max_eigen=1, max_p=2, flat_tol=1e-2,
        )
        assert abs(rep.value - (-1j * b * s1_av(cf))) <= 5e-3


def _reference_plain_clim(path, s0, sigma0, direction, max_eigen, max_p, flat_tol):
    """Plain-mode clim with a complex lstsq at every stage and the fitted
    z^n terms (n >= 1) removed as explicit powers of z, on a complex copy
    of the samples."""
    f = path.samples.astype(complex)
    times = path.times
    z = (s0 - sigma0) - 1j * times if direction == "lower" else (s0 - sigma0) + 1j * times
    s = 1j if direction == "lower" else -1j
    removed = np.zeros(max_eigen + 1, dtype=complex)
    flat = math.inf
    for stage in range(max_p + 1):
        if max_eigen > 0:
            V = np.vander(times / times[-1], max_eigen + 1, increasing=True)
            coef, *_ = np.linalg.lstsq(V, f, rcond=None)
            pz = cesaro._z_coefficients(coef / times[-1] ** np.arange(max_eigen + 1), s, s0 - sigma0)
            f = f - sum(pz[n] * z**n for n in range(1, max_eigen + 1))
            removed += pz
        tail = f[int(0.9 * len(f)):]
        mean = complex(tail.mean())
        flat = float(np.max(np.abs(tail - mean)))
        if flat <= flat_tol * (1.0 + abs(mean)):
            return stage, mean, removed[1:]
        f = average_P(SampledPath(path.t0, path.dt, f)).samples
    return None, flat, None


@pytest.mark.parametrize("g", [1, 2, 3])
def test_plain_clim_matches_per_stage_lstsq_reference(g):
    half = [37 * DT, 0.8, 1.1][:g]
    cf = make_counting(g, C, half + [C - k for k in half])
    outcomes = set()
    for kind in ("S", "tS", "t2S", "S1", "tS1", "S2"):
        path = counting_path(cf, kind, 200 * C, DT)
        for direction in ("lower", "upper"):
            for max_eigen in range(4):
                args = (S0, 0.5, direction, max_eigen, 3, 1e-2)
                p_power, value, removed = _reference_plain_clim(path, *args)
                case = (kind, direction, max_eigen)
                if p_power is None:
                    with pytest.raises(NoClimError) as err:
                        clim(path, *args[:3], max_eigen=max_eigen, max_p=3, flat_tol=1e-2)
                    assert err.value.residual_flatness == pytest.approx(value, rel=1e-10), case
                    outcomes.add("none")
                    continue
                rep = clim(path, *args[:3], max_eigen=max_eigen, max_p=3, flat_tol=1e-2)
                assert rep.p_power == p_power, case
                assert 0.0 <= rep.residual_flatness <= 1e-2 * (1.0 + abs(rep.value)), case
                assert rep.value == pytest.approx(value, rel=1e-10, abs=1e-12), case
                assert [n for n, _ in rep.removed_eigen] == list(range(1, max_eigen + 1))
                got = np.array([v for _, v in rep.removed_eigen])
                assert np.allclose(got, removed, rtol=1e-10, atol=1e-12), case
                outcomes.add(p_power)
    # the cases flatten after one and after two averagings, and some never do
    assert {1, 2, "none"} <= outcomes


def test_sampled_paths_keep_their_samples_dtype():
    # real samples stay real through counting_path, ladder_path, average_P
    # and a plain clim; only the z-fit reads a complex copy
    for samples, dtype in (([1, 2], np.float64), ([True, False], np.float64),
                           (np.ones(3, np.float32), np.float64), ([1, 2j], np.complex128),
                           (np.ones(3, np.complex64), np.complex128)):
        assert SampledPath(0.0, 0.1, samples).samples.dtype == dtype, samples
    cf = make_counting(2, C, [37 * DT, C - 37 * DT, 55 * DT, C - 55 * DT])
    for kind in ("S", "tS", "t2S", "S1", "tS1", "S2"):
        assert counting_path(cf, kind, 10 * C, DT).samples.dtype == np.float64, kind
    for symbol in LEMMA_SYMBOLS:
        dtype = np.complex128 if symbol in ("z_alpha", "z_alpha2", "z2_alpha") else np.float64
        assert ladder_path(symbol, params(), 10 * C, DT).samples.dtype == dtype, symbol
    for path in (counting_path(cf, "S1", 10 * C, DT), ladder_path("z_alpha", params(), 10 * C, DT)):
        assert average_P(path).samples.dtype == path.samples.dtype
    cases = 0
    for kind in ("S", "S1", "tS1", "S2"):
        real = counting_path(cf, kind, 200 * C, DT)
        copy = SampledPath(real.t0, DT, real.samples.astype(complex))
        for max_eigen in range(3):
            args = (S0, 0.5, "lower", max_eigen, 2)
            try:
                want = clim(copy, *args, flat_tol=1e-2)
            except NoClimError:
                with pytest.raises(NoClimError):
                    clim(real, *args, flat_tol=1e-2)
                continue
            got = clim(real, *args, flat_tol=1e-2)
            assert (got.p_power, got.removed_eigen) == (want.p_power, want.removed_eigen)
            if max_eigen >= 1:
                assert got == want, (kind, max_eigen)
            else:
                assert abs(got.value - want.value) <= 1e-16 * (1.0 + abs(want.value)), kind
            cases += 1
    assert cases == 10


def test_r_critical_line_exact_zeros():
    rng = np.random.default_rng(17)
    for g in (1, 2, 3):
        half = [float(rng.uniform(0.05 * C, 0.45 * C)) for _ in range(g)]
        cf = make_counting(g, C, half + [C - k for k in half])
        eps = [0.0] * (2 * g)
        for mu in (0, -1, -2):
            res = r_critical_line(cf, S0, mu, eps)
            assert res.value == 0j
            assert all(abs(p) == 0.0 for p in res.pieces.values())
            if mu == -2:
                assert res.x_epsilon == 0j
            else:
                assert res.x_epsilon is None


def test_r_critical_line_validation():
    cf = make_counting(1, C, [0.3, C - 0.3])
    with pytest.raises(InvalidInputError):
        r_critical_line(cf, 0.9, 0, [0.0, 0.0])
    with pytest.raises(InvalidInputError):
        r_critical_line(cf, S0, 0, [0.0])  # wrong epsilon count
    with pytest.raises(UnsupportedMuError):
        r_critical_line(cf, S0, 2, [0.0, 0.0])
    for s0 in (math.nan, complex(S0, math.inf)):
        with pytest.raises(InvalidInputError):
            r_critical_line(cf, s0, -2, [0.0, 0.0])
    for eps in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(InvalidInputError):
            r_critical_line(cf, S0, -2, eps)


def test_x_epsilon_equispaced():
    assert x_epsilon_equispaced(0.6) == 0j
    assert x_epsilon_equispaced(0.5) == 0j
    # numeric route: one-sided counts of an equi-spaced off-line family
    tau0 = 0.7
    p_lo = LemmaParams(q=Q, sigma0=0.6, tau0=tau0, s0=2.0, direction="lower", t0=0.5 * DT)
    p_hi = LemmaParams(q=Q, sigma0=0.6, tau0=tau0, s0=2.0, direction="upper", t0=0.5 * DT)
    lower = ladder_path("k", p_lo, 3000 * C, DT)
    lower = SampledPath(lower.t0, DT, lower.samples + 1.0)  # j = 0 root included
    upper = ladder_path("k", p_hi, 3000 * C, DT)
    # step paths stay rough under repeated averaging, so the flatness
    # demand is relaxed to the percent level
    lo = clim(lower, 2.0, 0.6, "lower", max_eigen=1, max_p=8, flat_tol=1e-2)
    hi = clim(upper, 2.0, 0.6, "upper", max_eigen=1, max_p=8, flat_tol=1e-2)
    x = (0.6 - 0.5) ** 2 * (lo.value + hi.value)
    assert abs(x) <= (0.1**2) * 1e-2
    assert x_epsilon_equispaced(0.0) == 0j
    assert x_epsilon_equispaced(1.0) == 0j
    # off-line roots of a curve zeta function lie in 0 <= Re(s) <= 1
    for sigma0 in (math.nan, math.inf, -math.inf, 5.0, -0.1, 1.0 + 1e-9):
        with pytest.raises(InvalidInputError):
            x_epsilon_equispaced(sigma0)


# each of these escaped as a bare TypeError or ValueError, and the last as a
# ValidationError, though a NaN is bad input, not a broken structure
_MALFORMED = {
    "LambdaFactor-sigma0-str": lambda: LambdaFactor("a", 0.1),
    "LemmaParams-s0-str": lambda: LemmaParams(q=Q, sigma0=0.5, tau0=0.1, s0="x"),
    "root_side_em-s0-str": lambda: root_side_em(LambdaFactor(0.6, 0.7), Q, "x", 0.5),
    "root_side_em-mu-str": lambda: root_side_em(LambdaFactor(0.6, 0.7), Q, 5.0, "x"),
    "eval_zeta-s-str": lambda: eval_zeta(_CURVE, "x"),
    "SampledPath-t0-str": lambda: SampledPath("x", 0.1, [1.0, 2.0]),
    "SampledPath-dt-None": lambda: SampledPath(0.0, None, [1.0, 2.0]),
    "SeriesControl-tail_tol-str": lambda: SeriesControl(20, "x"),
    "deriv_side_factor-mu-str": lambda: deriv_side_factor(Q, LambdaFactor(0.6, 0.7), 5.0, ["x"]),
    "r_lambda_cesaro-s0-str": lambda: r_lambda_cesaro(LambdaFactor(0.6, 0.7), Q, "x", 0),
    "r_critical_line-s0-str": lambda: r_critical_line(_CF, "x", 0, [0, 0]),
    "root_side_total-s0-str": lambda: root_side_total(_CURVE, "x", 0.5),
    "deriv_side_total-s0-str": lambda: deriv_side_total(_CURVE, "x", 0.5),
    "clim-s0-str": lambda: clim(SampledPath(0.0, 0.1, [1.0, 2.0]), "x", 0.5, "lower", 0, 1),
    "check_functional_equation-s-str": lambda: check_functional_equation(_CURVE, "x", 1e-9),
    "make_counting-kappas-str": lambda: make_counting(1, C, ["a", "b"]),
    "make_counting-kappas-None": lambda: make_counting(1, C, None),
    "make_counting-kappas-complex": lambda: make_counting(1, C, [0.3j, 1.0]),
    "make_counting-period-str": lambda: make_counting(1, "x", [0.3, C - 0.3]),
    "r_critical_line-epsilons-str": lambda: r_critical_line(_CF, 5.0, 0, ["a", "b"]),
    "make_curve-short-pair": lambda: make_curve(Q, 1, [(0.5,), (0.5, 1.0)]),
    "make_curve-sigma0-str": lambda: make_curve(Q, 1, [("a", 1.0), ("a", C - 1.0)]),
    "make_curve-None": lambda: make_curve(Q, 1, None),
    "x_epsilon_equispaced-str": lambda: x_epsilon_equispaced("x"),
    "ladder_path-symbol-list": lambda: ladder_path(["k"], params(), 100 * C, DT),
    "counting_path-kind-list": lambda: counting_path(_CF, ["S"], 10 * C, DT),
    "make_curve-tau0-nan": lambda: make_curve(Q, 1, [(0.5, math.nan), (0.5, math.nan)]),
    # a complex number for a real argument was taken, and the value computed
    "LemmaParams-sigma0-complex": lambda: LemmaParams(q=Q, sigma0=1j, tau0=0.1, s0=S0),
    "lemma_closed_form-sigma0-complex":
        lambda: lemma_closed_form("k", "lower", 1, S0, 0.6 + 0.7j, 1j, TAU0, C),
    "clim-sigma0-complex": lambda: clim(SampledPath(0.0, 0.1, [1.0, 2.0]), S0, 1j, "lower", 0, 1),
    # a tolerance past the doubles was taken (a raised UnsupportedMuError for
    # a complex mu is now InvalidInputError, as for every real argument)
    "SeriesControl-tail_tol-past-the-doubles": lambda: SeriesControl(20, 10**400),
    "r_lambda_cesaro-mu-complex": lambda: r_lambda_cesaro(LambdaFactor(0.6, 0.7), Q, S0, 1j),
    # these escaped as a LinAlgError: the fit has more coefficients than rows
    "clim-max_eigen-past-the-samples":
        lambda: clim(SampledPath(0.0, 0.1, [1.0, 2.0, 3.0]), S0, SIGMA0, "lower", 3, 1),
    "clim-max_eigen-past-the-quarter-rows":
        lambda: clim(ladder_path("k", params(), 60 * C, DT), S0, SIGMA0, "lower", 30, 0,
                     period=C, phase=TAU0),
}


@pytest.mark.parametrize("call", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_arguments_raise_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


def test_symbol_degree_table():
    assert set(SYMBOL_DEGREE) == set(LEMMA_SYMBOLS)
    assert SYMBOL_DEGREE["k3"] == 3
    assert SYMBOL_DEGREE["k2_alpha"] == 2
    assert SYMBOL_DEGREE["alpha_n"] == 1
