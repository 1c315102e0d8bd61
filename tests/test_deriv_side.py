"""Tests for the derivative side of the identities."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaff import (
    DivergentSeriesError,
    InvalidInputError,
    LambdaFactor,
    SeriesControl,
    TailBudgetError,
    ZetaffError,
    deriv_side_factor,
    deriv_side_total,
    make_curve,
    series_tail_bound,
    vertical_spacing,
)
from zetaff.curve_model import _factor_lambda

C25 = vertical_spacing(25)
GENUS2 = [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)]


def rgamma(mu):
    """1/Gamma(mu) by the library's rule: exactly 0.0 at a nonpositive integer
    order, decided from mu itself, and 1.0 / math.gamma(mu) elsewhere."""
    return 0.0 if mu <= 0.0 and mu.is_integer() else 1.0 / math.gamma(mu)


def oracle_factor(q, sigma0, tau0, nu, s0, mu, n_terms):
    """Independent high-precision replication of the factor series."""
    mp.mp.dps = 40
    lnq = mp.log(q)
    lam = mp.mpf(q) ** sigma0 * mp.exp(1j * mp.mpf(tau0) * lnq)
    x = lam * mp.exp(-mp.mpc(s0) * lnq)
    total = mp.fsum(x**n / mp.mpf(n) ** (1 - mp.mpf(mu)) for n in range(1, n_terms + 1))
    pref = mp.exp(1j * mp.pi * mp.mpf(mu)) / mp.gamma(mp.mpf(mu)) * lnq ** mp.mpf(mu)
    return complex(pref * nu * total)


@pytest.mark.parametrize("mu", [2.6, 1.3, 0.5, -0.5, -1.7])
def test_factor_matches_high_precision_series(mu):
    f = LambdaFactor(0.6, 0.7, 1)
    ctl = SeriesControl(n_terms=20, tail_tol=1e-12)
    got = deriv_side_factor(25, f, 5.1238, mu, ctl)
    expected = oracle_factor(25, 0.6, 0.7, 1, 5.1238, mu, 20)
    assert got == pytest.approx(expected, rel=1e-13)


def test_factor_complex_s0_matches_high_precision_series():
    f = LambdaFactor(0.6, 0.7, 1)
    ctl = SeriesControl(n_terms=20, tail_tol=1e-12)
    s0 = 4.2 - 1.3j
    got = deriv_side_factor(25, f, s0, 2.6, ctl)
    expected = oracle_factor(25, 0.6, 0.7, 1, s0, 2.6, 20)
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("mu", [0.0, -0.0, -1.0, -2.0, -3.0])
def test_factor_zero_at_nonpositive_integer_mu(mu):
    """A nonpositive integer order, -0.0 included, is recognised from mu
    itself: 1/Gamma(mu) vanishes there and the value is 0j bit for bit."""
    f = LambdaFactor(0.6, 0.7, 1)
    assert repr(deriv_side_factor(25, f, 5.1238, mu)) == "0j"


def test_total_zero_at_nonpositive_integer_mu_is_bit_exact():
    curve = make_curve(25, 2, GENUS2)
    for mu in (0, -0.0, -1, -2, -3):
        assert repr(deriv_side_total(curve, 3.3 + 0.4j, mu)) == "0j"


def test_rgamma_rule_matches_high_precision():
    # the rule one_order_reference shares with the library, against mpmath
    # across the orders where 1/Gamma(mu) is a normal double
    rng = random.Random(171)
    orders = [rng.uniform(-171.0, 171.6) for _ in range(2000)]
    orders += [-170.5, -0.5, 0.5, 1.0, 2.0, 171.6]
    with mp.workdps(40):
        for mu in orders:
            want = mp.rgamma(mp.mpf(mu))
            assert abs(rgamma(mu) - want) <= 2e-15 * abs(want), mu


def test_orders_beyond_the_gamma_range_raise():
    # above mu ~ 171.6 1/Gamma(mu) underflows, and the total runs the series
    # checks there as the factor does, instead of taking the order as a zero
    curve = make_curve(25, 2, GENUS2)
    with pytest.raises(TailBudgetError):
        deriv_side_total(curve, 5.1238, 300.0)
    with pytest.raises(TailBudgetError):
        deriv_side_factor(25, LambdaFactor(0.6, 0.7, 1), 5.1238, 300.0)
    # below mu ~ -171 Gamma(mu) is subnormal or zero, so 1/Gamma(mu) is not
    # a finite double
    for mu in (-171.5, -200.5):
        with pytest.raises(InvalidInputError):
            deriv_side_total(curve, 5.1238, mu)
        with pytest.raises(InvalidInputError):
            deriv_side_factor(25, LambdaFactor(0.6, 0.7, 1), 5.1238, mu)


@given(st.one_of(st.floats(-200.0, 250.0), st.integers(-200, 250).map(float)))
@settings(max_examples=200, deadline=None)
def test_domain_edges_give_finite_values_or_raise(mu):
    curve = make_curve(25, 2, GENUS2)
    for call in (lambda: deriv_side_factor(25, LambdaFactor(0.6, 0.7, 1), 5.1238, mu),
                 lambda: deriv_side_total(curve, 5.1238, mu)):
        try:
            value = call()
        except ZetaffError:
            continue
        assert cmath.isfinite(value), mu
    if mu <= 0.0 and mu.is_integer():
        assert repr(deriv_side_total(curve, 5.1238, mu)) == "0j"


def test_series_tail_bound_behaviour():
    assert series_tail_bound(1.0, 2.0, 10) == math.inf
    assert series_tail_bound(1.3, 2.0, 10) == math.inf
    # a power beyond the double range gives inf, not OverflowError
    assert series_tail_bound(4.7e-7, 300.0, 20) == math.inf
    assert series_tail_bound(0.5, 1e5, 20) == math.inf
    # decreasing in the truncation length
    bounds = [series_tail_bound(0.3, 2.6, n) for n in (5, 10, 20, 40)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    # the bound dominates the true tail of the mu = 1 geometric-type series
    ratio, n = 0.25, 12
    true_tail = sum(ratio**j for j in range(n + 1, 400))
    assert series_tail_bound(ratio, 1.0, n) >= true_tail
    # no terms kept: the whole series sum_{n >= 1} 2^-n = 1, exactly
    assert series_tail_bound(0.5, 1.0, 0) == 1.0
    # a negative ratio gave a negative "bound", n_terms = -1 a bare
    # ZeroDivisionError, and n_terms = 2.5 or True a value
    for ratio, mu, n in ((-0.5, 1.0, 10), (-0.5, 2.5, 10), (0.5, 1.0, -1), (0.5, 1.0, 2.5),
                         (0.5, 1.0, True), (0.5j, 1.0, 10), ("x", 1.0, 10), (math.nan, 1.0, 10)):
        with pytest.raises(InvalidInputError):
            series_tail_bound(ratio, mu, n)


def test_series_tail_bound_holds_for_all_mu():
    # the bound against the tail sum_{n > N} n^(mu-1) rho^n to 30 digits,
    # including mu > 1, where the terms first grow like n^(mu-1); the sum is
    # direct because nsum's default extrapolation is off by up to 6e-6
    # relative on some of these tails
    with mp.workdps(30):
        for rho in (0.05, 0.3, 0.6, 0.9):
            for mu in (-2.0, 0.5, 1.5, 2.6, 4.0):
                for n in (5, 20, 60):
                    r, m = mp.mpf(rho), mp.mpf(mu)
                    true_tail = mp.nsum(
                        lambda j: j ** (m - 1) * r**j, [n + 1, mp.inf],
                        method="direct", steps=[2000],
                    )
                    assert series_tail_bound(rho, mu, n) >= true_tail, (rho, mu, n)


def test_divergent_series_error():
    f = LambdaFactor(0.6, 0.7, 1)
    with pytest.raises(DivergentSeriesError):
        deriv_side_factor(25, f, 0.55, 2.6)
    with pytest.raises(DivergentSeriesError):
        deriv_side_factor(25, f, 0.6, 2.6)  # |x| = 1 exactly on the ladder line
    # q^(-s0) overflows a double: this was an OverflowError from cmath.exp
    with pytest.raises(DivergentSeriesError):
        deriv_side_factor(25, f, -1000.0, 2.6)
    # Im(s0)*ln q overflows, so q^(-s0) has no phase: a ValueError from cmath.exp
    with pytest.raises(InvalidInputError):
        deriv_side_factor(25, f, complex(5.1238, 1e308), 2.6)


@pytest.mark.parametrize("q", [6, 0, -4, 1])
def test_factor_rejects_a_q_that_is_no_prime_power(q):
    # q = 6 returned a number, and q <= 0 raised ValueError from math.log
    with pytest.raises(InvalidInputError, match="prime power"):
        deriv_side_factor(q, LambdaFactor(0.6, 0.7, 1), 5.0, 0.5)


def test_tail_budget_error_reports_achieved_bound():
    f = LambdaFactor(0.6, 0.0, 1)
    ctl = SeriesControl(n_terms=1, tail_tol=1e-12)
    with pytest.raises(TailBudgetError) as exc:
        deriv_side_factor(25, f, 1.2, 2.6, ctl)
    assert exc.value.achieved > 1e-12


def test_series_control_validation():
    # a NaN tail_tol turned the tail check off, and n_terms = 2.5 was accepted
    for bad in (dict(n_terms=0), dict(n_terms=2.5), dict(n_terms=True), dict(n_terms=20.0),
                dict(tail_tol=0.0), dict(tail_tol=math.nan),
                # past 2**53 a term index is no exact double; 10**20 raised
                # ValueError from np.arange
                dict(n_terms=2**53), dict(n_terms=10**20)):
        with pytest.raises(InvalidInputError):
            SeriesControl(**bad)
    assert SeriesControl(n_terms=2**53 - 1).n_terms == 2**53 - 1
    # inf turns the tail check off on purpose: the bitwise grid tests use it
    assert SeriesControl(n_terms=np.int64(5), tail_tol=math.inf).tail_tol == math.inf


def test_series_that_is_not_finite_raises():
    # with the tail check off, n ** (1 - mu) underflows to 0 for large n at
    # mu = 171 and the sum was nan+nanj; the value decides, not a warning
    ctl = SeriesControl(n_terms=100, tail_tol=math.inf)
    f = LambdaFactor(0.6, 0.7, 1)
    curve = make_curve(25, 2, GENUS2)
    for call in (lambda mu: deriv_side_factor(25, f, 5.1238, mu, ctl),
                 lambda mu: deriv_side_total(curve, 5.1238, mu, ctl)):
        for mu in (171.0, [2.0, 171.0], [171.0, 2.0]):
            with pytest.raises(InvalidInputError, match="mu = 171.0"):
                call(mu)
        assert cmath.isfinite(call(150.0))


def test_conjugate_factor_symmetry():
    # factors at tau0 and C - tau0 carry conjugate lambdas, so after removing
    # the common phase e^(i*pi*mu) the two values are complex conjugates
    mu = 2.6
    phase = complex(mp.exp(-1j * mp.pi * mu))
    d1 = phase * deriv_side_factor(25, LambdaFactor(0.6, 0.7, 1), 5.1238, mu)
    d2 = phase * deriv_side_factor(25, LambdaFactor(0.6, C25 - 0.7, 1), 5.1238, mu)
    assert d2 == pytest.approx(d1.conjugate(), rel=1e-13)


def test_total_requires_re_s0_above_one():
    curve = make_curve(25, 0, [])
    with pytest.raises(InvalidInputError):
        deriv_side_total(curve, 0.9, 2.6)


@pytest.mark.parametrize(
    "s0, mu",
    [(math.nan, 2.6), (complex(5.1238, math.inf), 2.6), (5.1238, math.nan), (5.1238, math.inf)],
)
def test_non_finite_s0_or_mu_rejected(s0, mu):
    with pytest.raises(InvalidInputError):
        deriv_side_factor(25, LambdaFactor(0.6, 0.7, 1), s0, mu)
    with pytest.raises(InvalidInputError):
        deriv_side_total(make_curve(25, 0, []), s0, mu)


def test_total_is_sum_of_factors():
    curve = make_curve(25, 1, [(0.6, C25 / 2), (0.4, C25 / 2)])
    ctl = SeriesControl(n_terms=25, tail_tol=1e-10)
    s0, mu = 3.7, 2.2
    total = deriv_side_total(curve, s0, mu, ctl)
    parts = sum(deriv_side_factor(25, f, s0, mu, ctl) for f in curve.factors)
    assert total == pytest.approx(parts, rel=1e-14)


#: the scan-mu default grid, formed as scan-mu forms it, and orders where
#: 1/Gamma(mu) vanishes or n ** (1 - mu) is a square root or a reciprocal
GRID = [-1.45 + i * 0.1 for i in range(41)] + [0.0, -1.0, -2.0, 0.5, 2.0, 1.0, 3.7]


def one_order_reference(q, factor, s0, mu, n_terms):
    """The factor series as a one-order expression: the reference a grid
    call must match bit for bit."""
    x = _factor_lambda(factor, q) * cmath.exp(-complex(s0) * math.log(q))
    rg = rgamma(mu)
    if rg == 0.0:
        return 0j
    n = np.arange(1, n_terms + 1)
    total = complex(np.sum(x**n / n.astype(float) ** (1.0 - mu)))
    return cmath.exp(1j * math.pi * mu) * rg * math.log(q) ** mu * factor.nu * total


@pytest.mark.parametrize("n_terms", [20, 60])
def test_order_grid_matches_one_order_series_bitwise(n_terms):
    ctl = SeriesControl(n_terms=n_terms, tail_tol=math.inf)
    rng = random.Random(n_terms)
    for _ in range(20):
        f = LambdaFactor(rng.uniform(0.0, 1.0), rng.uniform(0.0, C25), 1)
        # Re(s0) - sigma0 from 4 down to 1e-3, where |x| > 0.99: terms that
        # barely fall keep a last-bit change of any of them in the sum
        s0 = complex(f.sigma0 + 10.0 ** rng.uniform(-3.0, 0.6), rng.uniform(-1.0, 1.0))
        got = deriv_side_factor(25, f, s0, GRID, ctl)
        assert got.dtype == complex and got.shape == (len(GRID),)
        want = [one_order_reference(25, f, s0, mu, n_terms) for mu in GRID]
        assert repr(got.tolist()) == repr(want)
        assert repr([deriv_side_factor(25, f, s0, mu, ctl) for mu in GRID]) == repr(want)


def test_total_order_grid_matches_one_order_calls_bitwise():
    curve = make_curve(25, 2, GENUS2)
    got = deriv_side_total(curve, 5.1238, GRID)
    assert repr(got.tolist()) == repr([deriv_side_total(curve, 5.1238, mu) for mu in GRID])
    assert repr(got.tolist()[41:44]) == repr([0j, 0j, 0j])
    assert type(deriv_side_total(curve, 5.1238, 2.6)) is complex


@pytest.mark.parametrize("grid, error", [([0.5, math.nan, 2.6, 150.0], InvalidInputError),
                                         ([0.5, 150.0, 2.6, math.nan], TailBudgetError),
                                         ([0.5, -171.5, 300.0], InvalidInputError),
                                         ([0.5, 300.0, -171.5], TailBudgetError)])
def test_order_grid_raises_as_its_first_offending_order(grid, error):
    curve = make_curve(25, 0, [])
    for call in (lambda: deriv_side_factor(25, LambdaFactor(0.6, 0.7, 1), 5.1238, grid),
                 lambda: deriv_side_total(curve, 5.1238, grid)):
        with pytest.raises(error):
            call()
