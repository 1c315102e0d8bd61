"""Tests for the root side: classical sum and Euler-McLaurin continuation."""

import cmath
import importlib.util
import math
import random
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaff import (
    CurveZeta,
    InvalidInputError,
    LambdaFactor,
    OrderInsufficientError,
    RegularizedSum,
    RemovableSingularityError,
    SeriesControl,
    WrongRegimeError,
    ZetaffError,
    deriv_side_factor,
    deriv_side_total,
    make_curve,
    root_side_classical,
    root_side_em,
    root_side_total,
    vertical_spacing,
)
from zetaff import _kernels, root_side
from zetaff.root_side import _BERNOULLI, _K_CANDIDATES, _ladder_offset

C25 = vertical_spacing(25)
S0 = 5.1238
FACTOR = LambdaFactor(0.6, 0.7, 1)
A = complex(S0) - complex(0.6, 0.7)


def ladder_sum_oracle(a, C, mu):
    """Full two-sided ladder power sum via the Hurwitz zeta function.

    sum_{j in Z} (a - iCj)^(-mu)
        = (-iC)^(-mu) zeta(mu, ia/C) + (iC)^(-mu) zeta(mu, 1 - ia/C),

    which also provides the analytic continuation to mu <= 1 (the branch
    factors are safe because Re(ia/C) > 0 on the configurations used here).
    """
    mp.mp.dps = 40
    a = mp.mpc(a)
    mu = mp.mpf(mu)
    lower = (-1j * C) ** (-mu) * mp.zeta(mu, 1j * a / C)
    upper = (1j * C) ** (-mu) * mp.zeta(mu, 1 - 1j * a / C)
    return complex(lower + upper)


def em_budget(value: RegularizedSum, a, C, mu):
    """Error budget: the first omitted correction term plus the rounding
    floor of the symmetric sum, which cancels to |w_k|^(1-mu) * eps for
    negative mu."""
    wk = abs(a - 1j * C * value.k_used)
    return 10.0 * value.est_error + 1e-13 * wk ** max(1.0 - mu, 1.0)


@pytest.mark.parametrize("mu", [3.5, 2.6, 2.0, 1.3, 0.5, -0.5, -1.7, -2.5])
def test_em_matches_hurwitz_oracle(mu):
    got = root_side_em(FACTOR, 25, S0, mu, 2000)
    expected = cmath.exp(1j * math.pi * mu) * ladder_sum_oracle(A, C25, mu)
    assert abs(got.value - expected) <= em_budget(got, A, C25, mu)


def test_em_matches_oracle_tightly_in_convergent_regime():
    for mu in (2.6, 3.5):
        got = root_side_em(FACTOR, 25, S0, mu, 1000)
        expected = cmath.exp(1j * math.pi * mu) * ladder_sum_oracle(A, C25, mu)
        assert got.value == pytest.approx(expected, abs=1e-12)


def test_mu2_special_case_cotangent_identity():
    # sum_{j in Z} (a - iCj)^(-2) = -(pi/C)^2 / sin(pi*i*a/C)^2
    mp.mp.dps = 40
    expected = complex(-((mp.pi / C25) ** 2) / mp.sin(mp.pi * 1j * mp.mpc(A) / C25) ** 2)
    assert ladder_sum_oracle(A, C25, 2.0) == pytest.approx(expected, rel=1e-25)
    got = root_side_em(FACTOR, 25, S0, 2.0, 2000)
    assert got.value == pytest.approx(cmath.exp(2j * math.pi) * expected, abs=1e-11)


def test_classical_matches_direct_sum_small_k():
    mp.mp.dps = 40
    mu, k = 2.6, 50
    direct = mp.fsum((mp.mpc(A) - 1j * C25 * j) ** (-mp.mpf(mu)) for j in range(-k, k + 1))
    expected = complex(mp.exp(1j * mp.pi * mp.mpf(mu)) * direct)
    assert root_side_classical(FACTOR, 25, S0, mu, k) == pytest.approx(expected, rel=1e-14)


def test_classical_k0_is_single_term():
    mu = 2.6
    got = root_side_classical(FACTOR, 25, S0, mu, 0)
    assert got == pytest.approx(cmath.exp(1j * math.pi * mu) * A ** (-mu), rel=1e-14)


@pytest.mark.parametrize("mu", [1.1, 1.5, 2.6, 4.0])
def test_classical_error_is_of_the_order_of_the_two_tails(mu):
    # the classical sum reports no bound; its error against the continued
    # sum is |cos(pi*mu/2)| E for large k, E = 2 (Ck)^(1-mu) / ((mu-1) C)
    ref = root_side_em(FACTOR, 25, S0, mu, 1000).value
    for k in (10, 100, 1000, 10**4):
        tails = 2.0 * (C25 * k) ** (1.0 - mu) / ((mu - 1.0) * C25)
        ratio = abs(root_side_classical(FACTOR, 25, S0, mu, k) - ref) / tails
        assert 0.1 <= ratio <= 1.5, (k, ratio)


def test_classical_rejects_wrong_regime():
    with pytest.raises(WrongRegimeError):
        root_side_classical(FACTOR, 25, S0, 1.0, 100)
    with pytest.raises(WrongRegimeError):
        root_side_classical(FACTOR, 25, S0, 0.3, 100)
    # k = 2.5 summed at k = 2, and 2**53 escaped as a MemoryError
    for k in (-1, 2.5, 2.0, True, 2**53):
        with pytest.raises(InvalidInputError):
            root_side_classical(FACTOR, 25, S0, 2.6, k)
    for q in (0, 1, 6):  # C = 2*pi/ln q needs a prime power q
        with pytest.raises(InvalidInputError):
            root_side_classical(FACTOR, q, S0, 2.6, 100)


def test_k_past_the_budget_raises_before_the_kernel(monkeypatch):
    # k = 2**52 asked the kernel for a 64 GiB table of block sums and
    # escaped as a bare MemoryError; a k near 10**13 got a table that fits
    # and then about 10**7 blocks of 2**20 terms to sum
    def unreachable(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(root_side, "power_sum_symmetric", unreachable)
    monkeypatch.setattr(_kernels, "power_sum_symmetric", unreachable)
    curve = make_curve(25, 1, [(0.5, 0.4), (0.5, C25 - 0.4)])
    for k in (root_side._MAX_K + 1, 10**13, 2**52):
        with pytest.raises(InvalidInputError, match="budget"):
            root_side_classical(FACTOR, 25, S0, 2.6, k)
        with pytest.raises(InvalidInputError, match="budget"):
            root_side_em(FACTOR, 25, S0, [0.5, -1.45], k)
        with pytest.raises(InvalidInputError, match="budget"):
            root_side_total(curve, S0, -1.45, k)
    # the k = 10**7 classical oracle is inside the budget
    assert root_side._MAX_K >= 10**7


def test_em_error_cases():
    # the orders within 1e-9 of 1: at 1 + 1e-12 the value was 1.1e-4 with
    # est_error 1.7e-3
    for mu in (1.0, 1.0 + 1e-12, 1.0 - 0.9e-9, 1.0 + 0.9e-9):
        for k in (None, 1000):
            with pytest.raises(RemovableSingularityError, match="mu = 1"):
                root_side_em(FACTOR, 25, S0, mu, k)
    assert isinstance(root_side_em(FACTOR, 25, S0, 1.0 + 2e-9), RegularizedSum)
    # k = 2.5 ran at k = 2 and True at k = 1; 10**20 escaped as a MemoryError
    for k in (2.5, 2.0, True, 10**20, 2**53):
        with pytest.raises(InvalidInputError):
            root_side_em(FACTOR, 25, S0, 0.5, k)
    assert root_side_em(FACTOR, 25, S0, 0.5, np.int64(10)) == root_side_em(FACTOR, 25, S0, 0.5, 10)
    with pytest.raises(OrderInsufficientError):
        root_side_em(FACTOR, 25, S0, -5.0, 1000)
    with pytest.raises(OrderInsufficientError):
        root_side_em(FACTOR, 25, S0, -6.2, 1000)
    with pytest.raises(InvalidInputError):
        root_side_em(FACTOR, 25, S0, 2.6, 0)
    for q in (0, 1, 6):
        with pytest.raises(InvalidInputError):
            root_side_em(FACTOR, q, S0, 2.6, 1000)


@pytest.mark.parametrize(
    "s0, mu",
    [(math.nan, 2.6), (complex(S0, -math.inf), 2.6), (S0, math.nan), (S0, math.inf)],
)
def test_non_finite_s0_or_mu_rejected(s0, mu):
    with pytest.raises(InvalidInputError):
        root_side_em(FACTOR, 25, s0, mu, 1000)
    with pytest.raises(InvalidInputError):
        root_side_classical(FACTOR, 25, s0, mu, 100)
    with pytest.raises(InvalidInputError):
        root_side_total(make_curve(25, 0, []), s0, mu, 1000)


def test_em_mu0_exact_zero():
    # at mu = 0 the truncated sum is 2k+1 and the subtracted boundary terms
    # are exactly 2k and 1, so the continuation cancels bit-exactly
    got = root_side_em(FACTOR, 25, S0, 0.0, 1000)
    assert got.value == 0j
    assert root_side_em(FACTOR, 25, S0, 0.0).value == 0j
    # for every truncation and base root, not only for lucky roundings
    for k in range(1, 130):
        assert root_side_em(FACTOR, 25, S0, 0.0, k).value == 0j, k
    rng = random.Random(5)
    for _ in range(20):
        f = LambdaFactor(rng.uniform(0.0, 1.0), rng.uniform(0.0, C25), 1)
        s0 = complex(rng.uniform(1.5, 5.0), rng.uniform(-1.0, 1.0))
        for k in (None, 27, 1000):
            assert root_side_em(f, 25, s0, 0.0, k).value == 0j, (f, s0, k)


def test_em_negative_integer_mu_near_zero():
    assert abs(root_side_em(FACTOR, 25, S0, -1.0, 1000).value) <= 1e-9
    assert abs(root_side_em(FACTOR, 25, S0, -2.0, 1000).value) <= 1e-5


def test_em_k_stability():
    for mu in (2.6, 0.5, -2.0):
        a = root_side_em(FACTOR, 25, S0, mu, 500)
        b = root_side_em(FACTOR, 25, S0, mu, 4000)
        budget = em_budget(a, A, C25, mu) + em_budget(b, A, C25, mu)
        assert abs(a.value - b.value) <= budget


def test_em_real_on_real_axis():
    # tau0 = 0 and real s0: the ladder is conjugation-symmetric, so the value
    # is e^(i*pi*mu) times a real number
    f = LambdaFactor(0.6, 0.0, 1)
    for mu in (2.6, 0.5, -0.5):
        got = root_side_em(f, 25, 4.2, mu, 1000)
        rotated = cmath.exp(-1j * math.pi * mu) * got.value
        # imaginary residue is bounded by the cancellation floor of the sum
        assert abs(rotated.imag) <= em_budget(got, 3.6 + 0j, C25, mu)


def test_em_conjugate_pair_real_combination():
    mu = 2.3
    v1 = root_side_em(LambdaFactor(0.6, 0.7, 1), 25, 4.2, mu, 1000).value
    v2 = root_side_em(LambdaFactor(0.6, C25 - 0.7, 1), 25, 4.2, mu, 1000).value
    combined = cmath.exp(-1j * math.pi * mu) * (v1 + v2)
    assert abs(combined.imag) <= 1e-12 * (1 + abs(combined))


def assert_ledger(got: RegularizedSum):
    """The error split and the ledger a RegularizedSum is built with."""
    assert got.truncation_error >= 0.0 and got.rounding_error >= 0.0
    assert got.est_error == got.truncation_error + got.rounding_error
    labels = [label for label, _ in got.corrections]
    bernoulli = [f"B{2 * m}-term" for m in range(1, got.order // 2 + 1)]
    assert labels == ["boundary-power", "half-term"] + bernoulli


def test_em_report_fields():
    got = root_side_em(FACTOR, 25, S0, 2.6, 1000)
    assert got.k_used == 1000
    assert got.order == 16
    assert_ledger(got)
    # continuation identity: value + corrections = truncated classical sum
    total = got.value + sum(v for _, v in got.corrections)
    classical = root_side_classical(FACTOR, 25, S0, 2.6, 1000)
    assert total == pytest.approx(classical, rel=1e-12)


@pytest.mark.parametrize("k", [None, 4, 1000])
def test_root_side_results_carry_their_ledger(k, monkeypatch):
    # RegularizedSum is a plain record: what root_side_em and both totals
    # build must hold the split and the labels themselves
    mus = [-4.5, -1.45, 0.0, 0.5, 2.6, 3.5]
    built = root_side_em(FACTOR, 25, S0, mus, k) + [root_side_em(FACTOR, 25, S0, -1.45, k)]
    em_sums = root_side._em_sums

    def spy(*args):
        out = em_sums(*args)
        built.extend(result for rows in out for result in rows)
        return out

    monkeypatch.setattr(root_side, "_em_sums", spy)
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    root_side_total(curve, S0, mus, k)
    root_side_total(curve, S0, 2.6, k)
    assert len(built) == 7 + 7 * len(curve.factors)
    for got in built:
        assert_ledger(got)
    assert len({got.order for got in built}) > 1


@pytest.mark.parametrize("k", [None, 4, 10, 1000])
@pytest.mark.parametrize("mu", [-4.5, -3.5, -1.45, -0.45, 0.5, 2.6])
def test_est_error_covers_oracle_error(mu, k):
    # est_error is the first omitted Bernoulli term plus the rounding of the
    # cancelling sum; at k = 4 the first dominates, at mu = -4.5 and k = 1000
    # the second (the error is about 1e2 there)
    got = root_side_em(FACTOR, 25, S0, mu, k)
    expected = cmath.exp(1j * math.pi * mu) * ladder_sum_oracle(A, C25, mu)
    assert abs(got.value - expected) <= got.est_error
    assert got.est_error == got.truncation_error + got.rounding_error
    assert got.k_used == (k if k is not None else got.k_used)


@pytest.mark.parametrize("q", [4, 9])
def test_em_keeps_bernoulli_terms_while_their_bounds_shrink(q):
    # near the truncation point |w| is only a few C, so the asymptotic
    # Bernoulli terms stop shrinking before B16; est_error still holds
    C = vertical_spacing(q)
    orders = []
    for mu in (2.6, 0.5, -1.45):
        for k in (1, 2):
            got = root_side_em(FACTOR, q, S0, mu, k)
            expected = cmath.exp(1j * math.pi * mu) * ladder_sum_oracle(A, C, mu)
            assert abs(got.value - expected) <= got.est_error, (mu, k)
            assert len(got.corrections) == 2 + got.order // 2
            orders.append(got.order)
    assert min(orders) < 16 and max(orders) == 16
    # at mu = -1 the series ends: B4 and beyond vanish, nothing is truncated
    got = root_side_em(FACTOR, q, S0, -1.0, 1)
    assert got.order == 4 and got.truncation_error == 0.0


def test_default_k_is_chosen_by_the_error_model():
    for mu in (-4.5, -1.45, 0.5, 2.6):
        got = root_side_em(FACTOR, 25, S0, mu)
        assert got.k_used in _K_CANDIDATES
        # the choice has the smallest modelled error among its neighbours,
        # and the value is that of the explicit call
        explicit = root_side_em(FACTOR, 25, S0, mu, got.k_used)
        assert explicit.value == got.value and explicit.est_error == got.est_error
        i = _K_CANDIDATES.index(got.k_used)
        for j in (i - 1, i + 1):
            if 0 <= j < len(_K_CANDIDATES):
                assert root_side_em(FACTOR, 25, S0, mu, _K_CANDIDATES[j]).est_error >= got.est_error
        # and it is far more accurate than the old fixed k = 1000 at mu < 0
        assert got.est_error <= root_side_em(FACTOR, 25, S0, mu, 1000).est_error
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    total = root_side_total(curve, S0, -1.45)
    assert total == sum(root_side_em(f, 25, S0, -1.45).value for f in curve.factors)


def test_default_k_and_order_table():
    # (k_used, order) of the default k at the scan-mu default factor, one row
    # per s0 and one column per mu in (-4.5, -1.45, 0.05, 0.95, 2.55)
    table = {
        5.1238: [(4, 16), (6, 16), (6, 16), (10, 16), (10, 16)],
        2 + 12j * C25: [(16, 16), (16, 16), (16, 16), (25, 16), (25, 16)],
        1.2 + 40j * C25: [(40, 14), (64, 16), (64, 16), (64, 16), (64, 16)],
        3 + 300j * C25: [(400, 16)] * 5,
    }
    f = LambdaFactor(0.6, 3 * math.pi / 4)
    for s0, row in table.items():
        got = [root_side_em(f, 25, s0, mu) for mu in (-4.5, -1.45, 0.05, 0.95, 2.55)]
        assert [(r.k_used, r.order) for r in got] == row, s0


@pytest.mark.parametrize("mu", [-1.45, 0.5, 2.6])
def test_default_k_window_reaches_the_rung_nearest_s0(mu):
    # at Im(s0 - r0) = 5.1 C the error model chose k = 4, which leaves the
    # rung nearest s0 in a tail: the error was 0.04 against an est_error of
    # 1e-4 at mu = 0.5
    f, q, s0 = LambdaFactor(0.6, 0.7, 1), 3, 3.0 + 30.0j
    C = vertical_spacing(q)
    a = _ladder_offset(f, C, s0)
    got = root_side_em(f, q, s0, mu)
    assert got.k_used * C >= abs(a.imag)
    expected = cmath.exp(1j * math.pi * mu) * ladder_sum_oracle(a, C, mu)
    assert abs(got.value - expected) <= got.est_error
    # with C*1000 < |Im(s0 - r0)| no candidate reaches the rung; k = 1000
    # there is 95% off the derivative side at mu = -1.45
    with pytest.raises(InvalidInputError, match="misses the rung"):
        root_side_em(LambdaFactor(0.6, 3 * math.pi / 4, 1), 25, S0 + 2000j, mu)


def test_explicit_k_must_reach_the_rung_nearest_s0():
    # C*4 = 22.9 < Im(s0 - r0) = 29.3: this call was 0.044 off the oracle
    # while its est_error read 1.05e-4
    f, q, s0 = LambdaFactor(0.6, 0.7, 1), 3, 3.0 + 30.0j
    with pytest.raises(InvalidInputError, match="misses the rung"):
        root_side_em(f, q, s0, 0.5, 4)
    with pytest.raises(InvalidInputError, match="misses the rung"):
        root_side_em(f, q, s0, [2.6, 0.5], 5)
    # the default k is held to the same rule: when no candidate reaches the
    # rung it raises what the largest, k = 1000, raises
    far = LambdaFactor(0.6, 3 * math.pi / 4, 1), 25, S0 + 2000j, -1.45
    with pytest.raises(InvalidInputError) as default:
        root_side_em(*far)
    with pytest.raises(InvalidInputError) as largest:
        root_side_em(*far, 1000)
    assert str(default.value) == str(largest.value)
    # the smallest k that reaches the rung is used as given, and its bound holds
    C = vertical_spacing(q)
    a = _ladder_offset(f, C, s0)
    got = root_side_em(f, q, s0, 0.5, 6)
    assert got.k_used == 6 and 5 * C < abs(a.imag) <= 6 * C
    expected = cmath.exp(1j * math.pi * 0.5) * ladder_sum_oracle(a, C, 0.5)
    assert abs(got.value - expected) <= got.est_error


def test_rung_is_checked_before_any_model_runs():
    # the first factor's model overflows at mu = -4.5 and the second misses
    # the rung at k = 1; the rung is checked for every factor first
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    s0 = 1e70 - 1j
    with pytest.raises(InvalidInputError, match="overflow"):
        root_side_em(curve.factors[0], 25, s0, -4.5, 1)
    with pytest.raises(InvalidInputError, match="misses the rung"):
        root_side_total(curve, s0, -4.5, 1)


_PRIME_POWERS = [2, 3, 4, 9, 25, 49, 125]


@st.composite
def q_and_factor(draw):
    q = draw(st.sampled_from(_PRIME_POWERS))
    C = vertical_spacing(q)
    return q, LambdaFactor(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, C, exclude_max=True)))


@given(
    qf=q_and_factor(),
    mu=st.one_of(st.floats(-5.0, 300.0, exclude_min=True), st.floats(1.0 - 1e-6, 1.0 + 1e-6)),
    s0=st.builds(complex, st.floats(-3.0, 8.0), st.floats(-50.0, 50.0)),
    k=st.sampled_from([None, 1, 3, 1000]),
)
# w**(-mu) at an integer mu multiplies out w**mu, which overflows to a NaN
@example(qf=(2, LambdaFactor(0.0, 0.0)), mu=79.0, s0=1 + 0j, k=1000)
@settings(max_examples=300, deadline=None)
def test_root_side_domain_edges_give_finite_values_or_raise(qf, mu, s0, k):
    q, f = qf
    try:
        got = root_side_em(f, q, s0, mu, k)
    except ZetaffError:
        return
    assert cmath.isfinite(got.value) and math.isfinite(got.est_error)


@st.composite
def curves(draw):
    """A curve from make_curve: 0 to 2 generic quadruples of base roots and
    an optional critical-line pair, closed under q/lambda and conjugation."""
    q = draw(st.sampled_from(_PRIME_POWERS))
    C = vertical_spacing(q)
    roots = []
    for _ in range(draw(st.integers(0, 2))):
        s, t = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, C, exclude_max=True))
        roots += [(s, t), (1.0 - s, C - t), (s, C - t), (1.0 - s, t)]
    if draw(st.booleans()):
        t = draw(st.floats(0.0, C, exclude_max=True))
        roots += [(0.5, t), (0.5, C - t)]
    return make_curve(q, len(roots) // 2, roots)


@given(
    curve=curves(),
    re_s0=st.floats(1.0, 8.0, exclude_min=True),
    im_s0=st.floats(-50.0, 50.0),
    mu=st.floats(-4.5, 6.0),
)
@settings(max_examples=150, deadline=None)
def test_conjugation_symmetry_of_both_totals(curve, re_s0, im_s0, mu):
    """e^(-i pi mu) side(conj s0) = conj(e^(-i pi mu) side(s0)) on both sides.

    The factor set is closed under conjugation, so both sides are real
    after the phase at real s0.  The root side is held to the summed
    est_error of its factors at s0 and at conj s0.  The derivative side
    is held to rounding: eps times the moduli of the summed terms, times
    4 n_terms for the growth of a power x^n's rounding with n.

    The root side failed this by up to 2e4x at |Im s0| <= 10, where the
    default k left the rung nearest s0 outside the window, and by up to 35x
    at Re s0 = 1 + 2e-15, before est_error counted the rounding of the rung
    offsets Im a - C*j.
    """
    s0 = complex(re_s0, im_s0)
    phase = cmath.exp(-1j * math.pi * mu)
    q, factors = curve.q, curve.factors
    try:
        rs = [root_side_em(f, q, s0, mu) for f in factors]
    except RemovableSingularityError:
        return
    rc = [root_side_em(f, q, s0.conjugate(), mu) for f in factors]
    r, r_conj = root_side_total(curve, s0, mu), root_side_total(curve, s0.conjugate(), mu)
    budget = sum(x.est_error for x in rs) + sum(x.est_error for x in rc)
    assert abs(phase * r_conj - (phase * r).conjugate()) <= budget

    ctl = SeriesControl(n_terms=200, tail_tol=1e-12)
    try:
        d = deriv_side_total(curve, s0, mu, ctl)
    except ZetaffError:
        # the series checks depend on |x| only, which conj s0 keeps up to
        # rounding: within an ulp of |x| = 1 the type may differ
        with pytest.raises(ZetaffError):
            deriv_side_total(curve, s0.conjugate(), mu, ctl)
        return
    d_conj = deriv_side_total(curve, s0.conjugate(), mu, ctl)
    scale = 0.0
    if not (mu <= 0.0 and mu.is_integer()):
        pref = abs(math.log(q) ** mu / math.gamma(mu))
        for f in factors:
            rho = q ** (f.sigma0 - re_s0)
            scale += pref * sum(rho**n * n ** (mu - 1.0) for n in range(1, ctl.n_terms + 1))
    rounding = 4.0 * ctl.n_terms * sys.float_info.epsilon * scale
    assert abs(phase * d_conj - (phase * d).conjugate()) <= rounding


def test_an_order_past_the_doubles_is_rejected():
    # pi*mu overflows, so e^(i*pi*mu) has no phase: all three escaped as
    # ValueError from cmath.exp, the classical sum after its kernel warned
    curve = make_curve(25, 1, [(0.5, 0.3), (0.5, C25 - 0.3)])
    for call in (lambda: root_side_em(FACTOR, 25, 5.0, 1e308),
                 lambda: root_side_total(curve, 5.0, 1e308),
                 lambda: root_side_classical(FACTOR, 25, 5.0, 1e308, 10)):
        with pytest.raises(InvalidInputError, match="overflows a double at mu = 1e[+]308"):
            call()


def test_s0_on_the_ladder_or_overflow_is_rejected():
    # s0 - r0 = i*C*j is a root of the factor; it escaped as a bare
    # ZeroDivisionError, or as a NaN value, depending on mu and k
    f = LambdaFactor(0.6, 0.0, 1)
    for j in (0, 1, 4):
        s0 = complex(0.6, j * C25)
        for mu in (0.0, -0.5, 2.6):
            for k in (None, 4, 7):
                with pytest.raises(InvalidInputError):
                    root_side_em(f, 25, s0, mu, k)
        with pytest.raises(InvalidInputError):
            root_side_classical(f, 25, s0, 2.6, 10)
    # 0.01^-200 overflows a double: this returned NaN
    for k in (None, 10):
        with pytest.raises(InvalidInputError):
            root_side_em(FACTOR, 25, complex(0.61, 0.7), 200.0, k)
    # off the ladder on the same vertical line, Re(s0 - r0) = 0, all is finite
    for mu in (0.5, -0.5, 2.6):
        got = root_side_em(f, 25, complex(0.6, 0.7), mu)
        assert cmath.isfinite(got.value) and math.isfinite(got.est_error)


def test_root_side_total_and_identity():
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    with pytest.raises(InvalidInputError):
        root_side_total(curve, 0.9, 2.6, 1000)
    total = root_side_total(curve, S0, 2.6, 1000)
    parts = sum(root_side_em(f, 25, S0, 2.6, 1000).value for f in curve.factors)
    assert total == pytest.approx(parts, rel=1e-14)
    d = deriv_side_total(curve, S0, 2.6, SeriesControl(20, 1e-12))
    assert abs(d - total) / (1 + abs(d)) <= 1e-8


def test_identity_residual_genus0():
    curve = make_curve(7, 0, [])
    d = deriv_side_total(curve, 3.7, 2.6, SeriesControl(40, 1e-12))
    r = root_side_total(curve, 3.7, 2.6, 2000)
    assert abs(d - r) / (1 + abs(d)) <= 1e-12


#: the scan-mu default grid, formed as scan-mu forms it, and orders where
#: the continuation is exact or special
GRID = [-1.45 + i * 0.1 for i in range(41)] + [0.0, 0.5, 2.0, -1.0, -4.5]


def bits(result: RegularizedSum) -> str:
    """Every field of a result, written so that equal strings mean equal bits."""
    return repr((result.value, result.k_used, result.corrections, result.est_error,
                 result.order, result.truncation_error, result.rounding_error))


@pytest.mark.parametrize("k", [None, 1000])
def test_em_order_grid_matches_one_order_calls_bitwise(k):
    rng = random.Random(11)
    for _ in range(20):
        f = LambdaFactor(rng.uniform(0.0, 1.0), rng.uniform(0.0, C25), 1)
        s0 = complex(rng.uniform(1.5, 5.0), rng.uniform(-1.0, 1.0))
        got = root_side_em(f, 25, s0, GRID, k)
        assert isinstance(got, list) and len(got) == len(GRID)
        for mu, result in zip(GRID, got):
            assert bits(result) == bits(root_side_em(f, 25, s0, mu, k)), (f, s0, mu)


def test_total_order_grid_matches_one_order_calls_bitwise():
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    for k in (None, 10, 1000):
        got = root_side_total(curve, S0, GRID, k)
        assert got.dtype == complex and got.shape == (len(GRID),)
        assert repr(got.tolist()) == repr([root_side_total(curve, S0, mu, k) for mu in GRID])
        assert type(root_side_total(curve, S0, 2.6, k)) is complex


def test_both_totals_of_a_curve_without_factors_are_zero():
    # genus 0: each order's total is the empty sum over factors
    curve = CurveZeta(25, 0, ())
    for total in (root_side_total, deriv_side_total):
        got = total(curve, S0, 2.6)
        assert type(got) is complex and repr(got) == repr(0j)
        got = total(curve, S0, [-1.45, 0.5])
        assert got.dtype == complex and repr(got.tolist()) == repr([0j, 0j])


def test_grid_builds_each_factors_windows_once(monkeypatch):
    windows, calls = root_side._windows, []

    def counted(*args):
        calls.append(args)
        return windows(*args)

    monkeypatch.setattr(root_side, "_windows", counted)
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    for k in (None, 10):
        calls.clear()
        assert len(root_side_total(curve, S0, GRID[:41], k)) == 41
        assert len(calls) == len(curve.factors) == 6


def test_grid_runs_the_error_model_once(monkeypatch):
    model, calls = root_side._em_model, []

    def counted(*args):
        calls.append(args)
        return model(*args)

    monkeypatch.setattr(root_side, "_em_model", counted)
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    for k in (None, 10):
        calls.clear()
        assert len(root_side_total(curve, S0, GRID[:41], k)) == 41
        assert len(calls) == 1


def abs_sum_bound_reference(a, C, mu, k):
    """The closed-form bound on sum_j |a - i*C*j|^(-mu) over the window |j| <= k,
    as the scalar error model took it."""
    p = -mu
    x = abs(a.real)
    lo, hi = (a - 1j * C * k).imag, (a + 1j * C * k).imag
    if p >= 0.0:
        def F(T):
            return ((x + T) ** (p + 1.0) - x ** (p + 1.0)) / (p + 1.0)

        return (F(-lo) + F(hi)) / C + (x + abs(lo)) ** p + (x + abs(hi)) ** p
    j0 = round(a.imag / C)
    rmin = abs(a - 1j * C * j0)
    u0, u1 = C / 2.0, C * (2 * k + 1)
    x0 = max(x, u0)
    tail = (min(x, u1) - u0) * x**p if x > u0 else 0.0
    if u1 > x0:
        e, span = p + 1.0, math.log(u1 / x0)
        tail += x0**e * (math.expm1(e * span) / e if e else span)
    return rmin**p + 2.0 * (x0**p + tail / C)


def error_model_reference(a, C, mu):
    """The default-k error model as a scalar scan in math.*: (k, Bernoulli
    terms kept, truncation, rounding).  The library's array model must make
    the same choices and agree on the two parts to rounding."""
    c = mu * C * _BERNOULLI[0]
    coefs = [c]
    for m in range(1, 9):
        c *= (mu + 2 * m - 1) * (mu + 2 * m) * (_BERNOULLI[m] / _BERNOULLI[m - 1]) * C * C
        coefs.append(c)
    eps, best = sys.float_info.epsilon, None
    for k in _K_CANDIDATES:
        if C * k < abs(a.imag):
            continue
        wm, wp = a - 1j * C * k, a + 1j * C * k
        rm, rp = math.hypot(wm.real, wm.imag), math.hypot(wp.real, wp.imag)
        em, ep = rm ** (-mu - 1.0), rp ** (-mu - 1.0)
        sm, sp = rm**-2.0, rp**-2.0
        kept, kept_sum, prev = 0, 0.0, math.inf
        for c in coefs[:8]:
            truncation = abs(c) * (em + ep)
            if not truncation < prev:
                break
            kept, kept_sum, prev = kept + 1, kept_sum + truncation, truncation
            em *= sm
            ep *= sp
        else:
            truncation = abs(coefs[8]) * (em + ep)
        hm, hp = rm**-mu, rp**-mu
        boundary = (hm * rm + hp * rp) / (abs(1.0 - mu) * C) + 0.5 * (hm + hp) + kept_sum
        growth = 2.0 + abs(mu) * (abs(math.log(max(rm, rp))) + math.pi)
        rounding = eps * growth * (abs_sum_bound_reference(a, C, mu, k) + boundary)
        if a.imag:
            rounding += eps * abs(mu) * abs(a.imag) * abs_sum_bound_reference(a, C, mu + 1.0, k)
        if best is not None and truncation + rounding >= best[2] + best[3]:
            break
        best = (k, kept, truncation, rounding)
    return best


def curve_pipeline_specs(seed, count):
    """The first ``count`` curves of the benchmark's curve-pipeline workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("curve_pipeline_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("curve-pipeline", seed)[:count]


def test_error_model_matches_the_scalar_reference():
    def close(got, want):
        return abs(got - want) <= 1e-14 * abs(want)

    checked = 0
    for seed in (1, 2):
        for spec in curve_pipeline_specs(seed, 30):
            q = spec["q"]
            C = vertical_spacing(q)
            for factor in make_curve(q, spec["genus"], spec["roots"]).factors:
                for s0 in (complex(S0), spec["s0"]):
                    a = _ladder_offset(factor, C, s0)
                    for mu, got in zip(GRID[:41], root_side_em(factor, q, s0, GRID[:41])):
                        k, kept, truncation, rounding = error_model_reference(a, C, mu)
                        assert (got.k_used, got.order) == (k, 2 * kept), (factor, s0, mu)
                        assert close(got.truncation_error, truncation), (factor, s0, mu)
                        assert close(got.rounding_error, rounding), (factor, s0, mu)
                        assert close(got.est_error, truncation + rounding), (factor, s0, mu)
                        checked += 1
    assert checked > 20000


def test_em_mu0_exact_zero_inside_a_grid():
    for k in (None, 27, 1000):
        for got in (root_side_em(FACTOR, 25, S0, [-0.3, 0.0, 0.4], k)[1].value,
                    root_side_total(make_curve(25, 0, []), S0, [-0.3, 0.0, 0.4], k).tolist()[1]):
            assert got == 0j and repr(got) == "0j", k


def test_order_grids_are_one_dimensional_and_may_be_empty():
    curve = make_curve(25, 0, [])
    calls = [
        lambda mu: root_side_em(FACTOR, 25, S0, mu),
        lambda mu: root_side_total(curve, S0, mu),
        lambda mu: deriv_side_factor(25, FACTOR, S0, mu),
        lambda mu: deriv_side_total(curve, S0, mu),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError):
            call([[0.5, 2.6]])
        assert len(call([])) == 0
    assert root_side_em(FACTOR, 25, S0, []) == []
    for call in calls[1:]:
        got = call([])
        assert got.dtype == complex and got.shape == (0,)


# an order the root side rejects at s0 = 0.61 + 0.7i, and the error it raises
_BAD_ORDERS = [
    (math.nan, InvalidInputError),
    (1.0, RemovableSingularityError),
    (-5.0, OrderInsufficientError),
    (200.0, InvalidInputError),  # 0.01^-200 overflows a double
]


@pytest.mark.parametrize("first, second", [(b1, b2) for b1 in _BAD_ORDERS for b2 in _BAD_ORDERS
                                           if b1[1] is not b2[1]])
def test_order_grid_raises_as_its_first_offending_order(first, second):
    s0 = complex(0.61, 0.7)
    grid = [0.5, first[0], 2.6, second[0]]
    with pytest.raises(first[1]):
        root_side_em(FACTOR, 25, s0, first[0])
    for k in (None, 10):
        with pytest.raises(first[1]) as exc:
            root_side_em(FACTOR, 25, s0, grid, k)
        assert not isinstance(exc.value, second[1])
    # s0 - 1 = 0.01 for the pole factor (1, 0)
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    with pytest.raises(first[1]) as exc:
        root_side_total(curve, 1.01, grid)
    assert not isinstance(exc.value, second[1])
