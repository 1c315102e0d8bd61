"""Tests for the factored curve-zeta model."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest

from zetaff import (
    CurveZeta,
    InvalidInputError,
    LambdaFactor,
    LemmaParams,
    PoleEvaluationError,
    SeriesControl,
    ValidationError,
    base_root,
    check_functional_equation,
    eval_zeta,
    make_curve,
    vertical_spacing,
)

C25 = vertical_spacing(25)


def test_vertical_spacing_matches_high_precision():
    mp.mp.dps = 50
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27, 32, 49, 101, 1024):
        expected = float(2 * mp.pi / mp.log(q))
        assert vertical_spacing(q) == pytest.approx(expected, rel=1e-15)


def test_vertical_spacing_monotone_in_q():
    values = [vertical_spacing(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("bad", [0, 1, -4, 6, 10, 12, 15, 100, 2 * 3 * 5])
def test_vertical_spacing_rejects_non_prime_powers(bad):
    with pytest.raises(InvalidInputError):
        vertical_spacing(bad)


@pytest.mark.parametrize("bad", [25.0, 4.5, "25", None, True, 7 + 0j])
def test_vertical_spacing_rejects_non_integers(bad):
    with pytest.raises(InvalidInputError):
        vertical_spacing(bad)


def test_integer_arguments_accept_numpy_integers():
    # q = np.int64(25) was rejected, while n_terms and n accepted NumPy integers
    assert vertical_spacing(np.int64(25)) == C25
    assert SeriesControl(n_terms=np.int64(20)) == SeriesControl(n_terms=20)
    assert LemmaParams(np.int64(25), 0.6, 0.7, 5.0, n=np.int64(2)).n == 2
    assert LambdaFactor(0.6, 0.7, np.int64(1)) == LambdaFactor(0.6, 0.7, 1)
    assert make_curve(np.int64(25), np.int64(0), []) == make_curve(25, 0, [])


def test_lambda_factor_validation():
    with pytest.raises(InvalidInputError):
        LambdaFactor(1.2, 0.0, 1)
    with pytest.raises(InvalidInputError):
        LambdaFactor(-0.1, 0.0, 1)
    with pytest.raises(InvalidInputError):
        LambdaFactor(0.5, -0.3, 1)
    for nu in (2, True, 1.0):  # True and 1.0 were accepted
        with pytest.raises(InvalidInputError):
            LambdaFactor(0.5, 0.0, nu)
    for sigma0, tau0 in ((math.nan, 0.3), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(InvalidInputError):
            LambdaFactor(sigma0, tau0, 1)
    # nu = -1 is reserved for the two pole factors
    with pytest.raises(InvalidInputError):
        LambdaFactor(0.6, 0.0, -1)
    with pytest.raises(InvalidInputError):
        LambdaFactor(0.0, 0.3, -1)
    LambdaFactor(0.0, 0.0, -1)
    LambdaFactor(1.0, 0.0, -1)


def test_base_root():
    assert base_root(LambdaFactor(0.6, 0.7, 1)) == complex(0.6, 0.7)


def test_make_curve_genus2_and_normalization():
    t = 0.7
    curve = make_curve(25, 2, [(0.6, t), (0.4, C25 - t), (0.6, C25 - t), (0.4, t)])
    assert curve.genus == 2
    assert len(curve.factors) == 6
    assert len(curve.root_factors()) == 4
    assert {f.nu for f in curve.factors} == {1, -1}
    # tau0 is normalized into [0, C)
    shifted = make_curve(
        25, 2, [(0.6, t + 3 * C25), (0.4, C25 - t), (0.6, C25 - t), (0.4, t - 2 * C25)]
    )
    assert sorted((f.sigma0, round(f.tau0, 12)) for f in shifted.factors) == sorted(
        (f.sigma0, round(f.tau0, 12)) for f in curve.factors
    )


def test_make_curve_rejects_missing_conjugates():
    # closed under lambda -> q/lambda but not under conjugation
    with pytest.raises(ValidationError):
        make_curve(25, 1, [(0.6, 0.7), (0.4, C25 - 0.7)])
    # closed under conjugation but not under lambda -> q/lambda
    with pytest.raises(ValidationError):
        make_curve(25, 1, [(0.6, 0.7), (0.6, C25 - 0.7)])


def test_make_curve_self_conjugate_cases():
    # tau0 = C/2 is its own conjugate; sigma pair covers the q/lambda map
    make_curve(25, 1, [(0.6, C25 / 2), (0.4, C25 / 2)])
    # tau0 = 0 likewise
    make_curve(25, 1, [(0.6, 0.0), (0.4, 0.0)])
    # sigma0 = 1/2 with a conjugate tau pair is closed under both maps
    make_curve(25, 1, [(0.5, 0.7), (0.5, C25 - 0.7)])


def test_make_curve_input_validation():
    for genus in (-1, True, 1.0):  # True was accepted as genus 1
        with pytest.raises(InvalidInputError):
            make_curve(25, genus, [(0.5, 0.7), (0.5, C25 - 0.7)])
    with pytest.raises(InvalidInputError):
        make_curve(25, 1, [(0.5, 0.7)])  # wrong count
    with pytest.raises(InvalidInputError):
        make_curve(25, 1, [(1.5, 0.7), (-0.5, C25 - 0.7)])  # sigma0 out of range


def test_eval_zeta_genus0_closed_form():
    curve = make_curve(7, 0, [])
    for s in (2.3, 1.7 + 0.9j, 3.0 - 2.2j):
        got = eval_zeta(curve, s)
        expected = 1.0 / ((1 - 7.0 ** (-complex(s))) * (1 - 7.0 ** (1 - complex(s))))
        assert got == pytest.approx(expected, rel=1e-13)


def test_eval_zeta_conjugation_symmetry():
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    rng = random.Random(7)
    for _ in range(20):
        s = complex(rng.uniform(-1, 3), rng.uniform(-6, 6))
        assert eval_zeta(curve, s.conjugate()) == pytest.approx(
            eval_zeta(curve, s).conjugate(), rel=1e-12
        )


def test_eval_zeta_raises_at_poles():
    curve = make_curve(7, 0, [])
    with pytest.raises(PoleEvaluationError):
        eval_zeta(curve, 0.0)
    with pytest.raises(PoleEvaluationError):
        eval_zeta(curve, 1.0)
    # the pole ladder repeats with vertical spacing C
    with pytest.raises(PoleEvaluationError):
        eval_zeta(curve, 1.0 + 1j * vertical_spacing(7))


def test_zeta_past_the_doubles_is_rejected():
    # q^(-s) or q^(s-1) overflows, or Im(s)*ln q has no phase: these escaped
    # as OverflowError or ValueError from cmath.exp
    curve = make_curve(25, 1, [(0.5, 0.3), (0.5, C25 - 0.3)])
    for s in (-1000.0, -(10**20), 1 + 1e308j):
        with pytest.raises(InvalidInputError, match="overflows a double at s = "):
            eval_zeta(curve, s)
    for s in (10**19, 10**20, -(10**20), 2**70):
        with pytest.raises(InvalidInputError, match="overflows a double at s = "):
            check_functional_equation(curve, s, 1e-9)
    # genus 0: the scale q^((1-g)(1-2s)) overflows while both zetas are finite
    with pytest.raises(InvalidInputError, match=r"q\^\(\(1-g\)\(1-2s\)\) overflows"):
        check_functional_equation(make_curve(25, 0, []), -150.0, 1e-9)


def test_functional_equation_random_s():
    curve = make_curve(25, 2, [(0.6, 0.7), (0.4, C25 - 0.7), (0.6, C25 - 0.7), (0.4, 0.7)])
    rng = random.Random(42)
    for _ in range(100):
        s = complex(rng.uniform(-0.5, 2.5), rng.uniform(-8, 8))
        try:
            ok, residual = check_functional_equation(curve, s, 1e-9)
        except PoleEvaluationError:
            continue
        assert ok, f"residual {residual} at s = {s}"


def test_functional_equation_genus1_tight():
    curve = make_curve(25, 1, [(0.6, C25 / 2), (0.4, C25 / 2)])
    ok, residual = check_functional_equation(curve, 2 + 0.3j, 1e-10)
    assert ok
    assert residual <= 1e-12


def test_functional_equation_detects_broken_curve():
    # bypass make_curve validation: perturb one root so the factor multiset
    # is no longer closed under lambda -> q/lambda
    factors = (
        LambdaFactor(0.6, 0.7, 1),
        LambdaFactor(0.4, C25 - 0.7 + 0.05, 1),
        LambdaFactor(0.6, C25 - 0.7, 1),
        LambdaFactor(0.4, 0.7 - 0.05, 1),
        LambdaFactor(0.0, 0.0, -1),
        LambdaFactor(1.0, 0.0, -1),
    )
    broken = CurveZeta(q=25, genus=2, factors=factors)
    ok, residual = check_functional_equation(broken, 1.8 + 0.4j, 1e-9)
    assert not ok
    assert residual > 1e-3


def test_curve_C_property():
    curve = make_curve(25, 0, [])
    assert curve.C == vertical_spacing(25)


def test_zeta_matches_explicit_product():
    curve = make_curve(25, 1, [(0.5, 0.7), (0.5, C25 - 0.7)])
    s = 1.9 - 0.8j
    lnq = math.log(25)
    value = 1.0 + 0.0j
    for f in curve.factors:
        lam = 25**f.sigma0 * cmath.exp(1j * f.tau0 * lnq)
        term = 1 - lam * cmath.exp(-s * lnq)
        value = value * term if f.nu == 1 else value / term
    assert eval_zeta(curve, s) == pytest.approx(value, rel=1e-13)
