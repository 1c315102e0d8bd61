"""Acceptance suite: the eight headline criteria of the library.

Each test prints a single PASS/FAIL line on the real stdout so the outcome
is visible in captured test logs.
"""

import math
import sys
import time

import numpy as np
import pytest

from zetaff import (
    LambdaFactor,
    LemmaParams,
    SeriesControl,
    deriv_side_factor,
    deriv_side_total,
    make_counting,
    make_curve,
    q_av,
    r_critical_line,
    r_lambda_cesaro,
    root_side_classical,
    root_side_em,
    s1_av,
    s1_eval,
    q_eval,
    verify_lemma,
    vertical_spacing,
    x_epsilon_equispaced,
)
from zetaff.cesaro import LEMMA_SYMBOLS

Q = 25
C = vertical_spacing(Q)
SIGMA0 = 0.6
TAU0 = 3.0 * math.pi / 4.0
S0 = 5.1238
FACTOR = LambdaFactor(SIGMA0, TAU0, 1)


RESULTS = []


def report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_mu_scan():
    """Derivative side equals continued root side across the mu grid."""
    ctl = SeriesControl(n_terms=20, tail_tol=1e-12)
    start = time.perf_counter()
    worst = 0.0
    mus = [-1.45 + 0.1 * i for i in range(41)]
    for mu in mus:
        d = deriv_side_factor(Q, FACTOR, S0, mu, ctl)
        r = root_side_em(FACTOR, Q, S0, mu, 1000).value
        worst = max(worst, abs(d - r) / (1.0 + abs(d)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 5.0
    report("1 mu-scan identity", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_1_relative_to_d_default_k():
    """The default root side (k chosen by the error model) relative to |d|.

    |d| is only 1e-8 to 7e-6 on this grid, so the 1 + |d| convention of
    criterion 1 reports an absolute error; this line divides by |d|.
    """
    ctl = SeriesControl(n_terms=20, tail_tol=1e-12)
    worst = 0.0
    for mu in [-1.45 + 0.1 * i for i in range(41)]:
        d = deriv_side_factor(Q, FACTOR, S0, mu, ctl)
        r = root_side_em(FACTOR, Q, S0, mu).value
        worst = max(worst, abs(d - r) / abs(d))
    report("1b mu-scan identity relative to |d|, default k", worst <= 1e-5,
           f"worst rel {worst:.2e}")


def test_criterion_2_euler_mclaurin_oracle():
    """Continuation at k=1000 reproduces the k=10^7 classical sum."""
    start = time.perf_counter()
    em = root_side_em(FACTOR, Q, S0, 2.6, 1000).value
    classical = root_side_classical(FACTOR, Q, S0, 2.6, 10**7)
    elapsed = time.perf_counter() - start
    rel = abs(em - classical) / (1.0 + abs(classical))
    ok = rel <= 1e-8 and elapsed <= 30.0
    report("2 Euler-McLaurin vs k=1e7 classical", ok, f"rel {rel:.2e}, {elapsed:.2f}s")


def test_criterion_3_derivative_side_zeros():
    """Derivative side vanishes bit-exactly at nonpositive integer orders."""
    rng = np.random.default_rng(2024)
    curves = []
    for _ in range(5):
        tau = float(rng.uniform(0.05 * C, 0.45 * C))
        sig = float(rng.uniform(0.1, 0.45))
        curves.append(
            make_curve(Q, 2, [(sig, tau), (1 - sig, C - tau), (sig, C - tau), (1 - sig, tau)])
        )
    ok = True
    for curve in curves:
        for _ in range(5):
            s0 = complex(rng.uniform(1.5, 4.0), rng.uniform(-2.0, 2.0))
            for mu in (0, -1, -2, -3):
                ok = ok and deriv_side_total(curve, s0, mu) == 0j
    report("3 bit-exact derivative-side zeros", ok)


def test_criterion_4_lemma_suite():
    """All 20 Cesaro closed forms verified numerically at two path lengths."""
    params = {
        d: LemmaParams(q=Q, sigma0=SIGMA0, tau0=TAU0, s0=S0, direction=d)
        for d in ("lower", "upper")
    }
    ok = True
    details = []
    # the longer paths get a tighter tolerance; only the shorter ones are timed
    # against a gate
    for periods, tol in (("1e4", 5e-3), ("1e5", 5e-4)):
        start = time.perf_counter()
        worst, flat = 0.0, 0.0
        for symbol in LEMMA_SYMBOLS:
            for d in ("lower", "upper"):
                res = verify_lemma(symbol, params[d], float(periods) * C, C / 128.0, tol)
                ok = ok and res.passed
                worst = max(worst, res.abs_diff)
                flat = max(flat, res.report.residual_flatness)
        elapsed = time.perf_counter() - start
        # the profile fit's residual is at rounding level on exact ladder samples
        ok = ok and flat <= 1e-12 and (periods == "1e5" or elapsed <= 60.0)
        details.append(
            f"{periods} periods worst {worst:.2e}, flatness {flat:.2e}, {elapsed:.1f}s"
        )
    report("4 lemma suite", ok, "; ".join(details))


def test_criterion_5_per_factor_cesaro_zeros():
    """Per-factor regularized values vanish exactly at mu in {0,-1,-2}."""
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(10):
        factor = LambdaFactor(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.0, C)), 1)
        s0 = complex(rng.uniform(1.5, 4.0), rng.uniform(-1.0, 1.0))
        for mu in (0, -1, -2):
            ok = ok and r_lambda_cesaro(factor, Q, s0, mu) == 0j
    report("5 per-factor Cesaro zeros", ok)


def test_criterion_6_counting_means():
    """Analytic period means of the counting pieces, checked two ways."""
    rng = np.random.default_rng(6)
    ok = True
    worst_an, worst_tr = 0.0, 0.0
    n = 2**16
    x = (C / n) * (np.arange(n) + 0.5)
    for _ in range(20):
        kappa = float(rng.uniform(0.001 * C, 0.499 * C))
        cf = make_counting(1, C, [kappa, C - kappa])
        d1 = abs(s1_av(cf) - (kappa**2 / C - kappa + C / 6.0))
        d2 = abs(q_av(cf) - ((C / 2.0) * s1_av(cf) + C**2 / 12.0))
        worst_an = max(worst_an, d1, d2)
        t1 = abs(s1_av(cf) - float(np.mean(s1_eval(cf, x))))
        t2 = abs(q_av(cf) - float(np.mean(q_eval(cf, x))))
        worst_tr = max(worst_tr, t1, t2)
        ok = ok and d1 <= 1e-10 and d2 <= 1e-10 and t1 <= 1e-6 and t2 <= 1e-6
    report("6 counting-piece means", ok, f"analytic {worst_an:.2e}, quadrature {worst_tr:.2e}")


def test_criterion_7_critical_line_pipeline():
    """Critical-line assembly returns exact zeros with vanishing pieces."""
    rng = np.random.default_rng(7)
    ok = True
    for g in (1, 2, 3):
        half = [float(rng.uniform(0.05 * C, 0.45 * C)) for _ in range(g)]
        cf = make_counting(g, C, half + [C - k for k in half])
        for mu in (0, -1, -2):
            res = r_critical_line(cf, S0, mu, [0.0] * (2 * g))
            ok = ok and res.value == 0j
            ok = ok and all(abs(p) <= 1e-9 for p in res.pieces.values())
            if mu == -2:
                ok = ok and res.x_epsilon == 0j
    report("7 critical-line pipeline", ok)


def test_criterion_8_cross_approach_consistency():
    """Factor-ladder and critical-line routes agree on critical-line curves;
    off-line equi-spaced families still give X_eps = 0."""
    rng = np.random.default_rng(8)
    ok = True
    for g in (1, 2):
        half = [float(rng.uniform(0.05 * C, 0.45 * C)) for _ in range(g)]
        taus = half + [C - k for k in half]
        curve = make_curve(Q, g, [(0.5, t) for t in taus])
        cf = make_counting(g, C, taus)
        s0 = complex(rng.uniform(2.0, 4.0), rng.uniform(-1.0, 1.0))
        for mu in (0, -1, -2):
            ladder_total = sum(
                r_lambda_cesaro(f, Q, s0, mu) for f in curve.root_factors()
            )
            line_value = r_critical_line(cf, s0, mu, [0.0] * (2 * g)).value
            ok = ok and ladder_total == 0j and line_value == 0j
    # off-line family: X_eps vanishes although the roots are off the line
    ok = ok and x_epsilon_equispaced(0.6) == 0j
    ok = ok and x_epsilon_equispaced(0.75) == 0j
    report("8 cross-approach consistency", ok)
