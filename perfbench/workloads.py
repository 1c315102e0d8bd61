"""Seeded inputs and operations of the three benchmark workloads.

Every workload is a closed loop: one caller runs one op after another.
``generate`` turns a seed into plain numbers, so the same seed always gives
the same inputs.  ``prepare`` turns those numbers into library objects (and
curve files for the CLI) and returns the ops.  The library receives only
these generated inputs.

An op is a zero-argument callable returning ``(error, ok)``: the worst error
of the op against its reference and whether every check of the op passed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

WORKLOADS = ("lemma-table", "classical-oracle", "curve-pipeline")

# Input pools (LEMMA_PASSES, ORACLE_OPS, CURVE_CYCLES) hold more ops than a
# 60-second run completes; a run that gets through its pool starts it again.

# Prime powers the seed draws q from.  The counting tolerances below were set
# by the test suite at q = 25 (C = 2*pi/ln q ~ 1.95); the Cesaro-mean error of
# the counting paths grows with C, and q >= 9 (C <= 2.86) keeps the S2 check
# at least 3x inside its tolerance at COUNTING_PERIODS.
QS = (9, 16, 25, 27, 49, 81, 121)

# lemma-table: the job `zetaff lemma` runs by default.
LEMMA_PERIODS = 1e4
LEMMA_BINS = 128
LEMMA_TOL = 5e-3
LEMMA_PASSES = 2

# classical-oracle: criterion 2's oracle.
ORACLE_K = 10**7
ORACLE_EM_K = 1000
ORACLE_TOL = 1e-8
ORACLE_OPS = 64

# curve-pipeline.  The kinds repeat every six ops, so every run sees the same
# share of each curve kind.  Counting cost grows with the genus, so the ops
# sort into cost bands (off-line < genus 1 < genus 2 < genus 3); with this mix
# the median falls in the middle of the genus-2 band and the tail percentile
# inside the genus-3 band, instead of on a band edge where one op more or
# less would move them.
CURVE_CYCLE = (("critical", 2), ("critical", 3), ("critical", 1),
               ("critical", 2), ("critical", 3), ("offline", None))
CURVE_CYCLES = 40
COUNTING_PERIODS = 1000
COUNTING_BINS = 128
S1_TOL = 1e-3
S2_TOL = 5e-3


def _spacing(q: int) -> float:
    return 2.0 * math.pi / math.log(q)


def _s0(rng: random.Random) -> complex:
    return complex(rng.uniform(1.5, 5.0), rng.uniform(-1.0, 1.0))


def _critical_taus(rng: random.Random, q: int, pairs: int) -> list:
    """Base-root heights of `pairs` critical-line pairs, snapped to the
    counting sample grid so the midpoint step convention keeps the trapezoid
    averages unbiased."""
    C = _spacing(q)
    dt = C / COUNTING_BINS
    half = [m * dt for m in rng.sample(range(7, 58), pairs)]
    return half + [C - k for k in half]


def _lemma_specs(rng: random.Random) -> list:
    from zetaff.cesaro import LEMMA_SYMBOLS

    specs = []
    for _ in range(LEMMA_PASSES):
        q = rng.choice(QS)
        sigma0 = rng.uniform(0.0, 1.0)
        tau0 = rng.uniform(0.0, _spacing(q))
        s0 = _s0(rng)
        # all symbols on one contour first, so a run shorter than a pass
        # still covers every symbol
        for direction in ("lower", "upper"):
            for symbol in LEMMA_SYMBOLS:
                specs.append(dict(symbol=symbol, q=q, sigma0=sigma0, tau0=tau0,
                                  s0=s0, direction=direction))
    return specs


def _oracle_specs(rng: random.Random) -> list:
    specs = []
    for _ in range(ORACLE_OPS):
        q = rng.choice(QS)
        specs.append(dict(q=q, sigma0=rng.uniform(0.0, 1.0),
                          tau0=rng.uniform(0.0, _spacing(q)), s0=_s0(rng),
                          mu=rng.uniform(2.5, 4.0)))
    return specs


def _curve_specs(rng: random.Random) -> list:
    specs = []
    for cycle in range(CURVE_CYCLES):
        for kind, genus in CURVE_CYCLE:
            q = rng.choice(QS)
            C = _spacing(q)
            if kind == "critical":
                kappas = _critical_taus(rng, q, genus)
                roots = [(0.5, t) for t in kappas]
            else:
                genus = 1 + cycle % 3
                sigma = rng.uniform(0.05, 0.45)
                if genus == 1:
                    # a real-lambda pair at tau0 = C/2 is closed under both
                    # q/lambda and conjugation
                    roots = [(sigma, C / 2.0), (1.0 - sigma, C / 2.0)]
                else:
                    tau = rng.uniform(0.05 * C, 0.45 * C)
                    roots = [(sigma, tau), (1.0 - sigma, C - tau),
                             (sigma, C - tau), (1.0 - sigma, tau)]
                    roots += [(0.5, t) for t in _critical_taus(rng, q, genus - 2)]
                kappas = None
            specs.append(dict(kind=kind, q=q, genus=genus, roots=roots,
                              kappas=kappas, s0=_s0(rng)))
    return specs


def generate(workload: str, seed: int) -> list:
    """Plain-number inputs of `workload` for `seed`, one dict per op."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lemma-table":
        return _lemma_specs(rng)
    if workload == "classical-oracle":
        return _oracle_specs(rng)
    if workload == "curve-pipeline":
        return _curve_specs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, specs: list, workdir: Path) -> list:
    """Library inputs and ops for `specs`; curve files are written to workdir."""
    builders = {
        "lemma-table": _lemma_op,
        "classical-oracle": _oracle_op,
        "curve-pipeline": _curve_op,
    }
    build = builders[workload]
    return [build(i, spec, workdir) for i, spec in enumerate(specs)]


# The ops call every library function through its module attribute, so the
# span wrappers of a traced run are seen.

def _lemma_op(i, spec, workdir):
    from zetaff import cesaro

    C = _spacing(spec["q"])
    params = cesaro.LemmaParams(q=spec["q"], sigma0=spec["sigma0"], tau0=spec["tau0"],
                                s0=spec["s0"], direction=spec["direction"], n=1)
    symbol = spec["symbol"]

    def op():
        res = cesaro.verify_lemma(symbol, params, LEMMA_PERIODS * C, C / LEMMA_BINS, LEMMA_TOL)
        return res.abs_diff, res.passed

    return op


def _oracle_op(i, spec, workdir):
    from zetaff import curve_model, root_side

    factor = curve_model.LambdaFactor(spec["sigma0"], spec["tau0"], 1)
    q, s0, mu = spec["q"], spec["s0"], spec["mu"]

    def op():
        classical = root_side.root_side_classical(factor, q, s0, mu, ORACLE_K)
        ref = root_side.root_side_em(factor, q, s0, mu, ORACLE_EM_K).value
        rel = abs(classical - ref) / (1.0 + abs(ref))
        return rel, rel <= ORACLE_TOL

    return op


def _write_curve_file(path: Path, spec) -> None:
    lines = [f"q {spec['q']} genus {spec['genus']}"]
    lines += [f"{s!r} {t!r} 1" for s, t in spec["roots"]]
    path.write_text("\n".join(lines) + "\n")


def _run_cli(argv):
    """cli.main in-process with its output captured; returns (code, stdout)."""
    from zetaff import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _scan_worst_rel(csv_text: str) -> float:
    rows = csv_text.strip().splitlines()[1:]
    return max(float(row.rsplit(",", 1)[1]) for row in rows)


def _curve_op(i, spec, workdir):
    from zetaff import cesaro, curve_model, deriv_side

    path = workdir / f"curve-{i:04d}.txt"
    _write_curve_file(path, spec)
    curve = curve_model.make_curve(spec["q"], spec["genus"], spec["roots"])
    q, g, s0 = spec["q"], spec["genus"], spec["s0"]
    C = _spacing(q)
    kappas = spec["kappas"]

    def op():
        code, _ = _run_cli(["check-curve", "--curve", str(path)])
        ok = code == 0
        code, csv_text = _run_cli(["scan-mu", "--curve", str(path)])
        ok &= code == 0
        worst = _scan_worst_rel(csv_text) if code == 0 else 0.0
        for mu in (0, -1, -2, -3):
            ok &= deriv_side.deriv_side_total(curve, s0, mu) == 0j
        for factor in curve.factors:
            for mu in (0, -1, -2):
                ok &= cesaro.r_lambda_cesaro(factor, q, s0, mu) == 0j
        if kappas is not None:
            cf = cesaro.make_counting(g, C, kappas)
            for mu in (0, -1, -2):
                res = cesaro.r_critical_line(cf, s0, mu, [0.0] * (2 * g))
                ok &= res.value == 0j and all(p == 0j for p in res.pieces.values())
                ok &= mu != -2 or res.x_epsilon == 0j
            t_max, dt = COUNTING_PERIODS * C, C / COUNTING_BINS
            s1 = cesaro.clim(cesaro.counting_path(cf, "S1", t_max, dt), s0, 0.5,
                             "lower", max_eigen=0, max_p=2, flat_tol=1e-2)
            e1 = abs(s1.value - cesaro.s1_av(cf))
            s2 = cesaro.clim(cesaro.counting_path(cf, "S2", t_max, dt), s0, 0.5,
                             "lower", max_eigen=1, max_p=2, flat_tol=1e-2)
            e2 = abs(s2.value - (-1j * (s0 - 0.5) * cesaro.s1_av(cf)))
            ok &= e1 <= S1_TOL and e2 <= S2_TOL
            worst = max(worst, e1, e2)
        return worst, ok

    return op
