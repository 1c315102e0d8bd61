"""Six SHA-256 digests, of CLI output, lemma values, closed forms, the counting and
root-side ledgers, the root side's error estimates and the counting evaluators, to
check two trees bit for bit.

    python tools/digest.py SRC

imports zetaff from the directory SRC (the one holding the ``zetaff``
package, e.g. ``src`` of a checkout) and the perfbench workloads from
``perfbench/workloads.py`` next to this file, and prints six lines:

- CLI: ``zetaff.cli.main`` runs in-process on 1,926 argument lists: six
  fixed runs of scan-mu, lemma and critical-line, then check-curve and
  scan-mu on each of the 960 curve-pipeline curves of perfbench seeds 1, 2,
  3 and 311.  The line gives the number of runs and one digest over each
  run's argv, exit code, stdout and stderr, with the temporary directory
  that holds the curve files masked.  Two of the fixed runs are ``zetaff
  lemma`` (at 1000 periods, and alpha_n at n = 6), which print the lemma
  values, so a change to the lemma values moves this line and the next one
  together.
- Lemma: ``cesaro.verify_lemma`` runs on the 40 lemma-table specs of each
  of the same seeds (at that workload's periods, bins and tolerance), then
  on alpha_n at n = 1 .. 8 on both contours at the defaults of ``zetaff
  lemma``.  The line gives the number of verifications and one digest over
  the ``repr`` of each one's (numeric, residual_flatness, removed_eigen).
  ``repr`` keeps every bit of a float, the sign of a zero included.
- Closed forms: ``cesaro.lemma_closed_form`` at the (q, sigma0, tau0, s0) of
  the same 40 specs of each seed, for every symbol on both contours, alpha_n
  at n = 1 .. 8.  The line gives the number of values and one digest over
  the ``repr`` of each.
- Ledgers: the first 30 curve-pipeline curves of each of the same seeds,
  five cycles of its curve kinds.  On each critical curve,
  ``cesaro.counting_path`` builds the six path kinds at that workload's
  periods and bins, and plain-mode ``cesaro.clim`` runs on each path at
  max_eigen 0 and 1 (max_p 2, flat_tol 1e-2, the spec's s0, lower contour);
  a ``NoClimError`` is recorded by its flatness.  On every curve,
  ``root_side.root_side_em`` runs for each factor over the default grid of
  ``zetaff scan-mu`` at its s0, as it does for the inline factor of the
  scan-mu defaults.  The line gives the counts and one digest over the bytes
  of each path's samples, the ``repr`` of each Clim report's fields and of
  every field of each root-side result but its error estimate (its value,
  k, order and ledger of corrections).  The CLI line sees none of these but
  the root-side values.
- Error splits: the ``repr`` of the est_error, truncation_error and
  rounding_error of the same root-side results, one digest on a line of
  its own, so that a change to the error model's rounding leaves the
  ledger line as it is.
- Counting evaluators: ``s_eval``, ``s1_eval``, ``q_eval`` and ``s2_eval``
  on the counting function of each critical curve of the same 30 curves of
  each seed, each on four arrays of heights that reach every branch of the
  reduction of a height to its phase: ten periods of 128 bins; 0.0, -0.0,
  multiples k*C of the period (k a multiple of 65537 below 2**26) and their
  neighbours above and below; the negatives of those; and multiples at and
  past k = 2**26, with their neighbours.  The line gives the number of
  values and one digest over their bytes.

Two trees whose CLI output is byte-identical and whose lemma values, closed
forms, ledgers, error estimates and counting evaluators agree bit for bit
print the same six lines.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3, 311)

FIXED_RUNS = (
    ["scan-mu"],
    ["scan-mu", "--k", "1000"],
    ["scan-mu", "--s0-im", "0.7", "--mu-min", "-4.9"],
    ["lemma", "--t-max-periods", "1000"],
    ["lemma", "--symbol", "alpha_n", "--n", "6"],
    ["critical-line", "--g", "3", "--random", "--seed", "4", "--offline", "0.3"],
)

SPECS_PER_SEED = 40
CURVES_PER_SEED = 30
COUNTING_KINDS = ("S", "tS", "t2S", "S1", "tS1", "S2")
# the fields of a root-side result that hold its error estimate; the fifth
# line hashes them, the fourth every other field
ERROR_SPLIT = ("est_error", "truncation_error", "rounding_error")
# the defaults of `zetaff scan-mu`: its s0, its mu grid, built as the CLI
# builds it, and its inline factor
SCAN_S0 = 5.1238 + 0j
SCAN_MUS = [-1.45 + i * 0.1 for i in range(41)]
# the defaults of `zetaff lemma`
DEFAULTS = dict(q=25, sigma0=0.6, tau0=3.0 * math.pi / 4.0, s0=5.1238 + 0j)
DEFAULT_PERIODS = 1e4


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_line(workloads, cli) -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = list(FIXED_RUNS)
        for seed in SEEDS:
            for i, spec in enumerate(workloads.generate("curve-pipeline", seed)):
                path = Path(tmp) / f"curve-{seed}-{i:04d}.txt"
                workloads._write_curve_file(path, spec)
                argvs += [["check-curve", "--curve", str(path)],
                          ["scan-mu", "--curve", str(path)]]
        for argv in argvs:
            record = json.dumps([argv, *_run(cli.main, argv)])
            digest.update(record.replace(tmp, "<tmp>").encode())
    return f"{len(argvs)} runs sha256 {digest.hexdigest()}"


def lemma_line(workloads, cesaro, vertical_spacing) -> str:
    runs = []
    for seed in SEEDS:
        for spec in workloads.generate("lemma-table", seed)[:SPECS_PER_SEED]:
            C = vertical_spacing(spec["q"])
            params = cesaro.LemmaParams(q=spec["q"], sigma0=spec["sigma0"], tau0=spec["tau0"],
                                        s0=spec["s0"], direction=spec["direction"])
            runs.append((spec["symbol"], params, workloads.LEMMA_PERIODS * C,
                         C / workloads.LEMMA_BINS, workloads.LEMMA_TOL))
    C = vertical_spacing(DEFAULTS["q"])
    for n in range(1, 9):
        for direction in ("lower", "upper"):
            params = cesaro.LemmaParams(**DEFAULTS, direction=direction, n=n)
            runs.append(("alpha_n", params, DEFAULT_PERIODS * C, C / 128.0, 5e-3))

    digest = hashlib.sha256()
    for symbol, params, T_max, dt, tol in runs:
        res = cesaro.verify_lemma(symbol, params, T_max, dt, tol)
        report = res.report
        digest.update(
            repr((res.numeric, report.residual_flatness, report.removed_eigen)).encode()
        )
    return f"{len(runs)} verifications sha256 {digest.hexdigest()}"


def closed_form_line(workloads, cesaro, vertical_spacing) -> str:
    digest, count = hashlib.sha256(), 0
    for seed in SEEDS:
        for spec in workloads.generate("lemma-table", seed)[:SPECS_PER_SEED]:
            C = vertical_spacing(spec["q"])
            point = (spec["s0"], complex(spec["sigma0"], spec["tau0"]), spec["sigma0"],
                     spec["tau0"], C)
            for direction in ("lower", "upper"):
                for symbol in cesaro.LEMMA_SYMBOLS:
                    for n in range(1, 9) if symbol == "alpha_n" else (1,):
                        value = cesaro.lemma_closed_form(symbol, direction, n, *point)
                        digest.update(repr(value).encode())
                        count += 1
    return f"Closed forms: {count} values sha256 {digest.hexdigest()}"


def ledger_lines(workloads, zetaff) -> tuple:
    digest, splits, paths, clims, sums = hashlib.sha256(), hashlib.sha256(), 0, 0, 0

    def root_sums(factor, q):
        nonlocal sums
        for result in zetaff.root_side_em(factor, q, SCAN_S0, SCAN_MUS):
            fields = [f.name for f in dataclasses.fields(result)]
            digest.update(repr([getattr(result, name) for name in fields
                                if name not in ERROR_SPLIT]).encode())
            splits.update(repr([getattr(result, name) for name in ERROR_SPLIT]).encode())
            sums += 1

    root_sums(zetaff.LambdaFactor(0.6, 3.0 * math.pi / 4.0), 25)
    for seed in SEEDS:
        for spec in workloads.generate("curve-pipeline", seed)[:CURVES_PER_SEED]:
            q = spec["q"]
            curve = zetaff.make_curve(q, spec["genus"], spec["roots"])
            for factor in curve.factors:
                root_sums(factor, q)
            if spec["kappas"] is None:
                continue
            C = zetaff.vertical_spacing(q)
            cf = zetaff.make_counting(spec["genus"], C, spec["kappas"])
            for kind in COUNTING_KINDS:
                path = zetaff.counting_path(cf, kind, workloads.COUNTING_PERIODS * C,
                                            C / workloads.COUNTING_BINS)
                digest.update(path.samples.dtype.str.encode() + path.samples.tobytes())
                paths += 1
                for max_eigen in (0, 1):
                    try:
                        rep = zetaff.clim(path, spec["s0"], 0.5, "lower", max_eigen, 2,
                                          flat_tol=1e-2)
                        record = (rep.value, rep.removed_eigen, rep.p_power,
                                  rep.residual_flatness)
                    except zetaff.NoClimError as exc:
                        record = ("NoClimError", exc.residual_flatness)
                    digest.update(repr(record).encode())
                    clims += 1
    return (f"Ledgers: {paths} paths, {clims} Clims, {sums} root sums "
            f"sha256 {digest.hexdigest()}",
            f"Error splits: {sums} root sums sha256 {splits.hexdigest()}")


def _heights(C) -> list:
    """The four height arrays of the evaluator line, for period C."""
    multiples = np.arange(0, 2**26, 65537) * C
    near = np.concatenate([[0.0, -0.0], multiples, np.nextafter(multiples, np.inf),
                           np.nextafter(multiples[1:], 0.0)])
    huge = np.arange(2**26 - 3, 2**26 + 4) * C
    huge = np.concatenate([huge, np.nextafter(huge, np.inf), np.nextafter(huge, 0.0),
                           [2.0**40 * C, 1e300]])
    return [(C / 128.0) * np.arange(1281), near, -near, huge]


def evaluator_line(workloads, zetaff) -> str:
    digest, count = hashlib.sha256(), 0
    evaluators = (zetaff.s_eval, zetaff.s1_eval, zetaff.q_eval, zetaff.s2_eval)
    for seed in SEEDS:
        for spec in workloads.generate("curve-pipeline", seed)[:CURVES_PER_SEED]:
            if spec["kappas"] is None:
                continue
            C = zetaff.vertical_spacing(spec["q"])
            cf = zetaff.make_counting(spec["genus"], C, spec["kappas"])
            for heights in _heights(C):
                for fn in evaluators:
                    values = fn(cf, heights)
                    digest.update(values.dtype.str.encode() + values.tobytes())
                    count += len(values)
    return f"Counting evaluators: {count} values sha256 {digest.hexdigest()}"


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SRC")
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    import zetaff
    from zetaff import cesaro, cli
    from zetaff.curve_model import vertical_spacing

    print(cli_line(workloads, cli))
    print(lemma_line(workloads, cesaro, vertical_spacing))
    print(closed_form_line(workloads, cesaro, vertical_spacing))
    print(*ledger_lines(workloads, zetaff), sep="\n")
    print(evaluator_line(workloads, zetaff))


if __name__ == "__main__":
    main()
