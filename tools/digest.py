"""Four SHA-256 digests, of CLI output, lemma values, closed forms and the counting and
root-side ledgers, to check two trees bit for bit.

    python tools/digest.py SRC

imports zetaff from the directory SRC (the one holding the ``zetaff``
package, e.g. ``src`` of a checkout) and the perfbench workloads from
``perfbench/workloads.py`` next to this file, and prints four lines:

- CLI: ``zetaff.cli.main`` runs in-process on 1,926 argument lists: six
  fixed runs of scan-mu, lemma and critical-line, then check-curve and
  scan-mu on each of the 960 curve-pipeline curves of perfbench seeds 1, 2,
  3 and 311.  The line gives the number of runs and one digest over each
  run's argv, exit code, stdout and stderr, with the temporary directory
  that holds the curve files masked.
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
  every field of each root-side result (its k, order, error split and
  ledger of corrections included).  The CLI line sees none of these but
  the root-side values.

Two trees whose CLI output is byte-identical and whose lemma values, closed
forms and ledgers agree bit for bit print the same four lines.
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


def ledger_line(workloads, zetaff) -> str:
    digest, paths, clims, sums = hashlib.sha256(), 0, 0, 0

    def root_sums(factor, q):
        nonlocal sums
        for result in zetaff.root_side_em(factor, q, SCAN_S0, SCAN_MUS):
            fields = dataclasses.fields(result)
            digest.update(repr([getattr(result, f.name) for f in fields]).encode())
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
            f"sha256 {digest.hexdigest()}")


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
    print(ledger_line(workloads, zetaff))


if __name__ == "__main__":
    main()
