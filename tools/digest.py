"""Three SHA-256 digests, of CLI output, lemma values and closed forms, to check two trees
bit for bit.

    python tools/digest.py SRC

imports zetaff from the directory SRC (the one holding the ``zetaff``
package, e.g. ``src`` of a checkout) and the perfbench workloads from
``perfbench/workloads.py`` next to this file, and prints three lines:

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

Two trees whose CLI output is byte-identical and whose lemma values and
closed forms agree bit for bit print the same three lines.
"""

from __future__ import annotations

import contextlib
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


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SRC")
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    from zetaff import cesaro, cli
    from zetaff.curve_model import vertical_spacing

    print(cli_line(workloads, cli))
    print(lemma_line(workloads, cesaro, vertical_spacing))
    print(closed_form_line(workloads, cesaro, vertical_spacing))


if __name__ == "__main__":
    main()
