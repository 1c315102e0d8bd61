"""One SHA-256 over a fixed set of lemma verifications, to check two trees bit for bit.

    python tools/lemma_digest.py SRC

imports zetaff from the directory SRC (the one holding the ``zetaff``
package, e.g. ``src`` of a checkout) and runs ``cesaro.verify_lemma`` on
the 40 lemma-table specs of each of perfbench seeds 1, 2, 3 and 311 (from
``perfbench/workloads.py`` next to this file, at that workload's periods,
bins and tolerance), then on alpha_n at n = 1 .. 8 on both contours at the
defaults of ``zetaff lemma``.  It prints the number of verifications and
one digest over the ``repr`` of each one's (numeric, residual_flatness,
removed_eigen).  ``repr`` keeps every bit of a float, the sign of a zero
included, so two trees whose lemma values agree bit for bit print the same
line.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

SEEDS = (1, 2, 3, 311)
SPECS_PER_SEED = 40
# the defaults of `zetaff lemma`
DEFAULTS = dict(q=25, sigma0=0.6, tau0=3.0 * math.pi / 4.0, s0=5.1238 + 0j)
DEFAULT_PERIODS = 1e4


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SRC")
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    from zetaff import cesaro
    from zetaff.curve_model import vertical_spacing

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
    print(f"{len(runs)} verifications sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
