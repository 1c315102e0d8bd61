"""One SHA-256 over a fixed set of CLI runs, to check two trees byte for byte.

    python tools/cli_digest.py SRC

imports zetaff from the directory SRC (the one holding the ``zetaff``
package, e.g. ``src`` of a checkout) and runs ``zetaff.cli.main`` in-process
on 1,926 argument lists: six fixed runs of scan-mu, lemma and critical-line,
then check-curve and scan-mu on each of the 960 curve-pipeline curves of
perfbench seeds 1, 2, 3 and 311 (from ``perfbench/workloads.py`` next to
this file).  It prints the number of runs and one digest over each run's
argv, exit code, stdout and stderr, with the temporary directory that holds
the curve files masked.  Two trees whose CLI output is byte-identical print
the same line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

FIXED_RUNS = (
    ["scan-mu"],
    ["scan-mu", "--k", "1000"],
    ["scan-mu", "--s0-im", "0.7", "--mu-min", "-4.9"],
    ["lemma", "--t-max-periods", "1000"],
    ["lemma", "--symbol", "alpha_n", "--n", "6"],
    ["critical-line", "--g", "3", "--random", "--seed", "4", "--offline", "0.3"],
)
SEEDS = (1, 2, 3, 311)


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} SRC")
    sys.path.insert(0, str(Path(sys.argv[1]).resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    from zetaff import cli

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
    print(f"{len(argvs)} runs sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
