"""One benchmark process: set up a workload, run its closed loop, report.

run.py starts this script once per measurement, with the library's source
directory on PYTHONPATH and the thread counts pinned in the environment.  It
prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import layers
import spans
import workloads

# Every run completes at least this many ops, so that op_tail_s (the value
# with ten samples beyond it) exists and worst_error (taken over these ops)
# depends only on the seed.
MIN_OPS = 11
# Ops run before the clock starts, so that no timed op pays for first-touch
# costs (lazy imports inside the library, the first large allocations).  They
# are checked like every other op and count as attempted.
WARMUP_OPS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--spawned", required=True, type=float,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int, help="run exactly this many ops instead of --seconds")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", type=Path)
    return p.parse_args(argv)


def run_loop(ops, seconds, n_ops, recorder=None):
    """Run ops in order, cycling, until `seconds` have passed and MIN_OPS
    are done, or exactly n_ops when given.  Returns latencies, errors, oks."""
    latencies, errors, oks = [], [], []
    first_failure = True
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        if recorder is not None:
            recorder.op_id = i
            frame = recorder.enter(layers.OP_SPAN)
        t0 = time.perf_counter()
        try:
            error, ok = op()
        except Exception:
            # a failed op is counted and the loop goes on; report the first
            if first_failure:
                traceback.print_exc()
                first_failure = False
            error, ok = None, False
        t1 = time.perf_counter()
        if recorder is not None:
            recorder.exit(frame)
        latencies.append(t1 - t0)
        errors.append(error)
        oks.append(bool(ok))
        i += 1
        if n_ops is not None:
            if i >= n_ops:
                break
        elif t1 >= deadline and i >= MIN_OPS:
            break
    return latencies, errors, oks


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy
    import scipy
    import zetaff

    src = (args.root / "src").resolve()
    if src not in Path(zetaff.__file__).resolve().parents:
        print(f"zetaff imported from {zetaff.__file__}, not from {src}", file=sys.stderr)
        return 2

    workdir = args.root / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        specs = workloads.generate(args.workload, args.seed)
        ops = workloads.prepare(args.workload, specs, workdir)
        setup_s = time.monotonic() - args.spawned
        result = {"setup_s": setup_s}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        warm = []
        for op in ops[:WARMUP_OPS]:
            try:
                warm.append(bool(op()[1]))
            except Exception:
                traceback.print_exc()
                warm.append(False)

        recorder = None
        if args.trace:
            recorder = spans.Recorder(layers.PEAK_SPANS)
            recorder.install(layers.TARGETS)
        start = time.perf_counter()
        try:
            latencies, errors, oks = run_loop(ops, args.seconds, args.ops, recorder)
        finally:
            if recorder is not None:
                recorder.restore()
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = [e for e in errors[:MIN_OPS] if e is not None]
    result.update(
        attempted=len(warm) + len(oks),
        failed=warm.count(False) + oks.count(False),
        timed_ops=len(oks),
        timed_ok=oks.count(True),
        elapsed_s=elapsed,
        latencies_s=latencies,
        worst_error=max(measured) if measured else None,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        record={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "zetaff_backend": zetaff.BACKEND,
        },
    )
    if recorder is not None:
        result["layers"] = layers.layer_metrics(recorder.spans, len(oks))
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(
                {"fields": spans.Span._fields, "spans": recorder.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
