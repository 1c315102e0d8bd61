"""zetaff benchmark: time to a verified result, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload lemma-table --seed 1 --seconds 30 --trace 0

Workloads (each a closed loop: one caller runs one op after another):

  lemma-table       one op is one cesaro.verify_lemma call at 1e4 periods
                    with dt = C/128, the job `zetaff lemma` runs by default.
  classical-oracle  one op is one root_side.root_side_classical call at
                    k = 10^7, checked against root_side_em at k = 1000.
  curve-pipeline    one op is one seeded curve of genus 1-3: check-curve and
                    scan-mu through cli.main, the bit-exact zero checks, and
                    for critical-line curves the counting-path Clims.

BENCHMARK.json names lemma-table and curve-pipeline only, the two workloads
whose layers no other workload runs.  Within the same total time a third
workload would cut each run from 55 s to about 30 s, too short to steady
them on a shared 2-CPU host.  classical-oracle, whose kernel curve-pipeline
also runs (at k = 1000), is kept for kernel work at k = 10^7, run by hand.

Each measurement runs in its own worker process (worker.py) that imports
the library from ./src.  --trace 0 reports the end-to-end metrics; set-up
is timed in five fresh processes and its median reported.  --trace 1 runs the
workload untraced for half the time, then traced over the same ops, and
reports the per-layer metrics (layers.py) and the tracing overhead.

Standard output: a table of every metric, a run-record line, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
Exit code 2, without a result, when ./src/zetaff is missing or a worker
fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
DEADLINE_S = 170.0

# (metric, unit) of the end-to-end table.
E2E = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_ratio", "ratio"),
    ("worst_error", "1"),
)
# The end-to-end metrics of the result line.  failed_ratio is 0 whenever
# the program is correct and is carried by the attempted and failed keys;
# worst_error depends on which inputs the seed draws, not on speed, and the
# per-op checks already gate it at fixed tolerances.
REPORTED = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


class WorkerError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """The workers' environment: the library from ./src, one thread each for
    the CLI's scan pool and for BLAS, so a single caller runs one op at a
    time and every span of a traced op nests in the op."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["ZETAFF_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(env: dict, deadline: float, *args: str) -> dict:
    """Run worker.py to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--spawned", repr(spawned), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops_per_s(res: dict) -> float:
    return res["timed_ok"] / res["elapsed_s"]


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setups: list, res: dict) -> tuple:
    tail_s, tail_pct = tail(res["latencies_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(res),
        "op_p50_s": statistics.median(res["latencies_s"]),
        "op_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mib"],
        "failed_ratio": res["failed"] / res["attempted"],
        "worst_error": res["worst_error"],
    }
    notes = {"op_tail_s": f"p{tail_pct:.1f} of {res['timed_ops']} timed ops",
             "setup_s": f"median of {len(setups)} processes",
             "worst_error": f"over the first {worker.MIN_OPS} ops"}
    return metrics, notes


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """Digest of the library source: identifies the code under test where
    the checkout is not a git repository and git_sha is null."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zetaff").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def print_table(title: str, rows, notes: dict) -> None:
    print(title)
    for name, unit, value in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        note = notes.get(name, "")
        print(f"  {name:48s} {shown:>14s} {unit:6s} {note}".rstrip())


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "zetaff" / "__init__.py").is_file():
        print(f"no zetaff source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            plain = run_worker(env, deadline, *base, "--seconds", str(args.seconds / 2))
            spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            res = run_worker(env, deadline, *base, "--trace", "--ops", str(plain["timed_ops"]),
                             "--spans-out", str(spans_out))
            metrics = dict(res["layers"])
            metrics["trace.overhead_ratio"] = ops_per_s(res) / ops_per_s(plain)
            attempted = plain["attempted"] + res["attempted"]
            failed = plain["failed"] + res["failed"]
            print_table(f"{args.workload} seed {args.seed}: per-layer metrics (per op)",
                        [(n, u, metrics[n]) for n, u in layers.METRICS],
                        {"trace.overhead_ratio": "traced / untraced ops_per_s"})
            reported = {n: {"value": metrics[n], "unit": u} for n, u in layers.METRICS}
        else:
            setups = [run_worker(env, deadline, *base, "--setup-only")["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            res = run_worker(env, deadline, *base, "--seconds", str(args.seconds))
            setups.append(res["setup_s"])
            metrics, notes = end_to_end(setups, res)
            attempted, failed = res["attempted"], res["failed"]
            print_table(f"{args.workload} seed {args.seed}: end-to-end metrics",
                        [(n, u, metrics[n]) for n, u in E2E], notes)
            units = dict(E2E)
            reported = {n: {"value": metrics[n], "unit": units[n]} for n in REPORTED}
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    record = dict(res["record"], git_sha=git_sha(), src_sha256=src_digest(), nproc=nproc(),
                  workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace,
                  **{k: env[k] for k in ("ZETAFF_THREADS", "OMP_NUM_THREADS",
                                         "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
