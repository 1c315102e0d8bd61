"""The layers the traced run measures and the per-layer metrics it reports.

Layers are the zetaff modules.  Span names are ``<layer>.<function>``; the
``_kernels`` module is reported as ``kernels`` because metric names must
start with a letter, and ``cesaro.closed_form`` is ``lemma_closed_form``.
"""

from __future__ import annotations

from spans import aggregate

# Bytes one kernel term moves in the NumPy kernel, computed from the block
# temporaries it materialises: j (float64), C*j (float64), 1j*C*j, w and
# w**(-mu) (complex128), each written once and read once.
KERNEL_BYTES_PER_TERM = 2 * (8 + 8 + 16 + 16 + 16)


def _kernel_counts(args, kwargs, result, exc):
    k = args[3] if len(args) > 3 else kwargs["k"]
    terms = 2 * int(k) + 1
    return {"terms": terms, "bytes_computed": terms * KERNEL_BYTES_PER_TERM}


def _samples_out(args, kwargs, result, exc):
    return {"samples": len(result.samples) if result is not None else 0}


def _clim_counts(args, kwargs, result, exc):
    from zetaff.errors import NoClimError

    path = args[0] if args else kwargs["path"]
    return {
        "samples": len(path.samples),
        "averagings": result.p_power if result is not None else 0,
        "no_clim": int(isinstance(exc, NoClimError)),
    }


def _tail_budget(args, kwargs, result, exc):
    from zetaff.errors import TailBudgetError

    return {"tail_budget_errors": int(isinstance(exc, TailBudgetError))}


def _exit_code(args, kwargs, result, exc):
    return {"exit_nonzero": int(exc is not None or result != 0)}


# (span name, module, attribute, counter).  Every public function an op
# reaches across a module boundary is wrapped, so the op's wall time splits
# into layer self times plus the harness's own time.  Per-sample helpers
# (s_eval, s1_av, ...) run inside counting_path and are not wrapped.
TARGETS = (
    ("kernels.power_sum_symmetric", "zetaff._kernels", "power_sum_symmetric", _kernel_counts),
    ("deriv_side.deriv_side_total", "zetaff.deriv_side", "deriv_side_total", None),
    ("deriv_side.deriv_side_factor", "zetaff.deriv_side", "deriv_side_factor", _tail_budget),
    ("root_side.root_side_total", "zetaff.root_side", "root_side_total", None),
    ("root_side.root_side_em", "zetaff.root_side", "root_side_em", None),
    ("root_side.root_side_classical", "zetaff.root_side", "root_side_classical", None),
    ("cesaro.verify_lemma", "zetaff.cesaro", "verify_lemma", None),
    ("cesaro.ladder_path", "zetaff.cesaro", "ladder_path", _samples_out),
    ("cesaro.clim", "zetaff.cesaro", "clim", _clim_counts),
    ("cesaro.average_P", "zetaff.cesaro", "average_P", None),
    ("cesaro.counting_path", "zetaff.cesaro", "counting_path", _samples_out),
    ("cesaro.closed_form", "zetaff.cesaro", "lemma_closed_form", None),
    ("cesaro.r_lambda_cesaro", "zetaff.cesaro", "r_lambda_cesaro", None),
    ("cesaro.r_critical_line", "zetaff.cesaro", "r_critical_line", None),
    ("cesaro.make_counting", "zetaff.cesaro", "make_counting", None),
    ("curve_model.make_curve", "zetaff.curve_model", "make_curve", None),
    ("curve_model.check_functional_equation", "zetaff.curve_model",
     "check_functional_equation", None),
    ("cli.main", "zetaff.cli", "main", _exit_code),
)

# spans that record their tracemalloc peak; they never nest in one another
PEAK_SPANS = ("kernels.power_sum_symmetric", "cesaro.ladder_path", "cesaro.clim")
OP_SPAN = "bench.op"
MODULES = ("kernels", "deriv_side", "root_side", "cesaro", "curve_model", "cli")

# (metric, unit).  Self times and counts are per op; rates divide a work
# count by the self time of the same function; peaks are the largest over
# the run.
METRICS = (
    ("cesaro.ladder_path.self_s", "s"),
    ("cesaro.ladder_path.samples_per_s", "1/s"),
    ("cesaro.ladder_path.peak_alloc_mb", "MiB"),
    ("cesaro.clim.self_s", "s"),
    ("cesaro.clim.samples_per_s", "1/s"),
    ("cesaro.clim.peak_alloc_mb", "MiB"),
    ("cesaro.clim.calls", "count"),
    ("cesaro.clim.averagings", "count"),
    ("cesaro.clim.no_clim", "count"),
    ("cesaro.average_P.self_s", "s"),
    ("cesaro.average_P.calls", "count"),
    ("cesaro.counting_path.self_s", "s"),
    ("cesaro.counting_path.samples_per_s", "1/s"),
    ("cesaro.verify_lemma.self_s", "s"),
    ("cesaro.closed_form.self_s", "s"),
    ("kernels.power_sum_symmetric.self_s", "s"),
    ("kernels.power_sum_symmetric.calls", "count"),
    ("kernels.power_sum_symmetric.terms", "count"),
    ("kernels.power_sum_symmetric.terms_per_s", "1/s"),
    ("kernels.power_sum_symmetric.bytes_computed", "B"),
    ("kernels.power_sum_symmetric.peak_alloc_mb", "MiB"),
    ("root_side.root_side_em.self_s", "s"),
    ("root_side.root_side_em.calls", "count"),
    ("root_side.root_side_classical.self_s", "s"),
    ("deriv_side.deriv_side_factor.self_s", "s"),
    ("deriv_side.deriv_side_factor.calls", "count"),
    ("deriv_side.deriv_side_factor.tail_budget_errors", "count"),
    ("curve_model.make_curve.self_s", "s"),
    ("curve_model.check_functional_equation.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.exit_nonzero", "count"),
) + tuple((f"{m}.self_s", "s") for m in MODULES) + (
    ("trace.op_wall_s", "s"),
    ("trace.harness_self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# work count each rate divides by self time
_RATE_OF = {"samples_per_s": "samples", "terms_per_s": "terms"}


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metric values from the spans of n_ops ops.

    trace.overhead_ratio needs the untraced run and is filled in by the caller.
    """
    stats = aggregate(spans)
    empty = {"calls": 0, "self_s": 0.0, "peak_bytes": 0, "counts": {}}
    out = {}
    for metric, _unit in METRICS:
        owner, _, field = metric.rpartition(".")
        if owner in MODULES:
            out[metric] = sum(st["self_s"] for name, st in stats.items()
                              if name.split(".")[0] == owner) / n_ops
            continue
        if owner == "trace":
            continue
        st = stats.get(owner, empty)
        if field == "self_s":
            value = st["self_s"] / n_ops
        elif field == "calls":
            value = st["calls"] / n_ops
        elif field == "peak_alloc_mb":
            value = st["peak_bytes"] / 2**20
        elif field in _RATE_OF:
            work = st["counts"].get(_RATE_OF[field], 0.0)
            value = work / st["self_s"] if st["self_s"] > 0.0 else 0.0
        else:
            value = st["counts"].get(field, 0.0) / n_ops
        out[metric] = value
    op = stats.get(OP_SPAN, empty)
    out["trace.harness_self_s"] = op["self_s"] / n_ops
    out["trace.op_wall_s"] = sum(s.end - s.start for s in spans if s.name == OP_SPAN) / n_ops
    return out
