"""Tests of the benchmark's own code: input generation, span arithmetic and
the wrappers of the traced run."""

import json
import sys
import threading
from pathlib import Path

import pytest

import layers
import run
import spans
import workloads
import zetaff
from zetaff import cesaro, root_side
from zetaff.curve_model import LambdaFactor


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generate_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert first != workloads.generate(workload, 8)


def test_lemma_tau0_is_drawn_inside_the_period():
    for spec in workloads.generate("lemma-table", 3):
        assert 0.0 <= spec["tau0"] < workloads._spacing(spec["q"])


def _span(sid, start, end, parent=None, name="x"):
    return spans.Span(sid, name, start, end, parent, 0, 0, None)


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 6.0, parent=1),   # overlaps span 2: covered once
        _span(4, 2.0, 3.0, parent=2),
        _span(5, 9.0, 12.0, parent=1),  # runs past its parent: clipped
        _span(6, 11.0, 13.0),           # a second root
    ]
    assert spans.self_times(tree) == pytest.approx(
        {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0, 6: 2.0})


def test_aggregate_sums_self_time_and_counts_by_name():
    tree = [
        spans.Span(1, "a", 0.0, 4.0, None, 0, 0, None),
        spans.Span(2, "b", 1.0, 2.0, 1, 0, 10, {"n": 2}),
        spans.Span(3, "b", 2.5, 3.0, 1, 0, 30, {"n": 3}),
    ]
    stats = spans.aggregate(tree)
    assert stats["a"]["self_s"] == pytest.approx(2.5)
    assert stats["b"]["calls"] == 2
    assert stats["b"]["self_s"] == pytest.approx(1.5)
    assert stats["b"]["peak_bytes"] == 30
    assert stats["b"]["counts"]["n"] == 5


def _bindings():
    """Every (module, name) binding of a wrapped function in zetaff."""
    originals = {id(getattr(sys.modules[mod], attr)) for _, mod, attr, _ in layers.TARGETS}
    return {(m.__name__, k): v for m in list(sys.modules.values())
            if m is not None and m.__name__.startswith("zetaff")
            for k, v in vars(m).items() if id(v) in originals}


def test_wrappers_record_spans_and_restore_the_originals():
    import zetaff.cli  # noqa: F401  (the CLI is one of the wrapped layers)

    before = _bindings()
    assert ("zetaff.root_side", "power_sum_symmetric") in before
    recorder = spans.Recorder(layers.PEAK_SPANS)
    recorder.install(layers.TARGETS)
    try:
        assert root_side.power_sum_symmetric is not before[("zetaff.root_side",
                                                            "power_sum_symmetric")]
        frame = recorder.enter(layers.OP_SPAN)
        root_side.root_side_em(LambdaFactor(0.6, 0.7, 1), 25, 5.1238, 2.6, 10)
        # a span opened on another thread nests in the op thread's open span
        thread = threading.Thread(target=cesaro.lemma_closed_form,
                                  args=("k", "lower", 1, 3.0, 0.6 + 0.7j, 0.6, 0.7, 1.9))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        recorder.exit(frame)
    finally:
        recorder.restore()
    assert _bindings() == before
    assert zetaff.root_side_em is before[("zetaff", "root_side_em")]

    by_name = {s.name: s for s in recorder.spans}
    op, em, kernel = (by_name[n] for n in (layers.OP_SPAN, "root_side.root_side_em",
                                           "kernels.power_sum_symmetric"))
    assert em.parent == op.id and kernel.parent == em.id
    assert by_name["cesaro.closed_form"].parent == op.id
    assert kernel.counts["terms"] == 21
    assert kernel.peak_bytes > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    # classical-oracle is run by hand only: see the note in run.py
    assert [w["name"] for w in spec["workloads"]] == ["lemma-table", "curve-pipeline"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    units = dict(run.E2E)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, units[n]) for n in run.REPORTED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.METRICS)
