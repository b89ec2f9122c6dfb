"""Self-time, reconciliation and outcome arithmetic on scripted inputs."""

from __future__ import annotations

import numpy as np
import pytest

from lcebench import harness, stats
from repro.obs.trace import SpanRecord
from repro.serving import FAILED_REPLICA, SHED_QUEUE_FULL, Rejected


def _span(name, start, dur, tid=1, **args):
    return SpanRecord(name, start, dur, tid, (), args)


def _call_spans(tid=1, offset=0.0):
    """One bench.call of 10 s: engine 1 s, dispatch 1 s, a bconv node of
    5 s holding a 3 s bgemm and a 0.5 s workspace lookup, an add of 2 s."""
    t = offset
    return [
        _span("bench.call", t + 0.0, 10.0, tid),
        _span("engine.run", t + 0.5, 9.0, tid),
        _span("plan.execute", t + 1.5, 8.0, tid),
        _span("plan.node", t + 2.0, 5.0, tid, op="lce_bconv2d"),
        _span("kernel.bgemm", t + 2.5, 3.0, tid),
        _span("workspace.acquire", t + 6.0, 0.5, tid),
        _span("plan.node", t + 7.0, 2.0, tid, op="add"),
    ]


def test_self_times_subtract_direct_children_only():
    spans = _call_spans()
    _, parent, self_s = stats.span_tree(spans)
    assert parent == [-1, 0, 1, 2, 3, 3, 2]
    assert self_s == pytest.approx([1.0, 1.0, 1.0, 1.5, 3.0, 0.5, 2.0])


def test_spans_nest_per_thread():
    # The same intervals on another thread never become children.
    spans = _call_spans(tid=1) + _call_spans(tid=2)
    _, parent, _ = stats.span_tree(spans)
    assert parent[:7] == [-1, 0, 1, 2, 3, 3, 2]
    assert parent[7:] == [-1, 7, 8, 9, 10, 10, 9]


def test_layer_times_partition_the_roots():
    spans = _call_spans() + _call_spans(offset=20.0)
    layers = stats.layer_times(spans, harness.layer_of)
    # An unnamed span (workspace.acquire) charges its parent node's layer.
    assert layers == pytest.approx(
        {
            "bench": 2.0,
            "runtime.engine": 2.0,
            "runtime.dispatch": 2.0,
            "core.bconv_other": 4.0,
            "core.bgemm": 6.0,
            "ops.fp_add": 4.0,
        }
    )
    assert sum(layers.values()) == pytest.approx(20.0)


def test_unaccounted_ratio_is_bench_self_time_share():
    layers = stats.layer_times(_call_spans(), harness.layer_of)
    total = sum(layers.values())
    ratio = stats.unaccounted_ratio(total, total - layers["bench"])
    assert ratio == pytest.approx(0.1)
    with pytest.raises(ValueError):
        stats.unaccounted_ratio(0.0, 0.0)


def test_reconciliation_refuses_beyond_tolerance():
    report = harness.Report()
    harness._check_reconciled(report, 100.0, 99.0, 1)
    assert report.metrics["trace.unaccounted_ratio"] == pytest.approx(0.01)
    with pytest.raises(harness.RefusedError):
        harness._check_reconciled(report, 100.0, 90.0, 1)


def test_fail_ratio_counts_shed_failed_raised_and_wrong():
    ref = np.arange(4, dtype=np.float32).reshape(1, 4)
    replies = [
        ref.copy(),                                  # ok
        ref.copy(),                                  # ok
        Rejected("m", SHED_QUEUE_FULL),              # shed
        Rejected("m", FAILED_REPLICA, "boom"),       # failed
        ref + 1,                                     # wrong values
        ref.astype(np.float64),                      # wrong dtype
    ]
    outcomes = [harness.classify_reply(r, ref) for r in replies] + [stats.RAISED]
    counts = stats.tally(outcomes)
    assert counts == {"ok": 2, "shed": 1, "failed": 1, "raised": 1, "wrong": 2}
    assert stats.fail_ratio(counts) == pytest.approx(5 / 7)
    assert stats.fail_ratio(stats.tally([stats.OK] * 3)) == 0.0
    with pytest.raises(ValueError):
        stats.tally(["lost"])
    with pytest.raises(ValueError):
        stats.fail_ratio(stats.tally([]))


def test_outputs_equal_checks_structure():
    a = np.ones((1, 3), np.float32)
    assert stats.outputs_equal((a, a.copy()), (a, a))
    assert not stats.outputs_equal(a, (a,))
    assert not stats.outputs_equal((a,), (a, a))


def test_quantile_of_empty_sample_is_zero():
    assert stats.quantile([], 0.99) == 0.0
    assert stats.quantile([1.0, 3.0], 0.5) == 2.0
