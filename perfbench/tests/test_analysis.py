"""Span self time and per-layer aggregation."""
import pytest

from analysis import layer_metrics, merged_length, self_times
from metrics import PER_LAYER


def test_merged_length_joins_overlaps_and_gaps():
    assert merged_length([]) == 0.0
    assert merged_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert merged_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_of_nested_spans():
    spans = [(1, "outer", -1, 0.0, 10.0),
             (2, "child", 1, 1.0, 4.0),
             (3, "grandchild", 2, 2.0, 3.0),
             (4, "child", 1, 5.0, 6.0)]
    s = self_times(spans)
    assert s[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert s[2] == pytest.approx(3.0 - 1.0)
    assert s[3] == pytest.approx(1.0)
    assert s[4] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # two worker-thread jobs under one sweep span, running concurrently
    spans = [(1, "sweep", -1, 0.0, 10.0),
             (2, "job", 1, 1.0, 6.0),
             (3, "job", 1, 2.0, 7.0),
             (4, "job", 1, 9.0, 12.0)]  # outlives its parent: clipped
    s = self_times(spans)
    assert s[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_per_step_and_defaults():
    spans = [(1, "training.train", -1, 0.0, 1.0),
             (2, "optim.step", 1, 0.1, 0.2),
             (3, "optim.step", 1, 0.5, 0.6),
             (4, "training.evaluate", 1, 0.7, 0.9),
             (5, "op.fwd.matmul", 1, 0.2, 0.3),
             (6, "eval.op.fwd.matmul", 4, 0.75, 0.8),
             (7, "op.fwd.fused_gate", 1, 0.3, 0.35)]
    m = layer_metrics(spans, {"tape_nodes": 8, "matmul.flop": 2e9}, wall_s=2.0)
    assert set(m) == set(PER_LAYER)
    assert m["optim.step_ms_per_step"] == pytest.approx(100.0)
    assert m["tensor.tape_nodes_per_step"] == 4
    assert m["tensor.op.matmul.calls_per_step"] == 0.5  # eval op left out
    assert m["tensor.op.other.calls_per_step"] == 0.5  # unknown op name
    assert m["tensor.matmul.gflops"] == pytest.approx(20.0)
    assert m["training.step_ms_per_step"] == pytest.approx((1.0 - 0.2) * 1e3 / 2)
    assert m["training.eval_calls"] == 1
    assert m["training.eval_share"] == pytest.approx(0.1)
    assert m["harness.jobs"] == 0
