"""Metric names, units and directions, and the summary statistics the
benchmark reports.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` at the repo root
(a test keeps them in step). End-to-end metrics are what a user of ticketlab
sees: set-up time, workload wall time, search throughput, ticket quality and
memory. Per-layer metrics come from the traced run only.
"""
from __future__ import annotations

import statistics

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "search_iters_per_s": ("iter/s", "higher"),
    "runs_per_s": ("runs/s", "higher"),
    "ticket_accuracy": ("fraction", "higher"),
    "ticket_remaining_frac": ("fraction", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed with the end-to-end metrics but kept out of the result line.
# ``failed_frac`` is always 0 in a run that completes (the result line
# carries ``attempted`` and ``failed``); the raw times and the host
# slowdown show what the scaled times were derived from.
REPORTED_ONLY = {"failed_frac": ("fraction", "lower"),
                 "raw_setup_s": ("s", "lower"),
                 "raw_wall_s": ("s", "lower"),
                 "host_slowdown": ("ratio", "lower")}

# ``_Node.op`` names recorded by the ops the workloads execute. Ops with any
# other name (new fused ops, ``stochastic_gate``) are summed under "other".
TRACED_OPS = ("matmul", "add", "mul", "scale", "relu", "sigmoid", "add_bias",
              "add_channel_bias", "reshape", "sum", "conv2d", "max_pool2d",
              "softmax_cross_entropy", "other")

PER_LAYER = {
    "tensor.tape_nodes_per_step": ("count", "lower"),
    "tensor.backward_ms_per_step": ("ms", "lower"),
    "tensor.accumulate_calls_per_step": ("count", "lower"),
    "tensor.grad_allocs_per_step": ("count", "lower"),
    "tensor.conv2d.gflop_per_step": ("GFLOP", "lower"),
    "tensor.conv2d.mb_per_step": ("MB", "lower"),
    "tensor.conv2d.gflops": ("GFLOP/s", "higher"),
    "tensor.matmul.gflops": ("GFLOP/s", "higher"),
    "masking.gate_ms_per_step": ("ms", "lower"),
    "masking.gate_nodes_per_step": ("count", "lower"),
    "masking.reset_ms_per_round": ("ms", "lower"),
    "models.forward_ms_per_step": ("ms", "lower"),
    "models.forward_self_ms_per_step": ("ms", "lower"),
    "optim.step_ms_per_step": ("ms", "lower"),
    "optim.elements_per_step": ("count", "lower"),
    "training.step_ms_per_step": ("ms", "lower"),
    "training.loop_self_ms_per_step": ("ms", "lower"),
    "training.eval_ms_per_call": ("ms", "lower"),
    "training.eval_calls": ("count", "lower"),
    "training.eval_share": ("fraction", "lower"),
    "search.between_round_ms": ("ms", "lower"),
    "search.rounds": ("count", "higher"),
    "search.iters": ("count", "higher"),
    "harness.dense_baseline_s": ("s", "lower"),
    "harness.retrain_s_p50": ("s", "lower"),
    "harness.job_s_p50": ("s", "lower"),
    "harness.job_wall_over_cpu": ("ratio", "lower"),
    "harness.jobs": ("count", "higher"),
    "persist.write_records_ms": ("ms", "lower"),
    "persist.save_checkpoint_ms": ("ms", "lower"),
    "persist.save_mask_artifact_ms": ("ms", "lower"),
    "persist.bytes_written": ("bytes", "lower"),
    "persist.files_written": ("count", "lower"),
    "cli.report_s": ("s", "lower"),
    "cli.sweep_self_s": ("s", "lower"),
    "data.build_ms": ("ms", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}
for _op in TRACED_OPS:
    PER_LAYER[f"tensor.op.{_op}.calls_per_step"] = ("count", "lower")
    PER_LAYER[f"tensor.op.{_op}.fwd_ms_per_step"] = ("ms", "lower")
    PER_LAYER[f"tensor.op.{_op}.bwd_ms_per_step"] = ("ms", "lower")


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (0 for fewer than two samples or a zero median)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return float((q[2] - q[0]) / abs(med))
