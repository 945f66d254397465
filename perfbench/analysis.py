"""Per-layer metrics from one traced repeat's spans and counters.

"Per step" means per optimizer step (one ``optim.step`` span). Spans and
counters inside ``evaluate`` calls are left out of per-step figures; the
``training.eval_*`` metrics cover them. FLOP and byte figures are computed
from operand shapes, not measured.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from metrics import PER_LAYER, TRACED_OPS


def merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.
    Children may overlap each other (worker threads); each child interval
    is clipped to its parent."""
    bounds = {sid: (t0, t1) for sid, _, _, t0, t1 in spans}
    kids = defaultdict(list)
    for sid, _, parent, t0, t1 in spans:
        if parent in bounds:
            p0, p1 = bounds[parent]
            lo, hi = max(t0, p0), min(t1, p1)
            if hi > lo:
                kids[parent].append((lo, hi))
    return {sid: (t1 - t0) - merged_length(kids.get(sid, ()))
            for sid, (t0, t1) in bounds.items()}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, counters: dict, wall_s: float) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``."""
    selfs = self_times(spans)
    by_name = defaultdict(list)  # name -> [(id, duration, parent)]
    names = {}
    for sid, name, parent, t0, t1 in spans:
        by_name[name].append((sid, t1 - t0, parent))
        names[sid] = name
    children = defaultdict(list)  # parent id -> [(name, duration)]
    for sid, name, parent, t0, t1 in spans:
        children[parent].append((name, t1 - t0))

    def total(name):
        return sum(d for _, d, _ in by_name.get(name, ()))

    def self_total(name):
        return sum(selfs[sid] for sid, _, _ in by_name.get(name, ()))

    def durations(name):
        return [d for _, d, _ in by_name.get(name, ())]

    steps = len(by_name.get("optim.step", ()))

    def per_step(x):
        return x / steps if steps else 0.0

    m = {name: 0.0 for name in PER_LAYER}

    # tensor: tape, backward pass, gradient accumulation, per-op time
    m["tensor.tape_nodes_per_step"] = per_step(counters.get("tape_nodes", 0))
    m["tensor.backward_ms_per_step"] = per_step(1e3 * total("tensor.backward"))
    m["tensor.accumulate_calls_per_step"] = per_step(counters.get("accumulate", 0))
    m["tensor.grad_allocs_per_step"] = per_step(counters.get("grad_alloc", 0))
    known = set(TRACED_OPS) - {"other"}
    op_calls = defaultdict(int)
    op_fwd = defaultdict(float)
    op_bwd = defaultdict(float)
    for name, entries in by_name.items():
        for prefix, acc in (("op.fwd.", op_fwd), ("op.bwd.", op_bwd)):
            if name.startswith(prefix):
                op = name[len(prefix):]
                key = op if op in known else "other"
                acc[key] += sum(selfs[sid] for sid, _, _ in entries)
                if prefix == "op.fwd.":
                    op_calls[key] += len(entries)
    for op in TRACED_OPS:
        m[f"tensor.op.{op}.calls_per_step"] = per_step(op_calls[op])
        m[f"tensor.op.{op}.fwd_ms_per_step"] = per_step(1e3 * op_fwd[op])
        m[f"tensor.op.{op}.bwd_ms_per_step"] = per_step(1e3 * op_bwd[op])
    m["tensor.conv2d.gflop_per_step"] = per_step(counters.get("conv2d.flop", 0) / 1e9)
    m["tensor.conv2d.mb_per_step"] = per_step(counters.get("conv2d.bytes", 0) / 1e6)
    for op in ("conv2d", "matmul"):
        busy = op_fwd[op] + op_bwd[op]
        if busy > 0:
            m[f"tensor.{op}.gflops"] = counters.get(f"{op}.flop", 0) / busy / 1e9

    # masking: soft gate and penalty forward work, between-round reset
    m["masking.gate_ms_per_step"] = per_step(
        1e3 * (total("masking.soft_gate") + total("masking.gate_penalty")))
    m["masking.gate_nodes_per_step"] = per_step(counters.get("gate_nodes", 0))

    # models and optim
    m["models.forward_ms_per_step"] = per_step(1e3 * total("models.forward"))
    m["models.forward_self_ms_per_step"] = per_step(1e3 * self_total("models.forward"))
    m["optim.step_ms_per_step"] = per_step(1e3 * total("optim.step"))
    m["optim.elements_per_step"] = per_step(counters.get("optim.elements", 0))

    # training: the loop without its evaluation calls, and evaluation
    in_train_eval = sum(d for sid, _, _ in by_name.get("training.train", ())
                        for name, d in children[sid] if name == "training.evaluate")
    m["training.step_ms_per_step"] = per_step(
        1e3 * (total("training.train") - in_train_eval))
    m["training.loop_self_ms_per_step"] = per_step(1e3 * self_total("training.train"))
    evals = durations("training.evaluate")
    m["training.eval_calls"] = float(len(evals))
    m["training.eval_ms_per_call"] = 1e3 * sum(evals) / len(evals) if evals else 0.0
    m["training.eval_share"] = sum(evals) / wall_s if wall_s > 0 else 0.0

    # search: rounds are train calls made by a controller
    rounds = 0
    iters = 0
    outside_train = 0.0
    for sid, dur, _ in by_name.get("search.controller", ()):
        trains = [tid for tid, _, parent in by_name.get("training.train", ())
                  if parent == sid]
        rounds += len(trains)
        outside_train += dur - sum(d for name, d in children[sid]
                                   if name == "training.train")
        for tid in trains:
            iters += sum(1 for name, _ in children[tid] if name == "optim.step")
    controllers = len(by_name.get("search.controller", ()))
    m["search.rounds"] = float(rounds)
    m["search.iters"] = float(iters)
    m["search.between_round_ms"] = 1e3 * outside_train / rounds if rounds else 0.0
    transitions = rounds - controllers
    if transitions > 0:
        m["masking.reset_ms_per_round"] = 1e3 * total("masking.reset_mask") / transitions

    # harness
    m["harness.dense_baseline_s"] = _median(durations("harness.dense_baseline"))
    m["harness.retrain_s_p50"] = _median(durations("harness.retrain_ticket"))
    jobs = durations("harness.run_point")
    m["harness.jobs"] = float(len(jobs))
    m["harness.job_s_p50"] = _median(jobs)
    cpu = counters.get("harness.job_cpu_s", 0.0)
    m["harness.job_wall_over_cpu"] = sum(jobs) / cpu if cpu > 0 else 0.0

    # persist, cli, data
    for fn in ("write_records", "save_checkpoint", "save_mask_artifact"):
        m[f"persist.{fn}_ms"] = 1e3 * total(f"persist.{fn}")
    m["persist.bytes_written"] = float(counters.get("persist.bytes", 0))
    m["persist.files_written"] = float(counters.get("persist.files", 0))
    m["cli.report_s"] = total("cli.report")
    m["cli.sweep_self_s"] = self_total("cli.sweep")
    builds = durations("data.build")
    m["data.build_ms"] = 1e3 * sum(builds) / len(builds) if builds else 0.0
    return m
