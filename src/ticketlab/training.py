"""Single-run training loop with per-iteration callbacks.

The loop is deterministic given its RNG streams: batch order is a fixed
shuffled permutation per epoch drawn from the shuffle stream, the
temperature schedule advances once per optimizer step, and callbacks
observe every iteration (snapshotting at the rewind point, learning-rate
milestones, record emission). A non-finite loss, or a non-finite gradient
about to be applied, aborts the run with a diagnostic record: the optimizer
checks every gradient it is about to apply (``NonFiniteError``) before it
updates any parameter, and ``train`` turns that error into the record.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Dataset
from .masking import (GATE_HARD, GATE_SOFT, GATE_STOCHASTIC, gate,
                      gate_penalty, remaining_fraction)
from .persist import RunRecord
from .seeding import STREAM_EVAL
from .tensor import NonFiniteError, Tensor, add, backward, reset_tape, softmax_cross_entropy


@dataclass
class TrainCursor:
    """Position within the epoch stream; checkpointable."""

    epoch: int = 0
    pos: int = 0
    perm: np.ndarray | None = None


@dataclass
class StepInfo:
    iteration: int  # global optimizer-iteration index
    round_iteration: int  # iteration within the current train() call
    epoch: int
    beta: float
    loss: float | None = None


@dataclass
class RunInfo:
    """Constant row metadata stamped onto emitted records."""

    run_id: str = "run"
    algorithm: str = "dense"
    seed: int = 0
    round: int = 1
    lam: float | None = None
    s0: float | None = None

    def record(self, epoch: int, iteration: int, split: str,
               **values) -> RunRecord:
        """A record of this run at ``iteration``, stamped with the run id,
        algorithm, seed, round, lam and s0."""
        return RunRecord(self.run_id, self.algorithm, self.seed, self.round,
                         epoch, iteration, split, lam=self.lam, s0=self.s0,
                         **values)


def evaluate(model, dataset: Dataset, beta: float = 1.0, rng=None,
             st_variant: str = "identity", batch_size: int = 512) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset, without recording on the tape."""
    n = len(dataset)
    loss_sum = 0.0
    correct = 0
    with T.no_grad():
        for lo in range(0, n, batch_size):
            hi = min(lo + batch_size, n)
            x = Tensor(dataset.inputs[lo:hi])
            y = dataset.labels[lo:hi]
            logits = model.forward(x, beta=beta, rng=rng, st_variant=st_variant)
            loss = softmax_cross_entropy(logits, y)
            loss_sum += float(loss.data) * (hi - lo)
            correct += int((logits.data.argmax(axis=1) == y).sum())
    return loss_sum / n, correct / n


def epoch_iters(n: int, batch_size: int) -> int:
    """Optimizer steps in one pass over ``n`` examples, the last batch
    short when ``batch_size`` does not divide ``n``."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    return -(-n // batch_size)


def train(model, data: Dataset, optimizer, iterations: int, *,
          batch_size: int, shuffle_rng, schedule=None, lam: float = 0.0,
          mask_rng=None, st_variant: str = "identity",
          cursor: TrainCursor | None = None, start_iteration: int = 0,
          before_step=(), after_step=(), recorder=None,
          run_info: RunInfo | None = None, test_data: Dataset | None = None,
          record_every: int = 1) -> int:
    """Run ``iterations`` optimizer steps; returns the number executed.

    Zero iterations leaves the model untouched. When a recorder is given,
    one train row (and one test row, if test data is given) is emitted
    every ``record_every`` epochs. ``optimizer.step()`` checks every
    gradient before it updates anything; its ``NonFiniteError`` becomes an
    ``abort`` record and a ``NonFiniteError`` naming the iteration and run.
    """
    n = len(data)
    nb = epoch_iters(n, batch_size)
    if record_every < 0:
        raise ValueError(f"record_every must be >= 0, got {record_every}")
    if batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n}")
    if iterations == 0:
        return 0
    cursor = cursor if cursor is not None else TrainCursor()
    info = run_info or RunInfo()
    maskable = [g for g in getattr(model, "groups", []) if g.maskable]
    penalized = [g for g in maskable if g.mode in (GATE_SOFT, GATE_STOCHASTIC)]
    soft = [g for g in penalized if g.mode == GATE_SOFT]
    epoch_loss = 0.0
    epoch_steps = 0

    def abort(what: str, it: int, loss_val: float, beta: float):
        """Send the diagnostic record; return the error to raise."""
        if recorder is not None:
            recorder(info.record(cursor.epoch, it, "abort", loss=loss_val,
                                 beta=beta))
        return NonFiniteError(
            f"non-finite {what} at iteration {it} of {info.run_id!r}")

    for step in range(iterations):
        it = start_iteration + step
        si = StepInfo(iteration=it, round_iteration=step, epoch=cursor.epoch,
                      beta=schedule.current_beta if schedule else 1.0)
        for cb in before_step:
            cb(si)
        beta = schedule.step() if schedule else 1.0

        if cursor.perm is None:
            cursor.perm = shuffle_rng.permutation(n)
            cursor.pos = 0
        lo = cursor.pos * batch_size
        hi = min(lo + batch_size, n)
        idx = cursor.perm[lo:hi]
        x = Tensor(data.inputs[idx])
        y = data.labels[idx]

        reset_tape()
        # one gate node per soft group, read by its layer and its penalty
        gates = {g.name: gate(g, beta) for g in soft}
        logits = model.forward(x, beta=beta, rng=mask_rng,
                               st_variant=st_variant, gates=gates)
        loss = softmax_cross_entropy(logits, y)
        if lam > 0.0:
            for g in penalized:
                loss = add(loss, gate_penalty(g, beta, lam, step_gate=gates.get(g.name)))
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise abort("loss", it, loss_val, beta)
        backward(loss)
        try:  # the step checks every gradient before it updates anything
            optimizer.step()
        except NonFiniteError:
            raise abort("gradient", it, loss_val, beta) from None

        epoch_loss += loss_val
        epoch_steps += 1
        cursor.pos += 1
        si.loss = loss_val
        si.beta = beta
        for cb in after_step:
            cb(si)

        if cursor.pos == nb:
            cursor.epoch += 1
            cursor.perm = None
            if recorder is not None and record_every and cursor.epoch % record_every == 0:
                # an ungated group keeps all of its weights
                rem = remaining_fraction(maskable, beta) if maskable else 1.0
                # evaluation sampling is decoupled from the training mask
                # stream so record cadence never alters the trajectory
                eval_rng = None if mask_rng is None else np.random.default_rng(
                    np.random.SeedSequence((info.seed, STREAM_EVAL, it)))
                _, train_acc = evaluate(model, data, beta=beta, rng=eval_rng,
                                        st_variant=st_variant)
                recorder(info.record(cursor.epoch, it + 1, "train",
                                     loss=epoch_loss / epoch_steps,
                                     accuracy=train_acc, remaining_frac=rem,
                                     beta=beta))
                if test_data is not None:
                    tl, ta = evaluate(model, test_data, beta=beta,
                                      rng=eval_rng, st_variant=st_variant)
                    recorder(info.record(cursor.epoch, it + 1, "test",
                                         loss=tl, accuracy=ta,
                                         remaining_frac=rem, beta=beta))
            epoch_loss = 0.0
            epoch_steps = 0
    return iterations


def capture_train_state(model, optimizer, cursor: TrainCursor, shuffle_rng,
                        schedule=None, mask_rng=None,
                        extra: dict | None = None) -> tuple[dict, dict]:
    """Everything needed to continue training bitwise: weights, mask state,
    optimizer slots, schedule position, epoch cursor, and RNG states.
    Returns (arrays, meta) ready for ``persist.save_checkpoint``."""
    arrays = {k: v.copy() for k, v in model.weight_arrays().items()}
    group_meta = {}
    for g in model.groups:
        if g.mask_logits is not None:
            arrays[f"{g.name}.s"] = g.mask_logits.data.copy()
        if g.frozen_mask is not None:
            arrays[f"{g.name}.frozen"] = g.frozen_mask.copy()
        if g.pruned_forever is not None:
            arrays[f"{g.name}.pruned"] = g.pruned_forever.astype(np.uint8)
        group_meta[g.name] = {"mode": g.mode, "mask_init": g.mask_init}
    for k, v in optimizer.state_arrays().items():
        arrays[f"optimizer.{k}"] = v.copy()
    if cursor.perm is not None:
        arrays["cursor.perm"] = cursor.perm.copy()
    meta = {
        "groups": group_meta,
        "optimizer": optimizer.state_meta(),
        "cursor": {"epoch": cursor.epoch, "pos": cursor.pos,
                   "has_perm": cursor.perm is not None},
        "schedule": None if schedule is None else {
            "beta_final": schedule.beta_final,
            "total_iters": schedule.total_iters,
            "current_iter": schedule.current_iter},
        "shuffle_rng": shuffle_rng.bit_generator.state,
        "mask_rng": None if mask_rng is None else mask_rng.bit_generator.state,
        "extra": extra or {},
    }
    return arrays, meta


def restore_train_state(arrays: dict, meta: dict, model, optimizer,
                        cursor: TrainCursor, shuffle_rng, schedule=None,
                        mask_rng=None) -> dict:
    """Inverse of ``capture_train_state``; mutates the given objects in
    place and returns the stored ``extra`` metadata.

    A group without logits that the checkpoint restores into the soft or
    stochastic mode gets fresh logits. If the optimizer still holds
    tensors the model no longer has (logits dropped when the groups were
    frozen after the optimizer was built), it would never train the fresh
    ones: that raises ``ValueError`` naming the groups, before anything
    is restored.
    """
    held = {id(t) for t in model.weight_tensors() + model.mask_tensors()}
    if any(id(p) not in held for p in optimizer.params):
        fresh = [g.name for g in model.groups if g.mask_logits is None
                 and meta["groups"].get(g.name, {}).get("mode")
                 in (GATE_SOFT, GATE_STOCHASTIC)]
        if fresh:
            raise ValueError(
                f"cannot restore gate logits into group(s) {', '.join(fresh)}: "
                f"they have no logits, and the optimizer holds tensors the "
                f"model no longer has, so it would never train fresh ones; "
                f"build the optimizer after the groups have their logits")
    model.load_weight_arrays(arrays)
    for g in model.groups:
        gm = meta["groups"].get(g.name)
        if gm is None:
            continue
        # through the group's transitions, so the checkpoint's mode, logits
        # and sentinel replace the group's own; the logits are written into
        # the group's array, which an optimizer may hold
        if gm["mode"] == GATE_HARD:
            g.freeze(arrays[f"{g.name}.frozen"])
        else:
            g.init_gate(gm["mode"], gm["mask_init"])
            if g.mask_logits is not None:
                g.mask_logits.data[...] = arrays[f"{g.name}.s"]
            if f"{g.name}.pruned" in arrays:
                g.prune_forever(arrays[f"{g.name}.pruned"].astype(bool))
        g.mask_init = gm["mask_init"]
    opt_arrays = {k.split(".", 1)[1]: v for k, v in arrays.items()
                  if k.startswith("optimizer.")}
    optimizer.load_state(opt_arrays, meta["optimizer"])
    cm = meta["cursor"]
    cursor.epoch = int(cm["epoch"])
    cursor.pos = int(cm["pos"])
    cursor.perm = arrays["cursor.perm"].copy() if cm["has_perm"] else None
    if schedule is not None and meta["schedule"] is not None:
        schedule.current_iter = int(meta["schedule"]["current_iter"])
    shuffle_rng.bit_generator.state = meta["shuffle_rng"]
    if mask_rng is not None and meta["mask_rng"] is not None:
        mask_rng.bit_generator.state = meta["mask_rng"]
    return meta.get("extra", {})


def lr_milestones_callback(optimizer, milestones, factor: float = 0.1):
    """Scale every member optimizer's learning rate at the given
    round-relative iterations (one-pass schedule per round)."""
    pending = set(int(m) for m in milestones)

    def cb(si: StepInfo):
        if si.round_iteration in pending:
            pending.discard(si.round_iteration)
            optimizer.scale_lr(factor)

    return cb
