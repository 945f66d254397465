"""The training loop, for one model or a stack of K, with per-iteration
callbacks.

The loop is deterministic given its RNG streams: batch order is a fixed
shuffled permutation per epoch drawn from each slice's shuffle stream,
the temperature schedule advances once per optimizer step, and callbacks
see every iteration's index before its step (snapshotting at the rewind
point, learning-rate milestones). A non-finite loss, or a non-finite gradient
about to be applied, aborts the run with a diagnostic record: the optimizer
checks every gradient it is about to apply (``NonFiniteError``) before it
updates any parameter, and ``train`` turns that error into the record.

Each step forms its gates with one call of a ``masking.GateSet``. A
recorded epoch (``_record_epoch``) forms the soft gates once more, under
``no_grad``, with one call that the remaining fraction and both
evaluations share and whose gates its set reuses at the next recorded
epoch, and evaluates the train split for its accuracy alone: a train
row's loss is the epoch's ledger.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import Dataset
from .masking import (GATE_HARD, GATE_SOFT, GATE_STOCHASTIC, GateSet,
                      remaining_fraction)
from .persist import RunRecord
from .seeding import STREAM_EVAL
from .tensor import (NonFiniteError, Tensor, backward, softmax_cross_entropy,
                     tensor_sum)

# Examples per forward pass of ``evaluate``.
EVAL_BATCH = 512


@dataclass
class TrainCursor:
    """Position within the epoch stream; checkpointable."""

    epoch: int = 0
    pos: int = 0
    perm: np.ndarray | None = None


@dataclass
class StepInfo:
    """Where a ``train`` step stands, for its ``before_step`` callbacks.
    ``train`` updates one of these in place before each step, so a
    callback reads it during its call."""

    iteration: int  # global optimizer-iteration index
    round_iteration: int  # iteration within the current train() call


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
             st_variant: str = "identity", gates: dict | None = None,
             with_loss: bool = True):
    """Mean loss and accuracy over a dataset, without recording on the
    tape; with ``with_loss`` False, the accuracy alone, computing no loss.
    ``gates`` are soft groups' gates at ``beta``, as ``Model.forward``
    takes them; every batch reads them instead of computing its own.

    A stacked model (``models.stack_models``) gives lists instead, each
    ticket's loss and accuracy, each equal to what that ticket's own model
    gives. An empty dataset raises ``ValueError``."""
    inputs, labels = dataset.inputs, dataset.labels
    n = len(inputs)
    if n == 0:
        raise ValueError("cannot evaluate a model on an empty dataset")
    loss_sum = 0.0  # in float64, one per ticket of a stacked model
    correct = 0
    dtype = model.biases[0].data.dtype  # the batches', as the model's
    forward = model.forward
    # a diverged network's overflow is no NumPy warning: its loss shows it
    with T.no_grad(), T.quiet():
        for lo in range(0, n, EVAL_BATCH):
            hi = min(lo + EVAL_BATCH, n)
            y = labels[lo:hi]
            logits = forward(Tensor(inputs[lo:hi], dtype=dtype), beta=beta,
                             rng=rng, st_variant=st_variant, gates=gates)
            if with_loss:
                loss = softmax_cross_entropy(logits, y)
                loss_sum = loss_sum + loss.data.astype(np.float64) * (hi - lo)
            correct = correct + (logits.data.argmax(axis=-1) == y).sum(axis=-1)
    acc = (correct / n).tolist()  # a float, or a stack's list
    if not with_loss:
        return acc
    return (loss_sum / n).tolist(), acc


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
          before_step=(), recorder=None, run_info: RunInfo | None = None,
          test_data: Dataset | None = None, record_every: int = 1) -> int:
    """Run ``iterations`` optimizer steps; returns the number executed.

    Zero iterations leaves the model untouched. When a recorder is given,
    one train row (and one test row, if test data is given) is emitted
    every ``record_every`` epochs, at the end of its epoch: before the
    next step, with the model as the epoch's last step left it, so a
    recorder may evaluate the model the row describes.
    ``optimizer.step()`` checks every gradient before it updates
    anything; its ``NonFiniteError`` becomes an ``abort`` record and a
    ``NonFiniteError`` naming the iteration and run.

    A model trains as K slices: a stacked model (``models.stack_models``)
    has K, any other model is one. Each slice keeps its own ledger, its
    loss plus its gates' penalties, and a train row reports the mean of
    that over the epoch's steps. ``shuffle_rng``, ``run_info`` and
    ``recorder`` are lists of K, one per slice (a None recorder drops
    that slice's rows; None for either list, a default of each): slice k
    reads the batches of stream k, and its rows are bitwise what its
    model alone, on that stream, gives. An unstacked model also takes
    the bare form, one stream, one run info and one recorder, which
    trains as its list of one does. The loss differentiated is the sum
    of the slices', so each slice's backward pass is seeded with exactly
    1; when that sum is non-finite, the error names the first slice whose
    loss is, and a non-finite gradient names the first slice.
    """
    n = len(data)
    nb = epoch_iters(n, batch_size)
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if record_every < 0:
        raise ValueError(f"record_every must be >= 0, got {record_every}")
    if batch_size > n:
        raise ValueError(f"batch size {batch_size} exceeds dataset size {n}")
    stacked = getattr(model, "stacked", False)
    k = len(model.biases[0].data) if stacked else 1
    dtype = model.biases[0].data.dtype  # the batches', as the model's
    if not isinstance(shuffle_rng, (list, tuple)):  # the bare form
        shuffle_rng, run_info = [shuffle_rng], [run_info or RunInfo()]
        recorder = [recorder]
    infos = [RunInfo()] * k if run_info is None else list(run_info)
    sinks = [None] * k if recorder is None else list(recorder)
    if not len(shuffle_rng) == len(infos) == len(sinks) == k:
        raise ValueError(f"a stack of {k} slices takes {k} run infos, "
                         f"{k} recorders and {k} shuffle streams" if stacked
                         else "an unstacked model takes one run info, one "
                         "recorder and one shuffle stream")
    if iterations == 0:
        return 0
    recording = record_every and any(s is not None for s in sinks)
    cursor = cursor if cursor is not None else TrainCursor()
    maskable = [g for g in getattr(model, "groups", []) if g.maskable]
    gated = [g for g in maskable if g.mode in (GATE_SOFT, GATE_STOCHASTIC)]
    # each works out its groups' layout once for every step it forms
    step_gates = GateSet(gated)
    soft_gates = GateSet(g for g in gated if g.mode == GATE_SOFT)
    epoch_loss = np.zeros(k)  # each slice's summed loss, in float64
    epoch_steps = 0
    si = StepInfo(start_iteration, 0)
    tape = T.active_tape()  # this thread's, for the whole loop
    inputs, labels, forward = data.inputs, data.labels, model.forward

    def abort(what: str, it: int, losses, beta: float):
        """Send the diagnostic records; return the error to raise."""
        _rows(infos, sinks, cursor.epoch, it, "abort", beta, losses)
        bad = next((info for info, v in zip(infos, np.atleast_1d(losses))
                    if not math.isfinite(v)), infos[0])
        return NonFiniteError(
            f"non-finite {what} at iteration {it} of {bad.run_id!r}")

    # a diverging step's overflow is reported by the finiteness checks
    # below, not as NumPy warnings
    with T.quiet():
        for step in range(iterations):
            it = start_iteration + step
            if before_step:
                si.iteration, si.round_iteration = it, step
                for cb in before_step:
                    cb(si)
            beta = schedule.step() if schedule else 1.0

            perm = cursor.perm
            if perm is None:  # of a stack: (K, n), a row per stream
                perm = cursor.perm = (
                    np.stack([r.permutation(n) for r in shuffle_rng])
                    if stacked else shuffle_rng[0].permutation(n))
                cursor.pos = 0
            lo = cursor.pos * batch_size
            idx = perm[..., lo:lo + batch_size]  # the last one short
            x = Tensor(inputs[idx], dtype=dtype)
            y = labels[idx]

            tape.reset()
            # each gated group's gate (drawn in group order when stochastic)
            # is owned by its layer node, which also takes the gradient of
            # the gate's penalty; the penalty values join the loss off the
            # tape, in group order
            gates = step_gates(beta, lam, mask_rng, st_variant)
            loss = softmax_cross_entropy(forward(x, beta=beta, gates=gates), y)
            # each slice's: a stack's (K,) array, a model's NumPy scalar
            losses = loss.data[()]
            if lam > 0.0:
                for m in gates.values():
                    losses = losses + m.penalty
            if stacked:  # each slice's loss seeded with 1
                loss = tensor_sum(loss)
            if not math.isfinite(np.add.reduce(losses, axis=None)
                                 if stacked else losses):  # summed
                raise abort("loss", it, losses, beta)
            backward(loss)
            try:  # the step checks every gradient before it updates anything
                optimizer.step()
            except NonFiniteError:
                raise abort("gradient", it, losses, beta) from None

            epoch_loss += losses
            epoch_steps += 1
            cursor.pos = pos = cursor.pos + 1

            if pos == nb:
                cursor.epoch += 1
                cursor.perm = None
                if recording and cursor.epoch % record_every == 0:
                    # evaluation sampling is decoupled from the training
                    # mask stream so record cadence never alters the
                    # trajectory
                    eval_rng = None if mask_rng is None else (
                        np.random.default_rng(np.random.SeedSequence(
                            (infos[0].seed, STREAM_EVAL, it))))
                    _record_epoch(model, data, test_data, maskable,
                                  soft_gates, beta, eval_rng, st_variant,
                                  stacked, infos, sinks, cursor.epoch, it + 1,
                                  epoch_loss / epoch_steps)
                epoch_loss[:] = 0.0
                epoch_steps = 0
    return iterations


def _each(v, k: int) -> list:
    """``v``, one value per slice of ``k``, as a list of Python values."""
    if v is None:
        return [None] * k
    return [v] if type(v) is float else np.ravel(v).tolist()


def _rows(infos, sinks, epoch: int, it: int, split: str, beta: float, loss,
          accuracy=None, remaining_frac=None) -> None:
    """Send each slice its record: ``loss``, ``accuracy`` and
    ``remaining_frac`` hold one value per slice (of an unstacked model,
    one value or one array of one)."""
    k = len(infos)
    for info, sink, lv, acc, rem in zip(infos, sinks, _each(loss, k),
                                        _each(accuracy, k),
                                        _each(remaining_frac, k)):
        if sink is not None:
            sink(info.record(epoch, it, split, loss=lv, accuracy=acc,
                             remaining_frac=rem, beta=beta))


def _record_epoch(model, data: Dataset, test_data, groups, gate_set, beta,
                  rng, st_variant: str, stacked: bool, infos, sinks,
                  epoch: int, it: int, ledger) -> None:
    """A recorded epoch of ``train``: each slice's train row, its loss the
    epoch's ``ledger``, and with ``test_data`` its test row, sent before
    the next step. The soft gates are formed in one batch (``gate_set``),
    for the remaining fraction and both evaluations, under ``no_grad``, so
    the set reuses them at the next recorded epoch; an ungated group keeps
    all of its weights."""
    with T.no_grad():
        eval_gates = gate_set(beta)
        rem = (remaining_fraction(groups, beta, eval_gates, stacked)
               if groups else [1.0] * len(infos))
        # the train row's loss is the epoch's ledger
        train_acc = evaluate(model, data, beta, rng, st_variant, eval_gates,
                             False)
        _rows(infos, sinks, epoch, it, "train", beta, ledger, train_acc, rem)
        if test_data is not None:
            tl, ta = evaluate(model, test_data, beta, rng, st_variant,
                              eval_gates)
            _rows(infos, sinks, epoch, it, "test", beta, tl, ta, rem)


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
