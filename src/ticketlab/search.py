"""Round-structured subnetwork-search controllers.

Five procedures share one round loop (train for T iterations, extract a
ticket, update the mask between rounds, R times). Each is a small policy
that fixes the gate mode, the ticket extraction, the between-round update
and whether weights rewind between rounds:

* ``run_cs``         - deterministic soft gates sigmoid(beta*s) with an
                       exponential temperature ramp per round, an L1 gate
                       penalty, and the between-round logit reset
                       s <- min(beta_end * s_end, s_init). Weights persist
                       across rounds unless rewinding is requested. The
                       final mask is the exact hard step of the logits.
* ``run_imp``        - hard masks; after each round the lowest-magnitude
                       fraction of surviving weights is removed (globally
                       or per layer) and, optionally, survivors rewind to
                       the stored early iterate.
* ``run_iss``        - Bernoulli(sigmoid(s)) sampled masks trained with a
                       straight-through gradient; between rounds components
                       whose logits fell below their init are permanently
                       removed and weights rewind to the early iterate.
* ``run_sequential_cs`` - soft gates as in run_cs, but each round
                       permanently removes a fixed fraction of survivors
                       with the lowest logits (no logit reset).
* ``run_supermask``  - single round that trains only the mask over frozen
                       randomly-initialized weights.

The loop derives everything else from the gate mode: soft gates anneal the
temperature each round, gated modes (soft and stochastic) add the L1 gate
penalty and stamp lam/s0 on records, and stochastic gates draw from the
mask stream. Pruned components always stay in storage with zero gradient
(the mask multiplies the gradient), which makes rewinding exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .masking import (GATE_HARD, GATE_SOFT, GATE_STOCHASTIC, ST_VARIANTS,
                      MaskedParameterGroup, TemperatureSchedule, kept_fraction,
                      reset_mask)
from .optim import CompositeOptimizer, OptimizerConfig
from .persist import RunRecord
from .seeding import STREAM_MASK, STREAM_SHUFFLE, seeded_rng
from .training import (RunInfo, TrainCursor, epoch_iters,
                       lr_milestones_callback, train)

PRUNE_SCOPES = ("global", "per-layer")  # magnitude ranking of ``run_imp``
SUPERMASK_VARIANTS = ("soft", "stochastic")  # gates of ``run_supermask``


@dataclass
class RoundConfig:
    """Shared knobs for every controller; not all fields apply to all."""

    rounds: int = 1
    iters_per_round: int = 500
    rewind_iter: int = 0  # snapshot point k, in optimizer iterations
    prune_rate: float | None = None  # fixed per-round removal fraction
    rewind_between_rounds: bool = False
    lam: float = 1e-8
    beta_final: float = 200.0
    mask_init: float = 0.0
    batch_size: int = 32
    lr_milestones: tuple = ()
    lr_decay: float = 0.1
    record_every: int = 1
    st_variant: str = "identity"
    weight_opt: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig("sgd", lr=0.1, momentum=0.9,
                                                weight_decay=1e-4))
    mask_opt: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig("sgd", lr=0.1, momentum=0.9,
                                                weight_decay=0.0))

    def validate(self, need_rate: bool = False) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.iters_per_round < 1:
            raise ValueError("iterations per round must be >= 1")
        if not 0 <= self.rewind_iter < self.iters_per_round:
            raise ValueError("rewind point must satisfy 0 <= k < T")
        if self.prune_rate is not None and not 0.0 < self.prune_rate < 1.0:
            raise ValueError("pruning rate must lie in (0, 1)")
        if need_rate and self.prune_rate is None:
            raise ValueError("this controller requires a pruning rate")
        if self.lam < 0:
            raise ValueError("gate penalty must be non-negative")
        if self.beta_final < 1:
            raise ValueError("final temperature must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.record_every < 0:
            raise ValueError("record_every must be >= 0")
        if self.st_variant not in ST_VARIANTS:
            raise ValueError(f"unknown straight-through variant "
                             f"{self.st_variant!r}")
        self.weight_opt.validate()
        self.mask_opt.validate()


@dataclass
class RewindStore:
    """Snapshot of every weight tensor at iterate k of round 1."""

    rewind_iter: int
    arrays: dict[str, np.ndarray]


@dataclass
class TicketResult:
    algorithm: str
    run_id: str
    seed: int
    config: RoundConfig
    masks: dict[str, np.ndarray]
    rewind: RewindStore
    records: list[RunRecord]
    remaining_per_round: list[float]
    round_masks: list[dict[str, np.ndarray]]
    total_iterations: int
    iters_per_epoch: int
    round: int = 0  # round that produced `masks` (last executed round)
    prune_exhausted: bool = False
    final_weights: dict[str, np.ndarray] | None = None

    @property
    def remaining_fraction(self) -> float:
        return self.remaining_per_round[-1]


def _make_optimizer(model, cfg: RoundConfig) -> CompositeOptimizer:
    members = []
    wparams = [t for t in model.weight_tensors() if t.requires_grad]
    if wparams:
        members.append(cfg.weight_opt.build(wparams))
    mparams = [t for t in model.mask_tensors() if t.requires_grad]
    if mparams:
        members.append(cfg.mask_opt.build(mparams))
    return CompositeOptimizer(members)


class _Recorder:
    def __init__(self, sink=None):
        self.rows: list[RunRecord] = []
        self.sink = sink

    def __call__(self, rec: RunRecord):
        self.rows.append(rec)
        if self.sink is not None:
            self.sink(rec)


def _capture_rewind(model, k: int, box: dict):
    def cb(si):
        if si.iteration == k and "store" not in box:
            box["store"] = RewindStore(k, model.weight_arrays(copy=True))
    return cb


def _select_lowest(groups: list[MaskedParameterGroup],
                   values: list[np.ndarray],
                   active: list[np.ndarray],
                   rate: float, scope: str) -> list[np.ndarray]:
    """Indices (flat, per group) of the lowest-valued active components to
    remove: floor(rate * active) overall (global) or per group (per-layer),
    at least one when any rounding would stall; ties break on the lowest
    flat index in group order. Returns [] when nothing can be pruned."""
    if scope == "per-layer":  # the global cut, applied to each group alone
        empty = np.empty(0, dtype=np.int64)
        picks = [(_select_lowest([g], [v], [a], rate, "global") or [empty])[0]
                 for g, v, a in zip(groups, values, active)]
        return picks if any(p.size for p in picks) else []
    gids, flats, vals = [], [], []
    for gi, (v, a) in enumerate(zip(values, active)):
        idx = np.flatnonzero(a.reshape(-1))
        gids.append(np.full(idx.size, gi))
        flats.append(idx)
        vals.append(v.reshape(-1)[idx])
    gids = np.concatenate(gids)
    flats = np.concatenate(flats)
    vals = np.concatenate(vals)
    total = vals.size
    nprune = int(np.floor(rate * total + 1e-9))
    if nprune == 0:
        if total <= 1:
            return []
        nprune = 1
    order = np.argsort(vals, kind="stable")[:nprune]
    return [flats[order[gids[order] == gi]] for gi in range(len(groups))]


# ---------------------------------------------------------------------------
# ticket extraction: (groups, cfg, mask_rng) -> (masks, nothing left to prune)
# ---------------------------------------------------------------------------

def _hard_step(groups, cfg, mask_rng):
    return {g.name: g.current_hard_mask() for g in groups}, False


def _bernoulli(groups, cfg, mask_rng):
    return {g.name: g.sample_mask(mask_rng) for g in groups}, False


def _magnitude_cut(groups, cfg, mask_rng, scope):
    masks = [g.current_hard_mask() for g in groups]
    picks = _select_lowest(groups, [np.abs(g.weights.data) for g in groups],
                           [m > 0 for m in masks], cfg.prune_rate, scope)
    for g, m, p in zip(groups, masks, picks):
        m.reshape(-1)[p] = 0.0
        g.freeze(m)
    return {g.name: m for g, m in zip(groups, masks)}, not picks


def _lowest_logit_quota(groups, cfg, mask_rng):
    active = [np.ones(g.weights.shape, dtype=bool)
              if g.pruned_forever is None else ~g.pruned_forever
              for g in groups]
    picks = _select_lowest(groups, [g.mask_logits.data for g in groups],
                           active, cfg.prune_rate, "global")
    for g, a, p in zip(groups, active,
                       picks or [np.empty(0, int)] * len(groups)):
        a.reshape(-1)[p] = False
        g.prune_forever(~a)
    return {g.name: g.kept() for g in groups}, not picks


# ---------------------------------------------------------------------------
# between-round updates: (groups, cfg) -> None
# ---------------------------------------------------------------------------

def _reset_logits(groups, cfg):
    for g in groups:
        reset_mask(g, g.mask_logits.data, cfg.beta_final)


def _freeze_dropped(groups, cfg):
    for g in groups:
        g.prune_forever(g.mask_logits.data < g.mask_init)


@dataclass(frozen=True)
class _Policy:
    """What one controller adds to the shared round loop."""

    mode: str  # gate mode
    extract: Callable  # ticket extraction after every round
    update: Callable | None = None  # mask update between rounds
    rewind: bool = False  # weights return to iterate k after every round


def _run_rounds(model, data, cfg: RoundConfig, policy: _Policy, *,
                algorithm: str, seed: int, run_id: str, test_data,
                recorder) -> list[TicketResult]:
    """Train for ``iters_per_round`` iterations, extract the round's ticket,
    rewind the weights if the policy asks, and update the mask before the
    next round; ``rounds`` times, or until extraction finds nothing left to
    prune. Returns one ticket per executed round. The round-1 iterate k is
    captured for rewinding, learning-rate milestones restart every round,
    and total optimizer iterations are exactly rounds * iters_per_round
    unless pruning is exhausted first."""
    groups = model.maskable_groups()
    if not groups:
        raise ValueError(f"{algorithm} search needs >= 1 maskable group")
    model.set_gate_mode(policy.mode, cfg.mask_init)
    soft = policy.mode == GATE_SOFT
    gated = policy.mode in (GATE_SOFT, GATE_STOCHASTIC)
    shuffle = seeded_rng(seed, STREAM_SHUFFLE)
    mask_rng = (seeded_rng(seed, STREAM_MASK)
                if policy.mode == GATE_STOCHASTIC else None)
    rec = _Recorder(recorder)
    info = RunInfo(run_id=run_id, algorithm=algorithm, seed=seed,
                   lam=cfg.lam if gated else None,
                   s0=cfg.mask_init if gated else None)
    box: dict = {}
    total = 0
    tickets: list[TicketResult] = []
    remaining_per_round: list[float] = []

    for r in range(1, cfg.rounds + 1):
        info.round = r
        opt = _make_optimizer(model, cfg)
        cbs = [_capture_rewind(model, cfg.rewind_iter, box)] if r == 1 else []
        if cfg.lr_milestones:
            cbs.append(lr_milestones_callback(opt, cfg.lr_milestones,
                                              cfg.lr_decay))
        sched = (TemperatureSchedule(cfg.beta_final, cfg.iters_per_round)
                 if soft else None)
        total += train(model, data, opt, cfg.iters_per_round,
                       batch_size=cfg.batch_size, shuffle_rng=shuffle,
                       schedule=sched, lam=cfg.lam if gated else 0.0,
                       mask_rng=mask_rng, st_variant=cfg.st_variant,
                       cursor=TrainCursor(), start_iteration=total,
                       before_step=cbs, recorder=rec, run_info=info,
                       test_data=test_data, record_every=cfg.record_every)
        masks, exhausted = policy.extract(groups, cfg, mask_rng)
        remaining_per_round.append(kept_fraction(masks))
        rec(info.record(0, total, "ticket",
                        remaining_frac=remaining_per_round[-1],
                        beta=cfg.beta_final if soft else None))
        final_weights = model.weight_arrays(copy=True)
        if policy.rewind:
            model.load_weight_arrays(box["store"].arrays)
        if policy.update is not None and r < cfg.rounds:
            policy.update(groups, cfg)
        tickets.append(TicketResult(
            algorithm, run_id, seed, cfg, masks, box["store"], rec.rows,
            list(remaining_per_round), [masks], total,
            iters_per_epoch=epoch_iters(len(data), cfg.batch_size), round=r,
            prune_exhausted=exhausted, final_weights=final_weights))
        if exhausted:
            break
    return tickets


def _with_round_masks(tickets: list[TicketResult]) -> TicketResult:
    """The last round's ticket carrying every round's mask."""
    return replace(tickets[-1], round_masks=[t.masks for t in tickets])


# ---------------------------------------------------------------------------
# controllers
# ---------------------------------------------------------------------------

def run_cs(model, data, cfg: RoundConfig, *, seed: int = 0, run_id: str = "cs",
           test_data=None, recorder=None) -> TicketResult:
    """Soft-gate search: anneal beta 1 -> beta_final each round, reset the
    kept logits between rounds, output the exact hard mask of the final
    logits together with the round-1 rewind snapshot. Total optimizer
    iterations are exactly rounds * iters_per_round, whatever the final
    sparsity. With ``rewind_between_rounds`` weights return to the round-1
    iterate k after every round."""
    cfg.validate()
    policy = _Policy(GATE_SOFT, _hard_step, _reset_logits,
                     rewind=cfg.rewind_between_rounds)
    return _with_round_masks(_run_rounds(
        model, data, cfg, policy, algorithm="cs", seed=seed, run_id=run_id,
        test_data=test_data, recorder=recorder))


def run_imp(model, data, cfg: RoundConfig, scope: str = "global", *,
            seed: int = 0, run_id: str = "imp", test_data=None,
            recorder=None) -> list[TicketResult]:
    """Iterative magnitude pruning. Emits one ticket per round; masks are
    nested across rounds. With ``rewind_between_rounds`` surviving weights
    return to the round-1 iterate k after every round."""
    cfg.validate(need_rate=True)
    if scope not in PRUNE_SCOPES:
        raise ValueError(f"unknown pruning scope {scope!r}")
    policy = _Policy(GATE_HARD, partial(_magnitude_cut, scope=scope),
                     rewind=cfg.rewind_between_rounds)
    return _run_rounds(model, data, cfg, policy, algorithm="imp", seed=seed,
                       run_id=run_id, test_data=test_data, recorder=recorder)


def run_iss(model, data, cfg: RoundConfig, *, seed: int = 0,
            run_id: str = "iss", test_data=None, recorder=None) -> TicketResult:
    """Stochastic mask search with straight-through gradients. Between
    rounds, components whose logits dropped below their init are frozen out
    permanently; weights rewind to the stored iterate k after every round.
    The final mask is one Bernoulli sample of the trained gate
    probabilities."""
    cfg.validate()
    policy = _Policy(GATE_STOCHASTIC, _bernoulli, _freeze_dropped,
                     rewind=True)
    return _with_round_masks(_run_rounds(
        model, data, cfg, policy, algorithm="iss", seed=seed, run_id=run_id,
        test_data=test_data, recorder=recorder))


def run_sequential_cs(model, data, cfg: RoundConfig, *, seed: int = 0,
                      run_id: str = "seqcs", test_data=None,
                      recorder=None) -> list[TicketResult]:
    """Soft-gate training with a fixed per-round removal quota: after each
    round the fraction ``prune_rate`` of surviving weights with the lowest
    mask logits is removed permanently, so remaining fractions follow
    (1 - rate)^r regardless of the logit values. The temperature resets to
    1 each round; logits are not reset."""
    cfg.validate(need_rate=True)
    policy = _Policy(GATE_SOFT, _lowest_logit_quota,
                     rewind=cfg.rewind_between_rounds)
    return _run_rounds(model, data, cfg, policy, algorithm="seqcs", seed=seed,
                       run_id=run_id, test_data=test_data, recorder=recorder)


def run_supermask(model, data, cfg: RoundConfig, variant: str = "soft", *,
                  seed: int = 0, run_id: str = "supermask", test_data=None,
                  recorder=None) -> TicketResult:
    """Learn a binary mask over frozen randomly-initialized weights in a
    single round. Only mask logits are trained; the run fails loudly if any
    weight changes. ``variant`` picks the deterministic soft gate or the
    sampled stochastic gate."""
    if cfg.rounds != 1:
        raise ValueError("supermask search runs a single round")
    cfg.validate()
    if variant not in SUPERMASK_VARIANTS:
        raise ValueError(f"unknown supermask variant {variant!r}")
    snapshot = model.weight_arrays(copy=True)
    for t in model.weight_tensors():
        t.requires_grad = False
    policy = (_Policy(GATE_SOFT, _hard_step) if variant == "soft"
              else _Policy(GATE_STOCHASTIC, _bernoulli))
    [ticket] = _run_rounds(model, data, cfg, policy,
                           algorithm=f"supermask-{variant}", seed=seed,
                           run_id=run_id, test_data=test_data,
                           recorder=recorder)
    for k, a in model.weight_arrays().items():
        if not np.array_equal(a, snapshot[k]):
            raise RuntimeError(f"frozen weights changed during supermask "
                               f"search: {k!r}")
    return replace(ticket, rewind=RewindStore(0, snapshot))


def freeze_mask_and_finetune(model, data, cfg: RoundConfig, *,
                             freeze_at: int, finetune_iters: int,
                             finetune_lr: float, seed: int = 0,
                             run_id: str = "prune", test_data=None,
                             recorder=None):
    """Pruning-mode schedule: train weights and soft gates for ``freeze_at``
    iterations (temperature annealed over that span), then freeze the hard
    step of the logits (hard mode: the logits are dropped, so only weights
    train) and fine-tune the surviving weights at ``finetune_lr``.

    Returns (model, masks, records). Calling on an already-frozen model is
    an error.
    """
    cfg.validate()
    if freeze_at < 1 or finetune_iters < 0:
        raise ValueError("freeze point must be >= 1 and tail >= 0")
    groups = model.maskable_groups()
    if not groups:
        raise ValueError("mask freezing needs >= 1 maskable group")
    if any(g.mode == GATE_HARD for g in groups):
        raise ValueError("mask already frozen for this model")
    model.set_gate_mode(GATE_SOFT, cfg.mask_init)
    shuffle = seeded_rng(seed, STREAM_SHUFFLE)
    rec = _Recorder(recorder)
    info = RunInfo(run_id=run_id, algorithm="prune", seed=seed, lam=cfg.lam,
                   s0=cfg.mask_init)
    opt = _make_optimizer(model, cfg)
    sched = TemperatureSchedule(cfg.beta_final, freeze_at)
    done = train(model, data, opt, freeze_at, batch_size=cfg.batch_size,
                 shuffle_rng=shuffle, schedule=sched, lam=cfg.lam,
                 cursor=TrainCursor(), recorder=rec, run_info=info,
                 test_data=test_data, record_every=cfg.record_every)
    masks = model.masks()
    model.apply_hard_masks(masks)
    info.round = 2
    tail_cfg = replace(cfg, weight_opt=replace(cfg.weight_opt, lr=finetune_lr))
    tail_opt = _make_optimizer(model, tail_cfg)
    train(model, data, tail_opt, finetune_iters, batch_size=cfg.batch_size,
          shuffle_rng=shuffle, lam=0.0, cursor=TrainCursor(),
          start_iteration=done, recorder=rec, run_info=info,
          test_data=test_data, record_every=cfg.record_every)
    return model, masks, rec.rows
