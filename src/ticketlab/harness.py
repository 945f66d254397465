"""Experiment orchestration: ticket evaluation, subnetwork selection,
hyperparameter sweeps, per-layer sparsity, and search-cost accounting.

A ticket is evaluated by rebuilding the model, fixing its binary mask,
loading the stored early iterate, and re-training on the same budget as
the dense baseline (or, alternatively, fine-tuning from the final trained
weights). Selection follows the two criteria used for reporting: the
sparsest ticket that matches the dense baseline, and the best-performing
ticket regardless of sparsity.
"""
from __future__ import annotations

import itertools
import pickle
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DataConfig
from .masking import kept_fraction
from .models import Model, ModelConfig, stack_models
from .optim import check_fields
from .persist import RunRecord
from .search import (INT_FIELDS, PRUNE_SCOPES, SUPERMASK_VARIANTS,
                     RewindStore, RoundConfig, TicketResult, run_cs, run_imp,
                     run_iss, run_sequential_cs, run_supermask, train_round)
from .seeding import STREAM_SHUFFLE, seeded_rng
from .tensor import (PRECISIONS, NonFiniteError, Tensor, default_dtype,
                     no_grad, set_default_dtype)
from .training import RunInfo, evaluate

# Record splits that carry a ticket's evaluated accuracy.
EVAL_SPLITS = ("retrain_test", "finetune_test", "mask_test")
GRID_ALIASES = {"s0": "mask_init", "lambda": "lam", "tau": "prune_rate",
                "beta": "beta_final"}

# Each search by name: ``(plan, model, data, cfg, **kw)`` -> its tickets. An
# entry looks its controller up when called, so a swapped-in wrapper runs.
SEARCHES = {
    "cs": lambda plan, model, data, cfg, **kw: [
        run_cs(model, data, cfg, **kw)],
    "imp": lambda plan, model, data, cfg, **kw: run_imp(
        model, data, cfg, plan.scope, **kw),
    "iss": lambda plan, model, data, cfg, **kw: [
        run_iss(model, data, cfg, **kw)],
    "seqcs": lambda plan, model, data, cfg, **kw: run_sequential_cs(
        model, data, cfg, **kw),
    "supermask": lambda plan, model, data, cfg, **kw: [run_supermask(
        model, data, cfg, plan.supermask_variant, **kw)],
}

# The searches whose round config must carry a pruning rate.
RATE_SEARCHES = frozenset({"imp", "seqcs"})

# The most parameters a stack of models holds (``_stacks``). A larger
# stack trains no faster per model: its steps are bound by memory traffic,
# not by per-op overhead (on the (2,256,256,2) MLP, one ticket of 67k
# parameters trains fastest alone, and a stack of 30 takes twice as long
# per ticket), and its arrays and activations grow with it.
STACK_WEIGHTS = 1 << 17


@dataclass
class EvalRow:
    """One evaluated ticket (or a failed run placeholder).

    ``accuracy_rel_first`` / ``remaining_rel_first`` are sweep columns:
    the difference to the cross-seed median at the first grid point, so
    hyperparameter effects can be read off next to the absolute values.
    """

    run_id: str
    algorithm: str
    seed: int
    round: int
    remaining_frac: float | None
    accuracy: float | None
    cost_iters: int
    cost_epochs: float
    grid: dict = field(default_factory=dict)
    per_layer: list | None = None
    error: str | None = None
    accuracy_rel_first: float | None = None
    remaining_rel_first: float | None = None


@dataclass
class EvaluationReport:
    rows: list[EvalRow]
    dense_by_seed: dict[int, float]
    dense_accuracy: float | None
    spearman_s0: float | None
    records: list[RunRecord]


@dataclass
class ExperimentPlan:
    """A fully-specified family of runs: grid x seeds, one algorithm."""

    algorithm: str = "cs"
    round_cfg: RoundConfig = field(default_factory=RoundConfig)
    model_cfg: ModelConfig = field(default_factory=ModelConfig)
    data_cfg: DataConfig = field(default_factory=DataConfig)
    seeds: tuple = (1,)
    grid: dict = field(default_factory=dict)
    evaluate: str = "final"  # "none" | "final" | "rounds"
    eval_mode: str = "retrain-from-k"  # or "fine-tune"
    eval_budget: int | None = None
    finetune_lr: float = 0.001
    max_workers: int = 1
    scope: str = "global"
    supermask_variant: str = "soft"
    precision: str = "float64"

    def validate(self) -> tuple:
        """Reject a bad plan before any run; a "dense" plan has no grid.
        Returns the ``(train, test)`` data it built, for the runs to use."""
        if self.algorithm == "dense":
            if self.grid:
                raise ValueError("a dense baseline has no sweep grid")
        elif self.algorithm not in SEARCHES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        check_fields(self)
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        for seed in self.seeds:
            if (isinstance(seed, bool)
                    or not isinstance(seed, (int, np.integer)) or seed < 0):
                raise ValueError(f"seed {seed!r} is not a non-negative "
                                 f"integer")
        if self.evaluate not in ("none", "final", "rounds"):
            raise ValueError(f"unknown evaluation setting {self.evaluate!r}")
        if self.eval_mode not in ("retrain-from-k", "fine-tune"):
            raise ValueError(f"unknown evaluation mode {self.eval_mode!r}")
        if self.eval_budget is not None and self.eval_budget < 1:
            raise ValueError(f"evaluation budget must be >= 1 iteration, got "
                             f"{self.eval_budget}")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision mode {self.precision!r}")
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got "
                             f"{self.max_workers}")
        if self.scope not in PRUNE_SCOPES:
            raise ValueError(f"unknown pruning scope {self.scope!r}")
        if self.supermask_variant not in SUPERMASK_VARIANTS:
            raise ValueError(f"unknown supermask variant "
                             f"{self.supermask_variant!r}")
        swept = {}  # each round-config field, by the grid key that sets it
        for k, values in self.grid.items():
            key = GRID_ALIASES.get(k, k)
            if not hasattr(self.round_cfg, key):
                raise ValueError(f"unknown sweep parameter {k!r}")
            if len(values) == 0:
                raise ValueError(f"sweep parameter {k!r} has no values")
            if key in swept:
                raise ValueError(f"sweep parameters {swept[key]!r} and {k!r} "
                                 f"both set {key!r}")
            swept[key] = k
        need_rate = self.algorithm in RATE_SEARCHES
        finetunes = self.eval_mode == "fine-tune" and self.evaluate != "none"
        run_ids = set()
        batch_sizes = []
        for point in _expand_grid(self.grid) if self.grid else [{}]:
            cfg = _apply_point(self.round_cfg, point)
            cfg.validate(need_rate=need_rate)
            if finetunes:
                try:
                    _finetune_cfg(cfg, self.finetune_lr).weight_opt.validate()
                except ValueError as exc:
                    raise ValueError(f"fine-tuning: {exc}") from None
            if self.algorithm == "supermask" and cfg.rounds != 1:
                raise ValueError("supermask search runs a single round")
            batch_sizes.append((point, cfg.batch_size))
            # runs are stored and reported under their ids
            for seed in self.seeds:
                run_id = _run_id(self.algorithm, point, seed)
                if run_id in run_ids:
                    raise ValueError(
                        f"two runs of the plan share the run id {run_id!r}; "
                        f"seeds and grid values must be distinct as printed")
                run_ids.add(run_id)
        # the data and the first seed's model, built as a run builds them
        # (writing nothing): one training example through the model shows
        # a shape mismatch, and its logits must number the classes
        check_fields(self.model_cfg)
        check_fields(self.data_cfg)
        train_data, test_data = self.data_cfg.build()
        for name, data in (("training", train_data), ("test", test_data)):
            if len(data) == 0:
                raise ValueError(f"the {name} set is empty")
        with _precision(self.precision), no_grad():
            logits = self.model_cfg.build(self.seeds[0]).forward(
                Tensor(train_data.inputs[:1]))
        classes = max(train_data.num_classes, test_data.num_classes)
        if logits.shape[1] != classes:
            raise ValueError(f"the model's head has width {logits.shape[1]}, "
                             f"but the data has {classes} classes")
        for point, batch_size in batch_sizes:
            if batch_size > len(train_data):
                at = f" at grid point {point}" if point else ""
                raise ValueError(f"batch size {batch_size}{at} exceeds the "
                                 f"{len(train_data)} training examples")
        return train_data, test_data


@contextmanager
def _precision(name: str):
    """New tensors on this thread take ``name`` precision inside the block;
    the previous setting comes back on exit, also on error."""
    previous = default_dtype().name
    set_default_dtype(name)
    try:
        yield
    finally:
        set_default_dtype(previous)


def eval_budget_iters(eval_budget: int | None, round_cfg: RoundConfig) -> int:
    """Training iterations of a dense baseline and of a ticket's
    evaluation: ``eval_budget`` when set, otherwise one search round."""
    return round_cfg.iters_per_round if eval_budget is None else eval_budget


def ticket_rounds(tickets: list[TicketResult]) -> list[tuple]:
    """Every round of a search as ``(round, masks, ticket)``, whichever of
    the two shapes the search returned: one ticket per round (imp, seqcs),
    or one ticket carrying every round's mask (cs, iss, supermask)."""
    if len(tickets) > 1:
        return [(t.round, t.masks, t) for t in tickets]
    [ticket] = tickets
    return [(i + 1, m, ticket) for i, m in enumerate(ticket.round_masks)]


def _stacks(items: list, model: Model) -> list[list]:
    """``items``, one per model like ``model``, in order, split into the
    lists whose models train together as one (``models.stack_models``).
    A model with conv layers trains alone, one item per list: a conv step
    is GEMM-bound, so a stack would save little Python overhead and keep
    every model's im2col columns until backward. Other models form the
    fewest lists of at most ``STACK_WEIGHTS`` parameters (at least one
    model each), all but the last of one size."""
    if not items:
        return []
    size = 1
    if not any(layer.conv for layer in model.layers):
        cap = max(1, STACK_WEIGHTS // model.parameter_count())
        size = -(-len(items) // -(-len(items) // cap))
    return [items[lo:lo + size] for lo in range(0, len(items), size)]


def _masked_model(model_cfg: ModelConfig, seed: int, masks: dict | None,
                  arrays: dict | None) -> Model:
    """A freshly built model with fixed binary masks (none when ``masks``
    is None, a dense model) and loaded weights (as built when ``arrays``
    is None)."""
    model = model_cfg.build(seed)
    if masks is not None:
        model.apply_hard_masks(masks)
    if arrays is not None:
        model.load_weight_arrays(arrays)
    return model


def _test_accuracies(model: Model, test_data, infos: list) -> list:
    """The model's test accuracy as a list, one per ticket of a stacked
    model. A non-finite test loss of a ticket whose ``infos`` entry is a
    ``RunInfo`` (not None) raises ``NonFiniteError`` naming the first such
    ticket: its accuracy would read as a score of a diverged network."""
    loss, acc = evaluate(model, test_data)
    bad = [info for info, v in zip(infos, np.atleast_1d(loss))
           if info is not None and not np.isfinite(v)]
    if bad:
        raise NonFiniteError(f"non-finite test loss of {bad[0].run_id!r}")
    return np.atleast_1d(acc).tolist()


def _dense(seed: int, recorder) -> tuple:
    """The ``train_tickets`` ticket of the seed's dense baseline, run
    ``dense-seed<N>``: no masks, its model's initial weights."""
    return None, None, RunInfo(run_id=_run_id("dense", {}, seed),
                               algorithm="dense", seed=seed), recorder


def dense_baseline(model_cfg: ModelConfig, train_data, test_data,
                   cfg: RoundConfig, budget_iters: int, seed: int,
                   recorder=None) -> float:
    """Train the dense network for the evaluation budget as run
    ``dense-seed<N>``; returns test accuracy. Uses the same seed-keyed
    streams as ticket re-training so the comparison is like-for-like."""
    [row] = train_tickets(model_cfg, [_dense(seed, recorder)], train_data,
                          test_data, cfg, budget_iters, "final_test")
    return row.accuracy


def _record_row(rec: RunRecord, cost: tuple = (0, 0.0)) -> EvalRow:
    """The report row of one record, at search cost ``(iters, epochs)``."""
    return EvalRow(rec.run_id, rec.algorithm, rec.seed, rec.round,
                   rec.remaining_frac, rec.accuracy, *cost)


def dense_accuracies(records: list[RunRecord]) -> dict[int, float]:
    """The dense accuracy of each seed that has a dense ``final_test``
    record; a later record of a seed overrides an earlier one."""
    return {r.seed: r.accuracy for r in records
            if r.algorithm == "dense" and r.split == "final_test"}


def report_rows(records: list[RunRecord], iters_per_epoch: int
                ) -> tuple[list[EvalRow], dict[int, float]]:
    """The report rows of a list of records, and their
    ``dense_accuracies``.

    Each evaluation record (``EVAL_SPLITS``) becomes one row, in record
    order; then a run with no evaluation record gets one unevaluated row
    from its final ``ticket`` record. A row's search cost is the iteration
    of its run's final ticket, also counted in epochs of
    ``iters_per_epoch`` iterations; a run without one costs nothing."""
    final_ticket: dict[str, RunRecord] = {}  # each run's last round
    for r in records:
        last = final_ticket.get(r.run_id)
        if r.split == "ticket" and (last is None or r.round > last.round):
            final_ticket[r.run_id] = r
    cost = {rid: (r.iter, r.iter / iters_per_epoch)
            for rid, r in final_ticket.items()}
    rows = [_record_row(r, cost.get(r.run_id, (0, 0.0))) for r in records
            if r.split in EVAL_SPLITS]
    evaluated = {r.run_id for r in rows}
    rows += [_record_row(r, cost[rid]) for rid, r in final_ticket.items()
             if rid not in evaluated]
    return rows, dense_accuracies(records)


def _eval_row(split: str, masks: dict | None, acc: float, iters: int,
              info: RunInfo, recorder) -> EvalRow:
    """The evaluation row of a masked network (of the dense one, with
    ``masks`` None), also sent as a record."""
    rec = info.record(0, iters, split, accuracy=acc,
                      remaining_frac=1.0 if masks is None
                      else kept_fraction(masks))
    if recorder is not None:
        recorder(rec)
    return _record_row(rec)


def train_tickets(model_cfg: ModelConfig, tickets: list[tuple],
                  train_data, test_data, cfg: RoundConfig, budget_iters: int,
                  split: str) -> list[EvalRow]:
    """Train tickets, each ``(masks, start weights, RunInfo, recorder)``,
    for ``budget_iters`` iterations, one ``search.train_round`` call per
    stack (below), each ticket on its own seed's shuffle stream, and
    return their evaluation rows under ``split``, in order, each also
    sent to its ticket's recorder (when not None). A ticket with masks
    None is its seed's dense network, trained from its initial weights,
    and its per-epoch records go to its recorder too.

    The tickets, of any runs and seeds, train in the stacks of
    ``_stacks``: each step is one forward pass, one backward pass and one
    update for all of a stack's tickets, and every ticket's slice is
    bitwise what training it alone gives. A non-finite loss or gradient in
    any ticket stops its stack at that step, and the ``NonFiniteError``
    names the first ticket whose loss went non-finite (of a gradient, the
    stack's first ticket)."""
    # built as their stack trains, so that only one stack's models live
    models = (_masked_model(model_cfg, info.seed, masks, arrays)
              for masks, arrays, info, _ in tickets)
    first = next(models)
    models = itertools.chain([first], models)
    accs = []
    for part in _stacks(tickets, first):
        stack = list(itertools.islice(models, len(part)))
        model = stack[0] if len(stack) == 1 else stack_models(stack)
        infos = [info for _, _, info, _ in part]
        train_round(model, train_data, cfg, budget_iters,
                    [seeded_rng(info.seed, STREAM_SHUFFLE) for info in infos],
                    infos,
                    [rec if masks is None else None for masks, *_, rec in part],
                    test_data=test_data)
        accs += _test_accuracies(model, test_data, infos)
    return [_eval_row(split, masks, acc, budget_iters, info, rec)
            for (masks, _, info, rec), acc in zip(tickets, accs)]


def retrain_ticket(model_cfg: ModelConfig, masks: dict, rewind: RewindStore,
                   train_data, test_data, cfg: RoundConfig,
                   budget_iters: int, seed: int, *, run_id: str = "ticket",
                   algorithm: str = "cs", round_idx: int = 1,
                   recorder=None) -> EvalRow:
    """Re-train the masked subnetwork from the stored iterate k with a fresh
    optimizer and the dense budget; returns its evaluation row."""
    info = RunInfo(run_id=run_id, algorithm=algorithm, seed=seed,
                   round=round_idx)
    [row] = train_tickets(model_cfg, [(masks, rewind.arrays, info, recorder)],
                          train_data, test_data, cfg, budget_iters,
                          "retrain_test")
    return row


def _finetune_cfg(cfg: RoundConfig, finetune_lr: float) -> RoundConfig:
    """The round config of fine-tuning: ``finetune_lr``, no milestones."""
    return replace(cfg, weight_opt=replace(cfg.weight_opt, lr=finetune_lr),
                   lr_milestones=())


def finetune_ticket(model_cfg: ModelConfig, ticket: TicketResult,
                    train_data, test_data, cfg: RoundConfig,
                    budget_iters: int, seed: int, *, finetune_lr: float,
                    run_id: str = "ticket", round_idx: int | None = None,
                    recorder=None) -> EvalRow:
    """Fine-tune from the final trained weights under the frozen mask of
    round ``round_idx`` (the ticket's own round when None), at
    ``finetune_lr`` and without learning-rate milestones."""
    if ticket.final_weights is None:
        raise ValueError("ticket carries no final weights to fine-tune from")
    round_idx = ticket.round if round_idx is None else round_idx
    masks = (ticket.round_masks[round_idx - 1]
             if ticket.round_masks and round_idx <= len(ticket.round_masks)
             else ticket.masks)
    info = RunInfo(run_id=run_id, algorithm=ticket.algorithm, seed=seed,
                   round=round_idx)
    [row] = train_tickets(
        model_cfg, [(masks, ticket.final_weights, info, recorder)],
        train_data, test_data, _finetune_cfg(cfg, finetune_lr), budget_iters,
        "finetune_test")
    return row


def masked_accuracy(model_cfg: ModelConfig, arrays: dict, masks: dict,
                    test_data, seed: int) -> float:
    """Test accuracy of a masked network at fixed weights (no training);
    used to score supermasks and random-mask controls."""
    return evaluate(_masked_model(model_cfg, seed, masks, arrays),
                    test_data)[1]


def random_mask_like(masks: dict[str, np.ndarray], rng) -> dict[str, np.ndarray]:
    """A uniformly random mask with exactly the same number of kept weights,
    drawn jointly across all groups (size-matched control)."""
    sizes = {k: m.size for k, m in masks.items()}
    total = sum(sizes.values())
    ones = int(sum(m.sum() for m in masks.values()))
    flat = np.zeros(total)
    flat[rng.choice(total, size=ones, replace=False)] = 1.0
    out = {}
    off = 0
    for k in masks:
        out[k] = flat[off:off + sizes[k]].reshape(masks[k].shape)
        off += sizes[k]
    return out


def per_layer_sparsity(masks: dict[str, np.ndarray], model: Model,
                       block: int | None = None) -> list[dict]:
    """Remaining fraction per maskable layer, in model order; with ``block``
    set, appends entries for groups of that many consecutive layers. Each
    entry's ``round(size * remaining_frac)`` is its exact kept count. The
    size-weighted mean of the per-layer fractions equals the global
    remaining fraction only up to rounding: in float64, ``size * (kept /
    size)`` need not give back ``kept`` exactly."""
    def entry(name: str, chunk: list[str]) -> dict:
        part = {n: masks[n] for n in chunk}
        return {"name": name, "size": int(sum(m.size for m in part.values())),
                "remaining_frac": kept_fraction(part)}

    names = [g.name for g in model.maskable_groups()]
    rows = [entry(n, [n]) for n in names]
    if block:
        rows += [entry(f"block{bi // block}", names[bi:bi + block])
                 for bi in range(0, len(names), block)]
    return rows


def select_sparsest_matching(rows: list[EvalRow], dense_acc: float) -> EvalRow | None:
    """Sparsest ticket whose re-trained accuracy is no worse than the dense
    baseline (hard inequality); ties prefer higher accuracy. None when no
    ticket qualifies."""
    if not rows:
        raise ValueError("no evaluation rows to select from")
    ok = [r for r in rows if r.error is None and r.accuracy is not None
          and r.accuracy >= dense_acc]
    if not ok:
        return None
    return min(ok, key=lambda r: (r.remaining_frac, -r.accuracy, r.run_id,
                                  r.round))


def select_best_performing(rows: list[EvalRow]) -> EvalRow:
    """Highest re-trained accuracy; ties prefer the sparser ticket."""
    if not rows:
        raise ValueError("no evaluation rows to select from")
    ok = [r for r in rows if r.error is None and r.accuracy is not None]
    if not ok:
        raise ValueError("no successfully evaluated rows")
    return min(ok, key=lambda r: (-r.accuracy, r.remaining_frac, r.run_id,
                                  r.round))


def cost_accounting(rows: list[EvalRow]) -> dict[str, dict]:
    """Per-algorithm totals assuming full parallelism (max over runs) and
    strict sequential execution (sum over runs), in iterations and epochs."""
    per_run: dict[str, tuple[str, int, float]] = {}
    for r in rows:
        if r.error is not None:
            continue
        per_run[r.run_id] = (r.algorithm, r.cost_iters, r.cost_epochs)
    out: dict[str, dict] = {}
    for _, (alg, it, ep) in sorted(per_run.items()):
        d = out.setdefault(alg, {"parallel_iters": 0, "sequential_iters": 0,
                                 "parallel_epochs": 0.0,
                                 "sequential_epochs": 0.0})
        d["parallel_iters"] = max(d["parallel_iters"], it)
        d["sequential_iters"] += it
        d["parallel_epochs"] = max(d["parallel_epochs"], ep)
        d["sequential_epochs"] += ep
    return out


def _expand_grid(grid: dict) -> list[dict]:
    if not grid:
        raise ValueError("sweep grid is empty")
    keys = sorted(grid)
    points = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        points.append(dict(zip(keys, combo)))
    return points


def _apply_point(cfg: RoundConfig, point: dict) -> RoundConfig:
    """``cfg`` with a grid point's values. An integer field takes its
    value as an int; a value that is not integral raises ``ValueError``."""
    mapped = {}
    for k, v in point.items():
        key = GRID_ALIASES.get(k, k)
        if key in INT_FIELDS:
            if not float(v).is_integer():
                raise ValueError(f"sweep parameter {k!r} takes whole "
                                 f"numbers, got {v!r}")
            v = int(v)
        mapped[key] = v
    return replace(cfg, **mapped)


def _run_id(algorithm: str, point: dict, seed: int) -> str:
    """Name of the run at one grid point and seed, e.g. ``imp-tau=0.2-seed1``."""
    tag = "-".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                   for k, v in sorted(point.items()))
    return f"{algorithm}-{tag}-seed{seed}" if tag else f"{algorithm}-seed{seed}"


def run_point(plan: ExperimentPlan, point: dict | None, seed: int,
              train_data, test_data) -> tuple[list[TicketResult],
                                              list[EvalRow], list[RunRecord]]:
    """Execute one fully-specified run in the plan's precision: the
    one-job case of ``_run_jobs``.

    At a grid ``point``: the search at that point and seed, then ticket
    evaluation per the plan. Returns the tickets, the report rows of the
    records and the raw records.

    With ``point`` None: the seed's dense baseline, run ``dense-seed<N>``,
    trained with the plan's round config for ``eval_budget_iters``
    iterations. Returns ``([], [], records)``."""
    [result] = _run_jobs(plan, [(point, seed)], train_data, test_data)
    return result


def _carries(plan: ExperimentPlan, point: dict) -> bool:
    """Whether the run at grid ``point`` carries its seed's dense
    baseline: an IMP run whose applied round config is the plan's but for
    ``prune_rate``, in a plan whose evaluation budget is one round.

    One carry rule: an IMP round trains bitwise what an evaluation would,
    so the evaluation is taken from the round. Round 1 carries the
    baseline, and round r + 1 carries ticket r's retrain. Round 1, every
    mask ones, trains as the baseline does: one ``search.train_round``
    call of the same round config from the same initial weights, on the
    same batches, for the same iterations. So its round-1 train rows, the
    test rows of its model at each of them, and its round-1 ticket's
    ``final_weights`` are the baseline's. With ``rewind_between_rounds``,
    round r + 1 trains ticket r's masks from the rewind point with a
    fresh optimizer and a fresh shuffle stream (``search._run_rounds``),
    as ``retrain_ticket`` does on a budget of one round; so in
    ``retrain-from-k`` mode ticket r + 1's ``final_weights`` are ticket
    r's retrained weights (``_run_jobs``)."""
    cfg = plan.round_cfg
    return (plan.algorithm == "imp"
            and eval_budget_iters(plan.eval_budget, cfg) == cfg.iters_per_round
            and replace(_apply_point(cfg, point), prune_rate=None)
            == replace(cfg, prune_rate=None))


def _run_jobs(plan: ExperimentPlan, jobs: list, train_data,
              test_data) -> list[tuple]:
    """``run_point``'s result for each ``(point, seed)`` of ``jobs``, a
    unit of ``_units``, run together in the plan's precision; raises when
    any job does.

    Without runs of the search, the dense baselines (point None) train in
    one ``train_tickets`` call. Otherwise the runs search as one model
    (``models.stack_models`` of theirs, when several), and each baseline
    is taken from round 1 of its seed's first run of the unit, which must
    carry it (``_carries``). That run's recorder hands each of its
    round-1 train rows to the baseline too, restamped as the baseline's,
    each followed by a test row of the model as the row left it (one
    evaluation per recorded epoch serves every carrier of a stack). After
    the search, the baseline's ``final_test`` scores the round-1 ticket's
    ``final_weights`` in a fresh dense model (``_test_accuracies``: a
    non-finite test loss fails the unit). Then every evaluated ticket of
    every run trains in one ``train_tickets`` call, but for the tickets
    whose retrain the search already ran (``_carries``): with
    ``--eval rounds``, a rewinding IMP run in ``retrain-from-k`` mode on a
    budget of one round trains only its final ticket, and each earlier
    ticket r is scored under its masks at ticket r + 1's
    ``final_weights`` (``_test_accuracies``, as a baseline's
    ``final_test``). A search that froze its weights (supermask) has its
    masks scored at them (``masked_accuracy``). A run's report rows are
    ``report_rows``' rows of its records, with the grid point and, for a
    final evaluation, per-layer sparsity attached."""
    records = [[] for _ in jobs]
    dense = [i for i, (point, _) in enumerate(jobs) if point is None]
    runs = [i for i, (point, _) in enumerate(jobs) if point is not None]
    budget = eval_budget_iters(plan.eval_budget, plan.round_cfg)
    results = [([], [], recs) for recs in records]
    with _precision(plan.precision):
        if not runs:
            train_tickets(plan.model_cfg,
                          [_dense(jobs[i][1], records[i].append)
                           for i in dense],
                          train_data, test_data, plan.round_cfg, budget,
                          "final_test")
            return results
        points = [jobs[i][0] for i in runs]
        seeds = [jobs[i][1] for i in runs]
        run_records = [records[i] for i in runs]
        cfgs = [_apply_point(plan.round_cfg, point) for point in points]
        run_ids = [_run_id(plan.algorithm, point, seed)
                   for point, seed in zip(points, seeds)]
        stacked = len(runs) > 1

        def each(values: list):  # what a search takes: a stack's lists
            return values if stacked else values[0]

        # each baseline rides on the slice of its seed's first run
        carriers = {}  # slice -> its baseline's RunInfo and recorder
        for i in dense:
            _, _, info, recorder = _dense(jobs[i][1], records[i].append)
            k = seeds.index(info.seed) if info.seed in seeds else None
            if k is None or not _carries(plan, points[k]):
                raise ValueError(f"no run of the unit carries {info.run_id!r}")
            carriers[k] = info, recorder
        model = (stack_models([plan.model_cfg.build(s) for s in seeds])
                 if stacked else plan.model_cfg.build(seeds[0]))
        tested = {}  # the model's test (loss, accuracy) at one iteration

        def carrying(k: int, run, info: RunInfo, baseline):
            """Slice ``k``'s recorder: each record goes to ``run``; a
            round-1 train row also goes to ``baseline`` as ``info``'s run,
            followed by the test row ``train`` would send with test data,
            from one evaluation of the model per recorded epoch."""
            def send(rec: RunRecord):
                run(rec)
                if rec.split != "train" or rec.round != 1:
                    return
                if tested.get("iter") != rec.iter:
                    tested.update(iter=rec.iter,
                                  values=evaluate(model, test_data))
                loss, acc = (np.ravel(v).tolist()[k]
                             for v in tested["values"])
                rec = replace(rec, run_id=info.run_id,
                              algorithm=info.algorithm)
                baseline(rec)
                baseline(replace(rec, split="test", loss=loss, accuracy=acc))
            return send

        recorders = [r.append for r in run_records]
        for k, (info, recorder) in carriers.items():
            recorders[k] = carrying(k, recorders[k], info, recorder)
        searched = SEARCHES[plan.algorithm](
            plan, model, train_data, each(cfgs), seed=each(seeds),
            run_id=each(run_ids), recorder=each(recorders))
        searched = searched if stacked else [searched]
        if len(searched) != len(runs):
            raise ValueError(f"a stacked search of {len(runs)} runs gave "
                             f"{len(searched)} results")
        # a baseline's final test: its carrier's round-1 weights
        for k, (info, recorder) in carriers.items():
            [acc] = _test_accuracies(
                _masked_model(plan.model_cfg, info.seed, None,
                              searched[k][0].final_weights),
                test_data, [info])
            _eval_row("final_test", None, acc, budget, info, recorder)

        fine = plan.eval_mode == "fine-tune"
        # a search that froze the weights (supermask) is scored at them
        frozen = not any(t.requires_grad for t in model.weight_tensors())
        iters = eval_budget_iters(plan.eval_budget, cfgs[0])
        # round r + 1 of a rewinding IMP run was ticket r's retrain
        retrained = (plan.algorithm == "imp" and not fine
                     and cfgs[0].rewind_between_rounds
                     and iters == cfgs[0].iters_per_round)
        starts = []
        for seed, run_id, tickets, recs in zip(seeds, run_ids, searched,
                                               run_records):
            final = tickets[-1]
            for round_idx, masks, ticket in {
                    "none": [], "final": [(final.round, final.masks, final)],
                    "rounds": ticket_rounds(tickets)}[plan.evaluate]:
                info = RunInfo(run_id, ticket.algorithm, seed, round_idx)
                if frozen:
                    acc = masked_accuracy(plan.model_cfg,
                                          ticket.rewind.arrays, masks,
                                          test_data, seed)
                    _eval_row("mask_test", masks, acc,
                              ticket.total_iterations, info, recs.append)
                elif retrained and round_idx < final.round:
                    [acc] = _test_accuracies(
                        _masked_model(plan.model_cfg, seed, masks,
                                      tickets[round_idx].final_weights),
                        test_data, [info])
                    _eval_row("retrain_test", masks, acc, iters, info,
                              recs.append)
                else:
                    starts.append((masks, ticket.final_weights if fine
                                   else ticket.rewind.arrays, info,
                                   recs.append))
        if starts:
            train_tickets(plan.model_cfg, starts, train_data, test_data,
                          _finetune_cfg(cfgs[0], plan.finetune_lr) if fine
                          else cfgs[0], iters,
                          "finetune_test" if fine else "retrain_test")
    for i, point, tickets, recs in zip(runs, points, searched, run_records):
        rows, _ = report_rows(recs, tickets[-1].iters_per_epoch)
        for row in rows:
            row.grid = dict(point)
        if plan.evaluate == "final":
            rows[0].per_layer = per_layer_sparsity(tickets[-1].masks, model)
        results[i] = (tickets, rows, recs)
    return results


def _unit_outcomes(plan: ExperimentPlan, unit: list, train_data,
                   test_data) -> list:
    """The outcome of each ``(point, seed)`` job of a unit of ``_units``,
    in order: ``(run_point's result, None)``, or ``(None, message)`` when
    the job raised. The unit's jobs run together (``_run_jobs``); when
    that raises, each reruns alone (``run_point``), the unit's dense
    baselines first, so that a failing job becomes its own outcome under
    its own message and the others keep their results. Nothing the failed
    unit produced, its records included, reaches a job. Once a baseline
    has failed alone, no further job reruns: each takes the baseline's
    message, and the sweep ends at the baseline, before any of them."""
    if len(unit) > 1:
        try:
            return [(result, None) for result in _run_jobs(
                plan, unit, train_data, test_data)]
        except Exception:  # the reruns below report each job's failure
            pass
    outcomes = []
    failed = None  # the message of a baseline that failed alone
    for point, seed in unit:
        if failed is not None:
            outcomes.append((None, failed))
            continue
        try:
            outcomes.append((run_point(plan, point, seed, train_data,
                                       test_data), None))
        except Exception as exc:  # the sweep decides what a failure means
            outcomes.append((None, str(exc)))
            if point is None:
                failed = str(exc)
    return outcomes


def _units(plan: ExperimentPlan, jobs: list) -> list[list]:
    """The sweep's ``(point, seed)`` jobs as its units of work, each a list
    of job indices into ``jobs``, in job order, whose jobs run together
    (``_run_jobs``).

    IMP runs stack: they are split into ``min(max_workers, runs)``
    contiguous stacks whose sizes differ by at most one, a stack splits
    further where the runs' round configs differ in more than
    ``prune_rate``, and then into the stacks of ``_stacks``. Every run of
    any other search is a unit of its own. A seed's dense baseline joins
    the unit of the seed's first run that carries it (``_carries``); the
    baselines that no run carries come first, in the stacks of
    ``_stacks``."""
    dense = [i for i, (point, _) in enumerate(jobs) if point is None]
    runs = [i for i, (point, _) in enumerate(jobs) if point is not None]
    model = plan.model_cfg.build(jobs[0][1])  # what ``_stacks`` sizes by
    stacks = [[i] for i in runs]
    if plan.algorithm == "imp" and runs:
        size, extra = divmod(len(runs), min(plan.max_workers, len(runs)))
        stacks, lo = [], 0
        while lo < len(runs):
            hi = lo + size + (extra > 0)
            extra -= 1
            for _, group in itertools.groupby(
                    runs[lo:hi], key=lambda i: replace(
                        _apply_point(plan.round_cfg, jobs[i][0]),
                        prune_rate=None)):
                stacks += _stacks(list(group), model)
            lo = hi
    units, carried = [], set()
    for stack in stacks:
        seeds = {jobs[i][1] for i in stack
                 if jobs[i][1] not in carried and _carries(plan, jobs[i][0])}
        carried |= seeds
        units.append([i for i in dense if jobs[i][1] in seeds] + stack)
    free = [i for i in dense if jobs[i][1] not in carried]
    return _stacks(free, model) + units


def _pooled_unit(plan: ExperimentPlan, unit: list, train_data,
                 test_data) -> list:
    """``_unit_outcomes`` in a worker process, each result pickled on its
    own: a result that cannot be pickled fails only its run, with the
    message the pool would give."""
    out = []
    for result, error in _unit_outcomes(plan, unit, train_data, test_data):
        if error is None:
            try:
                result = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
        out.append((result, error))
    return out


def _pooled_outcomes(plan: ExperimentPlan, units: list, train_data,
                     test_data):
    """The outcomes (``_unit_outcomes``) of each unit of ``units``, run on
    forked worker processes, yielded as one iterable per unit, in unit
    order, as they arrive. The runs of a unit left without a result (its
    worker died) yield ``(None, message)`` like a job that raised, and its
    dense baselines rerun in this process, so that a dead worker costs
    only its runs."""
    # imported here: serial sweeps and single runs never load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(plan.max_workers, len(units)),
                             mp_context=multiprocessing.get_context("fork")
                             ) as pool:
        futures = [pool.submit(_pooled_unit, plan, unit, train_data,
                               test_data) for unit in units]
        try:
            for future, unit in zip(futures, units):
                try:
                    pooled = future.result()
                except Exception as exc:
                    dense = [job for job in unit if job[0] is None]
                    yield _unit_outcomes(plan, dense, train_data,
                                         test_data) + [
                        (None, f"{type(exc).__name__}: {exc}")
                    ] * (len(unit) - len(dense))
                    continue
                # unpickled as the sweep reaches each job, one at a time
                yield ((None if result is None else pickle.loads(result),
                        error) for result, error in pooled)
        finally:  # an interrupted or failed sweep starts no further job
            pool.shutdown(cancel_futures=True)


def sweep(plan: ExperimentPlan, on_run=None) -> EvaluationReport:
    """Validate the plan and run it on the data its validation built
    (``run_sweep``)."""
    return run_sweep(plan, *plan.validate(), on_run=on_run)


def run_sweep(plan: ExperimentPlan, train_data, test_data,
              on_run=None) -> EvaluationReport:
    """Run a validated plan on the ``(train, test)`` data that
    ``plan.validate()`` returned: expand grid x seeds into independent
    runs, execute them (on up to ``plan.max_workers`` forked worker
    processes when that is above 1), evaluate tickets, and aggregate.

    Every job is a ``(point, seed)`` pair; unless ``plan.evaluate`` is
    "none", the list starts with each seed's dense baseline (``point``
    None). Jobs run in units (``_units``, ``_run_jobs``): the IMP runs run
    as at most ``max_workers`` stacks (further split by ``_stacks``), each
    searching its runs as one stacked model and then training every
    evaluated ticket of them in the stacks of ``_stacks``; every slice is
    bitwise its job alone. A seed's dense baseline is taken from round 1
    of its first IMP run when that run carries it (``_carries``: the plan's
    round config but for the pruning rate, an evaluation budget of one
    round), which trains bitwise as the baseline does; the other baselines
    train on their own, in the stacks of ``_stacks``. A unit that raises
    reruns its jobs one at a time, baselines first; every other job is one
    ``run_point``. A failing run becomes an error row under its own id and
    the sweep continues; a worker process that dies turns the runs of its
    unit, and every run the pool did not finish, into error rows, and the
    baselines of those units rerun in this process. A failing dense
    baseline raises ``RuntimeError`` with its message and starts no
    further job.

    ``on_run(run_id, point, seed, tickets, records)``, when given, is called
    in the calling process, in job order, once per job as its result
    arrives and every job before it has been handed over (a dense
    baseline has no tickets). A job whose hook raises fails as if the job
    had raised.

    When the mask init is swept, the report includes the Spearman rank
    correlation between its value and the median remaining fraction."""
    if plan.algorithm not in SEARCHES:
        raise ValueError(f"a sweep runs a search, not {plan.algorithm!r}")
    points = _expand_grid(plan.grid) if plan.grid else [{}]

    jobs = [(point, seed) for point in points for seed in plan.seeds]
    if plan.evaluate != "none":
        jobs = [(None, seed) for seed in plan.seeds] + jobs
    units = _units(plan, jobs)
    unit_jobs = [[jobs[i] for i in unit] for unit in units]
    if plan.max_workers == 1:
        per_unit = (_unit_outcomes(plan, unit, train_data, test_data)
                    for unit in unit_jobs)
    else:
        per_unit = _pooled_outcomes(plan, unit_jobs, train_data, test_data)
    rows: list[EvalRow] = []
    records: list[RunRecord] = []
    # jobs are handed over in job order: each arrived unit's outcomes wait
    # under its jobs' indices, and are read one at a time as each job's
    # turn comes (a unit's jobs are in job order)
    arrived, done = {}, 0
    with closing(per_unit):
        for outcomes, unit in zip(per_unit, units):
            arrived.update(dict.fromkeys(unit, iter(outcomes)))
            while done in arrived:
                result, error = next(arrived.pop(done))
                point, seed = jobs[done]
                done += 1
                run_id = (_run_id("dense", {}, seed) if point is None
                          else _run_id(plan.algorithm, point, seed))
                if error is None:
                    tickets, rws, recs = result
                    if on_run is not None:
                        try:
                            on_run(run_id, point, seed, tickets, recs)
                        except Exception as exc:  # fails its job
                            error = str(exc)
                if error is None:
                    rows.extend(rws)
                    records.extend(recs)
                elif point is None:  # every run is judged against its baseline
                    raise RuntimeError(error)
                else:
                    rows.append(EvalRow(run_id, plan.algorithm, seed, 0, None,
                                        None, 0, 0.0, grid=dict(point),
                                        error=error))

    spearman = sparsity_rank_correlation(rows, plan.grid,
                                         plan.round_cfg.rounds)
    attach_relative_columns(rows, plan.grid)
    dense_by_seed = dense_accuracies(records)
    dense_acc = (float(np.mean(list(dense_by_seed.values())))
                 if dense_by_seed else None)
    return EvaluationReport(rows, dense_by_seed, dense_acc, spearman, records)


def attach_relative_columns(rows: list[EvalRow], grid: dict) -> None:
    """Fill the *_rel_first columns when exactly one parameter is swept:
    each row's difference to the cross-seed median of the first (lowest)
    grid value, computed per round."""
    if len(grid) != 1:
        return
    key = next(iter(grid))
    first = sorted(grid[key])[0]

    def median_at(rnd, attr):
        vals = [getattr(r, attr) for r in rows
                if r.error is None and r.grid.get(key) == first
                and r.round == rnd and getattr(r, attr) is not None]
        return float(np.median(vals)) if vals else None

    base = {}
    for r in rows:
        if r.error is not None:
            continue
        if r.round not in base:
            base[r.round] = (median_at(r.round, "accuracy"),
                             median_at(r.round, "remaining_frac"))
        acc0, rem0 = base[r.round]
        if acc0 is not None and r.accuracy is not None:
            r.accuracy_rel_first = r.accuracy - acc0
        if rem0 is not None and r.remaining_frac is not None:
            r.remaining_rel_first = r.remaining_frac - rem0


def sparsity_rank_correlation(rows: list[EvalRow], grid: dict,
                              final_round: int) -> float | None:
    """Spearman rank correlation between the swept mask init and the median
    final remaining fraction across seeds; None unless the init was swept."""
    skey = next((k for k in grid if GRID_ALIASES.get(k, k) == "mask_init"),
                None)
    if skey is None:
        return None
    values, medians = [], []
    for v in sorted(grid[skey]):
        rem = [r.remaining_frac for r in rows
               if r.error is None and r.grid.get(skey) == v
               and r.round == final_round and r.remaining_frac is not None]
        if rem:
            values.append(v)
            medians.append(float(np.median(rem)))
    if len(values) < 2:
        return None
    return _spearman(values, medians)


def _spearman(x, y) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks (ties
    share the mean of their positions); NaN when either input is
    constant."""
    ranks = []
    for v in (x, y):
        _, inverse, counts = np.unique(v, return_inverse=True,
                                       return_counts=True)
        if counts.size < 2:
            return float("nan")
        ends = np.cumsum(counts)  # a tie group holds positions
        starts = ends - counts + 1  # starts..ends, counted from 1
        ranks.append((0.5 * (starts + ends))[inverse])
    return float(np.corrcoef(ranks[0], ranks[1])[1, 0])
