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
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DataConfig
from .masking import kept_fraction
from .models import Model, ModelConfig
from .optim import CompositeOptimizer
from .persist import RunRecord
from .search import (PRUNE_SCOPES, SUPERMASK_VARIANTS, RewindStore,
                     RoundConfig, TicketResult, run_cs, run_imp, run_iss,
                     run_sequential_cs, run_supermask)
from .seeding import STREAM_SHUFFLE, seeded_rng
from .tensor import default_dtype, set_default_dtype
from .training import RunInfo, TrainCursor, evaluate, lr_milestones_callback, train

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

    def validate(self) -> None:
        if self.algorithm not in SEARCHES:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if self.evaluate not in ("none", "final", "rounds"):
            raise ValueError(f"unknown evaluation setting {self.evaluate!r}")
        if self.eval_mode not in ("retrain-from-k", "fine-tune"):
            raise ValueError(f"unknown evaluation mode {self.eval_mode!r}")
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got "
                             f"{self.max_workers}")
        if self.scope not in PRUNE_SCOPES:
            raise ValueError(f"unknown pruning scope {self.scope!r}")
        if self.supermask_variant not in SUPERMASK_VARIANTS:
            raise ValueError(f"unknown supermask variant "
                             f"{self.supermask_variant!r}")
        for k in self.grid:
            key = GRID_ALIASES.get(k, k)
            if not hasattr(self.round_cfg, key):
                raise ValueError(f"unknown sweep parameter {k!r}")
        need_rate = self.algorithm in RATE_SEARCHES
        for point in _expand_grid(self.grid) if self.grid else [{}]:
            cfg = _apply_point(self.round_cfg, point)
            cfg.validate(need_rate=need_rate)
            if self.algorithm == "supermask" and cfg.rounds != 1:
                raise ValueError("supermask search runs a single round")


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
    return eval_budget or round_cfg.iters_per_round


def ticket_rounds(tickets: list[TicketResult]) -> list[tuple]:
    """Every round of a search as ``(round, masks, ticket)``, whichever of
    the two shapes the search returned: one ticket per round (imp, seqcs),
    or one ticket carrying every round's mask (cs, iss, supermask)."""
    if len(tickets) > 1:
        return [(t.round, t.masks, t) for t in tickets]
    [ticket] = tickets
    return [(i + 1, m, ticket) for i, m in enumerate(ticket.round_masks)]


def _masked_model(model_cfg: ModelConfig, seed: int, masks: dict,
                  arrays: dict) -> Model:
    """A freshly built model with fixed binary masks and loaded weights."""
    model = model_cfg.build(seed)
    model.apply_hard_masks(masks)
    model.load_weight_arrays(arrays)
    return model


def _train_and_test(model: Model, train_data, test_data, cfg: RoundConfig,
                    budget_iters: int, info: RunInfo, recorder=None) -> float:
    """Train the model's weights with a fresh optimizer on the seed's
    shuffle stream for ``budget_iters`` iterations, then return its test
    accuracy. Per-epoch records go to ``recorder`` when one is given."""
    opt = CompositeOptimizer([cfg.weight_opt.build(
        [t for t in model.weight_tensors() if t.requires_grad])])
    cbs = ([lr_milestones_callback(opt, cfg.lr_milestones, cfg.lr_decay)]
           if cfg.lr_milestones else [])
    train(model, train_data, opt, budget_iters, batch_size=cfg.batch_size,
          shuffle_rng=seeded_rng(info.seed, STREAM_SHUFFLE),
          cursor=TrainCursor(), before_step=cbs, recorder=recorder,
          run_info=info, test_data=test_data, record_every=cfg.record_every)
    return evaluate(model, test_data)[1]


def dense_baseline(model_cfg: ModelConfig, train_data, test_data,
                   cfg: RoundConfig, budget_iters: int, seed: int,
                   recorder=None) -> float:
    """Train the dense network for the evaluation budget as run
    ``dense-seed<N>``; returns test accuracy. Uses the same seed-keyed
    streams as ticket re-training so the comparison is like-for-like."""
    info = RunInfo(run_id=_run_id("dense", {}, seed), algorithm="dense",
                   seed=seed)
    acc = _train_and_test(model_cfg.build(seed), train_data, test_data, cfg,
                          budget_iters, info, recorder=recorder)
    if recorder is not None:
        recorder(info.record(0, budget_iters, "final_test", accuracy=acc,
                             remaining_frac=1.0))
    return acc


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


def _eval_row(split: str, masks: dict, acc: float, iters: int,
              info: RunInfo, recorder) -> EvalRow:
    """The evaluation row of a masked network, also sent as a record."""
    rec = info.record(0, iters, split, accuracy=acc,
                      remaining_frac=kept_fraction(masks))
    if recorder is not None:
        recorder(rec)
    return _record_row(rec)


def retrain_ticket(model_cfg: ModelConfig, masks: dict, rewind: RewindStore,
                   train_data, test_data, cfg: RoundConfig,
                   budget_iters: int, seed: int, *, run_id: str = "ticket",
                   algorithm: str = "cs", round_idx: int = 1,
                   recorder=None) -> EvalRow:
    """Re-train the masked subnetwork from the stored iterate k with a fresh
    optimizer and the dense budget; returns its evaluation row."""
    info = RunInfo(run_id=run_id, algorithm=algorithm, seed=seed,
                   round=round_idx)
    acc = _train_and_test(_masked_model(model_cfg, seed, masks, rewind.arrays),
                          train_data, test_data, cfg, budget_iters, info)
    return _eval_row("retrain_test", masks, acc, budget_iters, info, recorder)


def finetune_ticket(model_cfg: ModelConfig, ticket: TicketResult,
                    train_data, test_data, cfg: RoundConfig,
                    budget_iters: int, seed: int, *, finetune_lr: float,
                    run_id: str = "ticket", round_idx: int | None = None,
                    recorder=None) -> EvalRow:
    """Fine-tune from the final trained weights under the frozen mask, at
    ``finetune_lr`` and without learning-rate milestones."""
    if ticket.final_weights is None:
        raise ValueError("ticket carries no final weights to fine-tune from")
    round_idx = ticket.round if round_idx is None else round_idx
    masks = (ticket.round_masks[round_idx - 1]
             if ticket.round_masks and round_idx <= len(ticket.round_masks)
             else ticket.masks)
    info = RunInfo(run_id=run_id, algorithm=ticket.algorithm, seed=seed,
                   round=round_idx)
    tuned = replace(cfg, weight_opt=replace(cfg.weight_opt, lr=finetune_lr),
                    lr_milestones=())
    acc = _train_and_test(
        _masked_model(model_cfg, seed, masks, ticket.final_weights),
        train_data, test_data, tuned, budget_iters, info)
    return _eval_row("finetune_test", masks, acc, budget_iters, info,
                     recorder)


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
    mapped = {GRID_ALIASES.get(k, k): v for k, v in point.items()}
    return replace(cfg, **mapped)


def _run_id(algorithm: str, point: dict, seed: int) -> str:
    """Name of the run at one grid point and seed, e.g. ``imp-tau=0.2-seed1``."""
    tag = "-".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                   for k, v in sorted(point.items()))
    return f"{algorithm}-{tag}-seed{seed}" if tag else f"{algorithm}-seed{seed}"


def run_point(plan: ExperimentPlan, point: dict | None, seed: int,
              train_data, test_data) -> tuple[list[TicketResult],
                                              list[EvalRow], list[RunRecord]]:
    """Execute one fully-specified run in the plan's precision.

    At a grid ``point``: the search at that point and seed, then ticket
    evaluation per the plan. Returns the tickets, the report rows of the
    records (``report_rows``, with the grid point and, for a final
    evaluation, per-layer sparsity attached) and the raw records.

    With ``point`` None: the seed's dense baseline, run ``dense-seed<N>``,
    trained with the plan's round config for ``eval_budget_iters``
    iterations. Returns ``([], [], records)``."""
    records: list[RunRecord] = []
    rec = records.append
    with _precision(plan.precision):
        if point is None:
            dense_baseline(plan.model_cfg, train_data, test_data,
                           plan.round_cfg,
                           eval_budget_iters(plan.eval_budget, plan.round_cfg),
                           seed, recorder=rec)
            return [], [], records
        cfg = _apply_point(plan.round_cfg, point)
        run_id = _run_id(plan.algorithm, point, seed)
        model = plan.model_cfg.build(seed)
        tickets = SEARCHES[plan.algorithm](plan, model, train_data, cfg,
                                           seed=seed, run_id=run_id,
                                           recorder=rec)
        result = tickets[-1]
        budget = eval_budget_iters(plan.eval_budget, cfg)
        # a search that froze the weights (supermask) is scored at them
        frozen = not any(t.requires_grad for t in model.weight_tensors())
        evaluated = {"none": [],
                     "final": [(result.round, result.masks, result)],
                     "rounds": ticket_rounds(tickets)}[plan.evaluate]
        for round_idx, masks, ticket in evaluated:
            if frozen:
                acc = masked_accuracy(plan.model_cfg, ticket.rewind.arrays,
                                      masks, test_data, seed)
                _eval_row("mask_test", masks, acc, ticket.total_iterations,
                          RunInfo(run_id, ticket.algorithm, seed, round_idx),
                          rec)
            elif plan.eval_mode == "fine-tune":
                finetune_ticket(plan.model_cfg, ticket, train_data, test_data,
                                cfg, budget, seed,
                                finetune_lr=plan.finetune_lr, run_id=run_id,
                                round_idx=round_idx, recorder=rec)
            else:
                retrain_ticket(plan.model_cfg, masks, ticket.rewind,
                               train_data, test_data, cfg, budget, seed,
                               run_id=run_id, algorithm=ticket.algorithm,
                               round_idx=round_idx, recorder=rec)
        rows, _ = report_rows(records, result.iters_per_epoch)
        for row in rows:
            row.grid = dict(point)
        if plan.evaluate == "final":
            rows[0].per_layer = per_layer_sparsity(result.masks, model)
    return tickets, rows, records


def _job(plan: ExperimentPlan, point: dict | None, seed: int, train_data,
         test_data) -> tuple:
    """One sweep job in whichever process executes it: ``(run_point's
    result, None)``, or ``(None, message)`` when the run raised."""
    try:
        return run_point(plan, point, seed, train_data, test_data), None
    except Exception as exc:  # the sweep decides what a failure means
        return None, str(exc)


def _pooled_outcomes(plan: ExperimentPlan, jobs: list, train_data,
                     test_data):
    """``_job``'s outcome for each ``(point, seed)`` of ``jobs``, run on
    forked worker processes and yielded in job order as each arrives. A
    job left without a result (its worker died, or its result could not be
    pickled back) yields ``(None, message)`` like a job that raised."""
    # imported here: serial sweeps and single runs never load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(plan.max_workers, len(jobs)),
                             mp_context=multiprocessing.get_context("fork")
                             ) as pool:
        futures = [pool.submit(_job, plan, point, seed, train_data, test_data)
                   for point, seed in jobs]
        try:
            for future in futures:
                try:
                    yield future.result()
                except Exception as exc:
                    yield None, f"{type(exc).__name__}: {exc}"
        finally:  # an interrupted or failed sweep starts no further job
            pool.shutdown(cancel_futures=True)


def sweep(plan: ExperimentPlan, on_run=None) -> EvaluationReport:
    """Expand grid x seeds into independent runs, execute them (on up to
    ``plan.max_workers`` forked worker processes when that is above 1),
    evaluate tickets, and aggregate.

    Every job is a ``(point, seed)`` pair run by ``run_point``; unless
    ``plan.evaluate`` is "none", the list starts with each seed's dense
    baseline (``point`` None). A failing run becomes an error row under
    its own id and the sweep continues; a worker process that dies turns
    its run, and every run the pool did not finish, into error rows. A
    failing dense baseline raises ``RuntimeError`` with its message and
    starts no further job.

    ``on_run(run_id, point, seed, tickets, records)``, when given, is called
    in the calling process, in job order, as each job's result arrives (a
    dense baseline has no tickets). A job whose hook raises fails as if the
    job had raised.

    When the mask init is swept, the report includes the Spearman rank
    correlation between its value and the median remaining fraction."""
    plan.validate()
    points = _expand_grid(plan.grid) if plan.grid else [{}]
    train_data, test_data = plan.data_cfg.build()

    jobs = [(point, seed) for point in points for seed in plan.seeds]
    if plan.evaluate != "none":
        jobs = [(None, seed) for seed in plan.seeds] + jobs
    if plan.max_workers == 1:
        outcomes = (_job(plan, point, seed, train_data, test_data)
                    for point, seed in jobs)
    else:
        outcomes = _pooled_outcomes(plan, jobs, train_data, test_data)
    rows: list[EvalRow] = []
    records: list[RunRecord] = []
    with closing(outcomes):
        for (result, error), (point, seed) in zip(outcomes, jobs):
            run_id = (_run_id("dense", {}, seed) if point is None
                      else _run_id(plan.algorithm, point, seed))
            if error is None:
                tickets, rws, recs = result
                if on_run is not None:
                    try:
                        on_run(run_id, point, seed, tickets, recs)
                    except Exception as exc:  # a failing hook fails its job
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
