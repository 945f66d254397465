"""Command-line surface: dense, cs, imp, iss, seqcs, supermask, sweep, report.

Every run writes a self-contained directory: the fully-resolved config,
the records CSV, final mask artifacts, and the rewind checkpoint. The
``report`` subcommand is read-only: it recomputes subnetwork selections
and search-cost totals from stored CSVs without re-training.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, SweepConfig
from .harness import (EvalRow, ExperimentPlan, cost_accounting,
                      dense_baseline, run_point, select_best_performing,
                      select_sparsest_matching, sweep)
from .optim import OptimizerConfig
from .persist import (read_records, save_checkpoint, save_mask_artifact,
                      write_records)
from .tensor import set_default_dtype

EVAL_SPLITS = ("retrain_test", "finetune_test", "mask_test")


def _algorithm_defaults(algorithm: str) -> RunConfig:
    cfg = RunConfig(algorithm=algorithm)
    if algorithm == "imp":
        cfg.round = replace(cfg.round, prune_rate=0.2,
                            rewind_between_rounds=True, rounds=10)
    elif algorithm == "seqcs":
        cfg.round = replace(cfg.round, prune_rate=0.2, rounds=10)
    elif algorithm == "iss":
        cfg.round = replace(cfg.round, mask_init=1.0, mask_opt=OptimizerConfig(
            "sgd", lr=20.0, momentum=0.0, weight_decay=0.0))
    elif algorithm == "supermask":
        cfg.round = replace(cfg.round, rounds=1)
        cfg.evaluation = replace(cfg.evaluation, evaluate="final")
    return cfg


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_config(algorithm: str, args) -> RunConfig:
    base = _algorithm_defaults(algorithm).to_dict()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            base = _deep_merge(base, json.load(f))
    cfg = RunConfig.from_dict(base)
    cfg.algorithm = algorithm

    r = cfg.round
    if getattr(args, "s0", None) is not None:
        r = replace(r, mask_init=args.s0)
    if getattr(args, "lam", None) is not None:
        r = replace(r, lam=args.lam)
    if getattr(args, "beta_final", None) is not None:
        r = replace(r, beta_final=args.beta_final)
    if getattr(args, "rounds", None) is not None:
        r = replace(r, rounds=args.rounds)
    if getattr(args, "iters", None) is not None:
        r = replace(r, iters_per_round=args.iters)
    if getattr(args, "batch_size", None) is not None:
        r = replace(r, batch_size=args.batch_size)
    if getattr(args, "tau", None) is not None:
        r = replace(r, prune_rate=args.tau)
    if getattr(args, "k", None) is not None:
        r = replace(r, rewind_iter=args.k)
    if getattr(args, "k_epochs", None) is not None:
        if getattr(args, "k", None) is not None:
            raise ValueError("--k and --k-epochs are mutually exclusive")
        ipe = -(-cfg.dataset.n_train // r.batch_size)
        r = replace(r, rewind_iter=args.k_epochs * ipe)
    if getattr(args, "rewind", None) is not None:
        r = replace(r, rewind_between_rounds=args.rewind == "on")
    if getattr(args, "record_every", None) is not None:
        r = replace(r, record_every=args.record_every)
    cfg.round = r

    ev = cfg.evaluation
    if getattr(args, "eval", None) is not None:
        ev = replace(ev, evaluate=args.eval)
    if getattr(args, "eval_mode", None) is not None:
        ev = replace(ev, mode=args.eval_mode)
    if getattr(args, "eval_budget", None) is not None:
        ev = replace(ev, budget_iters=args.eval_budget)
    cfg.evaluation = ev

    if getattr(args, "out", None) is not None:
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "seeds", None):
        cfg.seeds = tuple(int(s) for s in args.seeds.split(","))
    if getattr(args, "precision", None) is not None:
        cfg.precision = args.precision
    if getattr(args, "scope", None) is not None:
        cfg.scope = args.scope
    if getattr(args, "variant", None) is not None:
        cfg.supermask_variant = args.variant
    if getattr(args, "workers", None) is not None:
        cfg.sweep = replace(cfg.sweep, max_workers=args.workers)
    if getattr(args, "grid", None):
        grid = dict(cfg.sweep.grid)
        for spec in args.grid:
            name, values = _parse_grid(spec)
            grid[name] = values
        cfg.sweep = replace(cfg.sweep, grid=grid)
    return cfg


def _parse_grid(spec: str) -> tuple[str, list]:
    """``name=lo:hi:count`` (inclusive linspace) or ``name=v1,v2,...``."""
    name, _, rest = spec.partition("=")
    if not rest:
        raise ValueError(f"bad grid spec {spec!r}; expected name=lo:hi:count "
                         "or name=v1,v2,...")
    if ":" in rest:
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid range in {spec!r}")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        return name, [float(v) for v in np.linspace(lo, hi, count)]
    return name, [float(v) for v in rest.split(",")]


def _plan(cfg: RunConfig) -> ExperimentPlan:
    return ExperimentPlan(
        algorithm=cfg.algorithm, round_cfg=cfg.round, model_cfg=cfg.model,
        data_cfg=cfg.dataset, seeds=cfg.seed_list(),
        grid=cfg.sweep.grid, evaluate=cfg.evaluation.evaluate,
        eval_mode=cfg.evaluation.mode, eval_budget=cfg.evaluation.budget_iters,
        finetune_lr=cfg.evaluation.finetune_lr,
        max_workers=cfg.sweep.max_workers, scope=cfg.scope,
        supermask_variant=cfg.supermask_variant, precision=cfg.precision)


def _row_dict(row: EvalRow | None) -> dict | None:
    return None if row is None else asdict(row)


def _report_dict(rows: list[EvalRow], dense_by_seed: dict,
                 spearman: float | None = None) -> dict:
    ok = [r for r in rows if r.error is None and r.accuracy is not None]
    dense_acc = (float(np.mean(list(dense_by_seed.values())))
                 if dense_by_seed else None)
    out = {
        "dense_by_seed": {str(k): v for k, v in sorted(dense_by_seed.items())},
        "dense_accuracy": dense_acc,
        "cost": cost_accounting(rows),
        "rows": [_row_dict(r) for r in rows],
        "errors": [_row_dict(r) for r in rows if r.error is not None],
    }
    if spearman is not None:
        out["spearman_s0_remaining"] = spearman
    if ok:
        out["best_performing"] = _row_dict(select_best_performing(ok))
        out["sparsest_matching"] = (
            _row_dict(select_sparsest_matching(ok, dense_acc))
            if dense_acc is not None else None)
    return out


def _persist_run(out: Path, cfg: RunConfig, tickets, records) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "config.json")
    write_records(records, out / "records.csv")
    if tickets:
        final = tickets[-1]
        (out / "masks").mkdir(exist_ok=True)
        save_mask_artifact(out / "masks" / "final", final.masks)
        if len(tickets) > 1:
            for t in tickets:
                save_mask_artifact(out / "masks" / f"round{t.round}", t.masks)
        elif len(final.round_masks) > 1:
            for i, m in enumerate(final.round_masks):
                save_mask_artifact(out / "masks" / f"round{i + 1}", m)
        save_checkpoint(out / "rewind.ckpt", final.rewind.arrays,
                        {"rewind_iter": final.rewind.rewind_iter,
                         "run_id": final.run_id,
                         "algorithm": final.algorithm})


def _cmd_run(algorithm: str, args) -> int:
    cfg = _load_config(algorithm, args)
    set_default_dtype(cfg.precision)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_data, test_data = cfg.dataset.build()
    records: list = []
    budget = cfg.evaluation.budget_iters or cfg.round.iters_per_round

    if algorithm == "dense":
        acc = dense_baseline(cfg.model, train_data, test_data, cfg.round,
                             budget, cfg.seed, recorder=records.append)
        _persist_run(out, cfg, [], records)
        print(f"dense baseline: test accuracy {acc:.4f} "
              f"({budget} iterations), run dir {out}")
        return 0

    plan = _plan(cfg)
    dense_by_seed = {}
    if plan.evaluate != "none":
        dense_by_seed[cfg.seed] = dense_baseline(
            cfg.model, train_data, test_data, cfg.round, budget, cfg.seed,
            recorder=records.append)
    tickets, rows, recs = run_point(plan, {}, cfg.seed, train_data, test_data)
    records.extend(recs)
    _persist_run(out, cfg, tickets, records)
    report = _report_dict(rows, dense_by_seed)
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    final = tickets[-1]
    print(f"{algorithm}: {final.total_iterations} iterations, "
          f"{100 * final.remaining_fraction:.1f}% weights remaining, "
          f"run dir {out}")
    for r in rows:
        if r.accuracy is not None:
            print(f"  round {r.round}: remaining {100 * r.remaining_frac:.1f}%"
                  f", evaluated accuracy {r.accuracy:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    """Run the library sweep over the configured grid, persisting every
    dense baseline and run into ``runs/<run_id>`` as it finishes, then
    write ``report.json`` and print a summary. Exits 1 when any run
    failed."""
    cfg = _load_config(args.algorithm, args)
    if not cfg.sweep.grid:
        raise ValueError("sweep requires a non-empty grid "
                         "(--grid name=lo:hi:count)")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "config.json")
    runs_dir = out / "runs"
    runs_dir.mkdir(exist_ok=True)

    def persist(run_id, point, seed, tickets, records):
        rdir = runs_dir / run_id
        rcfg = replace(cfg, seed=seed, seeds=None, sweep=SweepConfig(),
                       out_dir=str(rdir))
        if point is None:
            rcfg.algorithm = "dense"
        else:  # the round config with the grid point applied
            rcfg.round = tickets[-1].config
        _persist_run(rdir, rcfg, tickets, records)

    result = sweep(_plan(cfg), on_run=persist)
    rows = result.rows
    report = _report_dict(rows, result.dense_by_seed, result.spearman_s0)
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    failed = {r.run_id for r in rows if r.error is not None}
    print(f"sweep: {len({r.run_id for r in rows})} runs ({len(failed)} "
          f"failed), report at {out / 'report.json'}")
    if report.get("sparsest_matching"):
        sm = report["sparsest_matching"]
        print(f"  sparsest matching: {sm['run_id']} round {sm['round']} "
              f"remaining {100 * sm['remaining_frac']:.1f}% "
              f"accuracy {sm['accuracy']:.4f}")
    if report.get("best_performing"):
        bp = report["best_performing"]
        print(f"  best performing:   {bp['run_id']} round {bp['round']} "
              f"remaining {100 * bp['remaining_frac']:.1f}% "
              f"accuracy {bp['accuracy']:.4f}")
    return 1 if failed else 0


def recompute_report(directory) -> dict:
    """Rebuild selection and cost totals from the CSVs stored under
    ``directory`` without re-training anything. Every ``records.csv`` needs
    its run's ``config.json`` beside it."""
    root = Path(directory)
    csvs = sorted(root.rglob("records.csv"))
    if not csvs:
        raise FileNotFoundError(f"no records.csv found under {root}")
    dense_by_seed: dict[int, float] = {}
    rows: list[EvalRow] = []
    costs: dict[str, tuple[int, float]] = {}

    for path in csvs:
        recs = read_records(path)
        cfg_path = path.parent / "config.json"
        if not cfg_path.exists():
            raise ValueError(f"{path} has no config.json beside it; report "
                             "needs each run's config")
        with open(cfg_path, "r", encoding="utf-8") as f:
            c = json.load(f)
        try:
            ipe = -(-c["dataset"]["n_train"] // c["round"]["batch_size"])
        except (KeyError, TypeError):
            raise ValueError(f"{cfg_path} lacks round.batch_size or "
                             "dataset.n_train") from None
        for r in recs:
            if r.algorithm == "dense" and r.split == "final_test":
                dense_by_seed[r.seed] = r.accuracy
        ticket_iters: dict[str, int] = {}
        for r in recs:
            if r.split == "ticket":
                ticket_iters[r.run_id] = max(ticket_iters.get(r.run_id, 0),
                                             r.iter)
        for rid, it in ticket_iters.items():
            costs[rid] = (it, it / ipe)
        evaluated = set()
        for r in recs:
            if r.split in EVAL_SPLITS:
                evaluated.add(r.run_id)
                ci, ce = costs.get(r.run_id, (0, 0.0))
                rows.append(EvalRow(r.run_id, r.algorithm, r.seed, r.round,
                                    r.remaining_frac, r.accuracy, ci, ce))
        # sparsity-only runs still contribute to cost accounting
        final_ticket: dict[str, object] = {}
        for r in recs:
            if r.split == "ticket":
                cur = final_ticket.get(r.run_id)
                if cur is None or r.round > cur.round:
                    final_ticket[r.run_id] = r
        for rid, r in final_ticket.items():
            if rid not in evaluated:
                ci, ce = costs[rid]
                rows.append(EvalRow(rid, r.algorithm, r.seed, r.round,
                                    r.remaining_frac, None, ci, ce))
    return _report_dict(rows, dense_by_seed)


def _cmd_report(args) -> int:
    report = recompute_report(args.dir)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _add_common(sp, with_search=True):
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--out", help="run directory")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--precision", choices=["float64", "float32"])
    sp.add_argument("--iters", type=int, help="iterations per round")
    sp.add_argument("--batch-size", dest="batch_size", type=int)
    sp.add_argument("--record-every", dest="record_every", type=int)
    if with_search:
        sp.add_argument("--s0", type=float, help="mask-logit init")
        sp.add_argument("--lam", type=float, help="L1 gate penalty")
        sp.add_argument("--beta-final", dest="beta_final", type=float)
        sp.add_argument("--rounds", type=int)
        sp.add_argument("--tau", type=float, help="per-round pruning rate")
        sp.add_argument("--k", type=int, help="rewind iterate")
        sp.add_argument("--k-epochs", dest="k_epochs", type=int,
                        help="rewind point in epochs (converted to iterations)")
        sp.add_argument("--rewind", choices=["on", "off"],
                        help="rewind weights between rounds")
        sp.add_argument("--eval", choices=["none", "final", "rounds"])
        sp.add_argument("--eval-mode", dest="eval_mode",
                        choices=["retrain-from-k", "fine-tune"])
        sp.add_argument("--eval-budget", dest="eval_budget", type=int)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ticketlab",
        description="Desk-scale sparse-subnetwork search experiments")
    sub = p.add_subparsers(dest="command", required=True)

    for name, doc in (("dense", "train a dense baseline"),
                      ("cs", "soft-gate sparsification search"),
                      ("imp", "iterative magnitude pruning"),
                      ("iss", "stochastic mask search"),
                      ("seqcs", "fixed-rate soft-gate pruning"),
                      ("supermask", "mask search over frozen weights")):
        sp = sub.add_parser(name, help=doc)
        _add_common(sp, with_search=name != "dense")
        if name == "imp":
            sp.add_argument("--scope", choices=["global", "per-layer"])
        if name == "supermask":
            sp.add_argument("--variant", choices=["soft", "stochastic"])
        sp.set_defaults(func=lambda a, n=name: _cmd_run(n, a))

    sw = sub.add_parser("sweep", help="grid of runs with aggregation")
    _add_common(sw)
    sw.add_argument("--algorithm", default="cs",
                    choices=["cs", "imp", "iss", "seqcs", "supermask"])
    sw.add_argument("--grid", action="append",
                    help="name=lo:hi:count or name=v1,v2,...")
    sw.add_argument("--seeds", help="comma-separated seed list")
    sw.add_argument("--workers", type=int)
    sw.add_argument("--scope", choices=["global", "per-layer"])
    sw.add_argument("--variant", choices=["soft", "stochastic"])
    sw.set_defaults(func=_cmd_sweep)

    rp = sub.add_parser("report", help="recompute selections from stored CSVs")
    rp.add_argument("--dir", required=True)
    rp.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
