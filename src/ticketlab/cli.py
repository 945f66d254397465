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
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .config import RunConfig, SweepConfig
from .harness import (SEARCHES, EvalRow, ExperimentPlan, cost_accounting,
                      report_rows, run_point, select_best_performing,
                      select_sparsest_matching, sweep, ticket_rounds)
from .persist import (read_records, save_checkpoint, save_mask_artifact,
                      write_records)
from .search import PRUNE_SCOPES, SUPERMASK_VARIANTS
from .training import epoch_iters

# Config layers, merged in order: RunConfig defaults, then these
# per-algorithm defaults, then the --config file, then the flags.
_ALGORITHM_DEFAULTS = {
    "imp": {"round": {"prune_rate": 0.2, "rewind_between_rounds": True,
                      "rounds": 10}},
    "seqcs": {"round": {"prune_rate": 0.2, "rounds": 10}},
    "iss": {"round": {"mask_init": 1.0,
                      "mask_opt": {"lr": 20.0, "momentum": 0.0}}},
    "supermask": {"round": {"rounds": 1}},
}

# Flags whose command-line value is not yet the config value.
_CONVERT = {
    "round.rewind_between_rounds": lambda v: v == "on",
    "seeds": lambda v: tuple(int(s) for s in v.split(",")),
    "sweep.grid": lambda specs: dict(_parse_grid(s) for s in specs),
}
_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_config(args) -> RunConfig:
    """Merge the config layers. Each config flag's dest is the dotted key
    it sets (``round.mask_init``); ``--k-epochs`` is applied last, from the
    merged training-set and batch sizes."""
    merged = _deep_merge(RunConfig().to_dict(),
                         _ALGORITHM_DEFAULTS.get(args.algorithm, {}))
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            merged = _deep_merge(merged, json.load(f))
    for dest, value in vars(args).items():
        if value is not None and dest.split(".")[0] in _CONFIG_KEYS:
            value = _CONVERT.get(dest, lambda v: v)(value)
            for key in reversed(dest.split(".")):
                value = {key: value}
            merged = _deep_merge(merged, value)
    cfg = RunConfig.from_dict(merged)
    if getattr(args, "k_epochs", None) is not None:
        if getattr(args, "round.rewind_iter") is not None:
            raise ValueError("--k and --k-epochs are mutually exclusive")
        ipe = epoch_iters(cfg.dataset.n_train, cfg.round.batch_size)
        cfg.round = replace(cfg.round, rewind_iter=args.k_epochs * ipe)
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


def _report_dict(rows: list[EvalRow], dense_by_seed: dict,
                 spearman: float | None = None) -> dict:
    ok = [r for r in rows if r.error is None and r.accuracy is not None]
    dense_acc = (float(np.mean(list(dense_by_seed.values())))
                 if dense_by_seed else None)
    out = {
        "dense_by_seed": {str(k): v for k, v in sorted(dense_by_seed.items())},
        "dense_accuracy": dense_acc,
        "cost": cost_accounting(rows),
        "rows": [asdict(r) for r in rows],
        "errors": [asdict(r) for r in rows if r.error is not None],
    }
    if spearman is not None:
        out["spearman_s0_remaining"] = spearman
    if ok:
        out["best_performing"] = asdict(select_best_performing(ok))
        match = (select_sparsest_matching(ok, dense_acc)
                 if dense_acc is not None else None)
        out["sparsest_matching"] = None if match is None else asdict(match)
    return out


def _persist_run(out: Path, cfg: RunConfig, tickets, records) -> None:
    out.mkdir(parents=True, exist_ok=True)
    cfg.save(out / "config.json")
    write_records(records, out / "records.csv")
    if tickets:
        final = tickets[-1]
        (out / "masks").mkdir(exist_ok=True)
        save_mask_artifact(out / "masks" / "final", final.masks)
        rounds = ticket_rounds(tickets)
        if len(rounds) > 1:
            for r, masks, _ in rounds:
                save_mask_artifact(out / "masks" / f"round{r}", masks)
        save_checkpoint(out / "rewind.ckpt", final.rewind.arrays,
                        {"rewind_iter": final.rewind.rewind_iter,
                         "run_id": final.run_id,
                         "algorithm": final.algorithm})


def _cmd_run(args) -> int:
    """One run into ``--out``: a dense baseline, or a search as a one-point
    sweep whose baseline and run records share one ``records.csv``."""
    cfg = _load_config(args)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.algorithm == "dense":
        _, _, records = run_point(_plan(cfg), None, cfg.seed,
                                  *cfg.dataset.build())
        _persist_run(out, cfg, [], records)
        final = next(r for r in records if r.split == "final_test")
        print(f"dense baseline: test accuracy {final.accuracy:.4f} "
              f"({final.iter} iterations), run dir {out}")
        return 0

    tickets: list = []
    records: list = []

    def collect(run_id, point, seed, run_tickets, run_records):
        tickets.extend(run_tickets)
        records.extend(run_records)

    result = sweep(replace(_plan(cfg), seeds=(cfg.seed,), grid={},
                           max_workers=1), on_run=collect)
    for r in result.rows:
        if r.error is not None:
            raise RuntimeError(r.error)
    _persist_run(out, cfg, tickets, records)
    report = _report_dict(result.rows, result.dense_by_seed)
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    final = tickets[-1]
    print(f"{cfg.algorithm}: {final.total_iterations} iterations, "
          f"{100 * final.remaining_fraction:.1f}% weights remaining, "
          f"run dir {out}")
    for r in result.rows:
        if r.accuracy is not None:
            print(f"  round {r.round}: remaining {100 * r.remaining_frac:.1f}%"
                  f", evaluated accuracy {r.accuracy:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    """Run the library sweep over the configured grid, persisting every
    dense baseline and run into ``runs/<run_id>`` as it finishes, then
    write ``report.json`` and print a summary. Exits 1 when any run
    failed."""
    cfg = _load_config(args)
    if not cfg.sweep.grid:
        raise ValueError("sweep requires a non-empty grid "
                         "(--grid name=lo:hi:count)")
    plan = _plan(cfg)
    plan.validate()  # before anything is written
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

    result = sweep(plan, on_run=persist)
    rows = result.rows
    report = _report_dict(rows, result.dense_by_seed, result.spearman_s0)
    with open(out / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    failed = {r.run_id for r in rows if r.error is not None}
    print(f"sweep: {len({r.run_id for r in rows})} runs ({len(failed)} "
          f"failed), report at {out / 'report.json'}")
    for key, label in (("sparsest_matching", "sparsest matching:"),
                       ("best_performing", "best performing:  ")):
        if report.get(key):
            r = report[key]
            print(f"  {label} {r['run_id']} round {r['round']} remaining "
                  f"{100 * r['remaining_frac']:.1f}% accuracy "
                  f"{r['accuracy']:.4f}")
    return 1 if failed else 0


def recompute_report(directory) -> dict:
    """Rebuild selection and cost totals from the CSVs stored under
    ``directory`` without re-training anything, with the rows the sweep
    builds (``harness.report_rows``, once per CSV). Every ``records.csv``
    needs its run's ``config.json`` beside it."""
    root = Path(directory)
    csvs = sorted(root.rglob("records.csv"))
    if not csvs:
        raise FileNotFoundError(f"no records.csv found under {root}")
    dense_by_seed: dict[int, float] = {}
    rows: list[EvalRow] = []
    for path in csvs:
        recs = read_records(path)
        cfg_path = path.parent / "config.json"
        if not cfg_path.exists():
            raise ValueError(f"{path} has no config.json beside it; report "
                             "needs each run's config")
        with open(cfg_path, "r", encoding="utf-8") as f:
            c = json.load(f)
        try:
            ipe = epoch_iters(c["dataset"]["n_train"],
                              c["round"]["batch_size"])
        except (KeyError, TypeError):
            raise ValueError(f"{cfg_path} lacks round.batch_size or "
                             "dataset.n_train") from None
        except ValueError as exc:
            raise ValueError(f"{cfg_path}: {exc}") from None
        file_rows, file_dense = report_rows(recs, ipe)
        rows += file_rows
        dense_by_seed.update(file_dense)
    return _report_dict(rows, dense_by_seed)


def _cmd_report(args) -> int:
    report = recompute_report(args.dir)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _flag(sp, flag: str, key: str, **kw) -> None:
    """A flag that sets config ``key`` (its dest), shown in the help as
    argparse shows a flag of that name."""
    if "choices" not in kw:
        kw["metavar"] = flag.lstrip("-").replace("-", "_").upper()
    sp.add_argument(flag, dest=key, **kw)


def _add_common(sp, with_search=True):
    sp.add_argument("--config", help="JSON config file; flags override it")
    _flag(sp, "--out", "out_dir", help="run directory")
    _flag(sp, "--seed", "seed", type=int)
    _flag(sp, "--precision", "precision", choices=["float64", "float32"])
    _flag(sp, "--iters", "round.iters_per_round", type=int,
          help="iterations per round")
    _flag(sp, "--batch-size", "round.batch_size", type=int)
    _flag(sp, "--record-every", "round.record_every", type=int)
    if with_search:
        _flag(sp, "--s0", "round.mask_init", type=float,
              help="mask-logit init")
        _flag(sp, "--lam", "round.lam", type=float, help="L1 gate penalty")
        _flag(sp, "--beta-final", "round.beta_final", type=float)
        _flag(sp, "--rounds", "round.rounds", type=int)
        _flag(sp, "--tau", "round.prune_rate", type=float,
              help="per-round pruning rate")
        _flag(sp, "--k", "round.rewind_iter", type=int, help="rewind iterate")
        sp.add_argument("--k-epochs", dest="k_epochs", type=int,
                        help="rewind point in epochs (converted to iterations)")
        _flag(sp, "--rewind", "round.rewind_between_rounds",
              choices=["on", "off"], help="rewind weights between rounds")
        _flag(sp, "--eval", "evaluation.evaluate",
              choices=["none", "final", "rounds"])
        _flag(sp, "--eval-mode", "evaluation.mode",
              choices=["retrain-from-k", "fine-tune"])
        _flag(sp, "--eval-budget", "evaluation.budget_iters", type=int)


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
            _flag(sp, "--scope", "scope", choices=PRUNE_SCOPES)
        if name == "supermask":
            _flag(sp, "--variant", "supermask_variant",
                  choices=SUPERMASK_VARIANTS)
        sp.set_defaults(func=_cmd_run, algorithm=name)

    sw = sub.add_parser("sweep", help="grid of runs with aggregation")
    _add_common(sw)
    _flag(sw, "--algorithm", "algorithm", default="cs", choices=list(SEARCHES))
    _flag(sw, "--grid", "sweep.grid", action="append",
          help="name=lo:hi:count or name=v1,v2,...")
    _flag(sw, "--seeds", "seeds", help="comma-separated seed list")
    _flag(sw, "--workers", "sweep.max_workers", type=int)
    _flag(sw, "--scope", "scope", choices=PRUNE_SCOPES)
    _flag(sw, "--variant", "supermask_variant", choices=SUPERMASK_VARIANTS)
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
