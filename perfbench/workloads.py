"""The three benchmark workloads.

Each workload derives all of its inputs from the workload seed, hands only
those inputs to ticketlab, and runs closed-loop with a single client: one
repeat (``run_once``) starts after the previous one has finished. Every call
into ticketlab goes through a module attribute (``tl.search.run_cs``), so
the tracer's wrappers see it.

* ``cs-mlp``: dense baseline, multi-round soft-gate search on the
  (2,64,64,2) MLP with per-epoch recording on train and test data, then
  re-training the ticket from the rewind point. Tiny matmuls: tape
  overhead, the soft gate and its penalty, the optimizer and per-epoch
  evaluation dominate.
* ``cs-conv6``: single-round soft-gate search on ``conv6-scaled`` over
  generated 1x16x16 IDX images, recording off. Convolution kernels dominate.
* ``sweep-imp``: ``ticketlab sweep --algorithm imp`` over a tau grid x 3
  seeds with two workers, then ``ticketlab report --dir``. Hard masks,
  magnitude pruning with rewinding, the sweep pool and run persistence.
"""
from __future__ import annotations

import contextlib
import io
import json
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


def derive(seed: int, label: str) -> int:
    """A seed for one input of a workload, fixed by the workload seed."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(label.encode())])
    return int(ss.generate_state(1)[0] % 100_000)


@dataclass
class Outcome:
    """What one repeat produced, after its output checks."""

    runs: int  # runs attempted in the repeat
    failed: int  # runs with at least one problem
    problems: list[str] = field(default_factory=list)
    mask_hash: str = ""
    run_s: float = 0.0  # time the runs took (search + evaluation)
    search_s: float = 0.0
    search_iters: int = 0
    ticket_accuracy: float = 0.0
    ticket_remaining_frac: float = 0.0


class CsMlp:
    name = "cs-mlp"
    reference = "mlp"  # host speed reference kernel
    runs_per_repeat = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.model_seed = derive(seed, "model")
        self.rounds, self.iters = (2, 16) if tiny else (5, 400)
        self.data = {"kind": "two_moons", "n_train": 256, "n_test": 256,
                     "noise_sd": 0.1, "seed": derive(seed, "data")}
        self.model = {"kind": "mlp", "widths": [2, 64, 64, 2]}

    def prepare(self) -> None:
        pass

    def probe_spec(self) -> dict:
        return {"data": self.data, "model": self.model,
                "model_seed": self.model_seed, "cli": False}

    def setup(self, tl) -> None:
        self.tl = tl
        self.train, self.test = tl.DataConfig(**self.data).build()
        self.model_cfg = tl.ModelConfig(kind="mlp", widths=tuple(self.model["widths"]))

    def config(self):
        # s0 = 0.03 keeps the ticket's remaining fraction steady across seeds
        return self.tl.RoundConfig(rounds=self.rounds,
                                   iters_per_round=self.iters, rewind_iter=8,
                                   lam=1e-8, beta_final=200.0, mask_init=0.03,
                                   batch_size=32, record_every=1)

    def run_once(self, out_dir: Path) -> Outcome:
        tl, cfg, seed = self.tl, self.config(), self.model_seed
        t0 = time.perf_counter()
        tl.harness.dense_baseline(self.model_cfg, self.train, self.test, cfg,
                                  self.iters, seed)
        model = self.model_cfg.build(seed)
        records = []
        s0 = time.perf_counter()
        res = tl.search.run_cs(model, self.train, cfg, seed=seed,
                               run_id=self.name, test_data=self.test,
                               recorder=records.append)
        search_s = time.perf_counter() - s0
        row = tl.harness.retrain_ticket(self.model_cfg, res.masks, res.rewind,
                                        self.train, self.test, cfg, self.iters,
                                        seed, run_id=self.name)
        run_s = time.perf_counter() - t0

        shapes = {g.name: g.weights.shape for g in model.maskable_groups()}
        problems = checks.mask_problems(res.masks, shapes)
        problems += checks.iteration_problems(res.total_iterations,
                                              cfg.rounds, cfg.iters_per_round)
        epochs = cfg.rounds * (cfg.iters_per_round // res.iters_per_epoch)
        for split in ("train", "test"):
            n = sum(1 for r in records if r.split == split)
            if n != epochs:
                problems.append(f"{n} per-epoch {split} records, expected {epochs}")
        if not problems and abs(checks.remaining(res.masks) - res.remaining_fraction) > 1e-12:
            problems.append("ticket remaining fraction disagrees with its masks")
        return Outcome(runs=1, failed=int(bool(problems)), problems=problems,
                       mask_hash=checks.mask_hash(res.masks), run_s=run_s,
                       search_s=search_s, search_iters=res.total_iterations,
                       ticket_accuracy=row.accuracy,
                       ticket_remaining_frac=res.remaining_fraction)


def brightness_images(seed: int, n: int, side: int = 16):
    """Two balanced classes of uint8 images: label 0 has the brighter top
    half, label 1 the brighter bottom half."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.uint8) % 2
    rng.shuffle(labels)
    images = rng.integers(0, 100, size=(n, side, side))
    half = side // 2
    images[labels == 0, :half] += 150
    images[labels == 1, half:] += 150
    return images.astype(np.uint8), labels


def write_idx(images: np.ndarray, labels: np.ndarray, images_path: Path,
              labels_path: Path) -> None:
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, *images.shape))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, len(labels)))
        f.write(labels.tobytes())


class CsConv6:
    name = "cs-conv6"
    reference = "conv"  # host speed reference kernel
    runs_per_repeat = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.model_seed = derive(seed, "model")
        self.iters = 2 if tiny else 30
        self.n_train, self.n_test = (32, 16) if tiny else (256, 128)
        paths = {k: str(workdir / f"{k}.idx") for k in
                 ("train_images", "train_labels", "test_images", "test_labels")}
        self.data = {"kind": "idx", **paths}
        self.model = {"kind": "conv6-scaled", "in_shape": [1, 16, 16],
                      "num_classes": 2}

    def prepare(self) -> None:
        for split, n in (("train", self.n_train), ("test", self.n_test)):
            images, labels = brightness_images(derive(self.seed, split), n)
            write_idx(images, labels, Path(self.data[f"{split}_images"]),
                      Path(self.data[f"{split}_labels"]))

    def probe_spec(self) -> dict:
        return {"data": self.data, "model": self.model,
                "model_seed": self.model_seed, "cli": False}

    def setup(self, tl) -> None:
        self.tl = tl
        self.train, self.test = tl.DataConfig(**self.data).build()
        self.model_cfg = tl.ModelConfig(kind="conv6-scaled", in_shape=(1, 16, 16),
                                        num_classes=2)

    def config(self):
        weights = self.tl.OptimizerConfig("sgd", lr=0.02, momentum=0.9,
                                          weight_decay=1e-4)
        return self.tl.RoundConfig(rounds=1, iters_per_round=self.iters,
                                   lam=1e-8, beta_final=200.0, mask_init=0.05,
                                   batch_size=32, record_every=0,
                                   weight_opt=weights)

    def run_once(self, out_dir: Path) -> Outcome:
        tl, cfg, seed = self.tl, self.config(), self.model_seed
        t0 = time.perf_counter()
        model = self.model_cfg.build(seed)
        res = tl.search.run_cs(model, self.train, cfg, seed=seed,
                               run_id=self.name)
        search_s = time.perf_counter() - t0
        acc = tl.harness.masked_accuracy(self.model_cfg, res.final_weights,
                                         res.masks, self.test, seed)
        run_s = time.perf_counter() - t0

        shapes = {g.name: g.weights.shape for g in model.maskable_groups()}
        problems = checks.mask_problems(res.masks, shapes)
        problems += checks.iteration_problems(res.total_iterations,
                                              cfg.rounds, cfg.iters_per_round)
        return Outcome(runs=1, failed=int(bool(problems)), problems=problems,
                       mask_hash=checks.mask_hash(res.masks), run_s=run_s,
                       search_s=search_s, search_iters=res.total_iterations,
                       ticket_accuracy=acc,
                       ticket_remaining_frac=res.remaining_fraction)


class SweepImp:
    name = "sweep-imp"
    reference = "mlp-2threads"  # host speed reference kernel
    taus = (0.2, 0.4)
    workers = 2

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        base = derive(seed, "sweep")
        self.seeds = (base, base + 1, base + 2)
        self.rounds, self.iters = (2, 16) if tiny else (3, 150)
        self.runs_per_repeat = len(self.taus) * len(self.seeds)
        self.data = {"kind": "two_moons", "n_train": 256, "n_test": 256,
                     "noise_sd": 0.05, "seed": derive(seed, "data")}
        self.model = {"kind": "mlp", "widths": [2, 64, 64, 2]}
        self.config_path = workdir / "sweep-config.json"

    def prepare(self) -> None:
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump({"dataset": self.data, "model": self.model}, f)

    def probe_spec(self) -> dict:
        return {"data": self.data, "model": self.model,
                "model_seed": self.seeds[0], "cli": True}

    def setup(self, tl) -> None:
        self.tl = tl  # the sweep command builds its own data and models

    def argv(self, out_dir: Path) -> list[str]:
        return ["sweep", "--algorithm", "imp", "--config", str(self.config_path),
                "--grid", "tau=" + ",".join(str(t) for t in self.taus),
                "--seeds", ",".join(str(s) for s in self.seeds),
                "--eval", "rounds", "--workers", str(self.workers),
                "--rounds", str(self.rounds), "--iters", str(self.iters),
                "--record-every", "0", "--out", str(out_dir)]

    def run_once(self, out_dir: Path) -> Outcome:
        tl = self.tl
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tl.cli.main(self.argv(out_dir))
        sweep_s = time.perf_counter() - t0
        listing = io.StringIO()
        with contextlib.redirect_stdout(listing):
            rc_report = tl.cli.main(["report", "--dir", str(out_dir)])

        problems = []
        if rc != 0 or rc_report != 0:
            problems.append(f"sweep exited {rc}, report exited {rc_report}")
            return Outcome(runs=self.runs_per_repeat,
                           failed=self.runs_per_repeat, problems=problems)
        with open(out_dir / "report.json", encoding="utf-8") as f:
            report = json.load(f)
        problems += checks.report_problems(report, json.loads(listing.getvalue()))
        if report["errors"]:
            problems.append(f"{len(report['errors'])} sweep error rows")
        want = self.runs_per_repeat * self.rounds * self.iters
        got = report["cost"].get("imp", {}).get("sequential_iters")
        if got != want:
            problems.append(f"report counts {got} search iterations, expected {want}")

        failed_runs, masks = self._check_runs(out_dir, report)
        failed = self.runs_per_repeat if problems else len(failed_runs)
        problems += [p for ps in failed_runs.values() for p in ps]
        best = report.get("best_performing") or {}
        sparsest = report.get("sparsest_matching")
        return Outcome(
            runs=self.runs_per_repeat, failed=failed, problems=problems,
            mask_hash=checks.mask_hash(masks), run_s=sweep_s,
            search_s=sweep_s, search_iters=int(got or 0),
            ticket_accuracy=float(best.get("accuracy") or 0.0),
            # no ticket matching the dense baseline: the dense network is
            # the sparsest network that does
            ticket_remaining_frac=(sparsest["remaining_frac"]
                                   if sparsest else 1.0))

    def _check_runs(self, out_dir: Path, report: dict):
        """Per run: masks binary, weight-shaped, nested with exact prune
        counts; iterations = rounds x iters. Returns the problems of each
        failed run and every run's round masks, keyed by run and round."""
        tl = self.tl
        failed: dict[str, list[str]] = {}
        all_masks = {}
        rows = report["rows"]
        for tau in self.taus:
            for seed in self.seeds:
                run_id = f"imp-tau={tau:g}-seed{seed}"
                where = f"{run_id}: "
                rdir = out_dir / "runs" / run_id
                try:
                    arrays, _ = tl.persist.load_checkpoint(rdir / "rewind.ckpt")
                    rounds = [tl.persist.load_mask_artifact(rdir / "masks" / f"round{r}")
                              for r in range(1, self.rounds + 1)]
                    final = tl.persist.load_mask_artifact(rdir / "masks" / "final")
                    records = tl.persist.read_records(rdir / "records.csv")
                except (OSError, ValueError, tl.persist.CheckpointError) as exc:
                    failed[run_id] = [f"{where}unreadable run directory: {exc}"]
                    continue
                # every MLP layer is maskable: one mask per weight array
                shapes = {name[:-2]: a.shape for name, a in arrays.items()
                          if name.endswith(".w")}
                ps = checks.mask_problems(final, shapes, where)
                for masks in rounds:
                    ps += checks.mask_problems(masks, shapes, where)
                ps += checks.imp_round_problems(rounds, tau, where)
                if checks.mask_hash(final) != checks.mask_hash(rounds[-1]):
                    ps.append(f"{where}final mask differs from round {self.rounds}")
                ticket_iters = max((r.iter for r in records if r.split == "ticket"),
                                   default=0)
                ps += checks.iteration_problems(ticket_iters, self.rounds,
                                                self.iters, where)
                mine = [r for r in rows if r["run_id"] == run_id]
                if len(mine) != self.rounds or any(
                        r["cost_iters"] != self.rounds * self.iters for r in mine):
                    ps.append(f"{where}report rows disagree with the run")
                if ps:
                    failed[run_id] = ps
                for r, masks in enumerate(rounds, start=1):
                    for name, m in masks.items():
                        all_masks[f"{run_id}/round{r}/{name}"] = m
        return failed, all_masks


WORKLOADS = {w.name: w for w in (CsMlp, CsConv6, SweepImp)}
