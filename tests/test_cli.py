import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ticketlab import harness
from ticketlab.cli import _deep_merge, main, recompute_report
from ticketlab.config import RunConfig
from ticketlab.data import DataConfig
from ticketlab.persist import load_checkpoint, load_mask_artifact, read_records
from ticketlab.tensor import default_dtype, reset_tape, set_default_dtype

from .test_models_data import write_idx_pair


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


def test_import_needs_no_scipy():
    # the library and its CLI run on NumPy alone; SciPy is a test reference
    root = Path(__file__).resolve().parents[1]
    script = ("import sys, ticketlab, ticketlab.cli; "
              "assert 'scipy' not in sys.modules, "
              "sorted(m for m in sys.modules if m.startswith('scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_runs_as_a_module():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "ticketlab", "--help"],
                          cwd=root,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
    assert "sweep" in proc.stdout


def small_config(tmp_path, **over):
    cfg = {
        "dataset": {"n_train": 64, "n_test": 64, "noise_sd": 0.1, "seed": 7},
        "model": {"kind": "mlp", "widths": [2, 8, 2]},
        "round": {"rounds": 2, "iters_per_round": 16, "rewind_iter": 2,
                  "batch_size": 32, "record_every": 0},
        "evaluation": {"evaluate": "final", "budget_iters": 16},
    }
    cfg.update(over)
    path = tmp_path / "run.cfg"
    path.write_text(json.dumps(cfg))
    return path


class TestRunSubcommands:
    def test_cs_happy_path_writes_run_dir(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["cs", "--config", str(cfgp), "--s0", "0.05", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "config.json").exists()
        assert (out / "records.csv").exists()
        assert (out / "masks" / "final.bits").exists()
        assert (out / "masks" / "final.json").exists()
        assert (out / "rewind.ckpt").exists()
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["round"]["mask_init"] == 0.05
        assert resolved["round"]["lam"] == 1e-8  # defaults materialized
        records = read_records(out / "records.csv")
        assert any(r.split == "ticket" for r in records)
        assert any(r.split == "retrain_test" for r in records)

    def test_dense_subcommand(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "dense"
        rc = main(["dense", "--config", str(cfgp), "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        records = read_records(out / "records.csv")
        assert any(r.split == "final_test" for r in records)

    @pytest.mark.parametrize("argv,builds", [
        (["dense", "--seed", "2"], 1),
        (["cs", "--seed", "1", "--rounds", "1"], 1),
        (["sweep", "--algorithm", "cs", "--grid", "s0=0.05", "--seeds", "1"], 1),
    ])
    def test_data_is_built_once_per_validation(self, tmp_path, monkeypatch,
                                               argv, builds):
        # the plan's validation builds the data, and the run uses that data
        calls = []
        build = DataConfig.build

        def counted(self):
            calls.append(self)
            return build(self)

        monkeypatch.setattr(DataConfig, "build", counted)
        rc = main(argv + ["--config", str(small_config(tmp_path)),
                          "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(calls) == builds

    def test_dense_precision_does_not_leak(self, tmp_path):
        cfgp = small_config(tmp_path)
        try:
            rc = main(["dense", "--config", str(cfgp), "--seed", "2",
                       "--out", str(tmp_path / "dense"),
                       "--precision", "float32"])
            assert rc == 0
            assert default_dtype() == np.float64
        finally:
            set_default_dtype("float64")

    def test_imp_defaults_include_rate_and_rewind(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "imp"
        rc = main(["imp", "--config", str(cfgp), "--rounds", "3",
                   "--seed", "1", "--out", str(out), "--eval", "rounds"])
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["round"]["prune_rate"] == 0.2
        assert resolved["round"]["rewind_between_rounds"] is True
        assert (out / "masks" / "round3.bits").exists()
        masks = load_mask_artifact(out / "masks" / "final")
        assert all(set(np.unique(m)).issubset({0.0, 1.0})
                   for m in masks.values())

    def test_supermask_and_iss_and_seqcs_run(self, tmp_path):
        cfgp = small_config(tmp_path)
        for name in ("supermask", "iss", "seqcs"):
            out = tmp_path / name
            rc = main([name, "--config", str(cfgp), "--seed", "1",
                       "--out", str(out)] +
                      (["--rounds", "1"] if name == "supermask" else []))
            assert rc == 0, name
            assert (out / "records.csv").exists()

    def test_rewind_checkpoint_is_loadable(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "out"
        main(["cs", "--config", str(cfgp), "--seed", "1", "--out", str(out),
              "--k", "3"])
        arrays, meta = load_checkpoint(out / "rewind.ckpt")
        assert meta["rewind_iter"] == 3
        assert any(k.endswith(".w") for k in arrays)

    def test_rewind_point_in_epochs_converts_to_iterations(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "out-epochs"
        rc = main(["cs", "--config", str(cfgp), "--seed", "1",
                   "--out", str(out), "--k-epochs", "2"])
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        # 64 train samples / batch 32 = 2 iterations per epoch
        assert resolved["round"]["rewind_iter"] == 4

    def test_k_and_k_epochs_mutually_exclusive(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        rc = main(["cs", "--config", str(cfgp), "--k", "3", "--k-epochs",
                   "1", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_k_epochs_with_a_zero_batch_size_fails_cleanly(self, tmp_path,
                                                           capsys):
        cfgp = small_config(tmp_path)
        out = tmp_path / "x"
        rc = main(["cs", "--config", str(cfgp), "--k-epochs", "1",
                   "--batch-size", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: batch size must be >= 1, got 0\n")
        assert not out.exists()

    def test_missing_config_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["cs", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(json.dumps({"rund": {"rounds": 2}}))
        rc = main(["cs", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_unknown_evaluation_in_config_file_fails(self, tmp_path, capsys):
        for evaluation, message in (
                ({"evaluate": "everything"}, "unknown evaluation setting"),
                ({"mode": "retrain-from-0"}, "unknown evaluation mode")):
            cfgp = small_config(tmp_path, evaluation=evaluation)
            out = tmp_path / "o"
            assert main(["cs", "--config", str(cfgp), "--out", str(out)]) == 1
            assert message in capsys.readouterr().err
            assert not (out / "records.csv").exists()

    def test_failed_run_writes_no_run_files(self, tmp_path, capsys):
        cfgp = small_config(
            tmp_path, round={"rounds": 2, "iters_per_round": 16,
                             "rewind_iter": 2, "batch_size": 32,
                             "record_every": 0, "prune_rate": None})
        out = tmp_path / "o"
        assert main(["imp", "--config", str(cfgp), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: this controller requires a pruning rate\n")
        assert not out.exists()

    def test_run_keeps_the_files_sweep_settings(self, tmp_path):
        cfgp = small_config(tmp_path, seeds=[3, 4],
                            sweep={"grid": {"s0": [0.1]}, "max_workers": 2})
        out = tmp_path / "o"
        assert main(["cs", "--config", str(cfgp), "--out", str(out)]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["seeds"] == [3, 4]
        assert resolved["sweep"] == {"grid": {"s0": [0.1]}, "max_workers": 2}
        records = read_records(out / "records.csv")
        assert {r.run_id for r in records} == {"dense-seed1", "cs-seed1"}
        assert records[0].run_id == "dense-seed1"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["cs", "--bogus-flag"])
        assert exc.value.code == 2


class TestSweepAndReport:
    def test_sweep_enumerates_grid_runs(self, tmp_path):
        cfgp = small_config(tmp_path, evaluation={"evaluate": "none"})
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgp), "--grid",
                   "s0=-0.3:0.3:11", "--seeds", "1", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["rows"]) == 11
        run_dirs = [p for p in (out / "runs").iterdir() if p.is_dir()]
        assert len(run_dirs) == 11

    def test_bad_seeds_and_grid_fail_cleanly(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        for bad in (["--seeds", "1,x"], ["--seeds", ""], ["--grid", "s0"],
                    ["--grid", "s0=1:2"]):
            argv = ["sweep", "--config", str(cfgp), "--grid", "s0=0,1",
                    "--out", str(tmp_path / "s")] + bad
            assert main(argv) == 1, bad
            assert capsys.readouterr().err.startswith("error: "), bad

    def test_grid_flags_merge_over_the_files_grid(self, tmp_path):
        cfgp = small_config(tmp_path, evaluation={"evaluate": "none"},
                            sweep={"grid": {"s0": [0.1], "lambda": [0.0]}})
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfgp), "--grid", "s0=0,0.2",
                     "--grid", "tau=0.5", "--seeds", "1",
                     "--out", str(out)]) == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["sweep"]["grid"] == {
            "s0": [0.0, 0.2], "lambda": [0.0], "tau": [0.5]}

    def test_sweep_without_grid_fails(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        rc = main(["sweep", "--config", str(cfgp),
                   "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "grid" in capsys.readouterr().err

    def test_report_reproduces_selection(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgp), "--grid", "s0=-0.1,0.1",
                   "--seeds", "1,2", "--out", str(out)])
        assert rc == 0
        original = json.loads((out / "report.json").read_text())
        recomputed = recompute_report(out)
        assert recomputed["dense_accuracy"] == original["dense_accuracy"]
        for key in ("sparsest_matching", "best_performing"):
            a, b = original.get(key), recomputed.get(key)
            if a is None:
                assert b is None
            else:
                assert (a["run_id"], a["round"], a["accuracy"],
                        a["remaining_frac"]) == \
                       (b["run_id"], b["round"], b["accuracy"],
                        b["remaining_frac"])

    def test_report_subcommand_prints_json(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        out = tmp_path / "run"
        main(["cs", "--config", str(cfgp), "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--dir", str(out)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cost" in payload

    def test_report_on_empty_dir_fails(self, tmp_path, capsys):
        rc = main(["report", "--dir", str(tmp_path)])
        assert rc == 1

    def test_report_needs_each_runs_config(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["cs", "--config", str(cfgp), "--out", str(out)]) == 0
        (out / "config.json").unlink()
        with pytest.raises(ValueError, match="config.json"):
            recompute_report(out)
        assert main(["report", "--dir", str(out)]) == 1
        assert str(out / "records.csv") in capsys.readouterr().err

    def test_report_needs_batch_size_and_n_train(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["cs", "--config", str(cfgp), "--out", str(out),
                     "--batch-size", "16"]) == 0
        # 2 rounds x 16 iterations at 4 iterations per epoch
        assert recompute_report(out)["cost"]["cs"]["sequential_epochs"] == 8.0
        resolved = json.loads((out / "config.json").read_text())
        rnd = {k: v for k, v in resolved["round"].items() if k != "batch_size"}
        for over, message in (({}, "batch_size"),
                              ({"batch_size": 0}, "batch size must be >= 1")):
            (out / "config.json").write_text(
                json.dumps(dict(resolved, round={**rnd, **over})))
            with pytest.raises(ValueError, match=message):
                recompute_report(out)
            assert main(["report", "--dir", str(out)]) == 1
            assert str(out / "config.json") in capsys.readouterr().err

    def test_sweep_error_rows_are_distinct_runs(self, tmp_path, capsys,
                                                monkeypatch):
        def fails(plan, model, data, cfg, **kw):
            raise ValueError("search failed")

        monkeypatch.setitem(harness.SEARCHES, "imp", fails)
        cfgp = small_config(tmp_path, evaluation={"evaluate": "none"})
        out = tmp_path / "sweep"
        rc = main(["sweep", "--algorithm", "imp", "--config", str(cfgp),
                   "--grid", "lambda=0,1", "--seeds", "1", "--out", str(out)])
        assert rc == 1
        assert "sweep: 2 runs (2 failed)" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert [r["run_id"] for r in report["errors"]] == [
            "imp-lambda=0-seed1", "imp-lambda=1-seed1"]

    def test_report_covers_sparsity_only_sweeps(self, tmp_path):
        cfgp = small_config(tmp_path, evaluation={"evaluate": "none"})
        out = tmp_path / "sweep-none"
        main(["sweep", "--config", str(cfgp), "--grid", "s0=-0.1,0.1",
              "--seeds", "1", "--out", str(out)])
        report = recompute_report(out)
        assert report["cost"]["cs"]["sequential_iters"] == 2 * 2 * 16
        assert "best_performing" not in report  # nothing was evaluated

    @pytest.mark.parametrize("algorithm",
                             ["cs", "imp", "iss", "seqcs", "supermask"])
    def test_report_rows_equal_the_sweeps_rows(self, tmp_path, algorithm):
        cfgp = small_config(tmp_path)
        rounds = "1" if algorithm == "supermask" else "2"
        for evaluate, mode in (("none", "retrain-from-k"),
                               ("final", "retrain-from-k"),
                               ("rounds", "retrain-from-k"),
                               ("rounds", "fine-tune")):
            out = tmp_path / f"{evaluate}-{mode}"
            assert main(["sweep", "--algorithm", algorithm, "--config",
                         str(cfgp), "--grid", "tau=0.25,0.5", "--seeds", "1",
                         "--rounds", rounds, "--batch-size", "24",
                         "--eval", evaluate,
                         "--eval-mode", mode, "--out", str(out)]) == 0
            swept = json.loads((out / "report.json").read_text())
            recomputed = recompute_report(out)

            def keyed(rows, stored=lambda v: v):
                return {(r["run_id"], r["round"]): (
                    *(None if r[k] is None else stored(r[k])
                      for k in ("accuracy", "remaining_frac")),
                    r["cost_iters"], r["cost_epochs"]) for r in rows}

            assert len(swept["rows"]) == len(recomputed["rows"]) > 0
            # the CSV keeps 9 significant digits of each record's values
            assert keyed(recomputed["rows"]) == keyed(
                swept["rows"], lambda v: float(f"{v:.9g}")), (evaluate, mode)
            assert recomputed["cost"] == swept["cost"], (evaluate, mode)
            assert recomputed["dense_accuracy"] == swept["dense_accuracy"]

    def test_fine_tune_eval_mode_flag(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "ft"
        rc = main(["cs", "--config", str(cfgp), "--seed", "1",
                   "--out", str(out), "--eval-mode", "fine-tune"])
        assert rc == 0
        records = read_records(out / "records.csv")
        assert any(r.split == "finetune_test" for r in records)

    @staticmethod
    def _sweep_trees(tmp_path, monkeypatch, argv) -> tuple[dict, dict]:
        """Every file a sweep writes with 1 and with 2 workers."""
        trees = []
        for workers in ("1", "2"):
            # the same relative --out, as run configs record their path
            (tmp_path / workers).mkdir()
            monkeypatch.chdir(tmp_path / workers)
            assert main(["sweep"] + argv + ["--out", "sweep", "--workers",
                                             workers]) == 0
            root = tmp_path / workers / "sweep"
            trees.append({str(p.relative_to(root)): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()})
        serial, parallel = trees
        assert serial.keys() == parallel.keys()
        differ = [k for k in serial if serial[k] != parallel[k]]
        assert differ == ["config.json"]  # it records max_workers
        return serial, parallel

    def test_sweep_parallel_workers_match_serial(self, tmp_path,
                                                 monkeypatch):
        cfgp = small_config(tmp_path)
        serial, _ = self._sweep_trees(tmp_path, monkeypatch, [
            "--config", str(cfgp), "--grid", "s0=-0.1,0.1", "--seeds", "1,2",
            "--eval", "rounds"])
        assert len(serial) > 30

    def test_imp_sweep_stacks_match_across_workers(self, tmp_path,
                                                   monkeypatch):
        # one worker searches the six runs as one stack, two as two of
        # three; the stack of the seeds' first runs carries their baselines
        sizes, units = [], harness._units

        def spy(plan, jobs):
            made = units(plan, jobs)
            sizes.append([len(u) for u in made])
            return made

        monkeypatch.setattr(harness, "_units", spy)
        cfgp = small_config(tmp_path)
        serial, _ = self._sweep_trees(tmp_path, monkeypatch, [
            "--algorithm", "imp", "--config", str(cfgp), "--grid",
            "tau=0.2,0.4", "--seeds", "1,2,3", "--eval", "rounds",
            "--record-every", "1"])
        assert sizes == [[9], [6, 3]]
        # the sweep's 2 files, 2 per baseline, 9 per run (3 masks)
        assert len(serial) == 2 + 3 * 2 + 6 * 9
        records = read_records(tmp_path / "1" / "sweep" / "runs" /
                               "imp-tau=0.4-seed3" / "records.csv")
        assert {r.split for r in records} == {"train", "ticket",
                                              "retrain_test"}

    @staticmethod
    def _conv2_config(tmp_path) -> dict:
        """A conv2 model over 32 8x8 IDX images of 10 classes, the same
        images for training and test."""
        images, labels, _, _ = write_idx_pair(tmp_path, n=32, h=8, w=8)
        return dict(
            dataset={"kind": "idx", "train_images": str(images),
                     "train_labels": str(labels), "test_images": str(images),
                     "test_labels": str(labels)},
            model={"kind": "conv2", "in_shape": [1, 8, 8], "num_classes": 10})

    @pytest.mark.parametrize("flags, conv, layouts", [
        (["--workers", "1"], False, [[9], [3, 6]]),
        (["--workers", "2", "--record-every", "1", "--precision", "float32"],
         False, [[6, 3], [3, 3, 3]]),
        # seed 3's first run is in the second stack
        (["--workers", "4", "--record-every", "1"], False,
         [[4, 3, 1, 1], [3, 2, 2, 1, 1]]),
        (["--workers", "2"], True, [[2, 2, 2, 1, 1, 1], [1] * 9]),
    ], ids=["serial", "float32-records", "four-workers", "conv2"])
    def test_carried_baselines_write_what_trained_ones_do(
            self, tmp_path, monkeypatch, flags, conv, layouts):
        cfgp = small_config(tmp_path, **(self._conv2_config(tmp_path)
                                         if conv else {}))
        sizes, units = [], harness._units

        def spy(plan, jobs):
            made = units(plan, jobs)
            sizes.append([len(u) for u in made])
            return made

        monkeypatch.setattr(harness, "_units", spy)
        trees = []
        for trained in (False, True):
            # the same relative --out, as run configs record their path
            where = tmp_path / str(trained)
            where.mkdir()
            monkeypatch.chdir(where)
            with monkeypatch.context() as m:
                if trained:  # no run carries a baseline
                    m.setattr(harness, "_carries", lambda plan, point: False)
                assert main(["sweep", "--algorithm", "imp", "--config",
                             str(cfgp), "--grid", "tau=0.2,0.4", "--seeds",
                             "1,2,3", "--eval", "rounds", "--out", "sweep"]
                            + flags) == 0
            trees.append({str(p.relative_to(where)): p.read_bytes()
                          for p in sorted(where.rglob("*")) if p.is_file()})
        assert sizes == layouts
        assert len(trees[0]) == 2 + 3 * 2 + 6 * 9
        assert trees[0] == trees[1]

    def test_a_baseline_of_another_budget_trains_on_its_own(self, tmp_path,
                                                             monkeypatch):
        trains, trained = harness.train_tickets, []

        def spy(model_cfg, tickets, *args, **kw):
            trained.extend(info.run_id for masks, _, info, _ in tickets
                           if masks is None)
            return trains(model_cfg, tickets, *args, **kw)

        monkeypatch.setattr(harness, "train_tickets", spy)
        cfgp = small_config(tmp_path)  # 16 iterations per round
        for budget, dense in (("16", []),
                              ("20", ["dense-seed1", "dense-seed2"])):
            trained.clear()
            out = tmp_path / budget
            assert main(["sweep", "--algorithm", "imp", "--config", str(cfgp),
                         "--grid", "tau=0.2", "--seeds", "1,2",
                         "--eval-budget", budget, "--out", str(out)]) == 0
            assert trained == dense, budget
            for seed in (1, 2):
                [final] = [r for r in read_records(
                    out / "runs" / f"dense-seed{seed}" / "records.csv")
                    if r.split == "final_test"]
                assert final.iter == int(budget)

    def test_integer_grid_fields_run(self, tmp_path):
        cfgp = small_config(tmp_path, evaluation={"evaluate": "rounds",
                                                  "budget_iters": 16})
        for argv in (["--algorithm", "imp", "--grid", "rounds=1,2"],
                     ["--grid", "batch_size=16,32"],
                     ["--algorithm", "imp", "--grid", "iters_per_round=8:16:2"]):
            out = tmp_path / "_".join(argv).replace("=", "-")
            assert main(["sweep", "--config", str(cfgp), "--seeds", "1,2",
                         "--out", str(out)] + argv) == 0, argv
            report = json.loads((out / "report.json").read_text())
            assert report["errors"] == [], argv
            assert len(report["rows"]) > 0, argv

    def test_non_integral_integer_grid_value_fails_before_anything_is_written(
            self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgp), "--grid",
                   "batch_size=16,16.5", "--out", str(out)])
        assert rc == 1
        assert ("error: sweep parameter 'batch_size' takes whole numbers, "
                "got 16.5") in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_workers_below_one_fails(self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgp), "--grid", "s0=0.1",
                   "--out", str(out), "--workers", "0"])
        assert rc == 1
        assert "error: max_workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_round_config_fails_before_anything_is_written(self, tmp_path,
                                                              capsys):
        cfgp = small_config(tmp_path)
        for bad, message in ((["--batch-size", "0"], "batch size"),
                             (["--batch-size", "-4"], "batch size"),
                             (["--record-every", "-1"], "record_every"),
                             (["--algorithm", "imp", "--grid", "tau=0.2,1.5"],
                              "pruning rate")):
            out = tmp_path / "sweep"
            rc = main(["sweep", "--config", str(cfgp), "--grid", "s0=0.1",
                       "--out", str(out)] + bad)
            assert rc == 1, bad
            assert message in capsys.readouterr().err, bad
            assert not out.exists(), bad

    def test_runs_sharing_a_run_id_or_an_empty_grid_fail_before_anything_is_written(
            self, tmp_path, capsys):
        cfgp = small_config(tmp_path)
        for bad, message in (
                (["--grid", "tau=0.2,0.2", "--seeds", "1"],
                 "share the run id 'imp-tau=0.2-seed1'"),
                (["--grid", "tau=0.2", "--seeds", "1,1"],
                 "share the run id 'imp-tau=0.2-seed1'"),
                (["--grid", "tau=0.1:0.5:0", "--seeds", "1"],
                 "sweep parameter 'tau' has no values")):
            out = tmp_path / "sweep"
            rc = main(["sweep", "--config", str(cfgp), "--algorithm", "imp",
                       "--out", str(out)] + bad)
            assert rc == 1, bad
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, bad
            assert not out.exists(), bad

    @pytest.mark.parametrize("grid, message", [
        (["tau=0.2", "tau=0.3"],
         "--grid sets 'tau' twice; give its values in one flag"),
        (["tau=0.2", "prune_rate=0.3"],
         "sweep parameters 'tau' and 'prune_rate' both set 'prune_rate'"),
    ], ids=["same-name", "alias"])
    def test_a_parameter_swept_twice_fails_before_anything_is_written(
            self, tmp_path, capsys, grid, message):
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(small_config(tmp_path)),
                "--algorithm", "imp", "--seeds", "1", "--out", str(out)]
        for spec in grid:
            argv += ["--grid", spec]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, over, message", [
        (["cs", "--lam", "nan"], {}, "lam must be finite, got nan"),
        (["cs", "--lam", "inf"], {}, "lam must be finite, got inf"),
        (["cs", "--beta-final", "nan"], {},
         "beta_final must be finite, got nan"),
        (["cs", "--s0", "nan"], {}, "mask_init must be finite, got nan"),
        (["imp"], {"round": {"weight_opt": {"lr": float("nan")}}},
         "lr must be finite, got nan"),
        (["dense"], {"round": {"weight_opt": {"momentum": float("inf")}}},
         "momentum must be finite, got inf"),
        (["sweep", "--grid", "lambda=0,nan", "--seeds", "1"], {},
         "lam must be finite, got nan"),
        # a NaN dataset used to fail at the first step, an infinite one
        # to warn in the validating forward pass, both after --out was made
        (["cs"], {"dataset": {"noise_sd": float("nan")}},
         "noise_sd must be finite, got nan"),
        (["cs"], {"dataset": {"noise_sd": float("inf")}},
         "noise_sd must be finite, got inf"),
        (["sweep", "--grid", "s0=0.1", "--seeds", "1"],
         {"dataset": {"kind": "sparse_teacher", "density": float("nan")}},
         "density must be finite, got nan"),
    ], ids=["lam", "lam-inf", "beta-final", "s0", "lr", "dense-momentum",
            "grid", "dataset-nan", "dataset-inf", "sweep-dataset-nan"])
    def test_non_finite_hyperparameter_fails_before_anything_is_written(
            self, tmp_path, capsys, argv, over, message):
        base = json.loads(small_config(tmp_path).read_text())
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(json.dumps(_deep_merge(base, over)))
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfgp), "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm, bad, message", [
        ("supermask", {}, "supermask search runs a single round"),
        ("imp", {"scope": "bogus"}, "unknown pruning scope 'bogus'"),
        ("supermask", {"supermask_variant": "bogus", "round": {"rounds": 1}},
         "unknown supermask variant 'bogus'"),
        ("iss", {"round": {"st_variant": "bogus"}},
         "unknown straight-through variant 'bogus'"),
        ("cs", {"precision": "float16"}, "unknown precision mode 'float16'"),
    ], ids=["supermask-two-rounds", "scope", "supermask-variant",
            "st-variant", "precision"])
    def test_bad_plan_in_the_config_file_fails_before_anything_is_written(
            self, tmp_path, capsys, algorithm, bad, message):
        base = json.loads(small_config(tmp_path).read_text())  # two rounds
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(json.dumps(_deep_merge(base, bad)))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgp), "--algorithm", algorithm,
                   "--grid", "s0=0.1", "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, over, message", [
        ("sweep", {"dataset": {"n_train": 16}},
         "batch size 32 at grid point {'s0': 0.0} exceeds the 16 training "
         "examples"),
        ("sweep", {"model": {"widths": [3, 8, 2]}},
         "linear expects (n,i)@(i,o)+(o,), got (1, 2), (3, 8) and (8,)"),
        ("sweep", {"model": {"widths": [2, 8, 5]}},
         "the model's head has width 5, but the data has 2 classes"),
        ("sweep", {"model": {"widths": [2, 8, 1]}},
         "the model's head has width 1, but the data has 2 classes"),
        ("cs", {"dataset": {"n_train": 16}},
         "batch size 32 exceeds the 16 training examples"),
        ("dense", {"model": {"widths": [2, 8, 5]}},
         "the model's head has width 5, but the data has 2 classes"),
        ("imp --eval-mode fine-tune", {"evaluation": {"finetune_lr": -1}},
         "fine-tuning: learning rate must be positive"),
        ("sweep --algorithm imp", {"dataset": {"n_test": 0}},
         "the test set is empty"),
        ("imp", {"dataset": {"n_test": 0}}, "the test set is empty"),
        ("cs", {"dataset": {"n_train": 0}}, "the training set is empty"),
        ("dense", {"dataset": {"n_test": 0}}, "the test set is empty"),
    ], ids=["sweep-batch", "sweep-input-width", "sweep-head-too-wide",
            "sweep-head-too-narrow", "cs-batch", "dense-head",
            "imp-finetune-lr", "sweep-imp-empty-test-set",
            "imp-empty-test-set", "cs-empty-training-set",
            "dense-empty-test-set"])
    def test_plan_that_cannot_run_fails_before_anything_is_written(
            self, tmp_path, capsys, command, over, message):
        base = json.loads(small_config(tmp_path).read_text())
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(json.dumps(_deep_merge(base, over)))
        out = tmp_path / "out"
        command, *flags = command.split()
        if command == "sweep":
            flags += ["--seeds", "1", "--grid", "s0=0,0.05"]
        rc = main([command, "--config", str(cfgp), "--iters", "20",
                   "--out", str(out)] + flags)
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_run_with_a_bad_round_config_fails_cleanly(self, tmp_path,
                                                            capsys):
        for bad, message in ((["--batch-size", "0"], "batch size must be"),
                             (["--record-every", "-1"], "record_every must")):
            out = tmp_path / "d"
            rc = main(["dense", "--config", str(small_config(tmp_path)),
                       "--out", str(out)] + bad)
            assert rc == 1, bad
            assert message in capsys.readouterr().err, bad
            assert not out.exists(), bad

    @pytest.mark.parametrize("flags, over, message", [
        (["--iters", "0"], {}, "iterations per round must be >= 1"),
        ([], {"evaluation": {"mode": "bogus"}}, "unknown evaluation mode 'bogus'"),
        ([], {"round": {"lam": -1}}, "gate penalty must be non-negative"),
        ([], {"round": {"beta_final": 0.5}}, "final temperature must be >= 1"),
        ([], {"round": {"rewind_iter": 900}}, "rewind point must satisfy"),
        ([], {"evaluation": {"budget_iters": 0}}, "evaluation budget must be"),
        ([], {"precision": "float16"}, "unknown precision mode 'float16'"),
    ], ids=["iters-0", "eval-mode", "lam", "beta-final", "rewind-iter",
            "eval-budget", "precision"])
    def test_dense_run_validates_its_plan_before_anything_is_written(
            self, tmp_path, capsys, flags, over, message):
        base = json.loads(small_config(tmp_path).read_text())
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(json.dumps(_deep_merge(base, over)))
        out = tmp_path / "d"
        rc = main(["dense", "--config", str(cfgp), "--out", str(out)] + flags)
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["-5", "0"])
    def test_eval_budget_below_one_fails_before_anything_is_written(
            self, tmp_path, capsys, budget):
        out = tmp_path / "cs"
        rc = main(["cs", "--config", str(small_config(tmp_path)), "--iters",
                   "50", "--eval-budget", budget, "--out", str(out)])
        assert rc == 1
        assert (f"error: evaluation budget must be >= 1 iteration, got "
                f"{budget}") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, over, message", [
        ("sweep --seeds 1,-1", {}, "seed -1 is not a non-negative integer"),
        ("sweep", {"seeds": "1,2"}, "seed '1' is not a non-negative integer"),
        ("sweep", {"round": {"batch_size": 32.0}},
         "batch_size must be an integer, got 32.0"),
        ("cs", {"round": {"iters_per_round": 10.5}},
         "iters_per_round must be an integer, got 10.5"),
        ("imp", {"round": {"rounds": True}},
         "rounds must be an integer, got True"),
        ("sweep", {"evaluation": {"budget_iters": 10.5}},
         "budget_iters must be an integer, got 10.5"),
        ("sweep", {"sweep": {"max_workers": 1.5}},
         "max_workers must be an integer, got 1.5"),
        ("sweep", {"sweep": {"max_workers": True}},
         "max_workers must be an integer, got True"),
        ("sweep --eval-mode fine-tune", {"evaluation": {"finetune_lr": True}},
         "finetune_lr must be a number, got True"),
        ("sweep", {"dataset": {"seed": 1.5}},
         "seed must be an integer, got 1.5"),
        ("sweep", {"dataset": {"n_train": 64.0}},
         "n_train must be an integer, got 64.0"),
        ("cs", {"model": {"widths": [2, 8, 2], "maskable": [True, "no"]}},
         "maskable[1] must be true or false, got 'no'"),
        ("cs", {"model": {"widths": [2, 8, 2], "maskable": [True, 1]}},
         "maskable[1] must be true or false, got 1"),
        ("cs", {"model": {"widths": [2, 8.0, 2]}},
         "widths[1] must be an integer, got 8.0"),
        ("cs", {"model": {"widths": 8}}, "widths must be a list, got 8"),
        ("cs", {"model": {"kind": "conv2", "num_classes": 2.0}},
         "num_classes must be an integer, got 2.0"),
        ("cs", {"model": {"kind": "conv2", "in_shape": [1, 8, True]}},
         "in_shape[2] must be an integer, got True"),
        ("cs", {"model": {"kind": "conv2", "head_maskable": 1}},
         "head_maskable must be true or false, got 1"),
        ("imp", {"round": {"rewind_between_rounds": "off"}},
         "rewind_between_rounds must be true or false, got 'off'"),
        ("cs", {"round": {"lr_milestones": ["10", -3, 10.7]}},
         "lr_milestones[0] must be an integer, got '10'"),
        ("cs", {"round": {"lr_milestones": [10, -3]}},
         "lr_milestones[1] must be >= 0, got -3"),
        ("sweep", {"round": {"lr_milestones": [10.7]}},
         "lr_milestones[0] must be an integer, got 10.7"),
        ("imp", {"round": {"lr_milestones": [True]}},
         "lr_milestones[0] must be an integer, got True"),
    ], ids=["negative-seed", "seeds-string", "float-batch-size",
            "fractional-iterations", "boolean-rounds", "fractional-budget",
            "fractional-workers", "boolean-workers", "boolean-finetune-lr",
            "fractional-data-seed", "float-train-size", "string-maskable",
            "integer-maskable", "float-width", "scalar-widths",
            "float-classes", "boolean-in-shape", "integer-head-maskable",
            "string-rewind", "string-milestone", "negative-milestone",
            "fractional-milestone", "boolean-milestone"])
    def test_bad_seed_or_integer_field_fails_before_anything_is_written(
            self, tmp_path, capsys, command, over, message):
        base = json.loads(small_config(tmp_path).read_text())
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text(json.dumps(_deep_merge(base, over)))
        out = tmp_path / "out"
        command, *flags = command.split()
        if command == "sweep":
            flags += ["--grid", "s0=0,0.05"]
        rc = main([command, "--config", str(cfgp), "--out", str(out)]
                  + flags)
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_is_strict_json_when_the_correlation_is_undefined(
            self, tmp_path):
        # every run keeps all of its weights: the remaining fractions are
        # constant, and so the s0 rank correlation is undefined
        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(small_config(tmp_path)),
                     "--grid", "s0=2,3", "--seeds", "1,2", "--iters", "20",
                     "--lam", "0", "--eval", "none", "--record-every", "0",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject)
        assert report["spearman_s0_remaining"] is None
        assert {r["remaining_frac"] for r in report["rows"]} == {1.0}

    def test_sweep_with_a_dead_worker_exits_1(self, tmp_path, monkeypatch,
                                              capsys):
        search = harness.SEARCHES["cs"]

        def dies_on_seed_2(plan, model, data, cfg, seed, **kw):
            if seed == 2:
                os._exit(3)  # the forked worker inherits this patch
            return search(plan, model, data, cfg, seed=seed, **kw)

        monkeypatch.setitem(harness.SEARCHES, "cs", dies_on_seed_2)
        cfgp = small_config(tmp_path, evaluation={"evaluate": "none"})
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(cfgp), "--grid", "s0=0.1",
                   "--seeds", "1,2", "--out", str(out), "--workers", "2"])
        assert rc == 1
        assert "sweep: 2 runs (" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert "cs-s0=0.1-seed2" in [r["run_id"] for r in report["errors"]]
        for r in report["rows"]:  # every finished run was persisted
            if r["error"] is None:
                assert (out / "runs" / r["run_id"] / "records.csv").exists()


class TestRunConfigValidation:
    def test_defaults_materialized_and_reloadable(self, tmp_path):
        cfg = RunConfig()
        path = tmp_path / "c.json"
        cfg.save(path)
        back = RunConfig.load(path)
        assert back == cfg

    def test_nested_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="round"):
            RunConfig.from_dict({"round": {"rouns": 3}})

    def test_every_config_flag_sets_a_config_key(self):
        from ticketlab.cli import build_parser
        keys = RunConfig().to_dict()
        subparsers = build_parser()._subparsers._group_actions[0].choices
        for name, sp in subparsers.items():
            for action in sp._actions:
                if action.dest in ("help", "config", "k_epochs", "dir"):
                    continue
                node = keys
                for part in action.dest.split("."):
                    assert isinstance(node, dict) and part in node, (
                        name, action.option_strings, action.dest)
                    node = node[part]

    def test_precedence_defaults_algorithm_file_flags(self, tmp_path):
        cfgp = small_config(tmp_path, round={
            "rounds": 3, "iters_per_round": 16, "rewind_iter": 2,
            "batch_size": 32, "record_every": 0, "prune_rate": 0.3})
        out = tmp_path / "o"
        main(["imp", "--config", str(cfgp), "--rounds", "2", "--rewind",
              "off", "--eval", "none", "--out", str(out)])
        r = json.loads((out / "config.json").read_text())["round"]
        assert r["lam"] == 1e-8  # RunConfig default
        assert r["prune_rate"] == 0.3  # the file over imp's 0.2
        assert r["rounds"] == 2  # the flag over the file
        assert r["rewind_between_rounds"] is False  # the flag over imp's
        assert r["iters_per_round"] == 16  # the file over the default

    def test_flags_override_file_keys(self, tmp_path):
        cfgp = small_config(tmp_path)
        out = tmp_path / "o"
        main(["cs", "--config", str(cfgp), "--s0", "0.2", "--lam", "0.0",
              "--seed", "9", "--out", str(out), "--eval", "none"])
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["round"]["mask_init"] == 0.2
        assert resolved["round"]["lam"] == 0.0
        assert resolved["seed"] == 9
