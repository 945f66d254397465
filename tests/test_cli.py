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
from ticketlab.persist import load_checkpoint, load_mask_artifact, read_records
from ticketlab.tensor import default_dtype, reset_tape, set_default_dtype


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
        assert list(out.iterdir()) == []

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

    def test_sweep_parallel_workers_match_serial(self, tmp_path,
                                                 monkeypatch):
        cfgp = small_config(tmp_path)
        trees = []
        for workers in ("1", "2"):
            # the same relative --out, as run configs record their path
            (tmp_path / workers).mkdir()
            monkeypatch.chdir(tmp_path / workers)
            assert main(["sweep", "--config", str(cfgp), "--grid",
                         "s0=-0.1,0.1", "--seeds", "1,2", "--eval", "rounds",
                         "--out", "sweep", "--workers", workers]) == 0
            root = tmp_path / workers / "sweep"
            trees.append({str(p.relative_to(root)): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()})
        serial, parallel = trees
        assert len(serial) > 30
        assert serial.keys() == parallel.keys()
        differ = [k for k in serial if serial[k] != parallel[k]]
        assert differ == ["config.json"]  # it records max_workers

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

    @pytest.mark.parametrize("algorithm, bad, message", [
        ("supermask", {}, "supermask search runs a single round"),
        ("imp", {"scope": "bogus"}, "unknown pruning scope 'bogus'"),
        ("supermask", {"supermask_variant": "bogus", "round": {"rounds": 1}},
         "unknown supermask variant 'bogus'"),
        ("iss", {"round": {"st_variant": "bogus"}},
         "unknown straight-through variant 'bogus'"),
    ], ids=["supermask-two-rounds", "scope", "supermask-variant",
            "st-variant"])
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

    def test_dense_run_with_a_bad_round_config_fails_cleanly(self, tmp_path,
                                                            capsys):
        for bad, message in ((["--batch-size", "0"], "batch size must be"),
                             (["--record-every", "-1"], "record_every must")):
            out = tmp_path / "d"
            rc = main(["dense", "--config", str(small_config(tmp_path)),
                       "--out", str(out)] + bad)
            assert rc == 1, bad
            assert message in capsys.readouterr().err, bad
            assert list(out.iterdir()) == [], bad

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
