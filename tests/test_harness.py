import hashlib
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticketlab.data import DataConfig, gen_two_moons
import ticketlab.harness as H
from ticketlab.harness import (SEARCHES, EvalRow, ExperimentPlan,
                               cost_accounting, dense_baseline,
                               eval_budget_iters,
                               finetune_ticket, masked_accuracy,
                               per_layer_sparsity, random_mask_like,
                               report_rows, retrain_ticket, run_point,
                               select_best_performing,
                               select_sparsest_matching, sweep, ticket_rounds)
from ticketlab.models import ModelConfig, build_mlp
from ticketlab.optim import CompositeOptimizer, OptimizerConfig
from ticketlab.persist import RunRecord
from ticketlab.search import (RewindStore, RoundConfig, run_cs, run_imp,
                              run_sequential_cs)
from ticketlab.seeding import STREAM_SHUFFLE, seeded_rng
from ticketlab.tensor import (NonFiniteError, ShapeError, apply_op,
                              default_dtype, reset_tape, set_default_dtype)
from ticketlab.training import RunInfo, TrainCursor, train


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


@pytest.fixture(scope="module")
def moons_pair():
    return DataConfig(n_train=128, n_test=128, noise_sd=0.1, seed=7).build()


MC = ModelConfig(kind="mlp", widths=(2, 16, 2))


def cfg(**kw):
    base = dict(rounds=2, iters_per_round=40, rewind_iter=4, batch_size=32,
                record_every=0)
    base.update(kw)
    return RoundConfig(**base)


def _opt(model, c):
    return CompositeOptimizer([c.weight_opt.build(model.weight_tensors())])


class TestTrainLoop:
    def test_zero_iterations_is_noop(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        before = {k: a.copy() for k, a in model.weight_arrays().items()}
        c = cfg()
        n = train(model, train_ds, _opt(model, c), 0, batch_size=32,
                  shuffle_rng=seeded_rng(1, STREAM_SHUFFLE))
        assert n == 0
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, before[k])

    def test_loss_decreases_over_first_steps(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        c = cfg()
        losses = []
        train(model, train_ds, _opt(model, c), 50, batch_size=128,
              shuffle_rng=seeded_rng(1, STREAM_SHUFFLE),
              after_step=[lambda si: losses.append(si.loss)])
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_batch_larger_than_dataset_rejected(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        with pytest.raises(ValueError):
            train(model, train_ds, _opt(model, cfg()), 1, batch_size=1000,
                  shuffle_rng=seeded_rng(1, STREAM_SHUFFLE))

    def test_lr_decay_milestones(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        c = cfg(lr_milestones=(10, 20), lr_decay=0.1)
        opt = _opt(model, c)
        from ticketlab.training import lr_milestones_callback
        cb = lr_milestones_callback(opt, c.lr_milestones, c.lr_decay)
        lr0 = opt.members[0].lr
        train(model, train_ds, opt, 30, batch_size=32,
              shuffle_rng=seeded_rng(1, STREAM_SHUFFLE), before_step=[cb])
        assert abs(opt.members[0].lr - lr0 * 0.01) < 1e-15

    def test_nan_loss_aborts_with_diagnostic_record(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        c = cfg(weight_opt=OptimizerConfig("sgd", lr=1e30, momentum=0.0))
        rows = []
        with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
            train(model, train_ds, _opt(model, c), 50, batch_size=32,
                  shuffle_rng=seeded_rng(1, STREAM_SHUFFLE),
                  recorder=rows.append)
        assert rows and rows[-1].split == "abort"

    def test_non_finite_gradient_aborts_before_the_step(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        before = {k: a.copy() for k, a in model.weight_arrays().items()}
        forward = model.forward

        def poisoned(x, **kw):  # finite logits whose backward writes inf
            logits = forward(x, **kw)
            return apply_op("poison", (logits,), logits.data.copy(),
                            lambda g: logits.accumulate_grad(
                                np.full_like(g, np.inf)))

        model.forward = poisoned
        rows = []
        with pytest.raises(NonFiniteError,
                           match="non-finite gradient at iteration 0 of 'p'"), \
                np.errstate(all="ignore"):
            train(model, train_ds, _opt(model, cfg()), 5, batch_size=32,
                  shuffle_rng=seeded_rng(1, STREAM_SHUFFLE),
                  recorder=rows.append, run_info=RunInfo(run_id="p"))
        assert [(r.split, r.iter) for r in rows] == [("abort", 0)]
        assert np.isfinite(rows[0].loss)
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, before[k])

    def test_epoch_records_cadence(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        rows = []
        train(model, train_ds, _opt(model, cfg()), 8, batch_size=32,
              shuffle_rng=seeded_rng(1, STREAM_SHUFFLE),
              recorder=rows.append, record_every=1)
        # 128 samples / 32 = 4 iterations per epoch -> 2 epochs
        assert [r.epoch for r in rows if r.split == "train"] == [1, 2]


class TestRetrainTicket:
    def test_identity_ticket_reproduces_dense_exactly(self, moons_pair):
        train_ds, test_ds = moons_pair
        c = cfg()
        seed = 3
        dense_acc = dense_baseline(MC, train_ds, test_ds, c, 40, seed)
        init_model = MC.build(seed)
        ones = {g.name: np.ones(g.weights.shape)
                for g in init_model.maskable_groups()}
        store = RewindStore(0, init_model.weight_arrays(copy=True))
        row = retrain_ticket(MC, ones, store, train_ds, test_ds, c, 40, seed)
        assert row.accuracy == dense_acc

    def test_all_zeros_mask_predicts_one_class(self, moons_pair):
        train_ds, test_ds = moons_pair
        seed = 3
        init_model = MC.build(seed)
        zeros = {g.name: np.zeros(g.weights.shape)
                 for g in init_model.maskable_groups()}
        store = RewindStore(0, init_model.weight_arrays(copy=True))
        row = retrain_ticket(MC, zeros, store, train_ds, test_ds, cfg(), 40,
                             seed)
        assert row.remaining_frac == 0.0
        assert abs(row.accuracy - 0.5) < 1e-12  # balanced test split

    def test_mask_shape_mismatch_rejected(self, moons_pair):
        train_ds, test_ds = moons_pair
        init_model = MC.build(1)
        bad = {g.name: np.ones((3, 3)) for g in init_model.maskable_groups()}
        store = RewindStore(0, init_model.weight_arrays(copy=True))
        with pytest.raises(ShapeError):
            retrain_ticket(MC, bad, store, train_ds, test_ds, cfg(), 10, 1)

    def test_no_masked_component_is_a_value_error(self, moons_pair):
        train_ds, test_ds = moons_pair
        mc = ModelConfig(widths=(2, 8, 2), maskable=(False, False))
        store = RewindStore(0, mc.build(1).weight_arrays(copy=True))
        with pytest.raises(ValueError, match="no masked components"):
            retrain_ticket(mc, {}, store, train_ds, test_ds, cfg(), 10, 1)

    def test_finetune_mode_runs_from_final_weights(self, moons_pair):
        train_ds, test_ds = moons_pair
        model = MC.build(2)
        res = run_cs(model, train_ds, cfg(), seed=2)
        row = finetune_ticket(MC, res, train_ds, test_ds, cfg(), 20, 2,
                              finetune_lr=0.001)
        assert row.accuracy is not None
        assert row.remaining_frac == res.remaining_fraction


class TestReportRows:
    @staticmethod
    def rec(run_id, split, rnd=1, it=0, alg="cs", seed=1, **kw):
        return RunRecord(run_id, alg, seed, rnd, 0, it, split, **kw)

    def test_evaluation_records_cost_their_runs_final_ticket(self):
        recs = [self.rec("a", "train", it=8, accuracy=0.1),
                self.rec("a", "ticket", 1, 40, remaining_frac=0.8),
                self.rec("a", "ticket", 2, 80, remaining_frac=0.6),
                self.rec("a", "retrain_test", 1, 50, accuracy=0.9,
                         remaining_frac=0.8),
                self.rec("a", "retrain_test", 2, 50, accuracy=0.7,
                         remaining_frac=0.6)]
        rows, dense = report_rows(recs, iters_per_epoch=16)
        assert dense == {}
        assert [(r.round, r.accuracy, r.remaining_frac) for r in rows] == [
            (1, 0.9, 0.8), (2, 0.7, 0.6)]
        assert all((r.cost_iters, r.cost_epochs) == (80, 5.0) for r in rows)

    def test_unevaluated_run_is_one_row_from_its_final_ticket(self):
        recs = [self.rec("b", "ticket", 1, 40, alg="imp", remaining_frac=0.8),
                self.rec("b", "ticket", 2, 80, alg="imp", remaining_frac=0.64),
                self.rec("c", "mask_test", 1, 30, accuracy=0.6,
                         remaining_frac=0.5)]
        rows, _ = report_rows(recs, iters_per_epoch=20)
        assert [(r.run_id, r.algorithm, r.round, r.accuracy,
                 r.remaining_frac, r.cost_iters, r.cost_epochs)
                for r in rows] == [("c", "cs", 1, 0.6, 0.5, 0, 0.0),
                                   ("b", "imp", 2, None, 0.64, 80, 4.0)]

    def test_dense_final_test_gives_its_seeds_accuracy(self):
        recs = [self.rec("dense-seed1", "final_test", 0, 40, alg="dense",
                         accuracy=0.75, remaining_frac=1.0),
                self.rec("dense-seed2", "test", 1, 20, alg="dense", seed=2,
                         accuracy=0.5),
                self.rec("dense-seed2", "final_test", 0, 40, alg="dense",
                         seed=2, accuracy=0.8, remaining_frac=1.0)]
        rows, dense = report_rows(recs, iters_per_epoch=4)
        assert rows == [] and dense == {1: 0.75, 2: 0.8}

    def test_run_point_rows_are_its_records_rows(self, moons_pair):
        train_ds, test_ds = moons_pair
        plan = ExperimentPlan(algorithm="imp",
                              round_cfg=cfg(prune_rate=0.3), model_cfg=MC,
                              evaluate="rounds", eval_budget=10)
        tickets, rows, recs = run_point(plan, {"tau": 0.3}, 1, train_ds,
                                        test_ds)
        want, _ = report_rows(recs, tickets[-1].iters_per_epoch)
        for r in want:
            r.grid = {"tau": 0.3}
        assert rows == want and len(rows) == 2
        assert rows[-1].cost_iters == tickets[-1].total_iterations == 80


class TestSelection:
    def rows(self):
        return [
            EvalRow("a", "cs", 1, 7, 0.209, 0.9057, 100, 1.0),
            EvalRow("b", "cs", 1, 8, 0.167, 0.9100, 100, 1.0),
            EvalRow("c", "cs", 1, 5, 0.123, 0.9143, 100, 1.0),
        ]

    def test_sparsest_matching_prefers_sparsest_qualifier(self):
        best = select_sparsest_matching(self.rows(), dense_acc=0.9055)
        assert best.run_id == "c" and best.remaining_frac == 0.123

    def test_sparsest_matching_none_when_no_qualifier(self):
        assert select_sparsest_matching(self.rows(), dense_acc=0.99) is None

    def test_sparsest_matching_tie_prefers_higher_accuracy(self):
        rows = [EvalRow("a", "cs", 1, 1, 0.2, 0.910, 0, 0),
                EvalRow("b", "cs", 1, 2, 0.2, 0.912, 0, 0)]
        assert select_sparsest_matching(rows, 0.9).run_id == "b"

    def test_sparsest_matching_invariant_to_row_order(self):
        rows = self.rows()
        a = select_sparsest_matching(rows, 0.9055)
        b = select_sparsest_matching(rows[::-1], 0.9055)
        assert a == b

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            select_sparsest_matching([], 0.9)
        with pytest.raises(ValueError):
            select_best_performing([])

    def test_best_performing_max_accuracy(self):
        rows = [EvalRow("vgg-low", "cs", 1, 5, 0.017, 0.9335, 0, 0),
                EvalRow("vgg-best", "cs", 1, 4, 0.024, 0.9345, 0, 0)]
        assert select_best_performing(rows).run_id == "vgg-best"

    def test_best_performing_single_row(self):
        rows = [EvalRow("only", "cs", 1, 1, 0.5, 0.8, 0, 0)]
        assert select_best_performing(rows).run_id == "only"

    def test_best_performing_tie_prefers_sparser(self):
        rows = [EvalRow("wide", "cs", 1, 1, 0.30, 0.91, 0, 0),
                EvalRow("slim", "cs", 1, 2, 0.20, 0.91, 0, 0)]
        assert select_best_performing(rows).run_id == "slim"


class TestPerLayerSparsity:
    def test_uniform_mask_uniform_fractions(self):
        model = build_mlp([2, 8, 8, 2], seed=0)
        masks = {g.name: np.ones(g.weights.shape)
                 for g in model.maskable_groups()}
        rows = per_layer_sparsity(masks, model)
        assert all(r["remaining_frac"] == 1.0 for r in rows)

    def test_zeroed_layer_reported(self):
        model = build_mlp([2, 8, 8, 2], seed=0)
        masks = {g.name: np.ones(g.weights.shape)
                 for g in model.maskable_groups()}
        masks["dense1"] = np.zeros_like(masks["dense1"])
        rows = {r["name"]: r["remaining_frac"]
                for r in per_layer_sparsity(masks, model)}
        assert rows["dense1"] == 0.0 and rows["dense0"] == 1.0

    def test_weighted_mean_equals_global_exactly(self):
        # float32 masks of layer sizes that are not powers of two as well
        for widths, dtype in (([2, 8, 8, 2], np.float64),
                              ([2, 10, 7, 2], np.float32)):
            rng = np.random.default_rng(0)
            model = build_mlp(widths, seed=0)
            masks = {g.name: (rng.random(g.weights.shape) < 0.4).astype(dtype)
                     for g in model.maskable_groups()}
            rows = per_layer_sparsity(masks, model)
            layer_rows = [r for r in rows if not r["name"].startswith("block")]
            total = sum(r["size"] for r in layer_rows)
            weighted = sum(r["size"] * r["remaining_frac"] for r in layer_rows)
            global_frac = (sum(float(m.sum()) for m in masks.values())
                           / sum(m.size for m in masks.values()))
            assert weighted / total == global_frac, widths

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_each_fraction_gives_back_its_kept_count(self, seed, density):
        rng = np.random.default_rng(seed)
        model = build_mlp([7, 7, 7, 2], seed=0)
        masks = {g.name: (rng.random(g.weights.shape) < density) * 1.0
                 for g in model.maskable_groups()}
        for r in per_layer_sparsity(masks, model):
            kept = int(masks[r["name"]].sum())
            assert round(r["size"] * r["remaining_frac"]) == kept

    def test_block_grouping(self):
        model = build_mlp([2, 8, 8, 2], seed=0)
        masks = {g.name: np.ones(g.weights.shape)
                 for g in model.maskable_groups()}
        rows = per_layer_sparsity(masks, model, block=2)
        names = [r["name"] for r in rows]
        assert "block0" in names and "block1" in names


class TestSweep:
    def plan(self, **kw):
        base = dict(
            algorithm="cs",
            round_cfg=cfg(iters_per_round=20, rewind_iter=2),
            model_cfg=MC,
            data_cfg=DataConfig(n_train=64, n_test=64, noise_sd=0.1, seed=7),
            seeds=(1, 2, 3),
            grid={"s0": list(np.linspace(-0.3, 0.3, 11))},
            evaluate="none")
        base.update(kw)
        return ExperimentPlan(**base)

    def test_grid_times_seeds_rows(self):
        report = sweep(self.plan())
        assert len(report.rows) == 33

    def test_eval_budget_defaults_to_one_round(self):
        round_cfg = cfg(iters_per_round=20)
        assert eval_budget_iters(None, round_cfg) == 20
        assert eval_budget_iters(50, round_cfg) == 50

    def test_empty_grid_rejected(self):
        from ticketlab.harness import _expand_grid
        with pytest.raises(ValueError):
            _expand_grid({})

    def test_cost_column_exact(self):
        report = sweep(self.plan(seeds=(1,)))
        assert all(r.cost_iters == 2 * 20 for r in report.rows)

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(ValueError):
            sweep(self.plan(grid={"bogus": [1, 2]}))

    # a valid round config per search, as the CLI's defaults give them
    ALGORITHM_CFGS = {
        "cs": {},
        "imp": {"prune_rate": 0.2, "rewind_between_rounds": True},
        "iss": {"mask_init": 1.0,
                "mask_opt": OptimizerConfig("sgd", lr=20.0, momentum=0.0)},
        "seqcs": {"prune_rate": 0.2},
        "supermask": {"rounds": 1},
    }

    @staticmethod
    def _hashing_hook(digest):
        """An ``on_run`` hook folding every run id and every array it is
        handed (masks, round masks, rewind arrays, final weights) into
        ``digest``, in call order."""
        def fold(arrays):
            for k in sorted(arrays or {}):
                digest.update(k.encode())
                digest.update(np.ascontiguousarray(arrays[k]).tobytes())

        def hook(run_id, point, seed, tickets, records):
            digest.update(run_id.encode())
            for t in tickets:
                fold(t.masks)
                for m in t.round_masks:
                    fold(m)
                fold(t.rewind.arrays)
                fold(t.final_weights)
        return hook

    def test_concurrent_equals_serial(self):
        for algorithm, over in self.ALGORITHM_CFGS.items():
            results = []
            for workers in (1, 2):
                digest = hashlib.sha256()
                report = sweep(self.plan(
                    algorithm=algorithm,
                    round_cfg=cfg(iters_per_round=20, rewind_iter=2, **over),
                    grid={"s0": [-0.1, 0.1]}, seeds=(1, 2), evaluate="final",
                    max_workers=workers), on_run=self._hashing_hook(digest))
                results.append((report, digest.hexdigest()))
            (r1, h1), (r2, h2) = results
            assert not any(r.error for r in r1.rows), algorithm
            assert r1.rows == r2.rows, algorithm
            assert r1.records == r2.records, algorithm
            assert r1.dense_by_seed == r2.dense_by_seed, algorithm
            assert h1 == h2, algorithm

    def test_max_workers_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="max_workers"):
                self.plan(max_workers=workers).validate()

    def test_dead_worker_becomes_error_rows(self, monkeypatch):
        search = SEARCHES["cs"]

        def dies_on_the_last_run(plan, model, data, cfg, seed, **kw):
            if seed == 2 and cfg.mask_init == 0.1:
                os._exit(3)  # the forked worker inherits this patch
            return search(plan, model, data, cfg, seed=seed, **kw)

        monkeypatch.setitem(SEARCHES, "cs", dies_on_the_last_run)
        seen = []
        report = sweep(self.plan(grid={"s0": [-0.1, 0.1]}, seeds=(1, 2),
                                 max_workers=2),
                       on_run=lambda run_id, *_: seen.append(run_id))
        ids = ["cs-s0=-0.1-seed1", "cs-s0=-0.1-seed2", "cs-s0=0.1-seed1",
               "cs-s0=0.1-seed2"]
        assert [r.run_id for r in report.rows] == ids
        assert report.rows[0].error is None
        assert "BrokenProcessPool" in report.rows[-1].error
        # a run either finished (and reached the hook) or is an error row
        assert seen == [r.run_id for r in report.rows if r.error is None]

    def test_unpicklable_result_fails_only_its_run(self, monkeypatch):
        search = SEARCHES["cs"]

        def unpicklable_for_seed_2(plan, model, data, cfg, seed, **kw):
            tickets = search(plan, model, data, cfg, seed=seed, **kw)
            if seed == 2:
                tickets[-1].final_weights = {"lock": threading.Lock()}
            return tickets

        monkeypatch.setitem(SEARCHES, "cs", unpicklable_for_seed_2)
        report = sweep(self.plan(grid={"s0": [-0.1, 0.1]}, seeds=(1, 2, 3),
                                 max_workers=2))
        failed = [r.run_id for r in report.rows if r.error is not None]
        assert failed == ["cs-s0=-0.1-seed2", "cs-s0=0.1-seed2"]
        assert "pickle" in report.rows[1].error

    def test_rerun_is_deterministic(self):
        p = self.plan(grid={"s0": [0.0]}, seeds=(1, 2), evaluate="final")
        r1 = sweep(p)
        r2 = sweep(p)
        assert r1.rows == r2.rows

    @staticmethod
    def _failing_imp(monkeypatch):
        def fails(plan, model, data, cfg, **kw):
            raise ValueError("search failed")

        monkeypatch.setitem(SEARCHES, "imp", fails)

    def test_child_failure_recorded_and_sweep_continues(self, monkeypatch):
        self._failing_imp(monkeypatch)
        p = self.plan(algorithm="imp",
                      round_cfg=cfg(iters_per_round=20, rewind_iter=2,
                                    prune_rate=0.2),
                      grid={"lambda": [0.0]}, seeds=(1, 2))
        report = sweep(p)
        assert all(r.error is not None for r in report.rows)
        assert len(report.rows) == 2

    def test_error_rows_named_after_their_run(self, monkeypatch):
        self._failing_imp(monkeypatch)
        p = self.plan(algorithm="imp",
                      round_cfg=cfg(iters_per_round=20, rewind_iter=2,
                                    prune_rate=0.2),
                      grid={"lambda": [0.0, 1.0]}, seeds=(1,))
        report = sweep(p)
        assert [r.run_id for r in report.rows] == ["imp-lambda=0-seed1",
                                                   "imp-lambda=1-seed1"]

    def test_on_run_sees_every_run_and_its_failure_is_an_error_row(self):
        def hook(run_id, point, seed, tickets, records):
            seen.append((run_id, point, seed, len(tickets),
                         {r.run_id for r in records}))
            if point == {"s0": 0.1}:
                raise OSError("disk full")

        for workers in (1, 2):
            seen = []
            report = sweep(self.plan(grid={"s0": [-0.1, 0.1]}, seeds=(1,),
                                     evaluate="final", max_workers=workers),
                           on_run=hook)
            assert seen == [
                ("dense-seed1", None, 1, 0, {"dense-seed1"}),
                ("cs-s0=-0.1-seed1", {"s0": -0.1}, 1, 1,
                 {"cs-s0=-0.1-seed1"}),
                ("cs-s0=0.1-seed1", {"s0": 0.1}, 1, 1, {"cs-s0=0.1-seed1"})
            ], workers
            assert [(r.run_id, r.error) for r in report.rows] == [
                ("cs-s0=-0.1-seed1", None),
                ("cs-s0=0.1-seed1", "disk full")], workers

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fails_in", ["job", "hook"])
    def test_failing_dense_baseline_ends_the_sweep(self, monkeypatch,
                                                   workers, fails_in):
        dense, search = H.dense_baseline, SEARCHES["cs"]
        seen, searched = [], []

        def baseline(model_cfg, train_data, test_data, c, budget, seed,
                     **kw):
            if fails_in == "job" and seed == 2:
                raise ValueError("baseline diverged")
            return dense(model_cfg, train_data, test_data, c, budget, seed,
                         **kw)

        def counted(plan, model, data, c, seed, **kw):
            searched.append(seed)
            return search(plan, model, data, c, seed=seed, **kw)

        def hook(run_id, point, seed, tickets, records):
            seen.append(run_id)
            if fails_in == "hook" and run_id == "dense-seed2":
                raise OSError("baseline diverged")

        monkeypatch.setattr(H, "dense_baseline", baseline)
        monkeypatch.setitem(SEARCHES, "cs", counted)
        with pytest.raises(RuntimeError, match="^baseline diverged$"):
            sweep(self.plan(grid={"s0": [-0.1, 0.1]}, seeds=(1, 2),
                            evaluate="final", max_workers=workers),
                  on_run=hook)
        assert seen == {"job": ["dense-seed1"],
                        "hook": ["dense-seed1", "dense-seed2"]}[fails_in]
        assert searched == []  # forked workers' calls are not seen here

    def test_unknown_algorithm_fails_before_any_dense_baseline(self):
        seen = []
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            sweep(self.plan(algorithm="bogus", grid={"s0": [0.0]},
                            evaluate="final"),
                  on_run=lambda *a: seen.append(a[0]))
        assert seen == []

    def test_bad_grid_point_fails_before_any_dense_baseline(self):
        for grid, rate, message in (
                ({"tau": [0.2, 1.5]}, 0.2, "pruning rate"),
                ({"batch_size": [32, 0]}, 0.2, "batch size"),
                ({"lambda": [0.0]}, None, "requires a pruning rate")):
            seen = []
            with pytest.raises(ValueError, match=message):
                sweep(self.plan(algorithm="imp", grid=grid, evaluate="final",
                                round_cfg=cfg(iters_per_round=20,
                                              rewind_iter=2, prune_rate=rate)),
                      on_run=lambda *a: seen.append(a[0]))
            assert seen == []

    # a plan value that used to fail only inside every job, after the dense
    # baselines had been trained and handed to ``on_run``
    BAD_PLANS = {
        "supermask-two-rounds": ({"algorithm": "supermask"}, {"rounds": 2},
                                 "supermask search runs a single round"),
        "scope": ({"algorithm": "imp", "scope": "bogus"},
                  {"prune_rate": 0.2}, "unknown pruning scope 'bogus'"),
        "supermask-variant": ({"algorithm": "supermask", "supermask_variant":
                               "bogus"}, {"rounds": 1},
                              "unknown supermask variant 'bogus'"),
        "st-variant": ({"algorithm": "iss"}, {"st_variant": "bogus"},
                       "unknown straight-through variant 'bogus'"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_PLANS))
    def test_bad_plan_fails_before_any_job(self, case):
        plan_kw, round_kw, message = self.BAD_PLANS[case]
        seen = []
        with pytest.raises(ValueError, match=message):
            sweep(self.plan(grid={"s0": [0.0]}, seeds=(1,), evaluate="final",
                            round_cfg=cfg(iters_per_round=20, rewind_iter=2,
                                          **round_kw), **plan_kw),
                  on_run=lambda *a: seen.append(a[0]))
        assert seen == []

    def test_precision_does_not_leak_out_of_a_sweep(self):
        sweep(self.plan(grid={"s0": [0.0]}, seeds=(1,), evaluate="final",
                        precision="float32"))
        assert {a.dtype for a in MC.build(1).weight_arrays().values()} == {
            np.dtype(np.float64)}

    def test_precision_restored_after_a_failing_run(self, moons_pair):
        plan = self.plan(algorithm="imp", precision="float32",
                         round_cfg=cfg(iters_per_round=20, rewind_iter=2))
        set_default_dtype("float32")
        try:  # the setting before the run comes back, not float64
            sweep(replace(plan, precision="float64", evaluate="final",
                          grid={"tau": [0.2]}, seeds=(1,)))
            assert default_dtype() == np.float32
        finally:
            set_default_dtype("float64")
        bad = replace(plan, round_cfg=cfg(iters_per_round=20, rewind_iter=2,
                                          prune_rate=None))
        with pytest.raises(ValueError, match="pruning rate"):
            run_point(bad, {}, 1, *moons_pair)
        assert default_dtype() == np.float64

    def test_searches_call_the_controller_bound_at_call_time(
            self, monkeypatch):
        calls = []

        def traced(*args, **kw):
            calls.append(kw["run_id"])
            return run_cs(*args, **kw)

        monkeypatch.setattr(H, "run_cs", traced)
        sweep(self.plan(grid={"s0": [0.0]}, seeds=(1,)))
        assert calls == ["cs-s0=0-seed1"]
        assert list(SEARCHES) == ["cs", "imp", "iss", "seqcs", "supermask"]

    def test_spearman_matches_scipy_on_ties_and_constants(self):
        from scipy.stats import spearmanr
        rng = np.random.default_rng(0)
        cases = [([1, 2, 3], [5, 5, 5]), ([2, 2], [1, 3]),
                 ([0.1, 0.2, 0.3, 0.4], [0.9, 0.9, 0.5, 0.5])]
        for _ in range(300):
            n = int(rng.integers(2, 9))
            cases.append((rng.integers(0, 3, n) * 0.1,
                          rng.integers(0, 4, n).astype(float)))
        for x, y in cases:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = float(spearmanr(x, y).statistic)
            got = H._spearman(list(x), list(y))
            assert got == want or (np.isnan(got) and np.isnan(want)), (x, y)

    def test_spearman_reported_for_s0_sweep(self):
        report = sweep(self.plan(grid={"s0": [-0.3, 0.0, 0.3]}, seeds=(1,)))
        assert report.spearman_s0 is not None
        assert report.spearman_s0 > 0

    def test_relative_to_first_grid_point_columns(self):
        report = sweep(self.plan(grid={"s0": [-0.3, 0.0, 0.3]}, seeds=(1, 2),
                                 evaluate="final"))
        first = [r for r in report.rows if r.grid["s0"] == -0.3]
        base_rem = float(np.median([r.remaining_frac for r in first]))
        for r in report.rows:
            assert r.remaining_rel_first is not None
            assert abs(r.remaining_rel_first
                       - (r.remaining_frac - base_rem)) < 1e-15
            assert r.accuracy_rel_first is not None

    def test_fine_tune_evaluation_mode(self):
        report = sweep(self.plan(grid={"s0": [0.0]}, seeds=(1,),
                                 evaluate="final", eval_mode="fine-tune"))
        rows = [r for r in report.rows if r.error is None]
        assert rows and all(r.accuracy is not None for r in rows)
        assert any(r.split == "finetune_test" for r in report.records)

    def test_float32_precision_mode_end_to_end(self):
        from ticketlab.tensor import set_default_dtype
        try:
            report = sweep(self.plan(grid={"s0": [0.0]}, seeds=(1,),
                                     evaluate="final", precision="float32"))
        finally:
            set_default_dtype("float64")
        rows = [r for r in report.rows if r.error is None]
        assert rows and rows[0].accuracy is not None

    def test_supermask_plan_scores_frozen_masked_net(self):
        report = sweep(self.plan(algorithm="supermask",
                                 round_cfg=cfg(rounds=1, iters_per_round=20),
                                 grid={"s0": [0.0]}, seeds=(1,),
                                 evaluate="final"))
        rows = [r for r in report.rows if r.error is None]
        assert rows and all(r.accuracy is not None for r in rows)
        assert any(r.split == "mask_test" for r in report.records)


class TestTicketRounds:
    def test_one_ticket_per_round(self, moons_pair):
        tickets = run_imp(MC.build(1), moons_pair[0],
                          cfg(rounds=3, prune_rate=0.2), seed=1)
        assert [(r, t) for r, _, t in ticket_rounds(tickets)] == [
            (1, tickets[0]), (2, tickets[1]), (3, tickets[2])]
        assert all(m is t.masks for _, m, t in ticket_rounds(tickets))

    def test_one_ticket_carrying_every_round(self, moons_pair):
        ticket = run_cs(MC.build(1), moons_pair[0], cfg(rounds=3), seed=1)
        rounds = ticket_rounds([ticket])
        assert [r for r, _, _ in rounds] == [1, 2, 3]
        assert [m for _, m, _ in rounds] == ticket.round_masks
        assert all(t is ticket for _, _, t in rounds)

    def test_single_round_of_either_shape(self, moons_pair):
        [imp] = run_imp(MC.build(1), moons_pair[0],
                        cfg(rounds=1, prune_rate=0.2), seed=1)
        [seq] = run_sequential_cs(MC.build(1), moons_pair[0],
                                  cfg(rounds=1, prune_rate=0.2), seed=1)
        for t in (imp, seq):
            assert ticket_rounds([t]) == [(1, t.masks, t)]


class TestRunInfoRecord:
    def test_stamps_the_run_constants(self):
        info = RunInfo(run_id="cs-seed3", algorithm="cs", seed=3, round=2,
                       lam=1e-8, s0=0.05)
        r = info.record(4, 96, "train", loss=0.5, beta=2.0)
        assert (r.run_id, r.algorithm, r.seed, r.round, r.epoch, r.iter,
                r.split, r.loss, r.beta, r.lam, r.s0) == (
            "cs-seed3", "cs", 3, 2, 4, 96, "train", 0.5, 2.0, 1e-8, 0.05)
        assert r.accuracy is None and r.remaining_frac is None


class TestCostAccounting:
    def mk(self, run_id, alg, epochs):
        return EvalRow(run_id, alg, 1, 5, 0.1, 0.9, cost_iters=epochs * 10,
                       cost_epochs=epochs)

    def test_parallel_and_sequential_totals(self):
        rows = [self.mk(f"cs-{i}", "cs", 425) for i in range(11)]
        totals = cost_accounting(rows)["cs"]
        assert totals["parallel_epochs"] == 425
        assert totals["sequential_epochs"] == 4675

    def test_single_run_parallel_equals_sequential(self):
        totals = cost_accounting([self.mk("imp-0", "imp", 2550)])["imp"]
        assert totals["parallel_epochs"] == totals["sequential_epochs"] == 2550

    def test_multiple_rows_per_run_counted_once(self):
        rows = [self.mk("cs-0", "cs", 425), self.mk("cs-0", "cs", 425)]
        assert cost_accounting(rows)["cs"]["sequential_epochs"] == 425


class TestSupermaskHelpers:
    def test_random_mask_matches_size(self):
        rng = np.random.default_rng(0)
        masks = {"a": np.array([1.0, 0.0, 1.0, 0.0]),
                 "b": np.array([1.0, 1.0, 0.0, 0.0])}
        rnd = random_mask_like(masks, rng)
        assert sum(m.sum() for m in rnd.values()) == 4
        assert all(rnd[k].shape == masks[k].shape for k in masks)

    def test_masked_accuracy_runs(self, moons_pair):
        _, test_ds = moons_pair
        model = MC.build(1)
        masks = {g.name: np.ones(g.weights.shape)
                 for g in model.maskable_groups()}
        acc = masked_accuracy(MC, model.weight_arrays(copy=True), masks,
                              test_ds, 1)
        assert 0.0 <= acc <= 1.0
