import hashlib
import os
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticketlab.data import DataConfig, Dataset, gen_two_moons
import ticketlab.harness as H
from ticketlab.harness import (SEARCHES, EvalRow, ExperimentPlan,
                               cost_accounting, dense_baseline,
                               eval_budget_iters,
                               finetune_ticket, masked_accuracy,
                               per_layer_sparsity, random_mask_like,
                               report_rows, retrain_ticket, run_point,
                               select_best_performing,
                               select_sparsest_matching, sweep, ticket_rounds)
from ticketlab.models import ModelConfig, build_mlp, stack_models
from ticketlab.optim import CompositeOptimizer, OptimizerConfig
from ticketlab.persist import RunRecord
from ticketlab.search import (RewindStore, RoundConfig, run_cs, run_imp,
                              run_sequential_cs, train_round)
from ticketlab.seeding import STREAM_SHUFFLE, seeded_rng
from ticketlab.tensor import (NonFiniteError, ShapeError, apply_op,
                              default_dtype, reset_tape, set_default_dtype)
from ticketlab.training import RunInfo, TrainCursor, evaluate, train


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

    def test_negative_iterations_rejected(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        with pytest.raises(ValueError, match="iterations must be >= 0, got -5"):
            train(model, train_ds, _opt(model, cfg()), -5, batch_size=32,
                  shuffle_rng=seeded_rng(1, STREAM_SHUFFLE))

    def test_loss_decreases_over_first_steps(self, moons_pair):
        train_ds, _ = moons_pair
        model = MC.build(1)
        c = cfg()
        rows = []
        # one step an epoch: each train row's loss is one step's
        train(model, train_ds, _opt(model, c), 50, batch_size=128,
              shuffle_rng=seeded_rng(1, STREAM_SHUFFLE), recorder=rows.append)
        losses = [r.loss for r in rows if r.split == "train"]
        assert len(losses) == 50
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

    def test_stacked_model_records_each_slice(self, moons_pair):
        train_ds, test_ds = moons_pair
        seeds = (1, 2, 3)
        infos = [RunInfo(run_id=f"run{s}", seed=s) for s in seeds]
        # 128 examples in batches of 48: 3 steps an epoch, the last short
        kw = dict(batch_size=48, test_data=test_ds, record_every=1)

        def stream(s):
            return seeded_rng(s, STREAM_SHUFFLE)

        alone = []
        for s, info in zip(seeds, infos):
            model, rows = MC.build(s), []
            train(model, train_ds, _opt(model, cfg()), 10,
                  shuffle_rng=stream(s), recorder=rows.append,
                  run_info=info, **kw)
            assert [r.split for r in rows] == ["train", "test"] * 3
            alone.append((rows, model.weight_arrays()))
        stack = stack_models([MC.build(s) for s in seeds])
        rows = [[], None, []]  # a None recorder drops its slice's rows
        train(stack, train_ds, _opt(stack, cfg()), 10,
              shuffle_rng=[stream(s) for s in seeds],
              recorder=[None if r is None else r.append for r in rows],
              run_info=infos, **kw)
        for i, (want, weights) in enumerate(alone):
            assert rows[i] is None or rows[i] == want, i
            for k, a in stack.weight_arrays().items():
                assert np.array_equal(a[i], weights[k]), k
        streams = [stream(s) for s in seeds]
        for bad in (dict(recorder=[rows[0].append]),
                    dict(run_info=infos[:2]),
                    dict(shuffle_rng=streams[:2]),
                    dict(shuffle_rng=stream(1))):  # one stream for all
            with pytest.raises(ValueError, match="a stack of 3 slices"):
                train(stack, train_ds, _opt(stack, cfg()), 1,
                      **{"shuffle_rng": streams, **bad}, **kw)
        # an unstacked model's list of one trains as its bare form does
        model, rows = MC.build(1), []
        train(model, train_ds, _opt(model, cfg()), 10,
              shuffle_rng=[stream(1)], recorder=[rows.append],
              run_info=[infos[0]], **kw)
        want, weights = alone[0]
        assert rows == want
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, weights[k]), k
        for bad in (dict(shuffle_rng=[stream(1), stream(2)]),
                    dict(run_info=infos[:2]),
                    dict(recorder=[rows.append] * 2)):
            with pytest.raises(ValueError, match="an unstacked model takes "
                                                 "one run info"):
                train(model, train_ds, _opt(model, cfg()), 1,
                      **{"shuffle_rng": [stream(1)], **bad}, **kw)

    def test_stacked_abort_names_the_first_diverging_slice(self,
                                                           moons_pair):
        models = [MC.build(s) for s in (1, 2, 3)]
        for m in models[1:]:  # NaN logits: a non-finite loss
            m.groups[0].weights.data[...] = np.nan
        stack = stack_models(models)
        rows = [[], [], []]
        with pytest.raises(NonFiniteError, match="non-finite loss at "
                                                 "iteration 0 of 'run2'"):
            train(stack, moons_pair[0], _opt(stack, cfg()), 4, batch_size=32,
                  shuffle_rng=[seeded_rng(s, STREAM_SHUFFLE)
                               for s in (1, 2, 3)],
                  recorder=[r.append for r in rows],
                  run_info=[RunInfo(run_id=f"run{s}") for s in (1, 2, 3)])
        assert [[(r.run_id, r.split, r.iter) for r in rs] for rs in rows] == [
            [(f"run{s}", "abort", 0)] for s in (1, 2, 3)]
        assert np.isfinite(rows[0][0].loss)
        assert not np.isfinite(rows[1][0].loss)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_gated_epoch_loss_is_the_mean_of_loss_and_penalty(
            self, moons_pair, monkeypatch, precision):
        import ticketlab.training as TR
        from ticketlab.masking import GATE_SOFT
        steps, pending = [], []  # each step's loss and its gates' penalties
        sce, make_gate = TR.softmax_cross_entropy, TR.gate

        def spy_gate(g, beta, lam=0.0, *args):
            made = make_gate(g, beta, lam, *args)
            if lam > 0.0:  # a training step's gate, not an evaluation's
                pending.append(made.penalty.copy())
            return made

        def spy_loss(logits, y):
            out = sce(logits, y)
            if out.requires_grad:  # on the tape: a training step's loss
                steps.append((out.data.copy(), list(pending)))
                pending.clear()
            return out

        monkeypatch.setattr(TR, "gate", spy_gate)
        monkeypatch.setattr(TR, "softmax_cross_entropy", spy_loss)
        train_ds, _ = moons_pair
        set_default_dtype(precision)
        try:
            model = MC.build(1)
            model.set_gate_mode(GATE_SOFT, 0.5)
            c = cfg()
            opt = CompositeOptimizer([
                c.weight_opt.build(model.weight_tensors()),
                c.mask_opt.build(model.mask_tensors())])
            rows = []
            # 128 examples in batches of 48: 3 steps an epoch
            train(model, train_ds, opt, 9, batch_size=48,
                  shuffle_rng=seeded_rng(1, STREAM_SHUFFLE), lam=0.1,
                  recorder=rows.append)
        finally:
            set_default_dtype("float64")
        assert len(steps) == 9
        assert all(len(pens) == 2 and all(p > 0 for p in pens)
                   for _, pens in steps)
        per_step = []
        for loss, pens in steps:
            for p in pens:
                loss = loss + p
            assert loss.dtype == np.dtype(precision)
            per_step.append(float(loss))
        want = [sum(per_step[i:i + 3]) / 3 for i in (0, 3, 6)]
        assert [r.loss for r in rows if r.split == "train"] == want
        # the bare losses would read lower
        assert want[0] > sum(float(loss) for loss, _ in steps[:3]) / 3

    def test_evaluating_on_an_empty_dataset_raises(self, moons_pair):
        model = MC.build(1)
        empty = Dataset(moons_pair[1].inputs[:0], moons_pair[1].labels[:0])
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(model, empty)

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

    def imp_plan(self, **kw):
        """An IMP plan over two pruning rates, its runs stacking."""
        base = dict(algorithm="imp", grid={"tau": [0.2, 0.4]},
                    round_cfg=cfg(iters_per_round=20, rewind_iter=2,
                                  prune_rate=0.2, rewind_between_rounds=True))
        base.update(kw)
        return self.plan(**base)

    @staticmethod
    def _seeds(seed) -> list:
        """The seeds of a ``SEARCHES`` call: a stack's list, or one run's."""
        return seed if isinstance(seed, list) else [seed]

    @staticmethod
    def _stack_sizes(monkeypatch) -> list:
        """The sizes of the units the next sweeps run, as they are made."""
        sizes, units = [], H._units

        def spy(plan, jobs):
            made = units(plan, jobs)
            sizes.append([len(u) for u in made])
            return made

        monkeypatch.setattr(H, "_units", spy)
        return sizes

    @staticmethod
    def _run_digests(digests: dict):
        """An ``on_run`` hook: each run's SHA-256 over its tickets' arrays
        and its records."""
        def hook(run_id, point, seed, tickets, records):
            h = hashlib.sha256(repr(records).encode())
            for t in tickets:
                for arrays in (t.masks, t.rewind.arrays, t.final_weights):
                    for k in sorted(arrays):
                        h.update(k.encode() + arrays[k].tobytes())
            digests[run_id] = h.hexdigest()
        return hook

    def test_imp_runs_stack_in_at_most_max_workers_units(self):
        def sizes(**kw):
            plan = self.imp_plan(**kw)
            points = H._expand_grid(plan.grid)
            jobs = [(None, s) for s in plan.seeds] + [
                (p, s) for p in points for s in plan.seeds]
            units = H._units(plan, jobs)
            order = [i for unit in units for i in unit]
            assert sorted(order) == list(range(len(jobs)))
            for unit in units:  # each unit in job order
                assert unit == sorted(unit)
            return [len(unit) for unit in units]

        # each seed's baseline rides in the unit of its first run
        assert sizes(max_workers=1) == [9]
        assert sizes(max_workers=2) == [6, 3]
        # seed 3's first run is in the second stack
        assert sizes(max_workers=4) == [4, 3, 1, 1]
        assert sizes(max_workers=9) == [2, 2, 2, 1, 1, 1]
        # runs whose configs differ in more than the pruning rate never
        # share a stack: rounds 1 and 2 split where they meet, and only
        # the runs of the plan's 2 rounds carry a baseline
        grid = {"tau": [0.2, 0.4], "rounds": [1, 2]}
        assert sizes(grid=grid, seeds=(1, 2)) == [4, 6]
        assert sizes(grid=grid, seeds=(1, 2), max_workers=3) == [
            3, 1, 4, 2]
        # no run carries a baseline trained for another budget: the
        # baselines of an MLP are one unit
        assert sizes(eval_budget=7) == [3, 6]
        assert sizes(grid={"tau": [0.2], "iters_per_round": [10, 30]},
                     seeds=(1, 2)) == [2, 2, 2]
        # every other search runs one by one, and a conv model's every run
        assert sizes(algorithm="cs") == [3] + [1] * 6
        assert sizes(model_cfg=ModelConfig(kind="conv2")) == [2, 2, 2] + [
            1] * 3
        assert sizes(model_cfg=ModelConfig(kind="conv2"),
                     eval_budget=7) == [1] * 9
        # a stack holds at most STACK_WEIGHTS parameters: a (2,256,256,2)
        # run's 67,074 search alone
        wide = ModelConfig(kind="mlp", widths=(2, 256, 256, 2))
        assert sizes(model_cfg=wide) == [2, 2, 2, 1, 1, 1]
        assert sizes(model_cfg=wide, max_workers=2) == [2, 2, 2, 1, 1, 1]
        # and so do its free baselines, so that workers can share them
        assert sizes(algorithm="cs", model_cfg=wide) == [1] * 9

    def test_stacks_split_by_conv_layers_and_weight_cap(self):
        items = list(range(5))
        conv = ModelConfig(kind="conv2").build(1)
        assert H._stacks(items, conv) == [[0], [1], [2], [3], [4]]
        # 4,482 parameters each: all five fit in one stack
        assert H._stacks(items, ModelConfig().build(1)) == [items]
        # 67,074 each: one per stack
        wide = ModelConfig(kind="mlp", widths=(2, 256, 256, 2)).build(1)
        assert H._stacks(items, wide) == [[0], [1], [2], [3], [4]]
        assert H._stacks([], wide) == []

    def test_failing_run_of_a_stack_is_its_own_error_row(self, monkeypatch):
        plan = self.imp_plan(evaluate="rounds")
        clean = {}
        sweep(plan, on_run=self._run_digests(clean))
        search = SEARCHES["imp"]

        def fails_for_seed_2(plan, model, data, cfg, seed, **kw):
            if 2 in self._seeds(seed):
                raise ValueError("search failed")
            return search(plan, model, data, cfg, seed=seed, **kw)

        monkeypatch.setitem(SEARCHES, "imp", fails_for_seed_2)
        sizes = self._stack_sizes(monkeypatch)
        failed = ["imp-tau=0.2-seed2", "imp-tau=0.4-seed2"]
        for workers in (1, 2):
            digests = {}
            report = sweep(replace(plan, max_workers=workers),
                           on_run=self._run_digests(digests))
            assert [(r.run_id, r.error) for r in report.rows
                    if r.error is not None] == [
                (run_id, "search failed") for run_id in failed], workers
            # every other run, and every baseline, is bitwise unchanged
            assert digests == {k: v for k, v in clean.items()
                               if k not in failed}, workers
        # each seed's baseline rides in the stack of its first run
        assert sizes == [[9], [6, 3]]

    def test_non_finite_evaluation_in_a_stack_fails_only_its_run(
            self, monkeypatch):
        plan = self.imp_plan(evaluate="rounds", grid={"tau": [0.2]})
        clean = {}
        sweep(plan, on_run=self._run_digests(clean))
        search = SEARCHES["imp"]

        def diverges_for_seed_2(plan, model, data, cfg, seed, **kw):
            result = search(plan, model, data, cfg, seed=seed, **kw)
            per_run = result if isinstance(seed, list) else [result]
            for s, tickets in zip(self._seeds(seed), per_run):
                if s == 2:  # its tickets share one rewind store
                    for a in tickets[0].rewind.arrays.values():
                        a *= 1e300
            return result

        monkeypatch.setitem(SEARCHES, "imp", diverges_for_seed_2)
        failed = "imp-tau=0.2-seed2"
        with pytest.raises(NonFiniteError) as alone:
            run_point(plan, {"tau": 0.2}, 2, *plan.validate())
        assert str(alone.value) == (f"non-finite loss at iteration 0 of "
                                    f"'{failed}'")
        sizes = self._stack_sizes(monkeypatch)
        for workers in (1, 2):
            digests = {}
            report = sweep(replace(plan, max_workers=workers),
                           on_run=self._run_digests(digests))
            assert [(r.run_id, r.error) for r in report.rows
                    if r.error is not None] == [(failed, str(alone.value))]
            # no record of the stack that diverged reaches the other runs
            assert digests == {k: v for k, v in clean.items()
                               if k != failed}, workers
        assert sizes == [[6], [4, 2]]

    def test_unpicklable_result_of_a_stack_fails_only_its_run(
            self, monkeypatch):
        search = SEARCHES["imp"]

        def unpicklable_for_seed_2(plan, model, data, cfg, seed, **kw):
            result = search(plan, model, data, cfg, seed=seed, **kw)
            per_run = result if isinstance(seed, list) else [result]
            for s, tickets in zip(self._seeds(seed), per_run):
                if s == 2:
                    tickets[-1].final_weights = {"lock": threading.Lock()}
            return result

        monkeypatch.setitem(SEARCHES, "imp", unpicklable_for_seed_2)
        sizes = self._stack_sizes(monkeypatch)
        report = sweep(self.imp_plan(max_workers=2))
        assert sizes == [[3, 3]]
        failed = [r.run_id for r in report.rows if r.error is not None]
        assert failed == ["imp-tau=0.2-seed2", "imp-tau=0.4-seed2"]
        assert "pickle" in report.rows[1].error

    def test_dead_worker_fails_only_the_runs_of_its_stack(
            self, monkeypatch, tmp_path):
        search = SEARCHES["imp"]
        arrived = tmp_path / "first-stack-arrived"

        def dies_in_the_second_stack(plan, model, data, cfg, seed, **kw):
            if isinstance(cfg, list) and cfg[0].prune_rate == 0.4:
                # once the first stack's runs have reached the hook
                deadline = time.monotonic() + 60
                while not arrived.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(3)  # the forked worker inherits this patch
            return search(plan, model, data, cfg, seed=seed, **kw)

        def hook(run_id, *_):
            seen.append(run_id)
            arrived.touch()

        monkeypatch.setitem(SEARCHES, "imp", dies_in_the_second_stack)
        sizes = self._stack_sizes(monkeypatch)
        seen = []
        report = sweep(self.imp_plan(seeds=(1, 2), max_workers=2),
                       on_run=hook)
        assert sizes == [[2, 2]]
        assert seen == ["imp-tau=0.2-seed1", "imp-tau=0.2-seed2"]
        assert [r.run_id for r in report.rows if r.error is None] == seen
        errors = [r for r in report.rows if r.error is not None]
        assert [r.run_id for r in errors] == ["imp-tau=0.4-seed1",
                                              "imp-tau=0.4-seed2"]
        assert all("BrokenProcessPool" in r.error for r in errors)

    def test_integer_grid_fields_take_integral_values(self):
        # float values, as the CLI parses every grid value
        grid = {"rounds": [1.0, 2.0], "batch_size": [16.0, 32.0],
                "record_every": [1.0]}
        seen = []
        report = sweep(self.imp_plan(grid=grid, seeds=(1,),
                                     evaluate="rounds"),
                       on_run=lambda run_id, point, seed, tickets, _:
                       seen.extend(t.config for t in tickets))
        assert not [r.error for r in report.rows if r.error is not None]
        assert len(report.rows) == 2 * (1 + 2)
        assert {(c.rounds, c.batch_size, c.record_every) for c in seen} == {
            (1, 16, 1), (1, 32, 1), (2, 16, 1), (2, 32, 1)}
        assert all(type(v) is int for c in seen
                   for v in (c.rounds, c.batch_size, c.record_every))

    @pytest.mark.parametrize("key", ["batch_size", "rounds",
                                     "iters_per_round", "rewind_iter",
                                     "record_every"])
    def test_non_integral_value_of_an_integer_field_fails_before_any_job(
            self, key):
        seen = []
        with pytest.raises(ValueError, match=f"sweep parameter '{key}' "
                                             f"takes whole numbers, got 3.5"):
            sweep(self.imp_plan(grid={key: [3.0, 3.5]}, evaluate="final"),
                  on_run=lambda *a: seen.append(a[0]))
        assert seen == []

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
        trains, search = H.train_tickets, SEARCHES["cs"]
        seen, searched = [], []

        def baseline(model_cfg, tickets, *args, **kw):
            # the baselines train as one stack, then, once it has raised,
            # one at a time
            if fails_in == "job" and "dense-seed2" in [
                    info.run_id for _, _, info, _ in tickets]:
                raise ValueError("baseline diverged")
            return trains(model_cfg, tickets, *args, **kw)

        def counted(plan, model, data, c, seed, **kw):
            searched.append(seed)
            return search(plan, model, data, c, seed=seed, **kw)

        def hook(run_id, point, seed, tickets, records):
            seen.append(run_id)
            if fails_in == "hook" and run_id == "dense-seed2":
                raise OSError("baseline diverged")

        monkeypatch.setattr(H, "train_tickets", baseline)
        monkeypatch.setitem(SEARCHES, "cs", counted)
        with pytest.raises(RuntimeError, match="^baseline diverged$"):
            sweep(self.plan(grid={"s0": [-0.1, 0.1]}, seeds=(1, 2),
                            evaluate="final", max_workers=workers),
                  on_run=hook)
        assert seen == {"job": ["dense-seed1"],
                        "hook": ["dense-seed1", "dense-seed2"]}[fails_in]
        assert searched == []  # forked workers' calls are not seen here

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("iters, message", [
        # one step leaves weights whose test logits overflow
        (1, "non-finite test loss of 'dense-seed1'"),
        (2, "non-finite loss at iteration 1 of 'dense-seed1'"),
    ], ids=["test-loss", "round-1"])
    def test_failing_carried_baseline_ends_the_sweep(self, monkeypatch, iters,
                                                     message):
        plan = self.imp_plan(
            evaluate="final", seeds=(1, 2),
            round_cfg=cfg(iters_per_round=iters, rewind_iter=0,
                          prune_rate=0.2, weight_opt=OptimizerConfig(
                              "sgd", lr=1e300, momentum=0.9)))
        search, searched = SEARCHES["imp"], []

        def counted(plan, model, data, c, seed, **kw):
            searched.append(seed)
            return search(plan, model, data, c, seed=seed, **kw)

        monkeypatch.setitem(SEARCHES, "imp", counted)
        sizes = self._stack_sizes(monkeypatch)
        for workers in (1, 2):
            seen = []
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                sweep(replace(plan, max_workers=workers),
                      on_run=lambda run_id, *_: seen.append(run_id))
            assert seen == []
        assert sizes == [[6], [4, 2]]
        # the stack ran once; once its baseline had failed alone, none of
        # its searches reran (forked workers' calls are not seen here)
        assert searched == [[1, 2, 1, 2]]

    def test_dead_worker_of_a_carrier_unit_keeps_its_baselines(
            self, monkeypatch, tmp_path):
        plan = self.imp_plan(evaluate="final", seeds=(1, 2),
                             grid={"tau": [0.2]}, max_workers=2)
        clean = {}
        sweep(plan, on_run=self._run_digests(clean))
        search = SEARCHES["imp"]
        arrived = tmp_path / "seed-1-arrived"

        def dies_with_seed_2(plan, model, data, cfg, seed, **kw):
            if seed == 2:  # once seed 1's unit has reached the hook
                deadline = time.monotonic() + 60
                while not arrived.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(3)  # the forked worker inherits this patch
            return search(plan, model, data, cfg, seed=seed, **kw)

        def hook(run_id, point, seed, tickets, records):
            digest(run_id, point, seed, tickets, records)
            arrived.touch()

        monkeypatch.setitem(SEARCHES, "imp", dies_with_seed_2)
        sizes = self._stack_sizes(monkeypatch)
        digests = {}
        digest = self._run_digests(digests)
        report = sweep(plan, on_run=hook)
        assert sizes == [[2, 2]]
        # seed 2's baseline trained again in the sweep's own process
        assert digests == {k: v for k, v in clean.items()
                           if k != "imp-tau=0.2-seed2"}
        assert list(digests) == ["dense-seed1", "dense-seed2",
                                 "imp-tau=0.2-seed1"]
        [error] = [r for r in report.rows if r.error is not None]
        assert error.run_id == "imp-tau=0.2-seed2"
        assert "BrokenProcessPool" in error.error

    def test_dense_plan_validates_but_is_no_sweep(self):
        plan = self.plan(algorithm="dense", grid={}, evaluate="final")
        plan.validate()
        seen = []
        with pytest.raises(ValueError, match="a sweep runs a search, not 'dense'"):
            sweep(plan, on_run=lambda *a: seen.append(a[0]))
        assert seen == []

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

    @pytest.mark.parametrize("grid, seeds, run_id", [
        ({"tau": [0.2]}, (1, 1), "imp-tau=0.2-seed1"),
        ({"tau": [0.2, 0.3, 0.2]}, (1,), "imp-tau=0.2-seed1"),
        ({"tau": [0.1, 0.1000001]}, (2,), "imp-tau=0.1-seed2"),
        ({"rounds": [2, 2.0]}, (1,), "imp-rounds=2-seed1"),
    ], ids=["seeds", "values", "printed-alike", "int-and-float"])
    def test_runs_sharing_a_run_id_fail_before_any_job(self, grid, seeds,
                                                       run_id):
        seen = []
        with pytest.raises(ValueError, match=f"share the run id '{run_id}'"):
            sweep(self.plan(algorithm="imp", grid=grid, seeds=seeds,
                            evaluate="final",
                            round_cfg=cfg(iters_per_round=20, rewind_iter=2,
                                          prune_rate=0.2)),
                  on_run=lambda *a: seen.append(a[0]))
        assert seen == []

    def test_grid_parameter_without_values_fails_before_any_job(self):
        seen = []
        with pytest.raises(ValueError, match="sweep parameter 'tau' has no values"):
            sweep(self.plan(algorithm="imp", grid={"s0": [0.1], "tau": []},
                            evaluate="final",
                            round_cfg=cfg(iters_per_round=20, rewind_iter=2,
                                          prune_rate=0.2)),
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
        "eval-budget-0": ({"eval_budget": 0}, {},
                          "evaluation budget must be >= 1 iteration, got 0"),
        "eval-budget-negative": ({"eval_budget": -5}, {},
                                 "evaluation budget must be >= 1 iteration, "
                                 "got -5"),
        "precision": ({"precision": "float16"}, {},
                      "unknown precision mode 'float16'"),
        "dense-grid": ({"algorithm": "dense"}, {},
                       "a dense baseline has no sweep grid"),
        "empty-training-set": ({"data_cfg": DataConfig(n_train=0, n_test=64,
                                                       seed=7)}, {},
                               "the training set is empty"),
        "empty-test-set": ({"data_cfg": DataConfig(n_train=64, n_test=0,
                                                   seed=7)}, {},
                           "the test set is empty"),
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


def _digest(rows, records) -> str:
    """SHA-256 over the reprs of report rows and records."""
    h = hashlib.sha256()
    for item in list(rows) + list(records):
        h.update(repr(item).encode())
    return h.hexdigest()


def _one_ticket_at_a_time(plan, point, seed, train_ds, test_ds):
    """``run_point``'s result when its search runs unstacked and each
    evaluated ticket (``plan.evaluate`` "final" or "rounds") is trained
    alone, by ``retrain_ticket`` or ``finetune_ticket``."""
    records = []
    with H._precision(plan.precision):
        c = H._apply_point(plan.round_cfg, point)
        run_id = H._run_id(plan.algorithm, point, seed)
        tickets = SEARCHES[plan.algorithm](
            plan, plan.model_cfg.build(seed), train_ds, c, seed=seed,
            run_id=run_id, recorder=records.append)
        final = tickets[-1]
        budget = eval_budget_iters(plan.eval_budget, c)
        for round_idx, masks, ticket in (
                ticket_rounds(tickets) if plan.evaluate == "rounds"
                else [(final.round, final.masks, final)]):
            if plan.eval_mode == "fine-tune":
                finetune_ticket(plan.model_cfg, ticket, train_ds, test_ds, c,
                                budget, seed, finetune_lr=plan.finetune_lr,
                                run_id=run_id, round_idx=round_idx,
                                recorder=records.append)
            else:
                retrain_ticket(plan.model_cfg, masks, ticket.rewind, train_ds,
                               test_ds, c, budget, seed, run_id=run_id,
                               algorithm=ticket.algorithm,
                               round_idx=round_idx, recorder=records.append)
        rows, _ = report_rows(records, final.iters_per_epoch)
    for row in rows:
        row.grid = dict(point)
    if plan.evaluate == "final":
        rows[0].per_layer = per_layer_sparsity(final.masks,
                                               plan.model_cfg.build(seed))
    return tickets, rows, records


def _tickets_digest(tickets) -> str:
    """SHA-256 over every array the tickets carry: masks, round masks,
    rewind arrays and final weights."""
    h = hashlib.sha256()
    for t in tickets:
        for arrays in [t.masks, t.rewind.arrays, t.final_weights,
                       *t.round_masks]:
            for k in sorted(arrays):
                h.update(k.encode() + np.ascontiguousarray(arrays[k]).tobytes())
    return h.hexdigest()


def _images(side: int):
    """32 training and 16 test images of ``side`` x ``side``."""
    rng = np.random.default_rng(0)
    x = rng.random((48, 1, side, side)) * 0.2
    y = rng.integers(0, 2, 48)
    x[y == 1, :, :side // 2] += 0.6
    flip = rng.random(48) < 0.3  # noisy labels keep accuracies below 1
    y = np.where(flip, 1 - y, y)
    return Dataset(x[:32], y[:32]), Dataset(x[32:], y[32:])


@pytest.fixture(scope="module")
def image_pair():
    return _images(8)


MLP_32 = ModelConfig(kind="mlp", widths=(2, 32, 32, 2))
# a conv model, whose tickets retrain one at a time
CONV6 = ModelConfig(kind="conv6-scaled", in_shape=(1, 8, 8), num_classes=2)

# (model, algorithm, scope, evaluation mode, point, precision)
STACKED_CASES = [
    (MLP_32, "imp", "global", "retrain-from-k", {"tau": 0.3}, "float64"),
    (MLP_32, "imp", "per-layer", "retrain-from-k", {"tau": 0.3}, "float64"),
    (MLP_32, "imp", "global", "fine-tune", {"tau": 0.3}, "float64"),
    (MLP_32, "imp", "per-layer", "fine-tune", {"tau": 0.3}, "float32"),
    (MLP_32, "cs", "global", "retrain-from-k", {"s0": 0.05}, "float64"),
    (MLP_32, "cs", "global", "fine-tune", {"s0": 0.05}, "float64"),
    (MLP_32, "seqcs", "global", "retrain-from-k", {"tau": 0.3}, "float64"),
    (MLP_32, "seqcs", "global", "fine-tune", {"tau": 0.3}, "float32"),
    (CONV6, "imp", "global", "retrain-from-k", {"tau": 0.3}, "float64"),
    (CONV6, "imp", "per-layer", "fine-tune", {"tau": 0.3}, "float32"),
    (CONV6, "cs", "global", "retrain-from-k", {"s0": 0.05}, "float64"),
    (CONV6, "seqcs", "global", "fine-tune", {"tau": 0.3}, "float64"),
]


class TestStackedTicketEvaluation:
    """``run_point`` trains an MLP run's evaluated tickets as one stack and
    a conv run's one at a time; every record and row equals training each
    ticket alone."""

    @staticmethod
    def plan(model_cfg, algorithm, scope, mode, precision):
        conv = model_cfg.kind != "mlp"
        round_cfg = RoundConfig(
            rounds=3, iters_per_round=6 if conv else 30, rewind_iter=2,
            batch_size=16 if conv else 32, record_every=0, prune_rate=0.3,
            mask_init=0.05, lr_milestones=(4,) if conv else (12, 24),
            rewind_between_rounds=algorithm == "imp")
        return ExperimentPlan(algorithm=algorithm, round_cfg=round_cfg,
                              model_cfg=model_cfg, evaluate="rounds",
                              eval_mode=mode, scope=scope,
                              finetune_lr=0.01, precision=precision)

    @pytest.mark.parametrize("model_cfg,algorithm,scope,mode,point,precision",
                             STACKED_CASES)
    def test_records_and_rows_equal_one_ticket_at_a_time(
            self, model_cfg, algorithm, scope, mode, point, precision,
            moons_pair, image_pair):
        data = moons_pair if model_cfg.kind == "mlp" else image_pair
        plan = self.plan(model_cfg, algorithm, scope, mode, precision)
        tickets, rows, records = run_point(plan, point, 1, *data)
        assert len(rows) == 3
        _, *want = _one_ticket_at_a_time(plan, point, 1, *data)
        assert _digest(rows, records) == _digest(*want)

    def test_each_slice_trains_to_its_tickets_own_weights(self, moons_pair):
        plan = self.plan(MLP_32, "imp", "global", "retrain-from-k", "float64")
        c = replace(plan.round_cfg, prune_rate=0.3)
        train_ds, test_ds = moons_pair
        tickets = run_imp(MLP_32.build(2), train_ds, c, "global", seed=2)
        info = RunInfo(seed=2)

        def trained(model, k):  # the accuracies of k slices of seed 2
            train_round(model, train_ds, c, 8,
                        [seeded_rng(2, STREAM_SHUFFLE) for _ in range(k)],
                        [info] * k, [None] * k)
            return H._test_accuracies(model, test_ds, [info] * k)

        models = [H._masked_model(MLP_32, 2, t.masks, t.rewind.arrays)
                  for t in tickets]
        stack = stack_models(models)
        accs = trained(stack, len(models))
        for k, model in enumerate(models):
            assert [accs[k]] == trained(model, 1)
            for name, a in model.weight_arrays().items():
                assert np.array_equal(stack.weight_arrays()[name][k], a)

    def test_conv_tickets_never_stack(self, image_pair, monkeypatch):
        plan = self.plan(CONV6, "imp", "global", "retrain-from-k", "float64")
        stacked = []
        monkeypatch.setattr(H, "stack_models", stacked.append)
        _, rows, _ = run_point(plan, {"tau": 0.3}, 1, *image_pair)
        assert len(rows) == 3 and stacked == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("over", [
        {},
        # one step's gradient is finite, but the weights it leaves give
        # overflowing test logits: a NaN test loss, not an accuracy
        {"evaluate": "final", "eval_budget": 1},
    ])
    def test_non_finite_ticket_turns_its_run_into_an_error_row(self, over):
        plan = replace(self.plan(MLP_32, "imp", "global", "fine-tune",
                                 "float64"),
                       finetune_lr=1e300, grid={"tau": [0.3]}, seeds=(1,),
                       data_cfg=DataConfig(n_train=64, n_test=64, seed=7),
                       **over)
        report = sweep(plan)
        [row] = [r for r in report.rows if r.error is not None]
        assert row.run_id == "imp-tau=0.3-seed1"
        assert "non-finite" in row.error and row.run_id in row.error


class TestStackedUnits:
    """A unit of several jobs (``_run_jobs``) searches its IMP runs as one
    stack, then trains every evaluated ticket of them, or every dense
    baseline, as one more stack; each job's result is bitwise what it
    gives alone."""

    UNIT = [({"tau": 0.2}, 1), ({"tau": 0.2}, 2), ({"tau": 0.5}, 3)]

    @staticmethod
    def plan(evaluate="rounds", mode="retrain-from-k", precision="float64",
             **round_kw):
        round_cfg = dict(rounds=3, iters_per_round=30, rewind_iter=2,
                         batch_size=32, record_every=0, prune_rate=0.3,
                         lr_milestones=(12, 24), rewind_between_rounds=True)
        round_cfg.update(round_kw)
        return ExperimentPlan(algorithm="imp",
                              round_cfg=RoundConfig(**round_cfg),
                              model_cfg=MLP_32, evaluate=evaluate,
                              eval_mode=mode, finetune_lr=0.01,
                              precision=precision)

    @staticmethod
    def _stack_sizes(monkeypatch) -> list:
        """The number of models of each stack built from now on."""
        sizes, stack = [], H.stack_models

        def spy(models):
            sizes.append(len(models))
            return stack(models)

        monkeypatch.setattr(H, "stack_models", spy)
        return sizes

    def assert_each_run_alone(self, plan, unit, results, data):
        for (point, seed), (tickets, rows, records) in zip(unit, results):
            want_tickets, *want = _one_ticket_at_a_time(plan, point, seed,
                                                        *data)
            assert _tickets_digest(tickets) == _tickets_digest(want_tickets)
            assert _digest(rows, records) == _digest(*want)

    @pytest.mark.parametrize("evaluate,mode,precision,scope", [
        ("rounds", "retrain-from-k", "float64", "global"),
        ("final", "retrain-from-k", "float64", "per-layer"),
        ("rounds", "fine-tune", "float64", "global"),
        ("final", "fine-tune", "float32", "global"),
        ("rounds", "retrain-from-k", "float32", "per-layer"),
    ])
    def test_runs_equal_each_run_alone(self, evaluate, mode, precision,
                                       scope, moons_pair, monkeypatch):
        plan = replace(self.plan(evaluate, mode, precision), scope=scope)
        sizes = self._stack_sizes(monkeypatch)
        results = H._run_jobs(plan, self.UNIT, *moons_pair)
        # one stacked search, then one stack of the tickets that train: a
        # retrain of each run's final ticket (rounds 2 and 3 retrained the
        # others), or a fine-tune of every evaluated ticket
        assert sizes == [3, 9 if (evaluate, mode) == ("rounds", "fine-tune")
                         else 3]
        self.assert_each_run_alone(plan, self.UNIT, results, moons_pair)

    def test_tickets_beyond_the_weight_cap_split_into_stacks(
            self, moons_pair, monkeypatch):
        plan = self.plan(mode="fine-tune")
        params = MLP_32.build(1).parameter_count()
        monkeypatch.setattr(H, "STACK_WEIGHTS", 4 * params)
        sizes = self._stack_sizes(monkeypatch)
        results = H._run_jobs(plan, self.UNIT, *moons_pair)
        # 9 fine-tuned tickets in stacks of at most 4: three of 3
        assert sizes == [3, 3, 3, 3]
        self.assert_each_run_alone(plan, self.UNIT, results, moons_pair)

    def test_runs_that_end_at_different_rounds(self, moons_pair,
                                               monkeypatch):
        plan = replace(self.plan(rounds=6),
                       model_cfg=ModelConfig(kind="mlp", widths=(2, 2, 2)))
        unit = [({"tau": 0.5}, 1), ({"tau": 0.9}, 1)]
        sizes = self._stack_sizes(monkeypatch)
        results = H._run_jobs(plan, unit, *moons_pair)
        # pruning is exhausted after rounds 4 and 2 of the 6
        assert [len(tickets) for tickets, _, _ in results] == [4, 2]
        assert sizes == [2, 2]
        self.assert_each_run_alone(plan, unit, results, moons_pair)

    @pytest.mark.parametrize("round_kw, plan_kw, stacks", [
        ({}, {"eval_mode": "fine-tune"}, [3, 9]),
        ({"rewind_between_rounds": False}, {}, [3, 9]),
        ({}, {"eval_budget": 20}, [3, 9]),
        ({}, {"eval_budget": 30}, [3, 3]),
    ], ids=["fine-tune", "no-rewind", "other-budget", "budget-of-a-round"])
    def test_rounds_retrain_only_under_the_carry_rule(
            self, moons_pair, monkeypatch, round_kw, plan_kw, stacks):
        # only a retrain of one round's budget from the rewind point is
        # what the next round of a rewinding IMP run trained
        plan = replace(self.plan(**round_kw), **plan_kw)
        sizes = self._stack_sizes(monkeypatch)
        results = H._run_jobs(plan, self.UNIT, *moons_pair)
        assert sizes == stacks
        self.assert_each_run_alone(plan, self.UNIT, results, moons_pair)

    def test_dense_baselines_equal_each_alone(self, moons_pair, monkeypatch):
        plan = self.plan(record_every=1)
        unit = [(None, 1), (None, 2), (None, 3)]
        sizes = self._stack_sizes(monkeypatch)
        results = H._run_jobs(plan, unit, *moons_pair)
        assert sizes == [3]
        for (_, seed), (tickets, rows, records) in zip(unit, results):
            want = []
            dense_baseline(MLP_32, *moons_pair, plan.round_cfg, 30, seed,
                           recorder=want.append)
            assert (tickets, rows) == ([], [])
            # 7 epochs of 4 batches in the budget of 30 iterations
            assert [r.split for r in records] == ["train", "test"] * 7 + [
                "final_test"]
            assert _digest([], records) == _digest([], want)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("unit, record_every, stacks", [
        ([(None, 1), (None, 2), (None, 3)] + UNIT, 1, [3, 3]),
        # seed 2's carrier is slice 1, after a slice that carries nothing
        ([(None, 2), ({"tau": 0.2}, 1), ({"tau": 0.5}, 2)], 2, [2, 2]),
    ], ids=["every-slice", "second-slice"])
    def test_carried_baselines_equal_each_alone(self, moons_pair,
                                                monkeypatch, precision, unit,
                                                record_every, stacks):
        # per-epoch train and test rows, with learning-rate milestones
        plan = self.plan(precision=precision, record_every=record_every)
        dense = sum(point is None for point, _ in unit)
        sizes = self._stack_sizes(monkeypatch)
        results = H._run_jobs(plan, unit, *moons_pair)
        # one stacked search, whose round 1 trained the baselines, then
        # one stack of every run's final ticket
        assert sizes == stacks
        for (_, seed), (tickets, rows, records) in zip(unit, results[:dense]):
            want = []
            with H._precision(precision):
                dense_baseline(MLP_32, *moons_pair, plan.round_cfg, 30, seed,
                               recorder=want.append)
            assert (tickets, rows) == ([], [])
            # 7 epochs of 4 batches in the budget of 30 iterations
            assert [r.split for r in records] == ["train", "test"] * (
                7 // record_every) + ["final_test"]
            assert _digest([], records) == _digest([], want)
        # the runs keep their own records: no test rows
        self.assert_each_run_alone(plan, unit[dense:], results[dense:],
                                   moons_pair)

    def test_a_baseline_without_its_carrier_fails_the_unit(self,
                                                           moons_pair):
        unit = [(None, 1), ({"tau": 0.2}, 2)]
        with pytest.raises(ValueError, match="no run of the unit carries "
                                             "'dense-seed1'"):
            H._run_jobs(self.plan(), unit, *moons_pair)
        with pytest.raises(ValueError, match="carries 'dense-seed2'"):
            H._run_jobs(replace(self.plan(), eval_budget=20),
                        [(None, 2), ({"tau": 0.2}, 2)], *moons_pair)

    def test_conv_sweep_trains_every_job_alone(self, image_pair,
                                               monkeypatch):
        conv2 = ModelConfig(kind="conv2", in_shape=(1, 8, 8), num_classes=2)
        plan = replace(self.plan(rounds=2, iters_per_round=4, batch_size=16,
                                 lr_milestones=(2,)),
                       model_cfg=conv2, seeds=(1, 2), grid={"tau": [0.3]})
        sizes = self._stack_sizes(monkeypatch)
        report = H.run_sweep(plan, *image_pair)
        assert sizes == []
        assert [r.error for r in report.rows] == [None] * 4
        for seed in (1, 2):
            dense = []
            dense_baseline(conv2, *image_pair, plan.round_cfg, 4, seed,
                           recorder=dense.append)
            _, _, records = _one_ticket_at_a_time(plan, {"tau": 0.3}, seed,
                                                  *image_pair)
            for run_id, want in ((f"dense-seed{seed}", dense),
                                 (f"imp-tau=0.3-seed{seed}", records)):
                got = [r for r in report.records if r.run_id == run_id]
                assert _digest([], got) == _digest([], want)


class TestRoundsRetrainTheirPreviousTicket:
    """Round r + 1 of a rewinding IMP run trains ticket r's masks from the
    rewind point with a fresh optimizer, the round's milestones and a fresh
    shuffle stream: bitwise what ``retrain_ticket`` trains from ticket r
    on a budget of one round."""

    @staticmethod
    def retrained(monkeypatch, model_cfg, ticket, data, c) -> dict:
        """The weights ``retrain_ticket`` trains from ``ticket``."""
        trained = []

        def spy(model, *args, **kw):
            done = train_round(model, *args, **kw)
            trained.append(model.weight_arrays(copy=True))
            return done

        with monkeypatch.context() as m:
            m.setattr(H, "train_round", spy)
            retrain_ticket(model_cfg, ticket.masks, ticket.rewind, *data, c,
                           c.iters_per_round, ticket.seed)
        [weights] = trained
        return weights

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("stacked", [False, True],
                             ids=["alone", "stacked"])
    @pytest.mark.parametrize("widths, rounds, runs, lengths", [
        ((2, 32, 32, 2), 3, [(1, 0.2), (2, 0.3), (3, 0.5)], [3, 3, 3]),
        # pruning is exhausted after rounds 4, 2 and 6 of the 6
        ((2, 2, 2), 6, [(1, 0.5), (2, 0.9), (3, 0.2)], [4, 2, 6]),
    ], ids=["every-round", "exhausted"])
    def test_next_round_is_the_tickets_retrain(self, moons_pair, monkeypatch,
                                               precision, stacked, widths,
                                               rounds, runs, lengths):
        model_cfg = ModelConfig(kind="mlp", widths=widths)
        c = RoundConfig(rounds=rounds, iters_per_round=30, rewind_iter=2,
                        batch_size=32, record_every=0, lr_milestones=(12, 24),
                        rewind_between_rounds=True)
        cfgs = [replace(c, prune_rate=tau) for _, tau in runs]
        seeds = [seed for seed, _ in runs]
        ids = [f"imp-{seed}" for seed in seeds]
        with H._precision(precision):
            if stacked:
                searched = run_imp(
                    stack_models([model_cfg.build(s) for s in seeds]),
                    moons_pair[0], cfgs, seed=seeds, run_id=ids)
            else:
                searched = [run_imp(model_cfg.build(seed), moons_pair[0], cc,
                                    seed=seed, run_id=run_id)
                            for seed, cc, run_id in zip(seeds, cfgs, ids)]
            assert [len(tickets) for tickets in searched] == lengths
            for tickets, cc in zip(searched, cfgs):
                for ticket, after in zip(tickets, tickets[1:]):
                    want = self.retrained(monkeypatch, model_cfg, ticket,
                                          moons_pair, cc)
                    got = after.final_weights
                    assert want.keys() == got.keys()
                    for name, a in want.items():
                        assert a.dtype == got[name].dtype == precision
                        assert a.tobytes() == got[name].tobytes()
