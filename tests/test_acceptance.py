"""Acceptance suite: ten criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Budgets are desk-scale (two-moons data, small MLPs); every
tolerance is pinned in the assertions below.
"""
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import ticketlab.search as S
from ticketlab import tensor as T
from ticketlab.data import DataConfig
from ticketlab.harness import (ExperimentPlan, dense_baseline,
                               masked_accuracy, random_mask_like,
                               retrain_ticket, sweep)
from ticketlab.masking import GATE_SOFT
from ticketlab.models import ModelConfig, build_mlp
from ticketlab.optim import CompositeOptimizer, OptimizerConfig
from ticketlab.persist import load_checkpoint, save_checkpoint
from ticketlab.search import RoundConfig, run_cs, run_imp, run_supermask
from ticketlab.seeding import STREAM_EVAL, STREAM_SHUFFLE, seeded_rng
from ticketlab.tensor import (Tensor, backward, reset_tape,
                              softmax_cross_entropy)
from ticketlab.training import (TrainCursor, capture_train_state,
                                restore_train_state, train)

from .helpers import check_grad, continuation_gaps, fd_grads, max_rel_err

MC = ModelConfig(kind="mlp", widths=(2, 64, 64, 2))
DATA = DataConfig(n_train=256, n_test=256, noise_sd=0.1, seed=7)


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


@pytest.fixture(scope="module")
def moons_pair():
    return DATA.build()


@pytest.fixture(scope="module")
def s0_sweep_report():
    """Shared by criteria 3 and 4: 11 mask-init values x 3 seeds, 5 rounds
    of 500 iterations each, sparsity only (no re-training)."""
    plan = ExperimentPlan(
        algorithm="cs",
        round_cfg=RoundConfig(rounds=5, iters_per_round=500, rewind_iter=16,
                              lam=1e-8, beta_final=200.0, batch_size=32,
                              record_every=0),
        model_cfg=MC, data_cfg=DATA, seeds=(1, 2, 3),
        grid={"s0": [float(v) for v in np.linspace(-0.3, 0.3, 11)]},
        evaluate="none", max_workers=2)
    return sweep(plan)


def test_criterion_1_gradient_correctness():
    start = time.time()
    from ticketlab.tensor import (add, add_bias, add_channel_bias, conv2d,
                                  matmul, max_pool2d, mul, relu, reshape,
                                  scale, sigmoid, tensor_sum)

    def op_cases(rng):
        return {
            "matmul": (lambda a, b: matmul(a, b),
                       [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]),
            "add": (lambda a, b: add(a, b),
                    [rng.standard_normal((3, 3)), rng.standard_normal((3, 3))]),
            "mul": (lambda a, b: mul(a, b),
                    [rng.standard_normal((3, 3)), rng.standard_normal((3, 3))]),
            "scale": (lambda a: scale(a, -2.3), [rng.standard_normal(6)]),
            "relu": (lambda a: relu(a),
                     [rng.standard_normal((4, 4)) + np.sign(rng.standard_normal((4, 4))) * 0.05]),
            "sigmoid": (lambda a: sigmoid(a), [rng.standard_normal((4, 4))]),
            "add_bias": (lambda x, b: add_bias(x, b),
                         [rng.standard_normal((3, 4)), rng.standard_normal(4)]),
            "add_channel_bias": (lambda x, b: add_channel_bias(x, b),
                                 [rng.standard_normal((2, 3, 2, 2)),
                                  rng.standard_normal(3)]),
            "conv2d": (lambda x, k: conv2d(x, k, stride=1, padding=1),
                       [rng.standard_normal((1, 2, 4, 4)),
                        rng.standard_normal((2, 2, 3, 3))]),
            "max_pool2d": (lambda x: max_pool2d(x),
                           [rng.standard_normal((1, 2, 4, 4))]),
            "reshape": (lambda a: reshape(a, (6, 2)),
                        [rng.standard_normal((3, 4))]),
            "sum": (lambda a: tensor_sum(a), [rng.standard_normal((5, 3))]),
            "softmax_ce": (lambda l, y=rng.integers(0, 3, 4):
                           softmax_cross_entropy(l, y),
                           [rng.standard_normal((4, 3))]),
        }

    worst_by_op = {}
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, (build, arrays) in op_cases(rng).items():
            err = check_grad(build, arrays)
            worst_by_op[name] = max(worst_by_op.get(name, 0.0), err)
    assert all(v < 1e-4 for v in worst_by_op.values()), worst_by_op

    # composite gated objective on a 2-16-2 MLP: loss + L1 gate penalty
    lam, beta = 1e-2, 7.0
    worst_comp = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((8, 2))
        y = rng.integers(0, 2, 8)
        model = build_mlp([2, 16, 2], seed=seed)
        model.set_gate_mode(GATE_SOFT)
        for g in model.maskable_groups():
            g.mask_logits.data = rng.standard_normal(g.weights.shape) * 0.3
        params = (model.weight_tensors() + model.mask_tensors())
        arrays = [p.data for p in params]

        def objective():
            from ticketlab.masking import gate_penalty
            logits = model.forward(Tensor(x), beta=beta)
            loss = softmax_cross_entropy(logits, y)
            for g in model.maskable_groups():
                loss = T.add(loss, gate_penalty(g, beta, lam))
            return loss

        def scalar():
            with T.no_grad():
                return float(objective().data)

        reset_tape()
        backward(objective())
        fd = fd_grads(scalar, arrays)
        worst_comp = max(worst_comp,
                         max(max_rel_err(p.grad, f)
                             for p, f in zip(params, fd)))
    elapsed = time.time() - start
    assert worst_comp < 1e-4
    assert elapsed < 60.0
    print(f"\nCRITERION 1 (gradient correctness): PASS - "
          f"per-op worst {max(worst_by_op.values()):.2e}, "
          f"composite worst {worst_comp:.2e}, {elapsed:.1f}s")


def test_criterion_2_continuation_limit():
    start = time.time()
    gaps = continuation_gaps([1.0, 10.0, 100.0, 1000.0], seed=12, lam=1e-2)
    assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 1e-6, gaps
    print(f"\nCRITERION 2 (continuation limit): PASS - gaps "
          + " > ".join(f"{g:.3e}" for g in gaps)
          + f", {time.time() - start:.1f}s")


def test_criterion_3_cost_independence(s0_sweep_report):
    rows = [r for r in s0_sweep_report.rows if r.error is None]
    assert len(rows) == 33
    assert all(r.cost_iters == 2500 for r in rows)
    print("\nCRITERION 3 (cost independence): PASS - "
          f"all {len(rows)} runs executed exactly 2500 iterations")


def test_criterion_4_sparsity_monotone_in_mask_init(s0_sweep_report):
    report = s0_sweep_report
    values = sorted({r.grid["s0"] for r in report.rows if r.error is None})
    medians = []
    for v in values:
        rem = [r.remaining_frac for r in report.rows
               if r.error is None and r.grid["s0"] == v]
        assert len(rem) == 3
        medians.append(float(np.median(rem)))
    rho = float(spearmanr(values, medians).statistic)
    assert rho >= 0.9, (values, medians, rho)
    assert report.spearman_s0 is not None and report.spearman_s0 >= 0.9
    print(f"\nCRITERION 4 (sparsity monotone in s0): PASS - Spearman "
          f"{rho:.3f}; medians {['%.3f' % m for m in medians]}")


def test_criterion_5_ticket_quality(moons_pair):
    start = time.time()
    train_ds, test_ds = moons_pair
    cfg = RoundConfig(rounds=5, iters_per_round=500, rewind_iter=16,
                      lam=1e-8, beta_final=200.0, mask_init=0.0,
                      batch_size=32, record_every=0)
    dense_accs, ticket_accs, remainings = [], [], []
    for seed in (1, 2, 3, 4, 5):
        dense_accs.append(dense_baseline(MC, train_ds, test_ds, cfg, 500,
                                         seed))
        res = run_cs(MC.build(seed), train_ds, cfg, seed=seed)
        row = retrain_ticket(MC, res.masks, res.rewind, train_ds, test_ds,
                             cfg, 500, seed)
        ticket_accs.append(row.accuracy)
        remainings.append(row.remaining_frac)
    dense = float(np.mean(dense_accs))
    med_acc = float(np.median(ticket_accs))
    med_rem = float(np.median(remainings))
    elapsed = time.time() - start
    assert med_rem <= 0.5, remainings
    assert med_acc >= dense - 0.01, (ticket_accs, dense)
    assert elapsed < 300.0
    print(f"\nCRITERION 5 (ticket quality): PASS - median remaining "
          f"{100 * med_rem:.1f}%, median re-trained accuracy {med_acc:.4f} "
          f"vs dense {dense:.4f}, {elapsed:.1f}s")


def test_criterion_6_imp_contract(moons_pair, monkeypatch):
    train_ds, _ = moons_pair
    starts = []
    orig = S.train

    def spy(model, *a, **kw):
        starts.append(model.weight_arrays(copy=True))
        return orig(model, *a, **kw)

    monkeypatch.setattr(S, "train", spy)
    cfg = RoundConfig(rounds=10, iters_per_round=100, rewind_iter=8,
                      prune_rate=0.2, rewind_between_rounds=True,
                      batch_size=32, record_every=0)
    model = MC.build(1)
    d = sum(g.weights.size for g in model.maskable_groups())
    tickets = run_imp(model, train_ds, cfg, "global", seed=1)
    assert len(tickets) == 10

    counts = [sum(int(m.sum()) for m in t.masks.values()) for t in tickets]
    for r, count in enumerate(counts, start=1):
        assert abs(count - d * 0.8 ** r) <= r, (r, count, d * 0.8 ** r)
    for prev, nxt in zip(tickets, tickets[1:]):
        for name in prev.masks:
            assert np.all(nxt.masks[name] <= prev.masks[name])
    store = tickets[0].rewind.arrays
    for snap in starts[1:]:
        for k in store:
            assert np.array_equal(snap[k], store[k])
    print(f"\nCRITERION 6 (magnitude-pruning contract): PASS - counts "
          f"{counts} vs geometric targets, masks nested, rewind bitwise")


def test_criterion_7_saturated_gate_dense_equivalence(moons_pair):
    train_ds, test_ds = moons_pair
    seed = 1
    cfg = RoundConfig(rounds=1, iters_per_round=500, rewind_iter=0, lam=0.0,
                      beta_final=200.0, mask_init=10.0, batch_size=32,
                      record_every=0)
    dense = MC.build(seed)
    opt = CompositeOptimizer([cfg.weight_opt.build(dense.weight_tensors())])
    train(dense, train_ds, opt, 500, batch_size=32,
          shuffle_rng=seeded_rng(seed, STREAM_SHUFFLE), cursor=TrainCursor())
    with T.no_grad():
        dense_pred = dense.forward(Tensor(test_ds.inputs)).data.argmax(axis=1)

    gated = MC.build(seed)
    res = run_cs(gated, train_ds, cfg, seed=seed)
    assert all(float(m.mean()) == 1.0 for m in res.masks.values())
    gated.apply_hard_masks(res.masks)
    with T.no_grad():
        gated_pred = gated.forward(Tensor(test_ds.inputs)).data.argmax(axis=1)
    agree = int((dense_pred == gated_pred).sum())
    assert agree == len(test_ds), f"{agree}/{len(test_ds)} agree"
    print(f"\nCRITERION 7 (saturated-gate dense equivalence): PASS - "
          f"argmax identical on all {len(test_ds)} test points")


def test_criterion_8_supermask_beats_random(moons_pair):
    train_ds, test_ds = moons_pair
    cfg = RoundConfig(rounds=1, iters_per_round=800, rewind_iter=0, lam=1e-8,
                      beta_final=200.0, mask_init=0.0, batch_size=32,
                      record_every=0)
    margins = []
    for seed in (1, 2, 3, 4, 5):
        model = MC.build(seed)
        before = model.weight_arrays(copy=True)
        res = run_supermask(model, train_ds, cfg, "soft", seed=seed)
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, before[k])
        acc = masked_accuracy(MC, res.rewind.arrays, res.masks, test_ds, seed)
        rnd = random_mask_like(res.masks, seeded_rng(seed, STREAM_EVAL))
        rnd_acc = masked_accuracy(MC, res.rewind.arrays, rnd, test_ds, seed)
        margins.append(acc - rnd_acc)
    med = float(np.median(margins))
    assert med >= 0.05, margins
    print(f"\nCRITERION 8 (supermask vs random mask): PASS - median margin "
          f"{100 * med:.1f} points, frozen weights bitwise unchanged")


def test_criterion_9_deterministic_gates_learn_faster(moons_pair):
    train_ds, _ = moons_pair
    epochs = 100
    iters = epochs * 8  # 256/32 = 8 iterations per epoch
    rows = []
    ratios = []
    for seed in (1, 2, 3, 4, 5):
        ss_cfg = RoundConfig(rounds=1, iters_per_round=iters, lam=1e-8,
                             mask_init=0.0, batch_size=32, record_every=1,
                             mask_opt=OptimizerConfig("sgd", lr=20.0,
                                                      momentum=0.0,
                                                      weight_decay=0.0))
        ss = run_supermask(MC.build(seed), train_ds, ss_cfg, "stochastic",
                           seed=seed)
        ss_curve = [(r.epoch, r.accuracy) for r in ss.records
                    if r.split == "train"]
        ss_final = ss_curve[-1][1]

        cs_cfg = RoundConfig(rounds=1, iters_per_round=iters, lam=1e-8,
                             beta_final=200.0, mask_init=0.0, batch_size=32,
                             record_every=1)
        cs = run_supermask(MC.build(seed), train_ds, cs_cfg, "soft",
                           seed=seed)
        cs_curve = [(r.epoch, r.accuracy) for r in cs.records
                    if r.split == "train"]
        reach = next((e for e, a in cs_curve if a >= ss_final), epochs + 1)
        ratios.append(reach / epochs)
        rows.append((seed, ss_final, ss.remaining_fraction, reach,
                     cs.remaining_fraction))
    med_ratio = float(np.median(ratios))
    table = ["  seed | stoch final acc | stoch rem | det reaches it | det rem",
             "  -----+-----------------+-----------+----------------+--------"]
    for seed, ss_final, ss_rem, reach, cs_rem in rows:
        table.append(f"  {seed:4d} | {ss_final:15.4f} | {ss_rem:9.2f} | "
                     f"epoch {reach:8d} | {cs_rem:6.2f}")
    print("\n" + "\n".join(table))
    if med_ratio <= 0.5:
        print(f"CRITERION 9 (deterministic gates learn faster): PASS - "
              f"median {med_ratio:.2f} of the stochastic budget (<= 0.50)")
    elif med_ratio <= 0.55:
        print(f"CRITERION 9: PASS (within 10% band) - median {med_ratio:.2f};"
              " comparison table above for review")
    assert med_ratio <= 0.55, (ratios, "see comparison table")


def test_criterion_10_persistence(tmp_path, moons_pair):
    train_ds, test_ds = moons_pair

    # (a) save/load/resume equals uninterrupted training, bitwise
    def pieces(seed=3):
        cfg = RoundConfig(rounds=1, iters_per_round=150, rewind_iter=0,
                          batch_size=32, record_every=0)
        model = MC.build(seed)
        model.set_gate_mode(GATE_SOFT, 0.05)
        opt = CompositeOptimizer([
            cfg.weight_opt.build(model.weight_tensors()),
            cfg.mask_opt.build(model.mask_tensors())])
        from ticketlab.masking import TemperatureSchedule
        return cfg, model, opt, TemperatureSchedule(cfg.beta_final, 150)

    cfg, model, opt, sched = pieces()
    rng = seeded_rng(3, STREAM_SHUFFLE)
    cur = TrainCursor()
    train(model, train_ds, opt, 150, batch_size=32, shuffle_rng=rng,
          schedule=sched, lam=cfg.lam, cursor=cur)
    straight = {k: v.copy() for k, v in model.weight_arrays().items()}

    cfg, model, opt, sched = pieces()
    rng = seeded_rng(3, STREAM_SHUFFLE)
    cur = TrainCursor()
    train(model, train_ds, opt, 100, batch_size=32, shuffle_rng=rng,
          schedule=sched, lam=cfg.lam, cursor=cur)
    arrays, meta = capture_train_state(model, opt, cur, rng, schedule=sched)
    save_checkpoint(tmp_path / "resume.ckpt", arrays, meta)

    cfg, model2, opt2, sched2 = pieces()
    rng2 = seeded_rng(777, STREAM_SHUFFLE)
    cur2 = TrainCursor()
    a2, m2 = load_checkpoint(tmp_path / "resume.ckpt")
    restore_train_state(a2, m2, model2, opt2, cur2, rng2, schedule=sched2)
    train(model2, train_ds, opt2, 50, batch_size=32, shuffle_rng=rng2,
          schedule=sched2, lam=cfg.lam, cursor=cur2, start_iteration=100)
    for k, v in model2.weight_arrays().items():
        assert np.array_equal(v, straight[k]), k

    # (b) stored CSVs reproduce the original selection exactly
    import json

    from ticketlab.cli import main, recompute_report
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(json.dumps({
        "dataset": {"n_train": 128, "n_test": 128, "noise_sd": 0.1, "seed": 7},
        "model": {"kind": "mlp", "widths": [2, 16, 2]},
        "round": {"rounds": 2, "iters_per_round": 32, "rewind_iter": 4,
                  "batch_size": 32, "record_every": 0},
        "evaluation": {"evaluate": "rounds", "budget_iters": 32},
    }))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", str(cfg_path), "--grid", "s0=-0.1,0.0,0.1",
               "--seeds", "1,2", "--out", str(out)])
    assert rc == 0
    stored = json.loads((out / "report.json").read_text())
    recomputed = recompute_report(out)
    assert recomputed["dense_accuracy"] == stored["dense_accuracy"]
    for key in ("sparsest_matching", "best_performing"):
        a, b = stored.get(key), recomputed.get(key)
        if a is None:
            assert b is None
        else:
            assert (a["run_id"], a["round"], a["accuracy"],
                    a["remaining_frac"]) == \
                   (b["run_id"], b["round"], b["accuracy"],
                    b["remaining_frac"])
    print("\nCRITERION 10 (persistence): PASS - resume bitwise-equal, "
          "report recomputation matches stored selections")
