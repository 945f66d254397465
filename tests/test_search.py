import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.stats import spearmanr

import ticketlab.masking as M
import ticketlab.search as S
import ticketlab.training as TR
from ticketlab import tensor as T
from ticketlab.data import gen_two_moons
from ticketlab.masking import GATE_HARD, GATE_STOCHASTIC, MaskedParameterGroup
from ticketlab.models import ModelConfig, build_mlp, stack_models
from ticketlab.optim import CompositeOptimizer, OptimizerConfig
from ticketlab.search import (RoundConfig, _select_lowest,
                              freeze_mask_and_finetune, run_cs, run_imp,
                              run_iss, run_sequential_cs, run_supermask)
from ticketlab.seeding import STREAM_SHUFFLE, seeded_rng
from ticketlab.tensor import Tensor, mul, reset_tape, set_default_dtype
from ticketlab.training import TrainCursor, train


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(128, 0.1, seed=7)


def quick_cfg(**kw):
    base = dict(rounds=2, iters_per_round=40, rewind_iter=4, lam=1e-8,
                beta_final=200.0, mask_init=0.0, batch_size=32,
                record_every=0)
    base.update(kw)
    return RoundConfig(**base)


def mlp(seed=1, widths=(2, 16, 2)):
    return build_mlp(list(widths), seed=seed)


class TestRoundConfig:
    def test_defaults_match_reference_hyperparameters(self):
        cfg = RoundConfig()
        assert cfg.lam == 1e-8
        assert cfg.beta_final == 200.0
        assert cfg.rewind_between_rounds is False

    def test_validation(self):
        with pytest.raises(ValueError):
            quick_cfg(rounds=0).validate()
        with pytest.raises(ValueError):
            quick_cfg(rewind_iter=40).validate()  # k must be < T
        with pytest.raises(ValueError):
            quick_cfg(prune_rate=1.0).validate()
        with pytest.raises(ValueError):
            quick_cfg(prune_rate=None).validate(need_rate=True)
        for bad, message in (({"batch_size": 0}, "batch size"),
                             ({"batch_size": -4}, "batch size"),
                             ({"record_every": -1}, "record_every"),
                             ({"st_variant": "bogus"}, "straight-through"),
                             ({"rounds": True}, "rounds must be an integer"),
                             ({"batch_size": 32.0}, "batch_size must be an "
                                                    "integer, got 32.0"),
                             ({"iters_per_round": 10.5}, "iters_per_round"),
                             ({"lr_milestones": (10, "20")},
                              r"lr_milestones\[1\] must be an integer"),
                             ({"lr_milestones": (10.7,)},
                              r"lr_milestones\[0\] must be an integer"),
                             ({"lr_milestones": (True,)},
                              r"lr_milestones\[0\] must be an integer"),
                             ({"lr_milestones": 10}, "must be a list"),
                             ({"lr_milestones": (10, -3)},
                              r"lr_milestones\[1\] must be >= 0, got -3")):
            with pytest.raises(ValueError, match=message):
                quick_cfg(**bad).validate()
        quick_cfg(record_every=0, batch_size=1,
                  lr_milestones=[0, 10, 100]).validate()


class TestSelectLowest:
    def _one_group(self, values, active=None):
        g = MaskedParameterGroup("g", Tensor(np.zeros(len(values))))
        vals = [np.asarray(values, dtype=float)]
        act = [np.ones(len(values), dtype=bool) if active is None
               else np.asarray(active)]
        return [g], vals, act

    def test_sort_and_cut_by_magnitude(self):
        w = np.array([0.1, -0.5, 0.2, 0.05, 0.3])
        groups, vals, act = self._one_group(np.abs(w))
        picks = _select_lowest(groups, vals, act, 0.4, "global")
        mask = np.ones(5)
        mask[picks[0]] = 0.0
        assert mask.tolist() == [0.0, 1.0, 1.0, 0.0, 1.0]

    def test_lowest_logits_removed(self):
        groups, vals, act = self._one_group([0.5, -0.1, 0.2, -0.4])
        picks = _select_lowest(groups, vals, act, 0.5, "global")
        assert sorted(picks[0].tolist()) == [1, 3]

    def test_ties_break_on_lowest_flat_index(self):
        groups, vals, act = self._one_group([0.3, 0.3, 0.3, 0.3])
        picks = _select_lowest(groups, vals, act, 0.5, "global")
        assert picks[0].tolist() == [0, 1]

    def test_floor_with_at_least_one(self):
        groups, vals, act = self._one_group([3.0, 1.0, 2.0])
        picks = _select_lowest(groups, vals, act, 0.2, "global")
        assert picks[0].tolist() == [1]  # floor(0.6) = 0, bumped to 1

    def test_exhausted_when_single_survivor(self):
        groups, vals, act = self._one_group([3.0, 1.0, 2.0],
                                            active=[False, True, False])
        assert _select_lowest(groups, vals, act, 0.5, "global") == []

    def test_per_layer_counts(self):
        g1 = MaskedParameterGroup("a", Tensor(np.zeros(10)))
        g2 = MaskedParameterGroup("b", Tensor(np.zeros(10)))
        rng = np.random.default_rng(0)
        vals = [rng.standard_normal(10), rng.standard_normal(10)]
        act = [np.ones(10, dtype=bool)] * 2
        picks = _select_lowest([g1, g2], vals, act, 0.2, "per-layer")
        assert [len(p) for p in picks] == [2, 2]


# Groups of up to 12 components whose values are drawn from a few levels,
# so that ties are common, with a random subset still active.
_levels = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 2.0])
_group = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(_levels, min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n)))
_groups = st.lists(_group, min_size=1, max_size=4)
_rates = st.floats(0.01, 0.99)
_props = settings(derandomize=True, database=None, max_examples=200,
                  deadline=None)


def _split(spec):
    groups = [MaskedParameterGroup(f"g{i}", Tensor(np.zeros(len(v))))
              for i, (v, _) in enumerate(spec)]
    return (groups, [np.asarray(v) for v, _ in spec],
            [np.asarray(a, dtype=bool) for _, a in spec])


def _expected_count(active: int, rate: float) -> int:
    n = int(np.floor(rate * active + 1e-9))
    return 1 if n == 0 and active > 1 else n


class TestSelectLowestProperties:
    @_props
    @given(_groups, _rates)
    def test_global_count_is_floor_or_one(self, spec, rate):
        groups, vals, act = _split(spec)
        picks = _select_lowest(groups, vals, act, rate, "global")
        n = _expected_count(sum(int(a.sum()) for a in act), rate)
        assert sum(p.size for p in picks) == n
        if n == 0:
            assert picks == []

    @_props
    @given(_groups, _rates)
    def test_picks_are_active_lowest_and_ties_break_on_flat_index(
            self, spec, rate):
        groups, vals, act = _split(spec)
        picks = _select_lowest(groups, vals, act, rate, "global")
        # every active component as (value, group, flat index), in order
        ranked = sorted((v[i], gi, i) for gi, (v, a) in enumerate(
            zip(vals, act)) for i in np.flatnonzero(a))
        taken = ranked[:sum(p.size for p in picks)]
        assert sorted((gi, i) for _, gi, i in taken) == sorted(
            (gi, int(i)) for gi, p in enumerate(picks) for i in p)

    @_props
    @given(_groups, _rates)
    def test_per_layer_is_the_global_cut_of_each_group(self, spec, rate):
        groups, vals, act = _split(spec)
        picks = _select_lowest(groups, vals, act, rate, "per-layer")
        alone = [_select_lowest([g], [v], [a], rate, "global")
                 for g, v, a in zip(groups, vals, act)]
        if not any(alone):
            assert picks == []
            return
        for p, a, one in zip(picks, act, alone):
            assert p.dtype == np.int64
            assert p.tolist() == (one[0].tolist() if one else [])
            assert p.size == _expected_count(int(a.sum()), rate)

    @_props
    @given(st.lists(st.integers(1, 12), min_size=1, max_size=3), _rates,
           st.sampled_from(["global", "per-layer"]), st.integers(0, 2**16))
    def test_imp_masks_nested_across_rounds(self, sizes, rate, scope, seed):
        rng = np.random.default_rng(seed)
        groups = [MaskedParameterGroup(f"g{i}", Tensor(rng.standard_normal(n)))
                  for i, n in enumerate(sizes)]
        for g in groups:
            g.init_gate(GATE_HARD)
        cfg = RoundConfig(prune_rate=rate)
        previous = {g.name: np.ones(g.weights.shape) for g in groups}
        for _ in range(6):
            for g in groups:  # training moves the weights between rounds
                g.weights.data += 0.5 * rng.standard_normal(g.weights.shape)
            masks, exhausted = S._magnitude_cut(groups, cfg, None, scope)
            for name, m in masks.items():
                assert np.all(m <= previous[name])
            if exhausted:
                assert all(np.array_equal(masks[k], previous[k])
                           for k in masks)
                break
            assert sum(m.sum() for m in masks.values()) < sum(
                m.sum() for m in previous.values())
            previous = masks


class TestRunCS:
    def test_iteration_count_is_rounds_times_iters(self, moons):
        res = run_cs(mlp(), moons, quick_cfg(rounds=3), seed=1)
        assert res.total_iterations == 3 * 40

    def test_masks_exactly_binary_and_consistent(self, moons):
        res = run_cs(mlp(), moons, quick_cfg(), seed=1)
        for name, m in res.masks.items():
            assert set(np.unique(m)).issubset({0.0, 1.0})
        total = sum(m.size for m in res.masks.values())
        kept = sum(m.sum() for m in res.masks.values())
        assert res.remaining_fraction == kept / total

    def test_final_mask_equals_hard_step_of_logits(self, moons):
        model = mlp()
        res = run_cs(model, moons, quick_cfg(), seed=1)
        for g in model.maskable_groups():
            assert np.array_equal(res.masks[g.name],
                                  (g.mask_logits.data > 0).astype(float))

    def test_requires_maskable_groups(self, moons):
        model = build_mlp([2, 8, 2], maskable=[False, False], seed=1)
        with pytest.raises(ValueError):
            run_cs(model, moons, quick_cfg(), seed=1)

    def test_rewind_snapshot_taken_at_k(self, moons, monkeypatch):
        model = mlp(seed=5)
        init = model.weight_arrays(copy=True)
        res = run_cs(model, moons, quick_cfg(rewind_iter=0), seed=5)
        for k, a in res.rewind.arrays.items():
            assert np.array_equal(a, init[k])

    def test_ticket_rows_one_per_round(self, moons):
        res = run_cs(mlp(), moons, quick_cfg(rounds=5), seed=1)
        assert sum(r.split == "ticket" for r in res.records) == 5

    def test_saturated_gates_keep_everything(self, moons):
        res = run_cs(mlp(), moons, quick_cfg(rounds=1, lam=0.0,
                                             mask_init=10.0), seed=2)
        assert res.remaining_fraction == 1.0

    def test_rewinding_variant_restores_weights_each_round(self, moons,
                                                           monkeypatch):
        starts = []
        orig = S.train

        def spy(model, *a, **kw):
            starts.append(model.weight_arrays(copy=True))
            return orig(model, *a, **kw)

        monkeypatch.setattr(S, "train", spy)
        model = mlp(seed=11)
        res = run_cs(model, moons,
                     quick_cfg(rounds=3, rewind_between_rounds=True,
                               rewind_iter=4), seed=11)
        store = res.rewind.arrays
        for snap in starts[1:]:
            for k in store:
                assert np.array_equal(snap[k], store[k])

    def test_logits_continue_across_rounds_without_reset_to_init(self, moons):
        # suppressed components come back strongly negative after the reset
        model = mlp(seed=12)
        res = run_cs(model, moons, quick_cfg(rounds=2, mask_init=0.05),
                     seed=12)
        # any component pruned in round 1 and still pruned at the end must
        # have a logit far below the init (the reset multiplied it by beta)
        for g in model.maskable_groups():
            r1 = res.round_masks[0][g.name]
            final = res.masks[g.name]
            both_pruned = (r1 == 0) & (final == 0)
            if both_pruned.any():
                assert g.mask_logits.data[both_pruned].max() <= 0.05


class TestTapeShape:
    """What one training step records on the (2,64,64,2) MLP: the tape
    length seen by each backward pass and the sigmoid evaluations."""

    @staticmethod
    def _steps(monkeypatch, run, cfg):
        nodes, sigmoids = [], [0]
        backward = TR.backward

        def counting_backward(loss):
            nodes.append(len(T.active_tape()))
            return backward(loss)

        def counting(expit_fn):
            def wrapper(*args):
                sigmoids[0] += 1
                return expit_fn(*args)
            return wrapper

        monkeypatch.setattr(TR, "backward", counting_backward)
        monkeypatch.setattr(M, "expit", counting(M.expit))
        monkeypatch.setattr(T, "expit", counting(T.expit))
        model = mlp(widths=(2, 64, 64, 2))
        run(model, gen_two_moons(64, 0.1, seed=3), cfg, seed=1)
        return nodes, sigmoids[0]

    def test_cs_step_records_4_nodes_and_one_sigmoid_per_step(
            self, monkeypatch):
        cfg = quick_cfg(rounds=1, iters_per_round=2, rewind_iter=0, lam=1e-8)
        nodes, sigmoids = self._steps(monkeypatch, run_cs, cfg)
        # one per layer and the loss: 33 with one node per primitive op,
        # 15 with a gate, penalty and add node per group and a relu node
        # per hidden layer
        assert nodes == [4, 4]
        assert sigmoids == 2  # one over all soft groups per step

    def test_imp_step_records_4_nodes(self, monkeypatch):
        cfg = quick_cfg(rounds=1, iters_per_round=2, rewind_iter=0,
                        prune_rate=0.2)
        nodes, sigmoids = self._steps(monkeypatch, run_imp, cfg)
        assert nodes == [4, 4]  # 12 with a mul, matmul and bias per layer
        assert sigmoids == 0

    def test_iss_step_records_4_nodes_and_one_sigmoid_per_step(
            self, monkeypatch):
        for st_variant in ("identity", "sigmoid"):
            cfg = quick_cfg(rounds=1, iters_per_round=2, rewind_iter=0,
                            lam=1e-3, mask_init=1.0, st_variant=st_variant)
            nodes, sigmoids = self._steps(monkeypatch, run_iss, cfg)
            # 13 with a gate node, a penalty node and an add per group
            assert nodes == [4, 4], st_variant
            # one over all stochastic groups per step (2 with the penalty
            # on, 3 with the sigmoid straight-through), and one per group
            # for the ticket's draw
            assert sigmoids == 2 + 3, st_variant

    @staticmethod
    def _step_ops(monkeypatch, run, cfg, kind="conv6-scaled"):
        """The op of each node that each step records, for a search on the
        (2,64,64,2) MLP or on a conv preset over 8x8 images."""
        from ticketlab.data import Dataset
        from ticketlab.models import build_small_conv
        ops = []
        backward = TR.backward

        def recording_backward(loss):
            ops.append([node.op for node in T.active_tape().nodes])
            return backward(loss)

        monkeypatch.setattr(TR, "backward", recording_backward)
        if kind == "mlp":
            model, data = mlp(widths=(2, 64, 64, 2)), gen_two_moons(64, 0.1, 3)
        else:
            rng = np.random.default_rng(0)
            data = Dataset(rng.random((32, 1, 8, 8)), rng.integers(0, 2, 32))
            model = build_small_conv(kind, seed=1, in_shape=(1, 8, 8))
        run(model, data, cfg, seed=1)
        return ops

    # one node per layer: conv, pooling, flatten, dense head and the loss
    CONV6_OPS = (["conv_layer"] * 2 + ["max_pool2d"]) * 3 + [
        "reshape", "linear", "linear", "softmax_cross_entropy"]

    @pytest.mark.parametrize("kind, algorithm, expected", [
        ("mlp", "cs", ["linear"] * 3 + ["softmax_cross_entropy"]),
        ("mlp", "imp", ["linear"] * 3 + ["softmax_cross_entropy"]),
        ("conv2", "cs", ["conv_layer", "conv_layer", "max_pool2d", "reshape",
                         "linear", "linear", "softmax_cross_entropy"]),
    ], ids=["mlp-soft", "mlp-hard", "conv2-soft"])
    def test_step_records_one_node_per_layer(self, monkeypatch, kind,
                                             algorithm, expected):
        run = {"cs": run_cs, "imp": run_imp}[algorithm]
        cfg = quick_cfg(rounds=1, iters_per_round=2, rewind_iter=0,
                        batch_size=16, prune_rate=0.2)
        ops = self._step_ops(monkeypatch, run, cfg, kind)
        assert ops == [expected] * 2

    def test_conv6_cs_step_records_13_nodes_one_per_layer(self, monkeypatch):
        ops = self._step_ops(monkeypatch, run_cs, quick_cfg(
            rounds=1, iters_per_round=2, rewind_iter=0, batch_size=16))
        assert len(ops) == 2
        for step in ops:
            # 38 with a relu node per hidden layer and a gate, penalty and
            # add node per soft group; 50 with a mul and a bias node per conv
            assert step == self.CONV6_OPS

    def test_conv6_iss_step_records_13_nodes_one_per_layer(self, monkeypatch):
        ops = self._step_ops(monkeypatch, run_iss, quick_cfg(
            rounds=1, iters_per_round=2, rewind_iter=0, batch_size=16,
            lam=1e-3, mask_init=1.0))
        assert len(ops) == 2
        for step in ops:
            # 31 with a gate node, a penalty node and an add per conv group
            assert step == self.CONV6_OPS


class TestConvModelSearch:
    def test_cs_runs_on_small_conv_net(self):
        # gated search must work through conv kernels and pooling too
        rng = np.random.default_rng(0)
        n = 64
        x = rng.random((n, 1, 8, 8)) * 0.2
        y = rng.integers(0, 2, n)
        x[y == 1] += 0.6
        from ticketlab.data import Dataset
        from ticketlab.models import build_small_conv
        data = Dataset(x, y, "train")
        model = build_small_conv("conv2", seed=1, in_shape=(1, 8, 8),
                                 num_classes=2)
        res = run_cs(model, data, quick_cfg(rounds=2, iters_per_round=12,
                                            rewind_iter=2, batch_size=16),
                     seed=1)
        assert res.total_iterations == 24
        assert set(res.masks) == {g.name for g in model.maskable_groups()}
        for m in res.masks.values():
            assert set(np.unique(m)).issubset({0.0, 1.0})


class TestRunIMP:
    def test_remaining_counts_follow_geometric_floor(self, moons):
        model = mlp(widths=(2, 16, 2))
        d = sum(g.weights.size for g in model.maskable_groups())
        tickets = run_imp(model, moons, quick_cfg(rounds=4, prune_rate=0.2),
                          seed=1)
        count = d
        for t in tickets:
            count -= int(0.2 * count)
            kept = sum(int(m.sum()) for m in t.masks.values())
            assert kept == count

    def test_masks_nested_across_rounds(self, moons):
        tickets = run_imp(mlp(), moons, quick_cfg(rounds=4, prune_rate=0.3),
                          seed=1)
        for prev, nxt in zip(tickets, tickets[1:]):
            for name in prev.masks:
                assert np.all(nxt.masks[name] <= prev.masks[name])

    def test_rewind_fidelity_bitwise(self, moons, monkeypatch):
        # spy on round starts: weights must equal the stored iterate k
        starts = []
        orig = S.train

        def spy(model, *a, **kw):
            starts.append(model.weight_arrays(copy=True))
            return orig(model, *a, **kw)

        monkeypatch.setattr(S, "train", spy)
        model = mlp(seed=3)
        tickets = run_imp(model, moons,
                          quick_cfg(rounds=3, prune_rate=0.2, rewind_iter=4,
                                    rewind_between_rounds=True), seed=3)
        store = tickets[0].rewind.arrays
        for snap in starts[1:]:
            for k in store:
                assert np.array_equal(snap[k], store[k])
        # after the final rewind the model itself sits at the stored iterate
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, store[k])

    def test_rewind_with_k0_restores_initialization(self, moons):
        model = mlp(seed=9)
        init = model.weight_arrays(copy=True)
        run_imp(model, moons, quick_cfg(rounds=2, prune_rate=0.2,
                                        rewind_iter=0,
                                        rewind_between_rounds=True), seed=9)
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, init[k])

    def test_per_layer_scope_prunes_each_group(self, moons):
        model = mlp(widths=(2, 16, 2))
        tickets = run_imp(model, moons, quick_cfg(rounds=1, prune_rate=0.25),
                          scope="per-layer", seed=1)
        for g in model.maskable_groups():
            m = tickets[0].masks[g.name]
            assert int(m.size - m.sum()) == int(0.25 * m.size)

    def test_prune_exhausted_signal(self, moons):
        model = build_mlp([2, 1, 2], maskable=[True, False], seed=1)
        tickets = run_imp(model, moons, quick_cfg(rounds=10, prune_rate=0.5),
                          seed=1)
        assert tickets[-1].prune_exhausted
        assert len(tickets) < 10

    def test_requires_prune_rate(self, moons):
        with pytest.raises(ValueError):
            run_imp(mlp(), moons, quick_cfg(prune_rate=None), seed=1)

    def test_unknown_scope_fails_before_training(self, moons, monkeypatch):
        monkeypatch.setattr(S, "train", lambda *a, **kw: pytest.fail("trained"))
        with pytest.raises(ValueError, match="unknown pruning scope 'bogus'"):
            run_imp(mlp(), moons, quick_cfg(prune_rate=0.2), "bogus", seed=1)


def _run_digest(tickets) -> str:
    """SHA-256 of a run's tickets: every mask, round mask, rewind array and
    final weight array, bytes and dtype, the per-ticket fields and the
    records."""
    h = hashlib.sha256()
    for t in tickets:
        for arrays in (t.masks, *t.round_masks, t.rewind.arrays,
                       t.final_weights):
            for k in sorted(arrays):
                a = arrays[k]
                h.update(f"{k}:{a.dtype.str}:{a.shape}".encode())
                h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr((t.algorithm, t.run_id, t.seed, t.config, t.round,
                       t.total_iterations, t.iters_per_epoch,
                       t.remaining_per_round, t.prune_exhausted,
                       t.rewind.rewind_iter)).encode())
    h.update(repr(tickets[-1].records).encode())
    return h.hexdigest()


def _one_group_at_a_time(monkeypatch):
    """Have ``train`` and ``Model.forward`` form every gate alone: one
    ``masking.gate`` call, a batch of one, per group."""
    import ticketlab.models as MD

    class OneByOne:
        def __init__(self, groups):
            self.groups = list(groups)

        def __call__(self, *args, **kwargs):
            return {g.name: M.gate(g, *args, **kwargs) for g in self.groups}

    monkeypatch.setattr(TR, "GateSet", OneByOne)
    monkeypatch.setattr(MD, "GateSet", OneByOne)


class TestBatchedGates:
    """Every gated search gives bitwise the same tickets, weights and
    records whether each step's gates form together (``GateSet``) or one
    group at a time: the batch changes how many NumPy calls a step
    makes, not what they compute."""

    GATED = dict(lam=1e-3, mask_init=0.05, record_every=1)
    # name: (search, round config fields beyond GATED, search arguments)
    SEARCHES = {
        "cs": (run_cs, {}, ()),
        "cs-record-every-3": (run_cs, {"record_every": 3}, ()),
        "cs-rewind": (run_cs, {"rewind_between_rounds": True}, ()),
        "seqcs": (run_sequential_cs, {"prune_rate": 0.3}, ()),
        "iss-identity": (run_iss, {"mask_init": 1.0}, ()),
        "iss-sigmoid": (run_iss, {"mask_init": 1.0,
                                  "st_variant": "sigmoid"}, ()),
        "supermask-soft": (run_supermask, {"rounds": 1}, ("soft",)),
        "supermask-stochastic": (run_supermask,
                                 {"rounds": 1, "mask_init": 1.0},
                                 ("stochastic",)),
    }

    def search(self, name, data, model=None) -> str:
        fn, fields, args = self.SEARCHES[name]
        out = fn(model or mlp(widths=(2, 16, 16, 2)), data,
                 quick_cfg(**{**self.GATED, **fields}), *args, seed=1,
                 test_data=data)
        return _run_digest(out if isinstance(out, list) else [out])

    def test_a_record_set_builds_its_gates_once(self, moons, monkeypatch):
        """A recorded epoch forms its gates under ``no_grad``, so they wait
        for no gradient and the record set's next call reuses them: a
        10-epoch recorded CS round builds gates once per set
        (``masking._Batch.make``), and its records and ticket equal, byte
        for byte, those of the round with a fresh set at every call."""
        cfg = quick_cfg(**{**self.GATED, "rounds": 1})  # 10 epochs of 4

        def search():
            return run_cs(mlp(widths=(2, 16, 16, 2)), moons, cfg, seed=1,
                          test_data=moons)

        made, make = [], M._Batch.make
        with monkeypatch.context() as patch:
            patch.setattr(M._Batch, "make",
                          lambda batch: made.append(batch) or make(batch))
            kept = search()
        assert sum(r.split == "test" for r in kept.records) == 10
        assert len(made) == 2  # the step set's and the record set's

        class FreshEachCall(M.GateSet):
            def __call__(self, *args, **kwargs):
                return M.GateSet(self.groups)(*args, **kwargs)

        monkeypatch.setattr(TR, "GateSet", FreshEachCall)
        assert _run_digest([search()]) == _run_digest([kept])

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_search_is_bitwise_its_one_group_at_a_time_run(
            self, name, moons, monkeypatch):
        batched = self.search(name, moons)
        _one_group_at_a_time(monkeypatch)
        assert self.search(name, moons) == batched

    def test_float32_cs_search(self, moons, monkeypatch):
        set_default_dtype("float32")
        try:
            batched = self.search("cs", moons)
            _one_group_at_a_time(monkeypatch)
            assert self.search("cs", moons) == batched
        finally:
            set_default_dtype("float64")

    def test_conv2_cs_search(self, monkeypatch):
        from ticketlab.data import Dataset
        from ticketlab.models import build_small_conv
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((32, 1, 8, 8)), rng.integers(0, 2, 32))

        def search():
            return self.search("cs", data, build_small_conv(
                "conv2", seed=1, in_shape=(1, 8, 8)))

        batched = search()
        _one_group_at_a_time(monkeypatch)
        assert search() == batched

    def test_freeze_mask_and_finetune(self, moons, monkeypatch):
        def search() -> str:
            model, masks, records = freeze_mask_and_finetune(
                mlp(widths=(2, 16, 16, 2)), moons,
                quick_cfg(**self.GATED, rounds=1), freeze_at=24,
                finetune_iters=16, finetune_lr=0.05, seed=1,
                test_data=moons)
            h = hashlib.sha256()
            for arrays in (masks, model.weight_arrays()):
                for k in sorted(arrays):
                    h.update(f"{k}:{arrays[k].dtype.str}".encode())
                    h.update(arrays[k].tobytes())
            h.update(repr(records).encode())
            return h.hexdigest()

        batched = search()
        _one_group_at_a_time(monkeypatch)
        assert search() == batched


class TestGradientsWhereOptimizersReadThem:
    """Every search step writes each trained parameter's gradient into its
    optimizer's gradient arena, at the parameter's own offset, so the step
    gathers nothing: ``Optimizer._gather`` concatenates no array."""

    GATED = dict(lam=1e-3, mask_init=0.05, rounds=2, iters_per_round=2,
                 rewind_iter=0)
    SEARCHES = {
        "cs": (run_cs, {}, ()),
        "seqcs": (run_sequential_cs, {"prune_rate": 0.3}, ()),
        "iss": (run_iss, {"mask_init": 1.0}, ()),
        "supermask-soft": (run_supermask, {"rounds": 1}, ("soft",)),
        "supermask-stochastic": (run_supermask,
                                 {"rounds": 1, "mask_init": 1.0},
                                 ("stochastic",)),
    }

    @staticmethod
    def watch(monkeypatch) -> list:
        """Check every gradient as each optimizer step gathers them; the
        returned list collects each checked optimizer's parameter count."""
        from ticketlab.optim import Optimizer
        gather, seen = Optimizer._gather, []

        def forbidden(*args, **kwargs):
            raise AssertionError("the gradients were concatenated")

        def checking(opt):
            base = opt._grad.__array_interface__["data"][0]
            lo = 0
            for p in opt.params:
                assert p.grad is not None and p.grad is p.grad_dest
                assert p.grad.shape == p.data.shape
                assert p.grad.__array_interface__["data"][0] == (
                    base + lo * opt._grad.itemsize)
                assert np.shares_memory(p.grad, opt._grad)
                lo += p.data.size
            with monkeypatch.context() as m:
                m.setattr(np, "concatenate", forbidden)
                gather(opt)
            seen.append(len(opt.params))

        monkeypatch.setattr(Optimizer, "_gather", checking)
        return seen

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_gated_search(self, name, moons, monkeypatch):
        seen = self.watch(monkeypatch)
        fn, fields, args = self.SEARCHES[name]
        cfg = quick_cfg(**{**self.GATED, **fields})
        fn(mlp(widths=(2, 16, 16, 2)), moons, cfg, *args, seed=1)
        # at every step the weights and biases, unless frozen, then logits
        step = [3] if name.startswith("supermask") else [6, 3]
        assert seen == step * (cfg.rounds * cfg.iters_per_round)

    @pytest.mark.parametrize("name", ["cs", "iss"])
    def test_no_step_leaves_a_reference_cycle(self, name, moons):
        """A step's gates, gate buffers and gradients are freed as soon as
        nothing reads them: a cycle among them would keep every step's
        arrays alive until the garbage collector runs."""
        import gc
        fn, fields, args = self.SEARCHES[name]
        cfg = quick_cfg(**{**self.GATED, **fields, "record_every": 1})
        gc.collect()
        gc.disable()
        try:
            fn(mlp(widths=(2, 16, 16, 2)), moons, cfg, *args, seed=1,
               test_data=moons)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_stacked_imp(self, moons, monkeypatch):
        seen = self.watch(monkeypatch)
        model = stack_models([mlp(seed=s, widths=(2, 16, 16, 2))
                              for s in (1, 2, 3)])
        cfgs = [quick_cfg(rounds=2, iters_per_round=2, rewind_iter=0,
                          prune_rate=p) for p in (0.2, 0.3, 0.4)]
        run_imp(model, moons, cfgs, seed=[1, 2, 3], run_id=["a", "b", "c"])
        assert seen == [6] * 4

    def test_conv2_cs(self, monkeypatch):
        from ticketlab.data import Dataset
        from ticketlab.models import build_small_conv
        rng = np.random.default_rng(0)
        data = Dataset(rng.random((16, 1, 8, 8)), rng.integers(0, 2, 16))
        seen = self.watch(monkeypatch)
        run_cs(build_small_conv("conv2", seed=1, in_shape=(1, 8, 8)), data,
               quick_cfg(**self.GATED, batch_size=8), seed=1)
        assert len(seen) == 2 * 2 * 2 and all(seen)


class TestStackedIMP:
    """A stack of IMP runs (``run_imp`` on ``stack_models``) is its runs:
    every slice's tickets and records equal the run's alone, bitwise."""

    @staticmethod
    def runs_alone_and_stacked(data, runs, widths, scope, precision,
                               record_every, rewind=True):
        """Each ``(seed, tau)`` run's digest alone, then in one stack; and
        each stacked run's ticket count."""
        set_default_dtype(precision)
        try:
            mc = ModelConfig(kind="mlp", widths=tuple(widths))
            cfgs = [quick_cfg(rounds=6, iters_per_round=12, rewind_iter=2,
                              prune_rate=tau, record_every=record_every,
                              rewind_between_rounds=rewind)
                    for _, tau in runs]
            ids = [f"imp-{i}" for i in range(len(runs))]
            test_data = gen_two_moons(40, 0.1, seed=11)
            alone = []
            for (seed, _), c, run_id in zip(runs, cfgs, ids):
                sink = []
                tickets = run_imp(mc.build(seed), data, c, scope, seed=seed,
                                  run_id=run_id, test_data=test_data,
                                  recorder=sink.append)
                assert sink == tickets[-1].records
                alone.append(_run_digest(tickets))
            sinks = [[] for _ in runs]
            stack = stack_models([mc.build(seed) for seed, _ in runs])
            per_run = run_imp(stack, data, cfgs, scope,
                              seed=[seed for seed, _ in runs], run_id=ids,
                              test_data=test_data,
                              recorder=[s.append for s in sinks])
        finally:
            set_default_dtype("float64")
        for sink, tickets in zip(sinks, per_run):
            assert sink == tickets[-1].records
        return alone, [_run_digest(t) for t in per_run], [len(t)
                                                          for t in per_run]

    @settings(derandomize=True, database=None, max_examples=30,
              deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**16), st.floats(0.05, 0.95)),
                    min_size=1, max_size=4),
           st.sampled_from(["global", "per-layer"]),
           st.sampled_from(["float64", "float32"]),
           st.sampled_from([0, 1]),
           st.sampled_from([(2, 2, 2), (2, 8, 8, 2)]),
           st.booleans())
    @example([(1, 0.5), (2, 0.9)], "global", "float64", 1, (2, 2, 2), True)
    def test_each_slice_is_its_run_alone(self, moons, runs, scope, precision,
                                         record_every, widths, rewind):
        alone, stacked, _ = self.runs_alone_and_stacked(
            moons, runs, widths, scope, precision, record_every, rewind)
        assert stacked == alone

    def test_exhausted_runs_end_while_the_stack_trains_on(self, moons):
        alone, stacked, rounds = self.runs_alone_and_stacked(
            moons, [(1, 0.5), (2, 0.9), (3, 0.2)], (2, 2, 2), "global",
            "float64", 1)
        assert stacked == alone
        assert rounds == [4, 2, 6]

    def test_stacked_configs_differ_only_in_the_pruning_rate(self, moons):
        stack = stack_models([mlp(1), mlp(2)])
        cfgs = [quick_cfg(prune_rate=0.2), quick_cfg(prune_rate=0.4,
                                                      rounds=3)]
        with pytest.raises(ValueError, match="but for the pruning rate"):
            run_imp(stack, moons, cfgs, seed=[1, 2], run_id=["a", "b"])

    def test_only_a_hard_mask_search_stacks(self, moons):
        with pytest.raises(ValueError, match="only a hard-mask search"):
            run_cs(stack_models([mlp(1), mlp(2)]), moons, quick_cfg())


class TestShuffleStreams:
    """A rewinding IMP round starts its runs' shuffle streams afresh, as
    the retrain of the previous round's ticket does; every other search
    draws all of a run's rounds from one stream."""

    SEARCHES = {
        "imp-rewind": lambda m, d, c: run_imp(
            m, d, replace(c, rewind_between_rounds=True), seed=5),
        "imp": lambda m, d, c: run_imp(m, d, c, seed=5),
        "cs": lambda m, d, c: run_cs(m, d, c, seed=5),
        "cs-rewind": lambda m, d, c: run_cs(
            m, d, replace(c, rewind_between_rounds=True), seed=5),
        "iss": lambda m, d, c: run_iss(m, d, c, seed=5),
        "seqcs": lambda m, d, c: run_sequential_cs(m, d, c, seed=5),
        "seqcs-rewind": lambda m, d, c: run_sequential_cs(
            m, d, replace(c, rewind_between_rounds=True), seed=5),
        "imp-stack": lambda m, d, c: run_imp(
            stack_models([m, mlp(6)]), d, [replace(
                c, rewind_between_rounds=True)] * 2, seed=[5, 6],
            run_id=["a", "b"]),
    }

    @pytest.mark.parametrize("search, seeds", [
        ("imp-rewind", [5, 5, 5]), ("imp", [5]), ("cs", [5]),
        ("cs-rewind", [5]), ("iss", [5]), ("seqcs", [5]),
        ("seqcs-rewind", [5]), ("imp-stack", [5, 6] * 3)])
    def test_only_rewinding_imp_rounds_restart_the_stream(
            self, moons, monkeypatch, search, seeds):
        drawn, rng = [], S.seeded_rng

        def spy(seed, stream):
            if stream == STREAM_SHUFFLE:
                drawn.append(seed)
            return rng(seed, stream)

        monkeypatch.setattr(S, "seeded_rng", spy)
        self.SEARCHES[search](mlp(5), moons,
                              quick_cfg(rounds=3, prune_rate=0.2))
        assert drawn == seeds


class TestRunISS:
    def test_sentinel_components_stay_zero(self, moons):
        model = mlp(seed=4)
        res = run_iss(model, moons, quick_cfg(rounds=3, mask_init=1.0),
                      seed=4)
        frozen = {g.name: g.pruned_forever for g in model.maskable_groups()}
        assert any(f is not None and f.any() for f in frozen.values())
        rng = seeded_rng(123, 99)
        for g in model.maskable_groups():
            if g.pruned_forever is None:
                continue
            for _ in range(3):
                reset_tape()
                out = mul(g.weights, M.gate(g, 1.0, rng=rng))
                assert np.all(out.data[g.pruned_forever] == 0.0)

    def test_weights_rewound_between_rounds(self, moons, monkeypatch):
        starts = []
        orig = S.train

        def spy(model, *a, **kw):
            starts.append(model.weight_arrays(copy=True))
            return orig(model, *a, **kw)

        monkeypatch.setattr(S, "train", spy)
        model = mlp(seed=6)
        res = run_iss(model, moons, quick_cfg(rounds=3, rewind_iter=4),
                      seed=6)
        store = res.rewind.arrays
        for snap in starts[1:]:
            for k in store:
                assert np.array_equal(snap[k], store[k])

    def test_initial_keep_probability_at_unit_init(self):
        assert abs(expit(1.0) - 0.731) < 1e-3

    def test_final_mask_is_binary_sample(self, moons):
        res = run_iss(mlp(), moons, quick_cfg(rounds=2, mask_init=1.0), seed=1)
        for m in res.masks.values():
            assert set(np.unique(m)).issubset({0.0, 1.0})

    def test_large_penalty_drives_gates_down_monotonically(self):
        # regularization-pressure run on a small dense-gated model
        data = gen_two_moons(128, 0.1, seed=7)
        model = build_mlp([2, 64, 2], seed=1)
        model.set_gate_mode(GATE_STOCHASTIC, 0.0)
        opt = CompositeOptimizer([
            OptimizerConfig("sgd", lr=0.1, momentum=0.9,
                            weight_decay=1e-4).build(model.weight_tensors()),
            OptimizerConfig("sgd", lr=20.0, momentum=0.0,
                            weight_decay=0.0).build(model.mask_tensors())])
        means = []

        def track(si):  # the gates before steps 0, 4, 8, ...
            if si.round_iteration % 4 == 0:
                means.append(np.mean([expit(g.mask_logits.data).mean()
                                      for g in model.maskable_groups()]))

        train(model, data, opt, 120, batch_size=32,
              shuffle_rng=seeded_rng(1, STREAM_SHUFFLE), lam=1e-2,
              mask_rng=seeded_rng(1, 42), cursor=TrainCursor(),
              before_step=[track])
        corr = spearmanr(np.arange(len(means)), means).statistic
        assert corr < -0.9
        assert means[-1] < means[0]


class TestRunSequentialCS:
    def test_fixed_rate_schedule_regardless_of_logits(self, moons):
        model = mlp(widths=(2, 16, 2))
        d = sum(g.weights.size for g in model.maskable_groups())
        tickets = run_sequential_cs(model, moons,
                                    quick_cfg(rounds=4, prune_rate=0.2),
                                    seed=1)
        count = d
        for t in tickets:
            count -= int(0.2 * count)
            kept = sum(int(m.sum()) for m in t.masks.values())
            assert kept == count

    def test_removed_sets_nested(self, moons):
        tickets = run_sequential_cs(mlp(), moons,
                                    quick_cfg(rounds=3, prune_rate=0.3),
                                    seed=2)
        for prev, nxt in zip(tickets, tickets[1:]):
            for name in prev.masks:
                assert np.all(nxt.masks[name] <= prev.masks[name])

    def test_masks_binary(self, moons):
        tickets = run_sequential_cs(mlp(), moons,
                                    quick_cfg(rounds=2, prune_rate=0.2),
                                    seed=1)
        for m in tickets[-1].masks.values():
            assert set(np.unique(m)).issubset({0.0, 1.0})


class TestRunSupermask:
    def test_weights_bitwise_frozen(self, moons):
        model = mlp(seed=8)
        before = model.weight_arrays(copy=True)
        res = run_supermask(model, moons, quick_cfg(rounds=1), "soft", seed=8)
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, before[k])
        for k, a in res.rewind.arrays.items():
            assert np.array_equal(a, before[k])

    def test_stochastic_variant_runs_and_freezes(self, moons):
        model = mlp(seed=8)
        before = model.weight_arrays(copy=True)
        run_supermask(model, moons, quick_cfg(rounds=1, mask_init=1.0),
                      "stochastic", seed=8)
        for k, a in model.weight_arrays().items():
            assert np.array_equal(a, before[k])

    def test_multiple_rounds_rejected(self, moons):
        with pytest.raises(ValueError):
            run_supermask(mlp(), moons, quick_cfg(rounds=2), "soft", seed=1)

    def test_lr_milestones_apply(self, moons):
        logits = []
        for milestones in ((), (6,)):
            model = mlp(seed=8)
            run_supermask(model, moons,
                          quick_cfg(rounds=1, lr_milestones=milestones),
                          "soft", seed=8)
            logits.append([g.mask_logits.data for g in
                           model.maskable_groups()])
        assert not all(np.array_equal(a, b) for a, b in zip(*logits))

    def test_weight_mutation_detected(self, moons, monkeypatch):
        orig = S.train

        def corrupt(model, *a, **kw):
            out = orig(model, *a, **kw)
            model.groups[0].weights.data[0, 0] += 1.0
            return out

        monkeypatch.setattr(S, "train", corrupt)
        with pytest.raises(RuntimeError, match="frozen weights changed"):
            run_supermask(mlp(), moons, quick_cfg(rounds=1), "soft", seed=1)

    def test_positive_init_with_no_training_keeps_everything(self, moons):
        # trivial endpoint: H(positive init) keeps every weight, so the
        # masked network is the dense random-init network
        model = mlp(seed=2)
        model.set_gate_mode("soft-deterministic", 0.3)
        masks = model.masks()
        assert all(np.all(m == 1.0) for m in masks.values())


class TestFreezeAndFinetune:
    def test_frozen_logits_get_no_gradient(self, moons):
        model = mlp(seed=1)
        model, masks, _ = freeze_mask_and_finetune(
            model, moons, quick_cfg(rounds=1), freeze_at=40,
            finetune_iters=20, finetune_lr=0.001, seed=1)
        for g in model.maskable_groups():  # no logits are left to train
            assert g.mask_logits is None
            assert np.array_equal(g.frozen_mask, masks[g.name])

    def test_every_maskable_group_ends_in_hard_mode(self, moons):
        model = mlp(seed=3, widths=(2, 16, 16, 2))
        model, masks, _ = freeze_mask_and_finetune(
            model, moons, quick_cfg(rounds=1), freeze_at=20,
            finetune_iters=5, finetune_lr=0.001, seed=3)
        for g in model.maskable_groups():
            assert g.mode == GATE_HARD
            assert g.mask_logits is None and g.pruned_forever is None
            assert np.array_equal(g.current_hard_mask(), masks[g.name])

    def test_pruned_weights_exactly_zero_in_effective_network(self, moons):
        model = mlp(seed=1)
        model, masks, _ = freeze_mask_and_finetune(
            model, moons, quick_cfg(rounds=1, mask_init=-0.05), freeze_at=40,
            finetune_iters=20, finetune_lr=0.001, seed=1)
        for g in model.maskable_groups():
            reset_tape()
            eff = mul(g.weights, Tensor(g.frozen_mask))
            assert np.all(eff.data[masks[g.name] == 0.0] == 0.0)

    def test_double_freeze_rejected(self, moons):
        model = mlp(seed=1)
        model, _, _ = freeze_mask_and_finetune(
            model, moons, quick_cfg(rounds=1), freeze_at=10,
            finetune_iters=0, finetune_lr=0.001, seed=1)
        with pytest.raises(ValueError):
            freeze_mask_and_finetune(model, moons, quick_cfg(rounds=1),
                                     freeze_at=10, finetune_iters=0,
                                     finetune_lr=0.001, seed=1)

    def test_schedule_mirror_of_pruning_mode(self, moons):
        # 200-step run with the freeze at 160 and a 40-step tail
        model = mlp(seed=2)
        model, masks, records = freeze_mask_and_finetune(
            model, moons, quick_cfg(rounds=1, record_every=1), freeze_at=160,
            finetune_iters=40, finetune_lr=0.001, seed=2)
        assert all(set(np.unique(m)).issubset({0.0, 1.0})
                   for m in masks.values())
        assert max(r.iter for r in records) == 200

    def test_learning_rate_milestones_do_not_apply(self, moons):
        # neither phase applies milestones: with and without them, every
        # record, mask and weight is bitwise the same
        out = []
        for milestones in ((), (5, 30, 50)):
            model, masks, records = freeze_mask_and_finetune(
                mlp(seed=2), moons,
                quick_cfg(rounds=1, record_every=1, lr_milestones=milestones),
                freeze_at=40, finetune_iters=20, finetune_lr=0.01, seed=2)
            out.append((records, masks, model.weight_arrays()))
        (records, masks, weights), (records2, masks2, weights2) = out
        assert len(records) == 60 // 4 and records == records2
        for want, got in ((masks, masks2), (weights, weights2)):
            assert want.keys() == got.keys()
            assert all(np.array_equal(want[k], got[k]) for k in want)
