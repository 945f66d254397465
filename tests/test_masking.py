import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import expit

from ticketlab import tensor as T
from ticketlab.masking import (GATE_HARD, GATE_MODES, GATE_SOFT,
                               GATE_STOCHASTIC, ST_VARIANTS, GateSet,
                               MaskedParameterGroup, TemperatureSchedule, gate,
                               gate_penalty, hard_mask, kept_fraction,
                               _logit_grad, remaining_fraction, reset_mask,
                               soft_gate)
from ticketlab.models import Layer, Model
from ticketlab.optim import SGD
from ticketlab.tensor import (GradientError, Tensor, backward, linear,
                              reset_tape, tensor_sum)
from ticketlab.training import (TrainCursor, capture_train_state,
                                restore_train_state)

from .helpers import continuation_gaps, fd_grads, max_rel_err


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


def make_group(w, mode=GATE_SOFT, mask_init=0.0, logits=None):
    g = MaskedParameterGroup("g", Tensor(np.asarray(w, dtype=np.float64),
                                         requires_grad=True))
    g.init_gate(mode, mask_init)
    if logits is not None:
        # a copy: reset_mask writes the logits in place
        g.mask_logits.data = np.array(logits, dtype=np.float64)
    return g


class TestTemperatureSchedule:
    def test_endpoints(self):
        s = TemperatureSchedule(200.0, 100)
        assert s.at(0) == 1.0
        assert s.at(100) == 200.0

    def test_midpoint_of_exponential_ramp(self):
        s = TemperatureSchedule(200.0, 100)
        assert abs(s.at(50) - np.sqrt(200.0)) < 1e-12

    def test_out_of_range_iteration(self):
        s = TemperatureSchedule(200.0, 100)
        with pytest.raises(ValueError):
            s.at(101)
        with pytest.raises(ValueError):
            s.at(-1)

    def test_non_decreasing(self):
        s = TemperatureSchedule(150.0, 37)
        vals = [s.at(t) for t in range(38)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_step(self):
        s = TemperatureSchedule(100.0, 10)
        assert s.current_beta == 1.0
        b = s.step()
        assert b == s.at(1)
        for _ in range(9):
            b = s.step()
        assert b == 100.0
        assert s.current_beta == 100.0

    def test_final_temperature_below_one_rejected(self):
        with pytest.raises(ValueError):
            TemperatureSchedule(0.5, 10)


class TestSoftGate:
    def test_zero_logits_halve_weights(self):
        g = make_group(np.array([2.0, -4.0]))
        out = soft_gate(g, beta=7.0)
        assert np.allclose(out.data, [1.0, -2.0])

    def test_gradient_wrt_logit_at_zero(self):
        g = make_group(np.array([1.0]))
        out = soft_gate(g, beta=1.0)
        backward(tensor_sum(out))
        assert abs(g.mask_logits.grad[0] - 0.25) < 1e-12

    def test_gate_grad_matches_fd_across_betas(self):
        rng = np.random.default_rng(0)
        for beta in (1.0, 10.0, 100.0):
            w = rng.standard_normal(6)
            s = rng.standard_normal(6) * 0.1
            g = make_group(w, logits=s)

            def scalar():
                with T.no_grad():
                    return float((expit(beta * g.mask_logits.data)
                                  * g.weights.data).sum())

            reset_tape()
            backward(tensor_sum(soft_gate(g, beta)))
            fd = fd_grads(scalar, [g.mask_logits.data])[0]
            assert max_rel_err(g.mask_logits.grad, fd) < 1e-4

    def test_saturated_negative_gate_counts_as_pruned(self):
        # with beta * s = -500 the gate is far below 64-bit resolution of w
        g = make_group(np.array([1.0]), logits=np.array([-1.0]))
        out = soft_gate(g, beta=500.0)
        assert abs(out.data[0]) < 1e-200
        assert remaining_fraction([g], beta=500.0) == 0.0

    def test_saturated_gate_in_float32_is_exact_zero(self):
        T.set_default_dtype("float32")
        try:
            g = MaskedParameterGroup("g", Tensor(np.array([1.0])))
            g.init_gate(GATE_SOFT, 0.0)
            g.mask_logits.data = np.array([-1.0], dtype=np.float32)
            out = soft_gate(g, beta=500.0)
            assert out.data[0] == 0.0
        finally:
            T.set_default_dtype("float64")

    def test_float32_full_ramp_binarizes_gates_numerically(self):
        # at the 32-bit-sufficient final temperature the soft gate itself
        # becomes exactly binary, without any explicit thresholding
        T.set_default_dtype("float32")
        try:
            g = MaskedParameterGroup(
                "g", Tensor(np.array([0.5, -2.0, 1.5, -0.3])))
            g.init_gate(GATE_SOFT, 0.0)
            g.mask_logits.data = np.array([0.5, -2.0, 1.5, -0.3],
                                          dtype=np.float32)
            vals = g.gate_values(beta=500.0)
            assert set(np.unique(vals)).issubset({np.float32(0.0),
                                                  np.float32(1.0)})
            assert np.array_equal(vals, hard_mask(g.mask_logits.data))
        finally:
            T.set_default_dtype("float64")

    def test_pointwise_limit_threshold(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(0.05, 2.0, 50) * np.where(rng.random(50) < 0.5, -1, 1)
        beta = 40.0 / np.abs(s).min()
        assert np.all(np.abs(expit(beta * s) - hard_mask(s)) < 1e-9)

    def test_monotone_in_beta(self):
        betas = [1.0, 2.0, 5.0, 20.0, 80.0]
        pos = [expit(b * 0.3) for b in betas]
        neg = [expit(b * -0.3) for b in betas]
        assert all(b > a for a, b in zip(pos, pos[1:]))
        assert all(b < a for a, b in zip(neg, neg[1:]))


class TestHardMask:
    def test_sign_cases(self):
        assert hard_mask(np.array([-0.3, 0.3])).tolist() == [0.0, 1.0]

    def test_boundary_prunes(self):
        assert hard_mask(np.array([0.0])).tolist() == [0.0]

    def test_l1_equals_l0_for_binary(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = hard_mask(rng.standard_normal(64))
            assert np.abs(m).sum() == np.count_nonzero(m)

    def test_invariant_under_positive_rescale(self):
        rng = np.random.default_rng(9)
        s = rng.standard_normal(100)
        for c in (0.01, 0.5, 3.0, 1000.0):
            assert np.array_equal(hard_mask(c * s), hard_mask(s))


class TestGatePenalty:
    def test_zero_logits_sum(self):
        g = make_group(np.ones(10))
        out = gate_penalty(g, beta=1.0, lam=1.0)
        assert abs(float(out.data) - 5.0) < 1e-12

    def test_lam_zero_is_exact_zero_with_no_gradient(self):
        g = make_group(np.ones(4))
        out = gate_penalty(g, beta=1.0, lam=0.0)
        assert float(out.data) == 0.0
        assert out.requires_grad is False

    def test_binary_limit_counts_positive_logits(self):
        g = make_group(np.ones(3), logits=np.array([-2.0, 3.0, 1.0]))
        out = gate_penalty(g, beta=1e4, lam=1.0)
        assert abs(float(out.data) - 2.0) < 1e-9

    def test_negative_lam_rejected(self):
        g = make_group(np.ones(3))
        with pytest.raises(ValueError):
            gate_penalty(g, 1.0, -0.1)

    def test_sentinel_removed_components_excluded(self):
        g = make_group(np.ones(4), logits=np.zeros(4))
        g.pruned_forever = np.array([True, True, False, False])
        out = gate_penalty(g, beta=1.0, lam=1.0)
        assert abs(float(out.data) - 1.0) < 1e-12  # two gates at 0.5


def stochastic(g, rng, st_variant="identity"):
    """m ⊙ w for a stochastic group: its step gate read by one ``mul``."""
    return T.mul(gate(g, 1.0, rng=rng, st_variant=st_variant), g.weights)


class TestStochasticGate:
    def test_saturated_logits_pass_weights_through(self):
        rng = np.random.default_rng(0)
        w = np.array([1.5, -2.5, 0.5])
        g = make_group(w, mode=GATE_STOCHASTIC, logits=np.full(3, 30.0))
        out = stochastic(g, rng)
        assert np.array_equal(out.data, w)

    def test_sample_mean_matches_probability(self):
        rng = np.random.default_rng(1)
        g = make_group(np.ones(10_000), mode=GATE_STOCHASTIC)
        out = stochastic(g, rng)
        # binomial CI at p=0.5, n=10k: +-0.02 is ~4 sigma
        assert abs(out.data.mean() - 0.5) < 0.02

    def test_straight_through_identity_gradient(self):
        rng = np.random.default_rng(2)
        w = np.array([2.0, -3.0, 0.5])
        g = make_group(w, mode=GATE_STOCHASTIC)
        out = stochastic(g, rng)
        u = np.array([1.0, 10.0, -4.0])
        backward(tensor_sum(T.mul(out, Tensor(u))))
        assert np.allclose(g.mask_logits.grad, u * w)

    def test_straight_through_sigmoid_variant(self):
        rng = np.random.default_rng(3)
        w = np.array([2.0, -3.0])
        s = np.array([0.7, -0.2])
        g = make_group(w, mode=GATE_STOCHASTIC, logits=s)
        out = stochastic(g, rng, st_variant="sigmoid")
        backward(tensor_sum(out))
        p = expit(s)
        assert np.allclose(g.mask_logits.grad, w * p * (1 - p))

    def test_requires_rng(self):
        g = make_group(np.ones(3), mode=GATE_STOCHASTIC)
        with pytest.raises(ValueError):
            stochastic(g, None)

    def test_frozen_components_sample_zero_and_get_no_gradient(self):
        rng = np.random.default_rng(4)
        g = make_group(np.ones(4), mode=GATE_STOCHASTIC,
                       logits=np.full(4, 30.0))
        g.pruned_forever = np.array([True, False, True, False])
        for _ in range(5):
            reset_tape()
            out = stochastic(g, rng)
            assert out.data[0] == 0.0 and out.data[2] == 0.0
            backward(tensor_sum(out))
            assert g.mask_logits.grad[0] == 0.0 and g.mask_logits.grad[2] == 0.0
            g.mask_logits.grad = None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("st_variant", ["identity", "sigmoid"])
    def test_layer_gradients_match_the_gate_node_chain_bitwise(
            self, st_variant, lam, dtype):
        """A dense layer reading a stochastic step gate, against a NumPy
        replica of a gate node m ⊙ w feeding an ungated layer, with the
        penalty a node over s added to the loss (seed 1): the draw, the
        layer output, the penalty and the weight and logit gradients are
        bitwise equal."""
        rng = np.random.default_rng(11)
        w = rng.standard_normal((6, 5)).astype(dtype)
        s = rng.standard_normal((6, 5)).astype(dtype)
        pruned = rng.random((6, 5)) < 0.3
        x = rng.standard_normal((7, 6)).astype(dtype)
        up = rng.standard_normal((7, 5)).astype(dtype)
        previous = T.default_dtype().name
        T.set_default_dtype(np.dtype(dtype).name)
        try:
            g = MaskedParameterGroup("g", Tensor(w.copy(), requires_grad=True))
            g.init_gate(GATE_STOCHASTIC)
            g.mask_logits.data[...] = s
            g.prune_forever(pruned)
            step = gate(g, 1.0, lam, np.random.default_rng(5), st_variant)
            out = linear(Tensor(x), g.weights,
                         Tensor(np.zeros(5), requires_grad=True), step)
            backward(tensor_sum(T.mul(out, Tensor(up))))
        finally:
            T.set_default_dtype(previous)

        # the replica: m ~ Bernoulli(sigmoid(s)), the layer over m * w, and
        # the logits' gradient: the penalty node's, which the backward pass
        # reached first, plus the gate node's straight-through one
        p = T.expit(s)  # the library's sigmoid, as the gate node's
        m = (np.random.default_rng(5).random(p.shape) < p).astype(dtype)
        m[pruned] = 0.0
        gwe = x.T @ up
        gs = gwe * w
        if st_variant == "sigmoid":
            gs = gs * p * (1.0 - p)
        gs = gs * (~pruned)
        grad_s = gs
        if lam > 0.0:
            pen = 1.0 - p
            pen *= p
            pen *= 1.0
            pen *= np.ones((), dtype=dtype) * lam
            pen *= (~pruned).astype(dtype)
            grad_s = pen.copy()
            grad_s += gs
            assert np.array_equal(
                step.penalty,
                np.asarray((p * (~pruned).astype(dtype)).sum() * lam,
                           dtype=dtype))
        else:
            assert float(step.penalty) == 0.0
        assert np.array_equal(step.data, m)
        assert np.array_equal(out.data, x @ (m * w))
        assert np.array_equal(g.weights.grad, gwe * m)
        assert g.mask_logits.grad.dtype == dtype
        assert np.array_equal(g.mask_logits.grad, grad_s)


class TestGateSet:
    """A ``GateSet`` forms a step's gates of several groups together;
    ``gate`` is its one-group case."""

    @staticmethod
    def groups(shapes, mode, dtype, seed, arena):
        """Gated groups of ``shapes`` drawn from ``seed``, some with a
        sentinel and some whose logits do not train, their logits in one
        optimizer arena or allocated separately; and one layer gradient
        per group."""
        rng = np.random.default_rng(seed)
        groups, grads = [], []
        for i, shape in enumerate(shapes):
            w = Tensor(rng.standard_normal(shape).astype(dtype),
                       requires_grad=True, dtype=dtype)
            g = MaskedParameterGroup(f"g{i}", w)
            g.init_gate(mode)
            g.mask_logits.data[...] = 3.0 * rng.standard_normal(shape)
            if rng.random() < 0.5:
                g.prune_forever(rng.random(shape) < 0.3)
            g.mask_logits.requires_grad = bool(rng.random() < 0.8)
            groups.append(g)
            grads.append(rng.standard_normal(shape).astype(dtype))
        if arena:  # rebinds every logit array to a view of its arena
            SGD([g.mask_logits for g in groups], lr=0.1)
        return groups, grads

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(shapes=st.lists(array_shapes(min_dims=1, max_dims=3, max_side=5),
                           min_size=1, max_size=4),
           mode=st.sampled_from([GATE_SOFT, GATE_STOCHASTIC]),
           st_variant=st.sampled_from(ST_VARIANTS),
           lam=st.sampled_from([0.0, 0.3]),
           dtype=st.sampled_from([np.float64, np.float32]),
           beta=st.sampled_from([1.0, 7.5, 200.0]), arena=st.booleans(),
           seed=st.integers(0, 2**16), order=st.randoms(use_true_random=False))
    def test_batched_gates_are_bitwise_the_one_group_gates(
            self, shapes, mode, st_variant, lam, dtype, beta, arena, seed,
            order):
        """Gate values, penalties, logit gradients and the second-gradient
        error of one batch equal those of one ``gate`` call per group, in
        group order, whatever order the layer gradients arrive in."""
        made = []
        for batched in (True, False):
            groups, grads = self.groups(shapes, mode, dtype, seed, arena)
            rng = np.random.default_rng(seed + 1)
            gates = (GateSet(groups)(beta, lam, rng, st_variant)
                     if batched else
                     {g.name: gate(g, beta, lam, rng, st_variant)
                      for g in groups})
            assert list(gates) == [g.name for g in groups]
            trained = [g for g in groups if g.mask_logits.requires_grad]
            for i in order.sample(range(len(trained)), len(trained)):
                gates[trained[i].name].accumulate_grad(grads[
                    groups.index(trained[i])].copy())
            for g in trained:
                with pytest.raises(GradientError, match=repr(g.name)):
                    gates[g.name].accumulate_grad(grads[0])
            made.append([(gates[g.name].data, gates[g.name].penalty,
                          g.mask_logits.grad) for g in groups])
        for got, want in zip(*made):
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    @settings(derandomize=True, database=None, max_examples=50,
              deadline=None)
    @given(shapes=st.lists(array_shapes(min_dims=0, max_dims=3, max_side=5),
                           min_size=1, max_size=4),
           seed=st.integers(0, 2**16))
    def test_one_draw_is_the_per_group_draws_in_group_order(self, shapes,
                                                            seed):
        sizes = [int(np.prod(s)) for s in shapes]
        one = np.random.default_rng(seed).random(sum(sizes))
        rng = np.random.default_rng(seed)
        each = [rng.random(s).reshape(-1) for s in shapes]
        assert one.tobytes() == np.concatenate(each).tobytes()

    def test_mixed_modes_and_dtypes_form_in_group_order(self):
        rng = np.random.default_rng(3)
        groups = []
        for i, (mode, dt) in enumerate([
                (GATE_SOFT, np.float64), (GATE_STOCHASTIC, np.float64),
                (GATE_SOFT, np.float32), (GATE_STOCHASTIC, np.float64)]):
            w = Tensor(np.ones((2, 3), dt), requires_grad=True, dtype=dt)
            g = MaskedParameterGroup(f"g{i}", w)
            g.init_gate(mode)
            g.mask_logits.data[...] = rng.standard_normal((2, 3))
            groups.append(g)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        gates = GateSet(groups)(4.0, 0.1, a)
        assert list(gates) == ["g0", "g1", "g2", "g3"]
        for g in groups:
            one = gate(g, 4.0, 0.1, b)
            assert gates[g.name].dtype == one.dtype == g.weights.dtype
            assert gates[g.name].data.tobytes() == one.data.tobytes()
            assert gates[g.name].penalty.tobytes() == one.penalty.tobytes()

    def test_rejects_what_gate_rejects(self):
        soft = make_group(np.ones(3))
        hard = make_group(np.ones(3), mode=GATE_HARD)
        stochastic = make_group(np.ones(3), mode=GATE_STOCHASTIC)
        with pytest.raises(ValueError, match="soft or stochastic"):
            GateSet([soft, hard])(1.0)
        with pytest.raises(ValueError, match="non-negative"):
            GateSet([soft])(1.0, -1.0)
        with pytest.raises(ValueError, match="requires an RNG"):
            GateSet([soft, stochastic])(1.0)
        with pytest.raises(ValueError, match="straight-through"):
            GateSet([stochastic])(1.0, rng=np.random.default_rng(0),
                                  st_variant="bogus")
        assert GateSet([])(1.0) == {}

    def test_remaining_fraction_counts_whole_batches(self):
        a = make_group(np.ones(10), logits=np.full(10, 5.0))
        b = make_group(np.ones(30), logits=np.full(30, -5.0))
        a.name, b.name = "a", "b"
        gates = GateSet([a, b])(50.0)
        assert remaining_fraction([a, b], 50.0, gates) == 0.25
        with pytest.raises(ValueError, match="whole batches"):
            remaining_fraction([a], 50.0, gates)

    @pytest.mark.parametrize("mode, st_variant, lam", [
        (GATE_SOFT, "identity", 0.3), (GATE_STOCHASTIC, "sigmoid", 0.0)])
    def test_a_wider_layer_gradient_is_not_rounded(self, mode, st_variant,
                                                   lam):
        """Float32 gates whose layer gradients arrive in float64 (a
        float32 model fed float64 inputs) form the logit gradient from
        the float64 gradients, not from their float32 roundings."""
        rng = np.random.default_rng(4)
        groups = []
        for i, shape in enumerate([(3, 4), (5,)]):
            w = Tensor(np.ones(shape, np.float32), requires_grad=True,
                       dtype=np.float32)
            g = MaskedParameterGroup(f"g{i}", w)
            g.init_gate(mode)
            g.mask_logits.data[...] = rng.standard_normal(shape)
            groups.append(g)
        SGD([g.mask_logits for g in groups])
        grads = [rng.standard_normal(g.weights.shape) for g in groups]
        gates = GateSet(groups)(3.0, lam, np.random.default_rng(1),
                                st_variant)
        for g, grad in zip(groups, grads):
            gates[g.name].accumulate_grad(grad)
        beta = 3.0 if mode == GATE_SOFT else 1.0
        for g, grad in zip(groups, grads):
            sig = T.expit(g.mask_logits.data, beta)
            if mode == GATE_SOFT:
                want = _logit_grad(grad + lam, sig, beta, None)
                rounded = _logit_grad(grad.astype(np.float32) + lam, sig,
                                        beta, None)
            else:
                want = (grad * sig * (1.0 - sig)).astype(np.float32)
                rounded = grad.astype(np.float32) * sig * (1.0 - sig)
            got = g.mask_logits.grad
            assert got.dtype == np.float32 and got is g.mask_logits.grad_dest
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() != rounded.tobytes()

    @pytest.mark.parametrize("mode", [GATE_SOFT, GATE_STOCHASTIC])
    def test_kept_masks_are_built_once_per_layout(self, mode):
        """A ``GateSet`` called every step builds its batch's kept mask k
        once, and again only when a group's sentinel changes; its gates,
        penalties and logit gradients are bitwise those of a fresh
        ``GateSet`` per step, across a ``prune_forever`` between calls."""
        made, kept = [], []
        for reused in (True, False):
            groups, grads = self.groups([(2, 3), (3, 4), (4,)], mode,
                                        np.float64, 5, arena=True)
            rng = np.random.default_rng(9)
            gate_set = GateSet(groups)
            steps = []
            for step in range(4):
                if step == 2:
                    groups[1].prune_forever(
                        np.random.default_rng(2).random((3, 4)) < 0.5)
                one = gate_set if reused else GateSet(groups)
                gates = one(3.0, 0.1, rng)
                for g, grad in zip(groups, grads):
                    if g.mask_logits.requires_grad:
                        gates[g.name].accumulate_grad(grad.copy())
                steps.append([(gates[g.name].data.copy(),
                               gates[g.name].penalty,
                               None if g.mask_logits.grad is None
                               else g.mask_logits.grad.copy())
                              for g in groups])
                for g in groups:  # as an optimizer step leaves them
                    g.mask_logits.grad = None
                if reused:
                    kept.append(one._batches[0].kept)
            made.append(steps)
        assert kept[0] is kept[1] and kept[2] is kept[3]
        assert kept[2] is not None and kept[2] is not kept[1]
        for got, want in zip(*made):
            for a, b in zip(got, want):
                for x, y in zip(a, b):
                    assert (x is None) == (y is None)
                    if x is not None:
                        assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("mode", [GATE_SOFT, GATE_STOCHASTIC])
    @pytest.mark.parametrize("arena", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_repeated_calls_are_a_fresh_sets_calls(self, mode, arena, lam):
        """A ``GateSet`` called every step reuses its gates, their step
        and their arrays, and its gates, penalties and logit gradients are
        bitwise those of a fresh ``GateSet`` per step, while the logits
        move and beta changes between calls."""
        made, reused_gates = [], []
        for reused in (True, False):
            groups, grads = self.groups([(2, 3), (3, 4), (4,)], mode,
                                        np.float64, 6, arena)
            rng = np.random.default_rng(9)
            gate_set = GateSet(groups)
            steps = []
            for step, beta in enumerate((1.0, 7.5, 7.5, 200.0)):
                one = gate_set if reused else GateSet(groups)
                gates = one(beta, lam, rng)
                if reused:
                    reused_gates.append([gates[g.name] for g in groups])
                for g, grad in zip(groups, grads):
                    if g.mask_logits.requires_grad:
                        gates[g.name].accumulate_grad(grad * (step + 1))
                steps.append([(gates[g.name].data.copy(),
                               gates[g.name].penalty,
                               None if g.mask_logits.grad is None
                               else g.mask_logits.grad.copy())
                              for g in groups])
                for g in groups:  # as an optimizer step moves them
                    s = g.mask_logits
                    if s.grad is not None:
                        s.data -= 0.5 * s.grad
                    s.grad = None
            made.append(steps)
        assert all(a is b for a, b in zip(reused_gates[0], reused_gates[-1]))
        for got, want in zip(*made):
            for a, b in zip(got, want):
                for x, y in zip(a, b):
                    assert (x is None) == (y is None)
                    if x is not None:
                        assert x.dtype == y.dtype
                        assert x.tobytes() == y.tobytes()

    def test_a_call_during_an_unfinished_step_builds_fresh_gates(self):
        """While a gate of the set's last call still waits for its
        gradient, the next call leaves that call's gates as they are."""
        groups, grads = self.groups([(2, 3), (3, 4)], GATE_SOFT, np.float64,
                                    3, arena=True)
        for g in groups:
            g.mask_logits.requires_grad = True
        gate_set = GateSet(groups)
        first = gate_set(2.0, 0.1)
        kept = {name: m.data.copy() for name, m in first.items()}
        second = gate_set(50.0, 0.1)
        for g in groups:
            assert second[g.name] is not first[g.name]
            assert first[g.name].data.tobytes() == kept[g.name].tobytes()
        # the first call's step still hands the logits their gradients
        for g, grad in zip(groups, grads):
            first[g.name].accumulate_grad(grad.copy())
        for g, grad in zip(groups, grads):
            one = gate(g, 2.0, 0.1)
            want = _logit_grad(grad + 0.1, T.expit(g.mask_logits.data, 2.0),
                               2.0, g.kept())
            assert g.mask_logits.grad.tobytes() == want.tobytes()
            assert one.data.tobytes() == kept[g.name].tobytes()

    @pytest.mark.parametrize("mode", [GATE_SOFT, GATE_STOCHASTIC])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_penalty_is_a_scalar_of_the_gates_dtype(self, mode, dtype, lam):
        """A float32 run's loss plus penalties stays float32."""
        groups, _ = self.groups([(2, 3), (4,)], mode, dtype, 4, arena=False)
        gates = GateSet(groups)(7.5, lam, np.random.default_rng(1))
        for g in groups:
            penalty = gates[g.name].penalty
            assert isinstance(penalty, np.generic)
            assert penalty.dtype == gates[g.name].data.dtype == dtype

    @pytest.mark.parametrize("layout", ["in order", "reversed", "apart"])
    def test_logits_in_one_arena_are_read_in_place(self, layout):
        """Logits that lie in order in one optimizer arena are read where
        they lie, and the set sees when that changes; logits that do not
        are copied. Each way, the gates are the one-group gates."""
        groups, _ = self.groups([(2, 3), (3, 4), (4,)], GATE_SOFT,
                                np.float64, 4, arena=False)
        logits = [g.mask_logits for g in groups]
        if layout != "apart":
            opt = SGD(logits if layout == "in order" else logits[::-1],
                      lr=0.1)
        gate_set = GateSet(groups)
        for _ in range(2):  # the second call reuses the layout
            gates = gate_set(3.0, 0.1)
            [batch] = gate_set._batches
            assert (batch.arena is not None
                    and batch.arena.base is opt._data) == (
                        layout == "in order")
            for g in groups:
                one = gate(g, 3.0, 0.1)
                assert gates[g.name].data.tobytes() == one.data.tobytes()
                assert gates[g.name].penalty == one.penalty
        # logits that move are read where they are now
        groups[1].mask_logits.data = groups[1].mask_logits.data * 2.0
        gates = gate_set(3.0, 0.1)
        assert gate_set._batches[0].arena is None
        moved = gate(groups[1], 3.0)
        assert gates["g1"].data.tobytes() == moved.data.tobytes()


class TestResetMask:
    def test_reset_formula(self):
        g = make_group(np.ones(2), mask_init=0.05,
                       logits=np.array([-0.1, 0.02]))
        reset_mask(g, g.mask_logits.data.copy(), beta_end=200.0)
        assert np.allclose(g.mask_logits.data, [-20.0, 0.05])

    def test_kept_weights_return_to_init(self):
        g = make_group(np.ones(3), mask_init=0.05, logits=np.full(3, 0.05))
        reset_mask(g, g.mask_logits.data.copy(), beta_end=200.0)
        assert np.all(g.mask_logits.data == 0.05)

    def test_suppressed_weights_stay_suppressed(self):
        rng = np.random.default_rng(5)
        end = -rng.uniform(0.01, 1.0, 20)
        g = make_group(np.ones(20), mask_init=0.3, logits=end)
        reset_mask(g, end, beta_end=150.0)
        assert np.all(g.mask_logits.data <= 150.0 * end)

    def test_idempotent_given_same_end_logits(self):
        rng = np.random.default_rng(6)
        end = rng.standard_normal(50)
        g = make_group(np.ones(50), mask_init=0.1, logits=end)
        reset_mask(g, end, beta_end=200.0)
        once = g.mask_logits.data.copy()
        reset_mask(g, end, beta_end=200.0)
        assert np.array_equal(g.mask_logits.data, once)

    def test_reset_writes_in_place_so_the_optimizer_keeps_the_logits(self):
        end = np.linspace(-1.0, 1.0, 12)
        g = make_group(np.ones(12), mask_init=0.1, logits=end)
        opt = SGD([g.mask_logits], lr=0.1)
        arena_view = g.mask_logits.data
        reset_mask(g, end, beta_end=200.0)
        assert g.mask_logits.data is arena_view
        g.mask_logits.grad = np.ones(12)
        opt.step()  # a rebound array would be a GradientError
        assert np.array_equal(g.mask_logits.data,
                              np.minimum(200.0 * end, 0.1) - 0.1)

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3,
                                           max_side=5),
                  elements=st.floats(-1e3, 1e3)),
           st.floats(0.0, 1e4, exclude_min=True), st.floats(-2.0, 2.0))
    def test_reset_is_capped_and_keeps_closed_gates_closed(self, end, beta_end,
                                                          s_init):
        g = make_group(np.ones(end.shape), mask_init=s_init, logits=end)
        reset_mask(g, end, beta_end)
        s = g.mask_logits.data
        assert np.array_equal(s, np.minimum(beta_end * end, s_init))
        assert np.all(s <= s_init)
        assert np.all(hard_mask(s)[end < 0] == 0)


class TestGateState:
    """The group's one state invariant under its transitions."""

    @staticmethod
    def check_invariant(g, expected_hard):
        gated = g.mode in (GATE_SOFT, GATE_STOCHASTIC)
        assert (g.mode == GATE_HARD) == (g.frozen_mask is not None)
        assert (g.mask_logits is not None) == gated
        assert g.pruned_forever is None or gated
        if g.mode == GATE_HARD:
            assert np.array_equal(g.current_hard_mask(), g.frozen_mask)
            assert np.array_equal(g.current_hard_mask(), expected_hard)

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(array_shapes(min_dims=1, max_dims=3, max_side=4), st.data())
    def test_transitions_keep_the_invariant(self, shape, data):
        g = MaskedParameterGroup("g", Tensor(np.ones(shape),
                                             requires_grad=True))
        bits = arrays(bool, shape)
        expected = None
        model = Model([Layer()], [g], [Tensor(np.zeros(shape[-1:]))])
        train_state = (SGD([g.weights]), TrainCursor(),
                       np.random.default_rng(0))
        saved = capture_train_state(model, *train_state), expected
        ops = data.draw(st.lists(st.sampled_from(
            ["init", "freeze", "prune", "reset", "capture", "restore"]),
            max_size=12))
        for op in ops:
            if op == "init":
                mode = data.draw(st.sampled_from(GATE_MODES))
                g.init_gate(mode, data.draw(st.floats(-2.0, 2.0)))
                expected = np.ones(shape)
            elif op == "freeze":
                mask = data.draw(bits).astype(float)
                expected = mask.copy()
                g.freeze(mask)
                mask[...] = 1.0 - mask  # the group keeps its own copy
            elif op == "prune":
                dropped = data.draw(bits)
                before = g.pruned_forever
                try:
                    g.prune_forever(dropped)
                except ValueError:  # no gate to prune
                    assert g.mode not in (GATE_SOFT, GATE_STOCHASTIC)
                else:
                    assert np.array_equal(
                        g.pruned_forever,
                        dropped if before is None else before | dropped)
            elif op == "reset":
                end = data.draw(arrays(np.float64, shape,
                                       elements=st.floats(-10.0, 10.0)))
                try:
                    reset_mask(g, end, 200.0)
                except ValueError:  # no logits to reset
                    assert g.mask_logits is None
            elif op == "capture":
                saved = capture_train_state(model, *train_state), expected
            else:
                (ckpt, meta), expected = saved
                logits = g.mask_logits
                restore_train_state(ckpt, meta, model, *train_state)
                assert g.mode == meta["groups"]["g"]["mode"]
                if g.mask_logits is not None:
                    assert logits is None or g.mask_logits is logits
                    assert np.array_equal(g.mask_logits.data, ckpt["g.s"])
                if "g.pruned" in ckpt:
                    assert np.array_equal(g.pruned_forever, ckpt["g.pruned"])
                else:
                    assert g.pruned_forever is None
            self.check_invariant(g, expected)

    def test_sample_mask_is_the_stochastic_gates_draw(self):
        rng = np.random.default_rng(8)
        g = make_group(rng.standard_normal((3, 5)), mode=GATE_STOCHASTIC,
                       logits=rng.standard_normal((3, 5)))
        g.prune_forever(rng.random((3, 5)) < 0.3)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(3):
            m = g.sample_mask(a)
            assert np.array_equal(stochastic(g, b).data,
                                  m * g.weights.data)
            assert np.all(m[g.pruned_forever] == 0.0)


class TestSparsityReport:
    """``kept_fraction`` (hard masks) and ``remaining_fraction`` (gates)."""

    def test_count(self):
        m = np.array([1, 0, 1, 0, 0, 1, 0, 0, 0, 0], dtype=float)
        assert kept_fraction({"m": m}) == 0.3

    def test_all_ones_is_fully_dense(self):
        assert kept_fraction({"m": np.ones(57)}) == 1.0

    def test_empty_rejected(self):
        for masks in ({"m": np.zeros(0)}, {}):
            with pytest.raises(ValueError):
                kept_fraction(masks)

    def test_float32_masks_divide_in_float64(self):
        m = np.zeros(7, dtype=np.float32)
        m[:3] = 1.0
        assert kept_fraction({"m": m}) == 3 / 7

    def test_remaining_fraction_weighted_over_groups(self):
        a = make_group(np.ones(10), logits=np.full(10, 5.0))
        b = make_group(np.ones(30), logits=np.full(30, -5.0))
        assert remaining_fraction([a, b], beta=50.0) == 0.25


class TestContinuationLimit:
    def test_gap_shrinks_monotonically_and_vanishes(self):
        gaps = continuation_gaps([1.0, 10.0, 100.0, 1000.0], seed=12)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6
