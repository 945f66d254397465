import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import expit

from ticketlab import tensor as T
from ticketlab.masking import (GATE_HARD, GATE_MODES, GATE_SOFT,
                               GATE_STOCHASTIC, MaskedParameterGroup,
                               TemperatureSchedule, gate_penalty, hard_mask,
                               kept_fraction, remaining_fraction, reset_mask,
                               soft_gate, stochastic_gate)
from ticketlab.models import Model
from ticketlab.optim import SGD
from ticketlab.tensor import Tensor, backward, reset_tape, tensor_sum
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

    def test_step_and_reset(self):
        s = TemperatureSchedule(100.0, 10)
        assert s.current_beta == 1.0
        b = s.step()
        assert b == s.at(1)
        for _ in range(9):
            b = s.step()
        assert b == 100.0
        s.reset()
        assert s.current_beta == 1.0

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


class TestStochasticGate:
    def test_saturated_logits_pass_weights_through(self):
        rng = np.random.default_rng(0)
        w = np.array([1.5, -2.5, 0.5])
        g = make_group(w, mode=GATE_STOCHASTIC, logits=np.full(3, 30.0))
        out = stochastic_gate(g, rng)
        assert np.array_equal(out.data, w)

    def test_sample_mean_matches_probability(self):
        rng = np.random.default_rng(1)
        g = make_group(np.ones(10_000), mode=GATE_STOCHASTIC)
        out = stochastic_gate(g, rng)
        # binomial CI at p=0.5, n=10k: +-0.02 is ~4 sigma
        assert abs(out.data.mean() - 0.5) < 0.02

    def test_straight_through_identity_gradient(self):
        rng = np.random.default_rng(2)
        w = np.array([2.0, -3.0, 0.5])
        g = make_group(w, mode=GATE_STOCHASTIC)
        out = stochastic_gate(g, rng)
        u = np.array([1.0, 10.0, -4.0])
        backward(tensor_sum(T.mul(out, Tensor(u))))
        assert np.allclose(g.mask_logits.grad, u * w)

    def test_straight_through_sigmoid_variant(self):
        rng = np.random.default_rng(3)
        w = np.array([2.0, -3.0])
        s = np.array([0.7, -0.2])
        g = make_group(w, mode=GATE_STOCHASTIC, logits=s)
        out = stochastic_gate(g, rng, st_variant="sigmoid")
        backward(tensor_sum(out))
        p = expit(s)
        assert np.allclose(g.mask_logits.grad, w * p * (1 - p))

    def test_requires_rng(self):
        g = make_group(np.ones(3), mode=GATE_STOCHASTIC)
        with pytest.raises(ValueError):
            stochastic_gate(g, None)

    def test_frozen_components_sample_zero_and_get_no_gradient(self):
        rng = np.random.default_rng(4)
        g = make_group(np.ones(4), mode=GATE_STOCHASTIC,
                       logits=np.full(4, 30.0))
        g.pruned_forever = np.array([True, False, True, False])
        for _ in range(5):
            reset_tape()
            out = stochastic_gate(g, rng)
            assert out.data[0] == 0.0 and out.data[2] == 0.0
            backward(tensor_sum(out))
            assert g.mask_logits.grad[0] == 0.0 and g.mask_logits.grad[2] == 0.0
            g.mask_logits.grad = None


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
            w, m = g.weight_and_gate()
            assert w is g.weights
            assert np.array_equal(g.current_hard_mask(), m.data)
            assert np.array_equal(g.current_hard_mask(), expected_hard)

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(array_shapes(min_dims=1, max_dims=3, max_side=4), st.data())
    def test_transitions_keep_the_invariant(self, shape, data):
        g = MaskedParameterGroup("g", Tensor(np.ones(shape),
                                             requires_grad=True))
        bits = arrays(bool, shape)
        expected = None
        model = Model([], [g], [])
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
            assert np.array_equal(stochastic_gate(g, b).data,
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
