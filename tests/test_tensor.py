import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from scipy.special import expit as scipy_expit

from ticketlab import tensor as T
from ticketlab.data import gen_two_moons
from ticketlab.masking import (GATE_HARD, GATE_NONE, GATE_SOFT,
                               GATE_STOCHASTIC, ST_VARIANTS,
                               MaskedParameterGroup, gate, gate_penalty,
                               soft_gate)
from ticketlab.models import build_mlp, build_small_conv, stack_models
from ticketlab.optim import Adam, SGD, CompositeOptimizer
from ticketlab.search import RoundConfig, run_cs, run_imp
from ticketlab.tensor import (GradientError, NonFiniteError, ShapeError,
                              Tensor, add, add_bias, backward, conv2d, linear,
                              matmul, max_pool2d, mul, relu, reset_tape,
                              scale, sigmoid, softmax_cross_entropy,
                              tensor_sum)

from .helpers import check_grad, fd_grads, max_rel_err, off_kink_bias


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


class TestForward:
    def test_matmul_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_matmul_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_relu_definition(self):
        out = relu(Tensor([-3.0, 3.0]))
        assert out.data.tolist() == [0.0, 3.0]

    def test_pointwise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_conv_all_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k)
        assert out.data.reshape(-1).tolist() == [9.0]

    def test_conv_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(x, Tensor(k), stride=1, padding=1)
        assert np.array_equal(out.data, x.data)

    def test_conv_kernel_too_large(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    def test_conv_output_size(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        k = Tensor(np.zeros((4, 3, 3, 3)))
        assert conv2d(x, k, stride=2, padding=1).shape == (2, 4, 4, 4)

    @pytest.mark.parametrize("stride", [0, -1])
    def test_conv_stride_below_one(self, stride):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        k = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError, match=f"stride must be at least 1, got {stride}"):
            conv2d(x, k, stride=stride)

    def test_conv_negative_padding(self):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        k = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError, match="padding must be non-negative, got -1"):
            conv2d(x, k, padding=-1)

    def test_conv_bias_and_gate_shapes(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        k = Tensor(np.zeros((3, 2, 3, 3)))
        with pytest.raises(ShapeError, match="bias"):
            conv2d(x, k, bias=Tensor(np.zeros(2)))
        with pytest.raises(ShapeError, match="gate"):
            conv2d(x, k, gate=Tensor(np.zeros((3, 2, 3, 1))))

    def test_max_pool_first_max_wins_on_ties(self):
        x = np.zeros((1, 1, 2, 2))
        x[0, 0] = [[1.0, 1.0], [1.0, 1.0]]
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t)
        backward(tensor_sum(out))
        expected = np.zeros((1, 1, 2, 2))
        expected[0, 0, 0, 0] = 1.0  # row-major first position takes the tie
        assert np.array_equal(t.grad, expected)

        # every set of 2, 3 or 4 tied maxima in a window, at a positive
        # maximum and at a zero maximum held with every sign of zero: the
        # output is the first tied candidate, bit for bit, and only that
        # candidate gets the gradient
        windows, firsts = [], []
        for tied in itertools.chain.from_iterable(
                itertools.combinations(range(4), r) for r in (2, 3, 4)):
            windows.append([1.0 if i in tied else -1.0 for i in range(4)])
            firsts.append(tied[0])
            for signs in itertools.product((0.0, -0.0), repeat=len(tied)):
                w = [-1.0] * 4
                for i, z in zip(tied, signs):
                    w[i] = z
                windows.append(w)
                firsts.append(tied[0])
        x = np.array(windows).reshape(len(windows), 1, 2, 2)
        reset_tape()
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t)
        g = np.arange(1.0, len(windows) + 1).reshape(out.shape)
        backward(tensor_sum(mul(out, Tensor(g))))
        flat = x.reshape(len(windows), 4)
        want = flat[np.arange(len(windows)), firsts]
        assert out.data.reshape(-1).tobytes() == want.tobytes()
        grad = np.zeros_like(flat)
        grad[np.arange(len(windows)), firsts] = g.reshape(-1)
        assert t.grad.reshape(len(windows), 4).tobytes() == grad.tobytes()

    def test_cross_entropy_uniform(self):
        loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([1]))
        assert abs(float(loss.data) - np.log(2)) < 1e-12

    def test_cross_entropy_stable_at_huge_logits(self):
        loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), np.array([0]))
        assert float(loss.data) < 1e-12
        assert np.isfinite(loss.data)

    def test_cross_entropy_label_out_of_range(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([2]))

    def test_forward_determinism(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 3))
        a = matmul(Tensor(x), Tensor(w)).data
        b = matmul(Tensor(x), Tensor(w)).data
        assert np.array_equal(a, b)


class TestExpit:
    """``tensor.expit`` against SciPy's, the implementation it replaced."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_within_4_ulp_of_scipy(self, dtype):
        # NumPy's SIMD exp can differ from libm's in the last bit; where
        # exp(-x) is near a power of two past 1/eps, the rounding of
        # 1 + exp(-x) can widen that to 4 ulp of the result
        x = np.linspace(-800, 800, 1_600_001).astype(dtype)
        out = T.expit(x)
        assert out.dtype == dtype
        np.testing.assert_array_max_ulp(out, scipy_expit(x), maxulp=4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_special_values_match_scipy(self, dtype):
        x = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 800.0, -800.0],
                     dtype=dtype)
        out = T.expit(x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, scipy_expit(x))
        for v in (x[3], x[:1].reshape(()), np.array(-0.0, dtype=dtype)):
            a, b = T.expit(v), scipy_expit(v)
            assert (type(a), a.dtype, np.shape(a)) == (type(b), b.dtype,
                                                     np.shape(b))
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_saturated_gate_warns_nothing(self, dtype):
        g = MaskedParameterGroup("g", Tensor(np.ones(3, dtype=dtype),
                                             dtype=dtype))
        g.init_gate(GATE_SOFT, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(gate(g, 800.0).data == 0.0)  # beta * s = -800
            assert np.all(T.expit(np.full(3, -800.0, dtype=dtype)) == 0.0)


class TestBackward:
    def test_sum_grad_is_ones(self):
        w = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        backward(tensor_sum(w))
        assert np.array_equal(w.grad, np.ones((3, 2)))

    def test_quadratic_grad(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        backward(tensor_sum(mul(w, w)))
        assert w.grad.tolist() == [2.0, -4.0]

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        out = mul(w, w)
        with pytest.raises(GradientError):
            backward(out)

    def test_empty_tape_rejected(self):
        with pytest.raises(GradientError):
            backward(Tensor(np.asarray(1.0)))

    def test_double_backward_without_reset_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = tensor_sum(mul(w, w))
        backward(loss)
        with pytest.raises(GradientError):
            backward(loss)

    def test_tape_visits_exact_reverse_order(self):
        w = Tensor(np.ones(4), requires_grad=True)
        h = relu(w)
        h = mul(h, h)
        h = scale(h, 2.0)
        loss = tensor_sum(h)
        tape = T.active_tape()
        n = len(tape.nodes)
        visits = []
        for idx, node in enumerate(tape.nodes):
            def logged(g, idx=idx, fn=node.backward_fn):
                visits.append(idx)
                fn(g)
            node.backward_fn = logged
        backward(loss)
        assert visits == list(range(n - 1, -1, -1))


def _reference_max_pool(d, g):
    """2x2 max pooling by stacking the four candidates and taking the
    first argmax, and its gradient summed into zeros."""
    slots = [(slice(None), slice(None), slice(i, None, 2), slice(j, None, 2))
             for i in (0, 1) for j in (0, 1)]
    cands = np.stack([d[at] for at in slots])
    idx = cands.argmax(axis=0)
    gx = np.zeros_like(d)
    for t, at in enumerate(slots):
        gx[at] += g * (idx == t)
    return np.take_along_axis(cands, idx[None], axis=0)[0], gx


class TestFusedOpsAgainstReferences:
    """``max_pool2d``, ``linear`` and the gated, biased ``conv2d``, also
    with the ReLU fused in, give bitwise the results of the compositions
    they replace."""

    @pytest.mark.parametrize("kind", ["normal", "relu", "signed_zeros", "float32"])
    def test_max_pool_matches_argmax_reference(self, kind):
        rng = np.random.default_rng(31)
        shape = (4, 3, 8, 6)
        x = {"normal": lambda: rng.standard_normal(shape),
             "relu": lambda: np.maximum(rng.standard_normal(shape), 0.0),
             "signed_zeros": lambda: rng.choice([-0.0, 0.0, 1.0, -1.0], shape),
             "float32": lambda: np.maximum(rng.standard_normal(shape), 0.0)
             .astype(np.float32)}[kind]()
        g = rng.choice([-0.0, 0.0, 1.5, -2.0], (4, 3, 4, 3)).astype(x.dtype)
        t = Tensor(x, requires_grad=True, dtype=x.dtype)
        out = max_pool2d(t)
        backward(tensor_sum(mul(out, Tensor(g, dtype=x.dtype))))
        ref_out, ref_gx = _reference_max_pool(x, g)
        assert out.data.dtype == t.grad.dtype == x.dtype
        assert type(t.grad) is np.ndarray and t.grad.flags.c_contiguous
        assert out.data.tobytes() == ref_out.tobytes()
        assert t.grad.tobytes() == ref_gx.tobytes()

    @pytest.mark.parametrize("gated", [None, "hard", "soft"])
    def test_linear_matches_matmul_bias_composition(self, gated):
        rng = np.random.default_rng(32)
        arrays = [rng.standard_normal((5, 4)), rng.standard_normal((4, 3)),
                  rng.standard_normal(3)]
        m = {None: None, "hard": (rng.random((4, 3)) < 0.5).astype(float),
             "soft": rng.random((4, 3))}[gated]

        def run(fused):
            reset_tape()
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            gate = None if m is None else Tensor(m, requires_grad=gated == "soft")
            if fused:
                out = linear(x, w, b, gate)
            else:
                we = w if gate is None else mul(w, gate)
                out = add_bias(matmul(x, we), b)
            backward(tensor_sum(mul(out, Tensor(np.arange(15.0).reshape(5, 3)))))
            grads = [x.grad, w.grad, b.grad] + ([gate.grad] if gated == "soft" else [])
            return [out.data] + grads

        for fused, composed in zip(run(True), run(False)):
            assert fused.tobytes() == composed.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("gated", [None, "hard", "soft", "frozen"])
    def test_conv_layer_matches_mul_conv_bias_composition(self, gated, padding,
                                                          stride, dtype):
        # "frozen": the kernel requires no gradient and the gate trains
        rng = np.random.default_rng(33)
        arrays = [rng.standard_normal((3, 3, 7, 6)),
                  rng.standard_normal((4, 3, 3, 2)), rng.standard_normal(4)]
        m = {None: None, "hard": (rng.random((4, 3, 3, 2)) < 0.5).astype(float),
             "soft": rng.random((4, 3, 3, 2)),
             "frozen": rng.random((4, 3, 3, 2))}[gated]

        shape = (3, 4, (7 + 2 * padding - 3) // stride + 1,
                 (6 + 2 * padding - 2) // stride + 1)
        g = np.random.default_rng(34).standard_normal(shape).astype(dtype)

        def run(fused):
            reset_tape()
            x, k, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
            k.requires_grad = gated != "frozen"
            gate = None if m is None else Tensor(
                m, requires_grad=gated in ("soft", "frozen"), dtype=dtype)
            if fused:
                out = conv2d(x, k, stride, padding, b, gate)
                assert [node.op for node in T.active_tape().nodes] == ["conv_layer"]
                backward(tensor_sum(mul(out, Tensor(g, dtype=dtype))))
                out, gb = out.data, b.grad
            else:  # the bias added, and its gradient summed, in NumPy
                ke = k if gate is None else mul(k, gate)
                out = conv2d(x, ke, stride, padding)
                backward(tensor_sum(mul(out, Tensor(g, dtype=dtype))))
                out, gb = out.data + b.data[None, :, None, None], g.sum(axis=(0, 2, 3))
            return [out, x.grad, k.grad, gb,
                    None if gate is None else gate.grad]

        for fused, composed in zip(run(True), run(False)):
            if composed is None:
                assert fused is None
            else:
                assert fused.dtype == composed.dtype == dtype
                assert fused.tobytes() == composed.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("gated", [None, "hard", "soft"])
    @pytest.mark.parametrize("op", ["linear", "conv2d"])
    def test_fused_relu_matches_op_then_relu(self, op, gated, dtype):
        rng = np.random.default_rng(35)
        wshape = (4, 3) if op == "linear" else (4, 3, 3, 2)
        arrays = [rng.standard_normal((5, 4) if op == "linear" else (3, 3, 7, 6)),
                  rng.standard_normal(wshape),
                  rng.standard_normal(wshape[1] if op == "linear" else 4)]
        arrays[0][0] = 0.0  # a whole sample at the kink
        m = {None: None, "hard": (rng.random(wshape) < 0.5).astype(float),
             "soft": rng.random(wshape)}[gated]

        def layer(x, w, b, gate, relu_):
            if op == "linear":
                return linear(x, w, b, gate, relu=relu_)
            return conv2d(x, w, 1, 1, b, gate, relu=relu_)

        def run(fused):
            reset_tape()
            x, w, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
            gate = None if m is None else Tensor(m, requires_grad=gated == "soft",
                                                 dtype=dtype)
            out = layer(x, w, b, gate, True) if fused else relu(
                layer(x, w, b, gate, False))
            assert len(T.active_tape()) == (1 if fused else 2)
            assert (out.data == 0).any() and (out.data > 0).any()
            g = np.random.default_rng(36).standard_normal(out.shape)
            backward(tensor_sum(mul(out, Tensor(g, dtype=dtype))))
            grads = [x.grad, w.grad, b.grad] + ([gate.grad] if gated == "soft" else [])
            return [out.data] + grads

        for fused, composed in zip(run(True), run(False)):
            assert fused.dtype == composed.dtype == dtype
            assert fused.tobytes() == composed.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("gated", [None, "hard", "soft", "frozen"])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 2), (2, 0), (2, 1),
                                                (2, 2)])
    def test_fused_relu_conv_matches_conv_then_relu(self, stride, padding,
                                                    gated, dtype):
        # the ReLU mask of the output gradient feeds the strided, padded
        # kernel and input gradients; "frozen": only the gate trains
        rng = np.random.default_rng(37)
        arrays = [rng.standard_normal((3, 3, 7, 6)),
                  rng.standard_normal((4, 3, 3, 2)), rng.standard_normal(4)]
        arrays[0][0] = 0.0  # a whole sample at the kink
        m = {None: None, "hard": (rng.random((4, 3, 3, 2)) < 0.5).astype(float),
             "soft": rng.random((4, 3, 3, 2)),
             "frozen": rng.random((4, 3, 3, 2))}[gated]

        def run(fused):
            reset_tape()
            x, k, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
            k.requires_grad = gated != "frozen"
            gate = None if m is None else Tensor(
                m, requires_grad=gated in ("soft", "frozen"), dtype=dtype)
            out = conv2d(x, k, stride, padding, b, gate, relu=fused)
            if not fused:
                out = relu(out)
            assert len(T.active_tape()) == (1 if fused else 2)
            assert (out.data == 0).any() and (out.data > 0).any()
            g = np.random.default_rng(38).standard_normal(out.shape)
            backward(tensor_sum(mul(out, Tensor(g, dtype=dtype))))
            return [out.data, x.grad, k.grad, b.grad,
                    None if gate is None else gate.grad]

        for fused, composed in zip(run(True), run(False)):
            if composed is None:
                assert fused is None
            else:
                assert fused.dtype == composed.dtype == dtype
                assert fused.tobytes() == composed.tobytes()


class TestGradientBuffers:
    """``accumulate_grad`` owns the buffer it stores: the first gradient
    is copied, in the tensor's dtype, unless an op hands it over."""

    def test_inputs_of_one_add_get_separate_buffers(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        backward(tensor_sum(add(a, b)))
        assert a.grad is not b.grad
        a.grad[0] = 5.0
        assert b.grad.tolist() == [1.0, 1.0, 1.0]

    def test_read_only_broadcast_first_gradient_accumulates(self):
        w = Tensor(np.zeros((2, 3)), requires_grad=True)
        view = np.broadcast_to(np.float64(0.5), (2, 3))
        assert not view.flags.writeable
        w.accumulate_grad(view)
        w.accumulate_grad(np.ones((2, 3)))
        assert np.array_equal(w.grad, np.full((2, 3), 1.5))
        # tensor_sum's backward hands over such a view
        reset_tape()
        v = Tensor(np.zeros(4), requires_grad=True)
        backward(tensor_sum(v))
        v.accumulate_grad(np.ones(4))
        assert v.grad.tolist() == [2.0] * 4

    def test_float32_tensor_keeps_float32_grad(self):
        w = Tensor(np.zeros(3), requires_grad=True, dtype=np.float32)
        w.accumulate_grad(np.full(3, 1.0 / 3.0))
        assert w.grad.dtype == np.float32
        w.accumulate_grad(np.full(3, 1.0 / 3.0))
        assert w.grad.dtype == np.float32


def _backward_through_model(kind, mode, k, lam, st_variant, prune, seed,
                            trained=False):
    """One backward pass through a model of ``kind`` (an MLP or
    conv6-scaled on 8x8 images) with gates of ``mode``, as ``train`` runs
    it; a hard-masked or ungated MLP is a stack of ``k`` tickets. With
    ``trained``, optimizers hold the weights and the logits, so their
    gradients go to the optimizers' arenas. Returns every tensor the pass
    reached and the model's trainable tensors."""
    rng = np.random.default_rng(seed)
    if kind == "mlp":
        stacks = mode in (GATE_HARD, GATE_NONE)  # what stack_models takes
        models = [build_mlp([3, 8, 6, 2], seed=seed % 100 + i)
                  for i in range(k if stacks else 1)]
        x = rng.standard_normal((5, 3))
    else:
        models = [build_small_conv("conv6-scaled", seed=seed % 100,
                                   in_shape=(1, 8, 8))]
        x = rng.random((3, 1, 8, 8))
    for model in models:
        if mode == GATE_HARD:
            model.apply_hard_masks({g.name: rng.random(g.weights.shape) < 0.7
                                    for g in model.maskable_groups()})
        elif mode != GATE_NONE:
            model.set_gate_mode(mode)
            for g in model.maskable_groups():
                g.mask_logits.data[...] = rng.standard_normal(g.weights.shape)
                if prune:
                    g.prune_forever(rng.random(g.weights.shape) < 0.3)
    model = models[0] if len(models) == 1 else stack_models(models)
    if trained:
        CompositeOptimizer([SGD(model.weight_tensors()),
                            SGD(model.mask_tensors())])
    gated = [g for g in model.groups if g.mode in (GATE_SOFT, GATE_STOCHASTIC)]
    gates = {g.name: gate(g, 2.0, lam, rng, st_variant) for g in gated}
    loss = softmax_cross_entropy(model.forward(Tensor(x), gates=gates),
                                 rng.integers(0, 2, len(x)))
    if loss.ndim:
        loss = tensor_sum(loss)
    backward(loss)
    reached = {}
    for node in T.active_tape().nodes:
        for t in node.inputs + (node.output,):
            reached[id(t)] = t
    return list(reached.values()), model.weight_tensors() + model.mask_tensors()


class TestGradientOwnership:
    """An op hands a gradient over only when it built that array for the one
    input it goes to, or wrote it into that input's gradient destination;
    every other first gradient is copied. So after ``backward`` no
    gradient is a view that another tensor can reach."""

    @settings(derandomize=True, database=None, max_examples=60,
              deadline=None)
    @given(st.sampled_from(["mlp", "conv6-scaled"]),
           st.sampled_from([GATE_NONE, GATE_HARD, GATE_SOFT,
                            GATE_STOCHASTIC]),
           st.integers(1, 3), st.sampled_from(["float64", "float32"]),
           st.sampled_from([0.0, 1e-3]), st.sampled_from(ST_VARIANTS),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_every_gradient_is_its_own_plain_c_ordered_buffer(
            self, kind, mode, k, precision, lam, st_variant, prune, trained,
            seed):
        reset_tape()
        T.set_default_dtype(precision)
        try:
            tensors, params = _backward_through_model(
                kind, mode, k, lam, st_variant, prune, seed, trained)
        finally:
            T.set_default_dtype("float64")
        assert all(p.grad is not None for p in params if p.requires_grad)
        owners = [t for t in tensors + params if t.grad is not None]
        for t in owners:
            assert type(t.grad) is np.ndarray
            assert t.grad.flags.c_contiguous
            assert (t.grad.dtype, t.grad.shape) == (t.dtype, t.shape)
            assert t.dtype == np.dtype(precision)
            for u in tensors + params:
                assert not np.shares_memory(t.grad, u.data)
                if u is not t and u.grad is not None:
                    assert not np.shares_memory(t.grad, u.grad)
        if trained:  # each where its optimizer reads it
            assert all(p.grad is p.grad_dest for p in params
                       if p.requires_grad)

    def test_stochastic_gate_copies_an_array_it_was_not_handed(self):
        g = MaskedParameterGroup("g", Tensor(np.ones((2, 3)),
                                             requires_grad=True))
        g.init_gate(GATE_STOCHASTIC, 0.5)
        step = gate(g, 1.0, rng=np.random.default_rng(0))
        grad = np.full((2, 3), 0.25)
        step.accumulate_grad(grad)  # as a caller that keeps ``grad`` would
        assert np.array_equal(g.mask_logits.grad, grad)
        assert not np.shares_memory(g.mask_logits.grad, grad)

    @pytest.mark.parametrize("run", [run_cs, run_imp], ids=["cs", "imp"])
    def test_mlp_step_copies_no_first_gradient(self, monkeypatch, run):
        """Every gradient of an MLP step is handed over (``take_grad``),
        none passed on to be copied (``accumulate_grad``), and each first
        one becomes the tensor's gradient as it is."""
        calls, copies, passed = [0], [], []
        take = Tensor.take_grad

        def counting(t, g):
            first = t.grad is None
            take(t, g)
            calls[0] += 1
            if first and t.grad is not g:
                copies.append(t.shape)

        monkeypatch.setattr(Tensor, "take_grad", counting)
        monkeypatch.setattr(Tensor, "accumulate_grad",
                            lambda t, g: passed.append(t.shape))
        cfg = RoundConfig(rounds=1, iters_per_round=2, rewind_iter=0,
                          prune_rate=0.2, batch_size=32, record_every=0)
        run(build_mlp([2, 64, 64, 2], seed=1), gen_two_moons(64, 0.1, seed=3),
            cfg, seed=1)
        # per step: the logits, two hidden activations, three weights and
        # three biases, and with soft gates three logit tensors
        assert calls[0] == 2 * (12 if run is run_cs else 9)
        assert copies == passed == []

    @pytest.mark.parametrize("trained", [False, True])
    def test_second_gradients_add_in_arrival_order(self, trained):
        """A weight that three layers read gets the three gradients summed
        in the order the backward pass reaches them, the last layer's
        first, whether or not an optimizer holds it."""
        rng = np.random.default_rng(11)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        if trained:
            SGD([w])
        big = rng.standard_normal((4, 3)) * 1e16
        xs = [big, -big, rng.standard_normal((4, 3))]  # the order shows
        loss = None
        for x in xs:
            part = tensor_sum(linear(Tensor(x), w, Tensor(np.zeros(2))))
            loss = part if loss is None else add(loss, part)
        backward(loss)
        g1, g2, g3 = (x.T @ np.ones((4, 2)) for x in xs)
        assert w.grad.tobytes() == ((g3 + g2) + g1).tobytes()
        assert w.grad.tobytes() != ((g1 + g2) + g3).tobytes()
        assert (w.grad is w.grad_dest) == trained


GRAD_CASES = {
    "matmul": lambda rng: (lambda a, b: matmul(a, b),
                           [rng.standard_normal((3, 3)),
                            rng.standard_normal((3, 3))]),
    "add": lambda rng: (lambda a, b: add(a, b),
                        [rng.standard_normal((4, 2)),
                         rng.standard_normal((4, 2))]),
    "mul": lambda rng: (lambda a, b: mul(a, b),
                        [rng.standard_normal((4, 2)),
                         rng.standard_normal((4, 2))]),
    "scale": lambda rng: (lambda a: scale(a, 1.7),
                          [rng.standard_normal((5,))]),
    "relu": lambda rng: (lambda a: relu(a),
                         [rng.standard_normal((4, 3)) + 0.05]),
    "sigmoid": lambda rng: (lambda a: sigmoid(a),
                            [rng.standard_normal((4, 3))]),
    "add_bias": lambda rng: (lambda x, b: add_bias(x, b),
                             [rng.standard_normal((4, 3)),
                              rng.standard_normal(3)]),
    "conv2d": lambda rng: (lambda x, k: conv2d(x, k, stride=1, padding=1),
                           [rng.standard_normal((2, 2, 4, 4)),
                            rng.standard_normal((3, 2, 3, 3))]),
    "max_pool2d": lambda rng: (lambda x: max_pool2d(x),
                               [rng.standard_normal((2, 2, 4, 4))]),
    "softmax_ce": lambda rng: (
        lambda l: softmax_cross_entropy(l, np.array([0, 2, 1, 0])),
        [rng.standard_normal((4, 3))]),
    "linear": lambda rng: (lambda x, w, b: linear(x, w, b),
                           [rng.standard_normal((4, 3)),
                            rng.standard_normal((3, 2)),
                            rng.standard_normal(2)]),
    "linear_gated": lambda rng: (lambda x, w, b, m: linear(x, w, b, m),
                                 [rng.standard_normal((4, 3)),
                                  rng.standard_normal((3, 2)),
                                  rng.standard_normal(2),
                                  rng.random((3, 2))]),
}


def _fused_relu_case(op):
    """A GRAD_CASES entry for a gated layer with the ReLU fused in; its
    bias keeps every pre-activation off the kink."""
    def case(rng):
        if op == "linear":
            def build(x, w, b, m, relu=True):
                return linear(x, w, b, m, relu=relu)
            arrays = [rng.standard_normal((4, 3)), rng.standard_normal((3, 2)),
                      rng.standard_normal(2), rng.random((3, 2))]
        else:
            def build(x, k, b, m, relu=True):
                return conv2d(x, k, 1, 1, b, m, relu=relu)
            arrays = [rng.standard_normal((2, 2, 4, 4)),
                      rng.standard_normal((3, 2, 3, 3)),
                      rng.standard_normal(3), rng.random((3, 2, 3, 3))]
        with T.no_grad():
            pre = build(*(Tensor(a) for a in arrays), relu=False).data
        arrays[2] = off_kink_bias(pre, arrays[2], axis=1)
        return build, arrays
    return case


GRAD_CASES["linear_relu"] = _fused_relu_case("linear")
GRAD_CASES["conv2d_relu"] = _fused_relu_case("conv2d")


def soft_group(w: Tensor, s: Tensor, kept=None) -> MaskedParameterGroup:
    """A soft-gated group over the given weight and logit tensors;
    ``kept`` marks the components not permanently removed."""
    g = MaskedParameterGroup("g", w, mode=GATE_SOFT, mask_logits=s)
    if kept is not None:
        g.pruned_forever = ~kept
    return g


def _gate_case(op: str, beta: float, keep: bool):
    """A GRAD_CASES entry for one gate op at ``beta``. Logits are drawn on
    the scale 1/beta, so that beta * s spans the sigmoid's slope; ``keep``
    removes about 30% of the components permanently."""
    def case(rng):
        s = rng.standard_normal((3, 4)) / beta
        k = rng.random((3, 4)) < 0.7 if keep else None
        ones = Tensor(np.ones((3, 4)))
        if op == "soft_gate":
            return (lambda w, s: soft_gate(soft_group(w, s, k), beta),
                    [rng.standard_normal((3, 4)), s])
        if op == "gate":
            return lambda s: gate(soft_group(ones, s, k), beta), [s]
        return lambda s: gate_penalty(soft_group(ones, s, k), beta, 0.3), [s]
    return case


GRAD_CASES.update({
    f"{op}_b{beta:g}" + ("_kept" if keep else ""): _gate_case(op, beta, keep)
    for op in ("soft_gate", "gate", "gate_penalty")
    for beta in (1.0, 7.0, 100.0) for keep in (False, True)})


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("name", sorted(GRAD_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_op_matches_fd(self, name, seed):
        rng = np.random.default_rng(seed)
        build, arrays = GRAD_CASES[name](rng)
        assert check_grad(build, arrays) < 1e-4

    def test_sigmoid_derivative_at_two(self):
        x = np.array([2.0])
        err = check_grad(lambda a: sigmoid(a), [x])
        assert err < 1e-6

    def test_matmul_grad_sum_loss(self):
        # d sum(a @ b) / d a against finite differences on random 3x3
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))

        def scalar():
            with T.no_grad():
                return float(matmul(Tensor(a), Tensor(b)).data.sum())

        ta = Tensor(a, requires_grad=True)
        reset_tape()
        backward(tensor_sum(matmul(ta, Tensor(b))))
        fd = fd_grads(scalar, [a])[0]
        assert max_rel_err(ta.grad, fd) < 1e-6

    def test_conv_kernel_grad_small(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 1, 4, 4))
        k = rng.standard_normal((1, 1, 3, 3))
        err = check_grad(lambda xi, ki: conv2d(xi, ki), [x, k])
        assert err < 1e-5

    def test_conv_strided_grad(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        err = check_grad(lambda xi, ki: conv2d(xi, ki, stride=2, padding=1),
                         [x, k])
        assert err < 1e-4

    def test_gate_records_nothing_and_gate_ops_and_layers_one_node_each(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        s = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        group = soft_group(w, s)
        k = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
        conv_group = soft_group(k, Tensor(rng.standard_normal((2, 1, 3, 3)),
                                          requires_grad=True))
        gate(group, 7.0, 0.1)
        assert len(T.active_tape()) == 0
        for make in (lambda: gate_penalty(group, 7.0, 0.1),
                     lambda: soft_gate(group, 7.0),
                     lambda: linear(Tensor(np.ones((2, 3))), w, Tensor(np.zeros(4)),
                                    gate(group, 7.0, 0.1), relu=True),
                     lambda: conv2d(Tensor(np.ones((2, 1, 4, 4))), k, 1, 1,
                                    Tensor(np.zeros(2)),
                                    gate(conv_group, 7.0, 0.1), relu=True)):
            reset_tape()
            make()
            assert len(T.active_tape()) == 1

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_step_gate_penalty_matches_fd(self, seed, keep):
        # a layer reading a step gate gives the logits the gradient of
        # sum(out * P) + lam * sum(gate), the penalty's part off the tape
        rng = np.random.default_rng(seed)
        beta, lam = 7.0, 0.3
        x = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(4))
        s = Tensor(rng.standard_normal((3, 4)) / beta, requires_grad=True)
        group = soft_group(Tensor(rng.standard_normal((3, 4))), s,
                           rng.random((3, 4)) < 0.7 if keep else None)
        proj = Tensor(rng.standard_normal((4, 4)))

        def objective():
            m = gate(group, beta, lam)
            out = tensor_sum(mul(linear(x, group.weights, b, m), proj))
            return out, m.penalty

        def scalar():
            with T.no_grad():
                out, penalty = objective()
                return float(out.data + penalty)

        backward(objective()[0])
        fd = fd_grads(scalar, [s.data])[0]
        assert max_rel_err(s.grad, fd) < 1e-4

    def test_step_gate_takes_one_gradient(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        group = MaskedParameterGroup("dense7", w)
        group.init_gate(GATE_SOFT, 0.1)
        m = gate(group, 7.0, 0.1)
        x, b = Tensor(np.ones((2, 3))), Tensor(np.zeros(4))
        loss = tensor_sum(add(linear(x, w, b, m), linear(x, w, b, m)))
        with pytest.raises(GradientError, match="'dense7'"):
            backward(loss)

    def test_grad_accumulates_over_shared_input(self):
        w = Tensor([3.0], requires_grad=True)
        loss = tensor_sum(add(mul(w, w), w))  # w^2 + w -> 2w + 1
        backward(loss)
        assert abs(w.grad[0] - 7.0) < 1e-12


def _direct_conv(x, k, g, stride, padding):
    """Forward output, kernel gradient and input gradient of a strided,
    zero-padded cross-correlation, one output pixel at a time, for the
    output gradient ``g`` (float64 throughout)."""
    x, k, g = (np.asarray(a, dtype=np.float64) for a in (x, k, g))
    kh, kw = k.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh, ow = g.shape[2:]
    out = np.zeros(g.shape)
    gk = np.zeros(k.shape)
    gxp = np.zeros(xp.shape)
    for y in range(oh):
        for z in range(ow):
            rows = slice(y * stride, y * stride + kh)
            cols = slice(z * stride, z * stride + kw)
            patch = xp[:, :, rows, cols]  # (n, cin, kh, kw)
            out[:, :, y, z] = np.tensordot(patch, k, axes=([1, 2, 3], [1, 2, 3]))
            gk += np.tensordot(g[:, :, y, z], patch, axes=(0, 0))
            gxp[:, :, rows, cols] += np.tensordot(g[:, :, y, z], k, axes=(1, 0))
    gx = gxp[:, :, padding:padding + x.shape[2], padding:padding + x.shape[3]]
    return out, gk, gx


def _per_offset_input_grad(k, g, x_shape, stride, padding):
    """The input gradient of a strided, zero-padded cross-correlation as
    one GEMM per kernel offset, each product scatter-added through the
    strided window of a channel-major (cin, n, hp, wp) padded buffer."""
    n, cin, h, w = x_shape
    cout, _, kh, kw = k.shape
    oh, ow = g.shape[2:]
    g2 = g.transpose(1, 0, 2, 3).reshape(cout, n * oh * ow)
    gxp = np.zeros((cin, n, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += (
                k[:, :, i, j].T @ g2).reshape(cin, n, oh, ow)
    return gxp[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3)


def _close(actual, expected, rel):
    """Agreement to ``rel`` of the reference's largest magnitude."""
    scale = np.abs(expected).max()
    assert np.abs(actual - expected).max() <= rel * scale


class TestConvAgainstDirectLoops:
    """``conv2d`` forward and both gradients against ``_direct_conv``:
    non-square kernel, odd spatial sizes, every stride/padding pair."""

    @staticmethod
    def _run(x, k, stride, padding, dtype=np.float64):
        rng = np.random.default_rng(5)
        tx = Tensor(x, requires_grad=True, dtype=dtype)
        tk = Tensor(k, requires_grad=True, dtype=dtype)
        out = conv2d(tx, tk, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(dtype)
        backward(tensor_sum(mul(out, Tensor(g, dtype=dtype))))
        return tx, tk, out, g

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_matches_direct_loops(self, n, stride, padding):
        rng = np.random.default_rng(100 * n + 10 * stride + padding)
        x = rng.standard_normal((n, 3, 7, 5))
        k = rng.standard_normal((4, 3, 3, 2))
        tx, tk, out, g = self._run(x, k, stride, padding)
        ref_out, ref_gk, ref_gx = _direct_conv(x, k, g, stride, padding)
        assert out.shape == ref_out.shape
        _close(out.data, ref_out, 1e-12)
        _close(tk.grad, ref_gk, 1e-12)
        _close(tx.grad, ref_gx, 1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("shape", [(3, 3, 4, 7, 5), (32, 8, 8, 16, 16),
                                       (32, 16, 16, 8, 8), (32, 32, 32, 4, 4)])
    def test_input_grad_matches_per_offset_scatter(self, shape, stride, padding,
                                                   dtype):
        n, cin, cout, h, w = shape
        rng = np.random.default_rng(sum(shape) + 10 * stride + padding)
        x = Tensor(rng.standard_normal((n, cin, h, w)), requires_grad=True,
                   dtype=dtype)
        k = Tensor(rng.standard_normal((cout, cin, 3, 3)), dtype=dtype)
        out = conv2d(x, k, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape).astype(dtype)
        backward(tensor_sum(mul(out, Tensor(g, dtype=dtype))))
        ref = _per_offset_input_grad(k.data, g, x.shape, stride, padding)
        assert x.grad.dtype == ref.dtype == dtype
        assert x.grad.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_float32_in_float32_out(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 7, 5))
        k = rng.standard_normal((4, 3, 3, 2))
        tx, tk, out, g = self._run(x, k, 2, 1, dtype=np.float32)
        assert out.dtype == tx.grad.dtype == tk.grad.dtype == np.float32
        ref_out, ref_gk, ref_gx = _direct_conv(tx.data, tk.data, g, 2, 1)
        _close(out.data, ref_out, 1e-5)
        _close(tk.grad, ref_gk, 1e-5)
        _close(tx.grad, ref_gx, 1e-5)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((2, 3, 7, 5)))
        k = Tensor(rng.standard_normal((4, 3, 3, 2)), requires_grad=True)
        out = conv2d(x, k, stride=1, padding=1)
        backward(tensor_sum(out))
        assert x.grad is None
        _, ref_gk, _ = _direct_conv(x.data, k.data, np.ones(out.shape), 1, 1)
        _close(k.grad, ref_gk, 1e-12)

    @pytest.mark.parametrize("samples_per_block", [1, 2])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 2)])
    def test_batch_over_several_column_blocks(self, monkeypatch,
                                              samples_per_block, stride,
                                              padding):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((7, 3, 7, 5))
        k = rng.standard_normal((4, 3, 3, 2))
        oh, ow = (7 + 2 * padding - 3) // stride + 1, (5 + 2 * padding - 2) // stride + 1
        # one block holds this many samples' columns and GEMM products
        monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES",
                            samples_per_block * (3 * 3 * 2 + 4) * oh * ow * 8)
        tx, tk, out, g = self._run(x, k, stride, padding)
        ref_out, ref_gk, ref_gx = _direct_conv(x, k, g, stride, padding)
        _close(out.data, ref_out, 1e-12)
        _close(tk.grad, ref_gk, 1e-12)
        _close(tx.grad, ref_gx, 1e-12)
        with T.no_grad():
            plain = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding)
        assert plain.data.tobytes() == out.data.tobytes()

    @pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12),
                                           (np.float32, 1e-5)])
    @pytest.mark.parametrize("samples_per_block", [1, 2])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 2)])
    def test_gated_relu_layer_over_several_column_blocks(
            self, monkeypatch, stride, padding, samples_per_block, dtype, rel):
        # bias, soft gate and ReLU on a batch split over column blocks:
        # the references are the direct loops on the gated kernel, fed the
        # output gradient masked where the ReLU is off
        rng = np.random.default_rng(26)
        x = rng.standard_normal((7, 3, 7, 5))
        k = rng.standard_normal((4, 3, 3, 2))
        b = rng.standard_normal(4)
        m = rng.random((4, 3, 3, 2))
        oh, ow = (7 + 2 * padding - 3) // stride + 1, (5 + 2 * padding - 2) // stride + 1
        monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES",
                            samples_per_block * (3 * 3 * 2 + 4) * oh * ow
                            * np.dtype(dtype).itemsize)
        tx, tk, tb, tm = (Tensor(a, requires_grad=True, dtype=dtype)
                          for a in (x, k, b, m))
        out = conv2d(tx, tk, stride, padding, tb, tm, relu=True)
        g = rng.standard_normal(out.shape).astype(dtype)
        backward(tensor_sum(mul(out, Tensor(g, dtype=dtype))))
        ke = tk.data.astype(np.float64) * tm.data
        pre, _, _ = _direct_conv(tx.data, ke, np.zeros(out.shape), stride, padding)
        pre += tb.data[None, :, None, None]
        gm = g * (pre > 0)
        _, ref_gke, ref_gx = _direct_conv(tx.data, ke, gm, stride, padding)
        assert out.dtype == tx.grad.dtype == tk.grad.dtype == tm.grad.dtype == dtype
        assert (pre > 0).any() and (pre <= 0).any()
        _close(out.data, np.maximum(pre, 0), rel)
        _close(tx.grad, ref_gx, rel)
        _close(tk.grad, ref_gke * tm.data, rel)
        _close(tm.grad, ref_gke * tk.data, rel)
        _close(tb.grad, gm.sum(axis=(0, 2, 3)), rel)

    def test_no_grad_peak_memory_is_one_column_block(self, monkeypatch):
        budget = 256 << 10
        monkeypatch.setattr(T, "_COLUMN_BLOCK_BYTES", budget)
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((64, 8, 16, 16)), requires_grad=True)
        k = Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
        padded = 8 * 64 * 18 * 18 * 8
        whole_batch_columns = 8 * 3 * 3 * 64 * 16 * 16 * 8
        assert whole_batch_columns > 30 * budget
        tracemalloc.start()
        try:
            with T.no_grad():
                tracemalloc.reset_peak()
                out = conv2d(x, k, stride=1, padding=1)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget + out.data.nbytes + padded

    def test_nothing_recorded_under_no_grad(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((2, 3, 7, 5)), requires_grad=True)
        k = Tensor(rng.standard_normal((4, 3, 3, 2)), requires_grad=True)
        with T.no_grad():
            out = conv2d(x, k, stride=2, padding=2)
        assert len(T.active_tape()) == 0
        assert not out.requires_grad
        ref_out, _, _ = _direct_conv(x.data, k.data, np.zeros(out.shape), 2, 2)
        _close(out.data, ref_out, 1e-12)


class TestOptimizers:
    def test_sgd_plain_step(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([2.0])
        SGD([w], lr=0.1, momentum=0.0).step()
        assert abs(w.data[0] - 0.8) < 1e-15

    def test_sgd_momentum_two_steps(self):
        w = Tensor([0.0], requires_grad=True)
        opt = SGD([w], lr=1.0, momentum=0.9)
        w.grad = np.array([1.0])
        opt.step()
        assert abs(w.data[0] + 1.0) < 1e-15
        w.grad = np.array([1.0])
        opt.step()
        assert abs(w.data[0] + 2.9) < 1e-15

    def test_weight_decay_isolation(self):
        decayed = Tensor([1.0], requires_grad=True)
        plain = Tensor([1.0], requires_grad=True)
        decayed.grad = np.array([0.0])
        plain.grad = np.array([0.0])
        SGD([decayed], lr=0.1, momentum=0.0, weight_decay=1e-4).step()
        SGD([plain], lr=0.1, momentum=0.0, weight_decay=0.0).step()
        assert decayed.data[0] < 1.0
        assert plain.data[0] == 1.0

    def test_zero_grad_zero_decay_is_identity(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal(7), requires_grad=True)
        before = w.data.copy()
        w.grad = np.zeros(7)
        SGD([w], lr=0.5, momentum=0.9).step()
        assert np.array_equal(w.data, before)
        w.grad = np.zeros(7)
        Adam([w], lr=0.5).step()
        assert np.array_equal(w.data, before)

    def test_missing_grad_is_contract_error(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(GradientError):
            SGD([w], lr=0.1).step()

    def test_grads_cleared_after_step(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([1.0])
        opt = SGD([w], lr=0.1)
        opt.step()
        assert w.grad is None

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first step ~= lr * sign(g)
        w = Tensor([0.0], requires_grad=True)
        w.grad = np.array([3.0])
        Adam([w], lr=0.01).step()
        assert abs(w.data[0] + 0.01) < 1e-6


def _reference_updates(kind, arrays, grad_steps, lr, momentum, wd):
    """The per-parameter update loop the flat arenas replaced: parameters
    after every step of ``grad_steps``, one gradient list per step."""
    ps = [a.copy() for a in arrays]
    slots = [[np.zeros_like(p) for p in ps] for _ in range(2)]
    for t, grads in enumerate(grad_steps, start=1):
        for p, g, buf, v in zip(ps, grads, *slots):
            if wd:
                g = g + wd * p
            if kind == "sgd":
                if momentum:
                    buf *= momentum
                    buf += g
                    g = buf
                p -= lr * g
            else:  # adam, buf holding m
                bc1 = 1.0 - 0.9 ** t
                bc2 = 1.0 - 0.999 ** t
                buf *= 0.9
                buf += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= lr * (buf / bc1) / (np.sqrt(v / bc2) + 1e-8)
    return ps


class TestOptimizerArena:
    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(st.sampled_from(["sgd", "adam"]),
           st.sampled_from([np.float32, np.float64]),
           st.lists(array_shapes(min_dims=1, max_dims=3, max_side=5),
                    min_size=1, max_size=4),
           st.sampled_from([0.0, 0.9]), st.sampled_from([0.0, 1e-3]),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_per_parameter_loop(self, kind, dtype, shapes,
                                                  momentum, wd, steps, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
        grad_steps = [[rng.standard_normal(s).astype(dtype) for s in shapes]
                      for _ in range(steps)]
        lr = 0.05
        ref = _reference_updates(kind, arrays, grad_steps, lr, momentum, wd)
        params = [Tensor(a.copy(), requires_grad=True, dtype=dtype)
                  for a in arrays]
        opt = (SGD(params, lr=lr, momentum=momentum, weight_decay=wd)
               if kind == "sgd" else Adam(params, lr=lr, weight_decay=wd))
        for grads in grad_steps:
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
        for p, r in zip(params, ref):
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, r)

    @pytest.mark.parametrize("bad", [None, np.inf, np.nan])
    def test_composite_step_is_atomic(self, bad):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        s = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        opt = CompositeOptimizer([SGD([w], lr=0.1, momentum=0.9),
                                  Adam([s], lr=0.1)])
        w.grad, s.grad = np.ones((3, 4)), np.ones((3, 4))
        opt.step()  # the slots are non-zero from here on
        before = ([w.data.copy(), s.data.copy()],
                  {k: a.copy() for k, a in opt.state_arrays().items()},
                  opt.state_meta())
        w.grad = np.ones((3, 4))
        s.grad = None if bad is None else np.full((3, 4), bad)
        with pytest.raises(GradientError if bad is None else NonFiniteError):
            opt.step()
        assert np.array_equal(w.data, before[0][0])
        assert np.array_equal(s.data, before[0][1])
        for k, a in opt.state_arrays().items():
            assert np.array_equal(a, before[1][k])
        assert opt.state_meta() == before[2]

    def test_rebound_parameter_is_a_gradient_error(self):
        w = Tensor(np.ones(3), requires_grad=True)
        opt = SGD([w], lr=0.1)
        w.data = w.data.copy()
        w.grad = np.ones(3)
        with pytest.raises(GradientError, match="rebound"):
            opt.step()
        assert np.array_equal(w.data, np.ones(3))

    def test_parameters_are_views_of_one_arena(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        b = Tensor(np.array([7.0, 8.0]), requires_grad=True)
        opt = SGD([a, b], lr=0.1)
        assert a.data.base is b.data.base
        assert np.array_equal(a.data, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(b.data, [7.0, 8.0])
        assert list(opt.state_arrays()) == ["buf0", "buf1"]
        assert opt.state_arrays()["buf0"].shape == (2, 3)

    def test_mixed_dtypes_and_duplicates_are_value_errors(self):
        a = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones(2), requires_grad=True, dtype=np.float32)
        with pytest.raises(ValueError, match="dtype"):
            SGD([a, b], lr=0.1)
        with pytest.raises(ValueError, match="twice"):
            Adam([a, a], lr=0.1)


class TestCompositeObjectiveGradient:
    def test_mlp_loss_matches_fd(self):
        # composite check: dense MLP loss through matmul/bias/relu/CE
        from ticketlab import build_mlp
        rng = np.random.default_rng(21)
        x = rng.standard_normal((8, 2))
        y = rng.integers(0, 2, 8)
        model = build_mlp([2, 6, 2], seed=3)
        params = model.weight_tensors()
        arrays = [p.data for p in params]

        def scalar():
            with T.no_grad():
                logits = model.forward(Tensor(x))
                return float(softmax_cross_entropy(logits, y).data)

        reset_tape()
        loss = softmax_cross_entropy(model.forward(Tensor(x)), y)
        backward(loss)
        fd = fd_grads(scalar, arrays)
        worst = max(max_rel_err(p.grad, f) for p, f in zip(params, fd))
        assert worst < 1e-4


    def test_shared_gate_objective_matches_fd(self):
        # the training step's objective: one step gate per group, read by
        # the fused layer, which also takes the penalty's gradient; the
        # penalty values are added off the tape
        from ticketlab import build_mlp
        rng = np.random.default_rng(22)
        x = rng.standard_normal((8, 2))
        y = rng.integers(0, 2, 8)
        model = build_mlp([2, 6, 2], seed=4)
        model.set_gate_mode(GATE_SOFT)
        for g in model.maskable_groups():
            g.mask_logits.data = rng.standard_normal(g.weights.shape) * 0.3
        model.groups[0].pruned_forever = rng.random((2, 6)) < 0.3
        params = model.weight_tensors() + model.mask_tensors()
        arrays = [p.data for p in params]
        beta, lam = 7.0, 1e-2

        def objective():
            gates = {g.name: gate(g, beta, lam)
                     for g in model.maskable_groups()}
            penalties = [m.penalty for m in gates.values()]
            loss = softmax_cross_entropy(
                model.forward(Tensor(x), beta=beta, gates=gates), y)
            return loss, penalties

        def scalar():
            with T.no_grad():
                loss, penalties = objective()
                return float(loss.data + sum(penalties))

        reset_tape()
        backward(objective()[0])
        fd = fd_grads(scalar, arrays)
        worst = max(max_rel_err(p.grad, f) for p, f in zip(params, fd))
        assert worst < 1e-4


class TestPrecisionModes:
    def test_float32_mode_produces_float32(self):
        T.set_default_dtype("float32")
        try:
            t = Tensor([1.0, 2.0])
            assert t.dtype == np.float32
            out = sigmoid(t)
            assert out.dtype == np.float32
        finally:
            T.set_default_dtype("float64")

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError):
            T.set_default_dtype("float16")


def _op_and_grads(op, arrays, trainable, proj=None):
    """Run ``op`` on tensors of ``arrays`` (gradients for the ``trainable``
    positions) and backpropagate sum(out * P), P being ``proj`` or else a
    fixed random array; returns the output, each trainable tensor's
    gradient and P."""
    ts = [Tensor(a, requires_grad=r, dtype=a.dtype)
          for a, r in zip(arrays, trainable)]
    reset_tape()
    out = op(*ts)
    if proj is None:
        proj = np.random.default_rng(7).standard_normal(out.shape)
        proj = proj.astype(out.dtype)
    backward(tensor_sum(mul(out, Tensor(proj, dtype=out.dtype))))
    reset_tape()
    return out.data, [t.grad for t, r in zip(ts, trainable) if r], proj


def _check_stack(op, arrays, stacked, trainable, k):
    """``op`` on a stack of ``k`` tickets against one call per ticket: the
    ``stacked`` positions of ``arrays`` carry the ticket axis, the others
    are shared. Outputs and gradients must be bitwise equal, a shared
    input's gradient being the tickets' gradients added in ticket order."""
    out, grads, proj = _op_and_grads(op, arrays, trainable)
    assert out.shape[0] == k
    shared = [None] * len(grads)
    for t in range(k):
        part = [a[t] if s else a for a, s in zip(arrays, stacked)]
        out_t, grads_t, _ = _op_and_grads(op, part, trainable, proj[t])
        assert out_t.dtype == out.dtype
        assert np.array_equal(out_t, out[t])
        slots = [s for s, r in zip(stacked, trainable) if r]
        for i, (s, g, g_t) in enumerate(zip(slots, grads, grads_t)):
            if s:
                assert g.dtype == g_t.dtype
                assert np.array_equal(g[t], g_t)
            else:
                shared[i] = g_t.copy() if shared[i] is None else shared[i] + g_t
    for g, total in zip(grads, shared):
        if total is not None:
            assert np.array_equal(g, total)


STACK_CASES = list(itertools.product((1, 3), (False, True),
                                     (np.float64, np.float32)))


class TestTicketStack:
    """A leading ticket axis K: every slice is bitwise the one-ticket op."""

    @pytest.mark.parametrize("k,shared,dt", STACK_CASES)
    def test_linear(self, k, shared, dt):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((16, 8) if shared else (k, 16, 8)).astype(dt)
        w = rng.standard_normal((k, 8, 5)).astype(dt)
        b = rng.standard_normal((k, 5)).astype(dt)
        gt = rng.random((k, 8, 5)).astype(dt)
        _check_stack(lambda x, w, b, g: linear(x, w, b, g, relu=True),
                     [x, w, b, gt], [not shared, True, True, True],
                     [True] * 4, k)

    @pytest.mark.parametrize("k,dt", [(1, np.float64), (3, np.float64),
                                      (3, np.float32)])
    def test_flatten_keeps_each_tickets_feature_order(self, k, dt):
        x = np.random.default_rng(4).standard_normal((k, 2, 3, 2, 2)).astype(dt)
        _check_stack(lambda h: T.reshape(h, h.shape[:-3] + (-1,)), [x],
                     [True], [True], k)

    @pytest.mark.parametrize("k,dt", [(1, np.float64), (3, np.float64),
                                      (3, np.float32)])
    @pytest.mark.parametrize("n", [1, 7, 32, 100, 256])
    def test_softmax_cross_entropy_gives_each_tickets_loss(self, k, dt, n):
        rng = np.random.default_rng(5)
        logits = (3 * rng.standard_normal((k, n, 3))).astype(dt)
        labels = rng.integers(0, 3, n)
        reset_tape()
        stack = Tensor(logits, requires_grad=True, dtype=dt)
        losses = softmax_cross_entropy(stack, labels)
        assert losses.shape == (k,) and losses.dtype == dt
        backward(tensor_sum(losses))  # seeds every ticket with exactly 1
        for t in range(k):
            reset_tape()
            one = Tensor(logits[t], requires_grad=True, dtype=dt)
            loss = softmax_cross_entropy(one, labels)
            backward(loss)
            assert np.array_equal(losses.data[t], loss.data)
            assert np.array_equal(stack.grad[t], one.grad)

    def test_one_layer_keeps_the_2d_contract(self):
        w, b = Tensor(np.ones((4, 3))), Tensor(np.zeros(3))
        for x in (np.ones((2, 5, 4)), np.ones((2, 1, 2, 2))):
            with pytest.raises(ShapeError, match="expects"):
                linear(Tensor(x), w, b)
        # conv2d takes no ticket axis: a 5-d input or a 5-d kernel stack
        for x, kern in (((2, 1, 1, 4, 4), (2, 1, 3, 3)),
                        ((1, 1, 4, 4), (2, 2, 1, 3, 3)),
                        ((2, 1, 1, 4, 4), (2, 2, 1, 3, 3))):
            with pytest.raises(ShapeError, match="4-d input and kernel"):
                conv2d(Tensor(np.ones(x)), Tensor(np.ones(kern)))

    @pytest.mark.parametrize("w_shape, b_shape", [
        ((4,), (4,)), ((4,), (1,)), ((2, 1, 4, 3), (2, 3)),
        ((2, 1, 4, 3), (2, 1, 3))])
    def test_linear_rejects_weights_of_other_ranks(self, w_shape, b_shape):
        with pytest.raises(ShapeError, match="expects"):
            linear(Tensor(np.ones((5, 4))), Tensor(np.ones(w_shape)),
                   Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("part", ["x", "b", "gate"])
    def test_linear_stack_disagreeing_on_k_names_the_shapes(self, part):
        shapes = {"x": (3, 5, 4), "w": (3, 4, 2), "b": (3, 2), "gate": (3, 4, 2)}
        shapes[part] = (2,) + shapes[part][1:]
        x, w, b, g = (Tensor(np.ones(shapes[p])) for p in ("x", "w", "b", "gate"))
        with pytest.raises(ShapeError, match=re.escape(str(shapes[part]))):
            linear(x, w, b, g)

    def test_softmax_and_pool_reject_other_ranks(self):
        with pytest.raises(ShapeError):
            softmax_cross_entropy(Tensor(np.zeros((2, 2, 3, 2))), [0, 1, 0])
        for shape in ((2, 4, 4), (3, 2, 1, 4, 4)):  # 5-d: no ticket stack
            with pytest.raises(ShapeError, match="4-d input"):
                max_pool2d(Tensor(np.zeros(shape)))


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray):
    """Each ticket's loss and logits gradient, formed row by row: the
    reference that ``softmax_cross_entropy``'s vectorized picking and
    scaling must match bitwise. A (n, c) input is a stack of one."""
    stack = logits if logits.ndim == 3 else logits[None]
    rows = np.broadcast_to(labels, stack.shape[:-1])
    losses, grads = [], np.empty_like(stack)
    for x, y, grad in zip(stack, rows, grads):
        n = len(x)
        picked = np.empty(n, dtype=x.dtype)
        for r in range(n):
            z = x[r] - np.maximum.reduce(x[r])
            z -= np.log(np.add.reduce(np.exp(z)))
            picked[r] = z[y[r]]
            p = np.exp(z)
            p[y[r]] -= 1.0
            p *= 1.0 / n  # the seed of each ticket's loss is 1
            grad[r] = p
        losses.append(-(np.add.reduce(picked) / n))
    losses = np.array(losses, dtype=logits.dtype)
    if logits.ndim == 2:
        return losses[0], grads[0]
    return losses, grads


class TestCrossEntropyAgainstRows:
    """``softmax_cross_entropy`` against a per-row loop, bitwise, for one
    model's logits and for a stack's, with one shared batch of labels or
    one per ticket."""

    @settings(derandomize=True, database=None, max_examples=120,
              deadline=None)
    @given(k=st.sampled_from([None, 1, 3]), per_slice=st.booleans(),
           n=st.integers(1, 64), c=st.integers(2, 5),
           dtype=st.sampled_from([np.float64, np.float32]),
           spread=st.sampled_from([1.0, 30.0, 1000.0]),
           seed=st.integers(0, 2**16))
    def test_loss_and_gradient_are_the_rows(self, k, per_slice, n, c, dtype,
                                            spread, seed):
        rng = np.random.default_rng(seed)
        shape = (n, c) if k is None else (k, n, c)
        logits = (spread * rng.standard_normal(shape)).astype(dtype)
        labels = rng.integers(0, c, shape[:-1] if per_slice else n)
        reset_tape()
        t = Tensor(logits, requires_grad=True, dtype=dtype)
        loss = softmax_cross_entropy(t, labels)
        backward(loss if k is None else tensor_sum(loss))
        want_loss, want_grad = _cross_entropy_rows(logits, labels)
        assert loss.data.dtype == t.grad.dtype == dtype
        assert loss.data.tobytes() == want_loss.tobytes()
        assert t.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("shape, per_slice", [
        ((4, 3), False), ((2, 4, 3), False), ((2, 4, 3), True)])
    @pytest.mark.parametrize("bad", [-1, 3])
    @pytest.mark.parametrize("dtype", ["<i8", ">i4", "i1"])
    def test_out_of_range_labels_raise(self, shape, per_slice, bad, dtype):
        labels = np.zeros(shape[:-1] if per_slice else shape[-2], dtype)
        labels.reshape(-1)[-1] = bad
        with pytest.raises(IndexError, match="out of range"):
            softmax_cross_entropy(Tensor(np.zeros(shape)), labels)

    @pytest.mark.parametrize("dtype", [">i4", "<i2", "u1", ">u8"])
    def test_integer_labels_of_any_width_and_byte_order(self, dtype):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((2, 5, 3))
        labels = rng.integers(0, 3, (2, 5))
        want = softmax_cross_entropy(Tensor(logits), labels).data
        got = softmax_cross_entropy(Tensor(logits), labels.astype(dtype)).data
        assert got.tobytes() == want.tobytes()

    def test_float_labels_raise(self):
        with pytest.raises(IndexError, match="integers"):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(2))
