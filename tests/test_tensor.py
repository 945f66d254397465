import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from scipy.special import expit as scipy_expit

from ticketlab import tensor as T
from ticketlab.masking import (GATE_SOFT, MaskedParameterGroup, gate,
                               gate_penalty, soft_gate)
from ticketlab.optim import Adam, SGD, CompositeOptimizer
from ticketlab.tensor import (GradientError, NonFiniteError, ShapeError,
                              Tensor, add, add_bias, backward, conv2d, linear,
                              matmul, max_pool2d, mul, relu, reset_tape, scale,
                              sigmoid, softmax_cross_entropy, tensor_sum)

from .helpers import check_grad, max_rel_err


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
        backward(loss)
        assert tape.visit_log == list(range(n - 1, -1, -1))

    def test_assert_finite(self):
        with pytest.raises(NonFiniteError):
            T.assert_finite(Tensor([1.0, np.nan]))
        T.assert_finite(Tensor([1.0, 2.0]))


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
    """``max_pool2d`` and ``linear`` give bitwise the results of the
    compositions they replace."""

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


class TestGradientBuffers:
    """``accumulate_grad`` owns the buffer it stores: the first gradient
    is copied, in the tensor's dtype."""

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
GRAD_CASES["gate_penalty_on_gate"] = lambda rng: (
    lambda m: gate_penalty(soft_group(Tensor(np.ones((3, 4))),
                                      Tensor(np.zeros((3, 4)))),
                           1.0, 0.3, step_gate=m),
    [rng.random((3, 4))])


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
        from .helpers import fd_grads
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

    def test_gate_ops_and_linear_are_one_node_each(self):
        rng = np.random.default_rng(3)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        s = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        group = soft_group(w, s)
        m = gate(group, 7.0)
        for make in (lambda: gate(group, 7.0),
                     lambda: gate_penalty(group, 7.0, 0.1),
                     lambda: gate_penalty(group, 7.0, 0.1, step_gate=m),
                     lambda: linear(Tensor(np.ones((2, 3))), w,
                                    Tensor(np.zeros(4)), m)):
            reset_tape()
            make()
            assert len(T.active_tape()) == 1

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
        from .helpers import fd_grads
        fd = fd_grads(scalar, arrays)
        worst = max(max_rel_err(p.grad, f) for p, f in zip(params, fd))
        assert worst < 1e-4


    def test_shared_gate_objective_matches_fd(self):
        # the training step's objective: one gate node per group, read by
        # the fused layer and by the penalty
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
            gates = {g.name: gate(g, beta) for g in model.maskable_groups()}
            loss = softmax_cross_entropy(
                model.forward(Tensor(x), beta=beta, gates=gates), y)
            for g in model.maskable_groups():
                loss = add(loss, gate_penalty(g, beta, lam, step_gate=gates[g.name]))
            return loss

        def scalar():
            with T.no_grad():
                return float(objective().data)

        reset_tape()
        backward(objective())
        from .helpers import fd_grads
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
