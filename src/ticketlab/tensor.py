"""Dense tensors on an explicit reverse-mode autodiff tape.

Only the operations the desk-scale models need are implemented: matmul,
the fused dense layer ``linear`` (x @ (w ⊙ gate) + b, one tape node), 2-d
convolution, 2x2 max-pooling, the pointwise family (add, mul, relu,
sigmoid, scale), bias addition, reshape, sum, and softmax cross-entropy.
The gate ops of learned sparsity live in ``masking``. There is no general
broadcasting; pointwise ops accept equal shapes or a scalar operand.

Every recorded operation is appended to a thread-local tape in forward
order. ``backward`` walks the tape in exact reverse order, accumulating
gradients into every tensor that requires them, and then marks the tape
as consumed: a second backward pass without ``reset_tape`` is an error.
A tensor's first gradient is copied into a buffer the tensor owns, unless
the op that built it hands it over; later ones are added to it in place.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class GradientError(RuntimeError):
    """Backward-pass contract violation: non-scalar loss, spent or empty
    tape, or a parameter stepped without a gradient."""


class NonFiniteError(FloatingPointError):
    """A NaN or Inf appeared where the run requires finite values."""


_DTYPES = {"float64": np.float64, "float32": np.float32}

_tls = threading.local()


class _Node:
    """One recorded operation: inputs, output, and a closure that routes the
    output gradient back to the inputs."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered log of recorded operations for one forward/backward cycle.

    Inputs of every node precede it (nodes are appended as ops execute), so
    reverse tape order is a reverse topological order of the graph.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False
        self.visit_log: list[int] = []

    def record(self, node: _Node) -> None:
        self.nodes.append(node)

    def reset(self) -> None:
        self.nodes.clear()
        self.consumed = False
        self.visit_log = []

    def __len__(self) -> int:
        return len(self.nodes)


def _state() -> dict:
    st = getattr(_tls, "state", None)
    if st is None:
        st = _tls.state = {"tape": Tape(), "dtype": np.float64, "no_grad": 0}
    return st


def set_default_dtype(name: str) -> None:
    """Select the element type for new tensors on this thread.

    ``"float64"`` is the default (gradient checks need it); ``"float32"``
    exists to exercise saturation behavior of large-temperature gates.
    """
    if name not in _DTYPES:
        raise ValueError(f"unknown precision mode {name!r}")
    _state()["dtype"] = _DTYPES[name]


def default_dtype() -> np.dtype:
    return np.dtype(_state()["dtype"])


def active_tape() -> Tape:
    return _state()["tape"]


def reset_tape() -> None:
    active_tape().reset()


class no_grad:
    """Context manager that suspends tape recording (evaluation mode)."""

    def __enter__(self):
        _state()["no_grad"] += 1
        return self

    def __exit__(self, *exc):
        _state()["no_grad"] -= 1
        return False


class _HandedOver(np.ndarray):
    """View type of a C-ordered gradient array, in its input's dtype, that
    an op built for that one input alone: ``accumulate_grad`` keeps it as
    the input's buffer instead of copying it."""


class Tensor:
    """N-dimensional array with an optional same-shape gradient accumulator."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _state()["dtype"])
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g``, shaped like this tensor, to its gradient. The first
        ``g`` is copied into a C-ordered buffer of the tensor's dtype, since
        ops hand the same array to several inputs or pass read-only
        broadcast views; a ``_HandedOver`` view is kept as it is."""
        if self.grad is None:
            if type(g) is _HandedOver:
                self.grad = g.view(np.ndarray)
            else:
                self.grad = np.array(g, dtype=self.data.dtype, order="C")
        else:
            self.grad += g

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def reshape(self, shape) -> "Tensor":
        return reshape(self, shape)

    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add(self, Tensor(np.asarray(other, dtype=self.dtype)))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def assert_finite(t, what: str = "tensor") -> None:
    """Raise ``NonFiniteError`` if any element of ``t`` is NaN or Inf."""
    d = t.data if isinstance(t, Tensor) else np.asarray(t)
    if not np.isfinite(d).all():
        raise NonFiniteError(f"non-finite values detected in {what}")


def apply_op(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
             backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap ``out_data`` in a Tensor and record the op on the active tape.

    ``backward_fn(g)`` must accumulate gradients into the inputs; it is only
    ever called once, with the output's accumulated gradient. Recording is
    skipped inside ``no_grad`` or when no input requires gradients.
    """
    st = _state()
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    if st["no_grad"] or not any(t.requires_grad for t in inputs):
        out.requires_grad = False
        return out
    out.requires_grad = True
    st["tape"].record(_Node(op, tuple(inputs), out, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) for everything reachable from ``loss``.

    The tape is traversed in exact reverse recording order and then marked
    consumed; call ``reset_tape`` before the next forward/backward cycle.
    """
    tp = active_tape()
    if loss.data.size != 1:
        raise GradientError("backward requires a scalar loss")
    if tp.consumed:
        raise GradientError(
            "tape already consumed by a previous backward pass; "
            "call reset_tape() before recording a new one")
    if not tp.nodes:
        raise GradientError("tape is empty; nothing was recorded")
    loss.grad = np.ones_like(loss.data)
    for idx in range(len(tp.nodes) - 1, -1, -1):
        node = tp.nodes[idx]
        g = node.output.grad
        if g is None:
            continue  # not on the path from loss
        tp.visit_log.append(idx)
        node.backward_fn(g)
    tp.consumed = True


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return apply_op("matmul", (a, b), out, backward_fn)


def _pointwise_shapes(a: Tensor, b: Tensor, op: str):
    if a.shape == b.shape:
        return
    if a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{op} supports equal shapes or a scalar operand, "
                     f"got {a.shape} and {b.shape}")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _pointwise_shapes(a, b, "add")
    out = a.data + b.data

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(g, b.shape))

    return apply_op("add", (a, b), out, backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _pointwise_shapes(a, b, "mul")
    out = a.data * b.data

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(g * a.data, b.shape))

    return apply_op("mul", (a, b), out, backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * c

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return apply_op("scale", (a,), out, backward_fn)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0))

    return apply_op("relu", (a,), out, backward_fn)


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise, in the float
    dtype of ``x``. Below x = -709 (float64) or -88 (float32) exp(-x)
    overflows to inf and the result is its limit 0, so that overflow is
    not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    out = expit(a.data)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g * out * (1.0 - out))

    return apply_op("sigmoid", (a,), out, backward_fn)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias: (n, c) + (c,)."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias expects (n,c)+(c,), got {x.shape} and {b.shape}")
    out = x.data + b.data[None, :]

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return apply_op("add_bias", (x, b), out, backward_fn)


def linear(x: Tensor, w: Tensor, b: Tensor, gate: Tensor | None = None) -> Tensor:
    """A dense layer as one tape node: x @ (w ⊙ gate) + b, (n, i) @ (i, o)
    + (o,). ``gate`` is a soft gate, a constant hard mask, or None for an
    ungated layer; it gets a gradient only if it requires one."""
    if (x.ndim != 2 or w.ndim != 2 or b.ndim != 1 or x.shape[1] != w.shape[0]
            or w.shape[1] != b.shape[0]):
        raise ShapeError(f"linear expects (n,i)@(i,o)+(o,), got {x.shape}, "
                         f"{w.shape} and {b.shape}")
    if gate is not None and gate.shape != w.shape:
        raise ShapeError(f"linear gate {gate.shape} does not match weights {w.shape}")
    we = w.data if gate is None else w.data * gate.data
    out = x.data @ we
    out += b.data

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(g @ we.T)
        gated = gate is not None and gate.requires_grad
        if w.requires_grad or gated:
            gwe = x.data.T @ g
            if w.requires_grad:
                w.accumulate_grad(gwe if gate is None else gwe * gate.data)
            if gated:
                gate.accumulate_grad(gwe * w.data)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0))

    return apply_op("linear", (x, w, b) if gate is None else (x, w, b, gate),
                    out, backward_fn)


def add_channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Per-channel bias: (n, c, h, w) + (c,)."""
    if x.ndim != 4 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(
            f"add_channel_bias expects (n,c,h,w)+(c,), got {x.shape} and {b.shape}")
    out = x.data + b.data[None, :, None, None]

    def backward_fn(g):
        if x.requires_grad:
            x.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=(0, 2, 3)))

    return apply_op("add_channel_bias", (x, b), out, backward_fn)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return apply_op("reshape", (a,), out, backward_fn)


def tensor_sum(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.dtype)

    def backward_fn(g):
        if a.requires_grad:
            a.accumulate_grad(np.broadcast_to(g, a.shape))

    return apply_op("sum", (a,), out, backward_fn)


# Bytes one block of conv2d's im2col columns, with its GEMM product, may
# take. Batch 32 of conv6-scaled on 16x16 inputs fits in one block (its
# largest column matrix is 4.7 MB); larger evaluation batches are split.
_COLUMN_BLOCK_BYTES = 8 << 20


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation with zero padding.

    ``x``: (n, cin, h, w); ``kernel``: (cout, cin, kh, kw). The output
    spatial size is floor((h + 2p - kh)/stride) + 1.

    The forward pass lowers the input to im2col columns, one
    (cin*kh*kw, nb*oh*ow) matrix per block of nb whole samples, and each
    block's output is one GEMM, ``kernel.reshape(cout, cin*kh*kw) @ cols``.
    A block's column matrix and its GEMM product together stay within
    ``_COLUMN_BLOCK_BYTES`` (a block is never smaller than one sample), so
    the op holds at most one block beyond the padded input and the output
    while it runs. When the kernel gradient will be formed (recording, and
    the kernel requires a gradient) the node keeps the blocks, the
    gradient is one GEMM per block, ``cols @ g2.T`` with ``g2`` the block's
    output gradient as a (cout, nb*oh*ow) matrix, and the blocks are
    dropped once it is formed. The input gradient is one GEMM per kernel
    offset, each scatter-added into a channel-major padded buffer.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {x.shape}, {kernel.shape}")
    n, cin, h, w = x.shape
    cout, cin_k, kh, kw = kernel.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d channel mismatch: input {cin}, kernel {cin_k}")
    stride = int(stride)
    padding = int(padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    m = n * oh * ow
    depth = cin * kh * kw

    xp = np.zeros((cin, n, hp, wp), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x.data.transpose(1, 0, 2, 3)
    kd = kernel.data
    k2 = kd.reshape(cout, depth)

    def at(i, j, samples=slice(None)):
        """Index of the padded positions kernel offset (i, j) reads."""
        return (slice(None), samples, slice(i, i + stride * oh, stride),
                slice(j, j + stride * ow, stride))

    per_sample = (depth + cout) * oh * ow * xp.itemsize
    nb = max(1, min(n, _COLUMN_BLOCK_BYTES // per_sample))
    keep = kernel.requires_grad and not _state()["no_grad"]
    blocks = []
    out = np.empty((n, cout, oh, ow), dtype=x.dtype)
    for lo in range(0, n, nb):
        hi = min(n, lo + nb)
        cols = np.empty((cin, kh, kw, hi - lo, oh, ow), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xp[at(i, j, slice(lo, hi))]
        cols = cols.reshape(depth, (hi - lo) * oh * ow)
        out[lo:hi] = (k2 @ cols).reshape(cout, hi - lo, oh, ow).transpose(1, 0, 2, 3)
        if keep:
            blocks.append(cols)
        del cols  # before the next block is allocated

    def backward_fn(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(cout, m)
        if kernel.requires_grad:
            # cols @ g2.T rather than g2 @ cols.T: BLAS streams the long
            # column matrix faster untransposed
            width = nb * oh * ow
            gk = np.zeros((depth, cout), dtype=g2.dtype)
            for b, cols in enumerate(blocks):
                gk += cols @ g2[:, b * width:b * width + cols.shape[1]].T
            blocks.clear()
            kernel.accumulate_grad(gk.T.reshape(kd.shape))
        if x.requires_grad:
            gxp = np.zeros((cin, n, hp, wp), dtype=g2.dtype)
            for i in range(kh):
                for j in range(kw):
                    gxp[at(i, j)] += (kd[:, :, i, j].T @ g2).reshape(cin, n, oh, ow)
            x.accumulate_grad(
                gxp[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3))

    return apply_op("conv2d", (x, kernel), out, backward_fn)


def max_pool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties resolved by the first maximum in
    row-major window order so the backward routing is deterministic.

    The four window positions are strided views of the input. The forward
    pass folds them with ``np.maximum``, which returns its second operand
    on ties (-0.0 against 0.0 included), so the earlier candidate goes
    second. The backward pass hands each output gradient to the first
    candidate equal to the maximum and clears it for the later ones. A
    candidate's gradient is ``rest - kept``, ``kept`` being what stays for
    the later candidates (``rest`` itself or ``rest * 0``). For finite
    ``g`` that is bitwise ``0.0 + rest * hit``, the argmax routing summed
    into zeros, -0.0 turned into 0.0 included; an infinite ``g`` gives NaN
    at its maximum instead of inf.
    """
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"max_pool2d requires even spatial extents, got {h}x{w}")
    d = x.data
    slots = [(slice(None), slice(None), slice(di, None, 2), slice(dj, None, 2))
             for di in (0, 1) for dj in (0, 1)]
    out = np.maximum(d[slots[1]], d[slots[0]])
    for at in slots[2:]:
        np.maximum(d[at], out, out=out)

    def backward_fn(g):
        if x.requires_grad:
            gx = np.empty(d.shape, dtype=d.dtype)
            rest = g
            for at in slots[:-1]:
                kept = rest * (d[at] != out)
                np.subtract(rest, kept, out=gx[at])
                rest = kept
            np.add(rest, 0.0, out=gx[slots[-1]])  # -0.0 to 0.0
            x.accumulate_grad(gx.view(_HandedOver))

    return apply_op("max_pool2d", (x,), out, backward_fn)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects (n,c) logits, got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"label out of range [0, {c})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = np.asarray(-logp[np.arange(n), labels].mean(), dtype=logits.dtype)

    def backward_fn(g):
        if logits.requires_grad:
            p = np.exp(logp)
            p[np.arange(n), labels] -= 1.0
            p *= float(g) / n
            logits.accumulate_grad(p)

    return apply_op("softmax_cross_entropy", (logits,), loss, backward_fn)
