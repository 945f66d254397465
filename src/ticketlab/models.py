"""Desk-scale model builders: maskable MLPs and small conv nets.

A model is one list of weight layers: for each, a ``Layer`` spec, one
``MaskedParameterGroup`` holding its weights, and a bias. Biases are never
masked. Initialization is Kaiming-uniform, drawn from the (seed, init)
stream only for weights and biases - allocating mask logits consumes no
randomness, so a gated model and its dense twin share bit-identical
initial weights.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masking import GATE_HARD, GATE_NONE, MaskedParameterGroup, gate
from .seeding import STREAM_INIT, seeded_rng
from .tensor import (ShapeError, Tensor, conv2d, default_dtype, linear,
                     max_pool2d, reshape)


@dataclass(frozen=True)
class Layer:
    """How ``Model.forward`` runs one weight layer besides its weights,
    gate and bias: a dense layer (``linear``) or a 3x3 conv with stride 1
    and padding 1 (``conv2d``), with the ReLU fused into the layer node."""

    conv: bool = False
    relu: bool = False
    pool: bool = False  # a conv layer's trailing 2x2 max-pool
    flatten: bool = False  # a dense layer flattens its input first


@dataclass(frozen=True)
class ModelConfig:
    """File/CLI-facing description of a model architecture."""

    kind: str = "mlp"  # "mlp" | "conv2" | "conv6-scaled"
    widths: tuple = (2, 64, 64, 2)
    maskable: tuple | None = None
    in_shape: tuple = (1, 16, 16)
    num_classes: int = 2
    head_maskable: bool = False

    def build(self, seed: int) -> "Model":
        if self.kind == "mlp":
            return build_mlp(list(self.widths), maskable=self.maskable, seed=seed)
        if self.kind in ("conv2", "conv6-scaled"):
            return build_small_conv(self.kind, seed=seed, in_shape=self.in_shape,
                                    num_classes=self.num_classes,
                                    head_maskable=self.head_maskable)
        raise ValueError(f"unknown model kind {self.kind!r}")


class Model:
    """Weight layers as three equally long lists - ``Layer`` specs, their
    parameter groups and their biases - with a tape-recording forward
    pass."""

    def __init__(self, layers: list[Layer], groups: list[MaskedParameterGroup],
                 biases: list[Tensor]):
        if not len(layers) == len(groups) == len(biases):
            raise ValueError(f"a model needs one group and one bias per layer, "
                             f"got {len(layers)} layers, {len(groups)} groups "
                             f"and {len(biases)} biases")
        self.layers = layers
        self.groups = groups
        self.biases = biases

    def maskable_groups(self) -> list[MaskedParameterGroup]:
        return [g for g in self.groups if g.maskable]

    def set_gate_mode(self, mode: str, mask_init: float = 0.0) -> None:
        """(Re)initialize gating on every maskable group."""
        for g in self.maskable_groups():
            g.init_gate(mode, mask_init)

    def weight_tensors(self) -> list[Tensor]:
        return [g.weights for g in self.groups] + list(self.biases)

    def mask_tensors(self) -> list[Tensor]:
        return [g.mask_logits for g in self.groups if g.mask_logits is not None]

    def parameter_count(self) -> int:
        """Weights plus biases; mask logits are not model parameters."""
        return sum(t.size for t in self.weight_tensors())

    def weight_arrays(self, copy: bool = False) -> dict[str, np.ndarray]:
        out = {}
        for g in self.groups:
            out[f"{g.name}.w"] = g.weights.data.copy() if copy else g.weights.data
        for i, b in enumerate(self.biases):
            out[f"bias{i}.b"] = b.data.copy() if copy else b.data
        return out

    def load_weight_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for g in self.groups:
            g.weights.data[...] = arrays[f"{g.name}.w"]
        for i, b in enumerate(self.biases):
            b.data[...] = arrays[f"bias{i}.b"]

    def masks(self) -> dict[str, np.ndarray]:
        """Current exact binary mask per maskable group."""
        return {g.name: g.current_hard_mask() for g in self.maskable_groups()}

    def apply_hard_masks(self, masks: dict[str, np.ndarray]) -> None:
        """Fix the given binary masks (ticket re-training / fine-tuning)."""
        for g in self.maskable_groups():
            if g.name not in masks:
                raise ValueError(f"missing mask for group {g.name!r}")
            m = np.asarray(masks[g.name], dtype=g.weights.dtype)
            if m.shape != g.weights.shape:
                raise ShapeError(f"mask shape {m.shape} does not match "
                                 f"weights {g.weights.shape} in {g.name!r}")
            g.freeze(m)

    def forward(self, x: Tensor, beta: float = 1.0, rng=None,
                st_variant: str = "identity", gates: dict | None = None) -> Tensor:
        """Logits of a batch. Each weight layer is one tape node with its
        gate, bias and ReLU fused in: ``linear`` for a dense layer,
        ``conv2d`` for a conv layer, which a ``max_pool2d`` node may follow.

        A layer's gate is ``gates[name]`` when the caller gave one (the
        step's ``masking.gate``, so that the caller can add its penalty);
        otherwise a hard group reads its frozen mask, and a soft or
        stochastic group gets ``masking.gate`` here, without a penalty (a
        stochastic one drawn from ``rng``). An ungated group has none.

        A stacked model (``stack_models``) takes the same batch ``x`` and
        gives each ticket's logits, (K, n, classes)."""
        gates = gates or {}
        h = x
        for layer, group, b in zip(self.layers, self.groups, self.biases):
            w, m = group.weights, gates.get(group.name)
            if m is None and group.mode == GATE_HARD:
                m = Tensor(group.frozen_mask, dtype=w.dtype)
            elif m is None and group.mode != GATE_NONE:
                m = gate(group, beta, rng=rng, st_variant=st_variant)
            if layer.conv:
                h = conv2d(h, w, 1, 1, b, m, relu=layer.relu)
                if layer.pool:
                    h = max_pool2d(h)
            else:
                if layer.flatten:
                    h = reshape(h, (h.shape[0], -1))
                h = linear(h, w, b, m, relu=layer.relu)
        return h


def stack_models(models: list[Model]) -> Model:
    """One model whose weights, biases and frozen masks carry a leading
    ticket axis K = len(models), slice k a copy of ``models[k]``'s. The
    models must share their layers, which must all be dense (only
    ``linear`` takes a ticket axis), and each group must be hard-masked or
    ungated in all of them (ticket evaluation trains such models). Each
    weight layer then runs as one node over the whole stack, and a slice
    of its output is bitwise what that model alone gives."""
    first = models[0]
    if any(m.layers != first.layers for m in models):
        raise ValueError("stacked models must share their layers")
    if any(layer.conv for layer in first.layers):
        raise ValueError("a model with conv layers cannot be stacked")
    groups = []
    for gs in zip(*(m.groups for m in models)):
        g0 = gs[0]
        if any(g.mode != g0.mode for g in gs) or g0.mode not in (GATE_HARD,
                                                                   GATE_NONE):
            raise ValueError(f"group {g0.name!r} must be hard-masked or "
                             f"ungated in every stacked model")
        w = g0.weights
        group = MaskedParameterGroup(
            g0.name, Tensor(np.stack([g.weights.data for g in gs]),
                            requires_grad=w.requires_grad, dtype=w.dtype),
            maskable=g0.maskable)
        if g0.mode == GATE_HARD:
            group.freeze(np.stack([g.frozen_mask for g in gs]))
        groups.append(group)
    biases = [Tensor(np.stack([b.data for b in bs]),
                     requires_grad=bs[0].requires_grad, dtype=bs[0].dtype)
              for bs in zip(*(m.biases for m in models))]
    return Model(list(first.layers), groups, biases)


def _kaiming_uniform(rng, shape, fan_in, dtype):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)


def _add_layer(parts: tuple, rng, name: str, shape: tuple, fan_in: int,
               maskable: bool, layer: Layer) -> None:
    """Append ``layer`` to ``parts`` (layers, groups, biases) with
    Kaiming-uniform weights of ``shape`` drawn from ``rng`` and a zero
    bias per output unit, in the thread's default precision."""
    dt = default_dtype()
    w = Tensor(_kaiming_uniform(rng, shape, fan_in, dt), requires_grad=True)
    n_out = shape[0] if layer.conv else shape[1]
    parts[0].append(layer)
    parts[1].append(MaskedParameterGroup(name=name, weights=w,
                                         maskable=maskable))
    parts[2].append(Tensor(np.zeros(n_out, dtype=dt), requires_grad=True))


def _add_dense(parts: tuple, rng, widths: list[int], maskable: list,
               flatten: bool = False) -> None:
    """Dense layers ``dense0, dense1, ...`` over ``widths``, a ReLU after
    every one but the last; with ``flatten`` the first one flattens its
    input."""
    n = len(widths) - 1
    for i in range(n):
        _add_layer(parts, rng, f"dense{i}", (widths[i], widths[i + 1]),
                   widths[i], bool(maskable[i]),
                   Layer(relu=i < n - 1, flatten=flatten and i == 0))


def build_mlp(widths: list[int], maskable=None, seed: int = 0) -> Model:
    """Fully-connected ReLU network over the given widths, in the thread's
    default precision.

    ``maskable`` is one flag per dense layer (default: all maskable).
    Masks are not allocated here; callers pick a gate mode afterwards.
    """
    if len(widths) < 2:
        raise ValueError("an MLP needs at least input and output widths")
    nlayers = len(widths) - 1
    if maskable is None:
        maskable = [True] * nlayers
    if len(maskable) != nlayers:
        raise ValueError(f"expected {nlayers} maskable flags, got {len(maskable)}")
    parts = ([], [], [])
    _add_dense(parts, seeded_rng(seed, STREAM_INIT), widths, maskable)
    return Model(*parts)


_CONV_PRESETS = {
    # blocks of (out_channels, convs per block); mirrors a three-block,
    # resolution-preserving topology at one-eighth width
    "conv6-scaled": ((8, 2), (16, 2), (32, 2)),
    "conv2": ((8, 2),),
}

_HEAD_HIDDEN = 32  # width of the dense head's one hidden layer


def build_small_conv(preset: str, seed: int = 0, in_shape=(1, 16, 16),
                     num_classes: int = 2,
                     head_maskable: bool = False) -> Model:
    """Conv blocks (3x3, padding 1, ReLU; the last conv of each block
    followed by a 2x2 max-pool), then a dense head of one hidden layer
    whose first layer flattens the pooled maps, in the thread's default
    precision. Conv layers are maskable; the head is configurable.

    The input resolution must be divisible by 2**(number of blocks).
    """
    if preset not in _CONV_PRESETS:
        raise ValueError(f"unknown conv preset {preset!r}")
    blocks = _CONV_PRESETS[preset]
    cin, h, w = in_shape
    factor = 2 ** len(blocks)
    if h % factor or w % factor:
        raise ValueError(f"input {h}x{w} not divisible by pooling chain {factor}")
    rng = seeded_rng(seed, STREAM_INIT)
    parts = ([], [], [])
    c_prev = cin
    for c_out, reps in blocks:
        for ri in range(reps):
            _add_layer(parts, rng, f"conv{len(parts[0])}",
                       (c_out, c_prev, 3, 3), c_prev * 9, True,
                       Layer(conv=True, relu=True, pool=ri == reps - 1))
            c_prev = c_out
    flat = c_prev * (h // factor) * (w // factor)
    _add_dense(parts, rng, [flat, _HEAD_HIDDEN, num_classes],
               [head_maskable] * 2, flatten=True)
    return Model(*parts)
