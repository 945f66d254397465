"""Desk-scale model builders: maskable MLPs and small conv nets.

A model is a flat layer list plus one ``MaskedParameterGroup`` per
weight-bearing layer. Biases are never masked. Initialization is
Kaiming-uniform, drawn from the (seed, init) stream only for weights and
biases - allocating mask logits consumes no randomness, so a gated model
and its dense twin share bit-identical initial weights.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .masking import GATE_NONE, MaskedParameterGroup
from .seeding import STREAM_INIT, seeded_rng
from .tensor import ShapeError, Tensor, conv2d, linear, max_pool2d, reshape


@dataclass(frozen=True)
class DenseLayer:
    in_features: int
    out_features: int
    maskable: bool = True
    relu: bool = False  # a ReLU on the output, fused into the layer node


@dataclass(frozen=True)
class ConvLayer:
    in_channels: int
    out_channels: int
    kernel: int = 3
    stride: int = 1
    padding: int = 1
    maskable: bool = True
    relu: bool = False  # a ReLU on the output, fused into the layer node


@dataclass(frozen=True)
class MaxPool:
    pass


@dataclass(frozen=True)
class Flatten:
    pass


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
    """Layer list + parameter groups, with a tape-recording forward pass."""

    def __init__(self, layers: list, groups: list[MaskedParameterGroup],
                 biases: list[Tensor]):
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
        """Logits of a batch. ``gates`` maps gated groups' names to this
        step's ``masking.gate``, so that the caller can add their
        penalties; a gated group without one gets its gate here (a
        stochastic one from ``rng``). Each weight-bearing layer is one tape
        node with its gate, bias and ReLU fused in: ``linear`` for a dense
        layer, ``conv2d`` for a conv layer."""
        gates = gates or {}
        h = x
        gi = 0
        for layer in self.layers:
            if isinstance(layer, (DenseLayer, ConvLayer)):
                group = self.groups[gi]
                m = group.weight_and_gate(beta, rng, st_variant,
                                          gates.get(group.name))
                w, b = group.weights, self.biases[gi]
                if isinstance(layer, DenseLayer):
                    h = linear(h, w, b, m, relu=layer.relu)
                else:
                    h = conv2d(h, w, layer.stride, layer.padding, b, m,
                               relu=layer.relu)
                gi += 1
            elif isinstance(layer, MaxPool):
                h = max_pool2d(h)
            elif isinstance(layer, Flatten):
                h = reshape(h, (h.shape[0], -1))
            else:
                raise ValueError(f"unknown layer {layer!r}")
        return h


def _kaiming_uniform(rng, shape, fan_in, dtype):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype, copy=False)


def build_mlp(widths: list[int], maskable=None, seed: int = 0,
              dtype=None) -> Model:
    """Fully-connected ReLU network over the given widths.

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
    rng = seeded_rng(seed, STREAM_INIT)
    from .tensor import default_dtype
    dt = dtype or default_dtype()
    layers: list = []
    groups: list[MaskedParameterGroup] = []
    biases: list[Tensor] = []
    for i in range(nlayers):
        fan_in, fan_out = widths[i], widths[i + 1]
        w = Tensor(_kaiming_uniform(rng, (fan_in, fan_out), fan_in, dt),
                   requires_grad=True)
        b = Tensor(np.zeros(fan_out, dtype=dt), requires_grad=True)
        groups.append(MaskedParameterGroup(name=f"dense{i}", weights=w,
                                           maskable=bool(maskable[i])))
        biases.append(b)
        layers.append(DenseLayer(fan_in, fan_out, bool(maskable[i]),
                                 relu=i < nlayers - 1))
    return Model(layers, groups, biases)


_CONV_PRESETS = {
    # blocks of (out_channels, convs per block); mirrors a three-block,
    # resolution-preserving topology at one-eighth width
    "conv6-scaled": ((8, 2), (16, 2), (32, 2)),
    "conv2": ((8, 2),),
}


def build_small_conv(preset: str, seed: int = 0, in_shape=(1, 16, 16),
                     num_classes: int = 2, head_widths=(32,),
                     head_maskable: bool = False, dtype=None) -> Model:
    """Conv blocks (3x3, padding 1) + 2x2 max-pool per block, then a dense
    head. Conv layers are maskable by default; the head is configurable.

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
    from .tensor import default_dtype
    dt = dtype or default_dtype()
    layers: list = []
    groups: list[MaskedParameterGroup] = []
    biases: list[Tensor] = []
    ci = 0

    c_prev = cin
    for bi_, (c_out, reps) in enumerate(blocks):
        for ri in range(reps):
            kshape = (c_out, c_prev, 3, 3)
            k = Tensor(_kaiming_uniform(rng, kshape, c_prev * 9, dt),
                       requires_grad=True)
            b = Tensor(np.zeros(c_out, dtype=dt), requires_grad=True)
            groups.append(MaskedParameterGroup(name=f"conv{ci}", weights=k,
                                               maskable=True))
            biases.append(b)
            layers.append(ConvLayer(c_prev, c_out, 3, 1, 1, True, relu=True))
            c_prev = c_out
            ci += 1
        layers.append(MaxPool())
    layers.append(Flatten())

    flat = c_prev * (h // factor) * (w // factor)
    widths = [flat, *head_widths, num_classes]
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        wt = Tensor(_kaiming_uniform(rng, (fan_in, fan_out), fan_in, dt),
                    requires_grad=True)
        b = Tensor(np.zeros(fan_out, dtype=dt), requires_grad=True)
        groups.append(MaskedParameterGroup(name=f"dense{i}", weights=wt,
                                           maskable=head_maskable))
        biases.append(b)
        layers.append(DenseLayer(fan_in, fan_out, head_maskable,
                                 relu=i < len(widths) - 2))
    return Model(layers, groups, biases)
