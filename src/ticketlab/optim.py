"""SGD-with-momentum and Adam over explicit parameter groups.

Weight decay is a per-group setting so that mask parameters, which already
carry an L1 gate penalty, can opt out. A ``CompositeOptimizer`` lets one run
drive different optimizer kinds for the weight group and the mask group
(e.g. Adam on weights, plain SGD with a large rate on mask logits).

Each optimizer keeps its parameters, their gradients and its slots in flat
arenas: one contiguous 1-d array each, in parameter order. On construction
it copies its parameters into the parameter arena and rebinds every
``p.data`` to a reshaped view of it, so the model reads and the optimizer
writes the same memory. A step gathers the gradients into the gradient
arena with one ``concatenate``, checks them with one ``isfinite`` and runs
the update once over the whole arena, writing its intermediate products into
scratch arenas built with the optimizer; every element goes through the
same IEEE operations in the same order as a per-parameter update would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .tensor import GradientError, NonFiniteError, Tensor


def check_finite(config) -> None:
    """Raise ``ValueError`` naming the first field of the dataclass
    ``config`` that holds a NaN or infinite float: every range check of
    a NaN is false, so it would pass them all."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass
class OptimizerConfig:
    kind: str = "sgd"  # "sgd" | "adam"
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        check_finite(self)
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")

    def build(self, params: list[Tensor]) -> "Optimizer":
        self.validate()
        if self.kind == "sgd":
            return SGD(params, lr=self.lr, momentum=self.momentum,
                       weight_decay=self.weight_decay)
        return Adam(params, lr=self.lr, beta1=self.beta1, beta2=self.beta2,
                    eps=self.eps, weight_decay=self.weight_decay)


class Optimizer:
    """Base: owns the parameter, gradient and slot arenas of a parameter
    list. The parameters must be distinct and share one dtype
    (``ValueError`` otherwise)."""

    def __init__(self, params: list[Tensor], lr: float, weight_decay: float):
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter appears twice in one optimizer")
        dtypes = sorted({p.data.dtype.name for p in self.params})
        if len(dtypes) > 1:
            raise ValueError(f"parameters of one optimizer must share a "
                             f"dtype, got {', '.join(dtypes)}")
        self._data = np.zeros(sum(p.data.size for p in self.params),
                              dtype=dtypes[0] if dtypes else None)
        for p, view in zip(self.params, self._views(self._data)):
            view[...] = p.data
            p.data = view
        self._grad = np.empty_like(self._data)

    def _views(self, arena: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of an arena laid out like the parameters."""
        views = []
        lo = 0
        for p in self.params:
            views.append(arena[lo:lo + p.data.size].reshape(p.data.shape))
            lo += p.data.size
        return views

    def _gather(self) -> None:
        """Copy every gradient into the gradient arena and check it, without
        updating anything: a missing gradient, or a parameter whose data is
        no longer its arena view, raises ``GradientError``; a non-finite
        gradient raises ``NonFiniteError``."""
        grads = []
        for p in self.params:
            if p.grad is None:
                raise GradientError("optimizer step with a missing gradient")
            if p.data.base is not self._data:
                raise GradientError("optimizer step on a parameter whose "
                                    "data was rebound away from its arena")
            grads.append(p.grad)
        if grads:
            np.concatenate(grads, axis=None, out=self._grad)
        if not np.isfinite(self._grad).all():
            raise NonFiniteError("non-finite gradient in optimizer step")

    def _apply(self) -> None:
        """Update from the gathered gradients, then drop them."""
        self._update()
        for p in self.params:
            p.grad = None

    def _update(self) -> None:
        raise NotImplementedError

    def step(self) -> None:
        self._gather()
        self._apply()

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Per-parameter views of the slot arenas keyed by stable names,
        for checkpointing."""
        raise NotImplementedError

    def load_state(self, arrays: dict[str, np.ndarray], meta: dict) -> None:
        for k, view in self.state_arrays().items():
            view[...] = arrays[k]

    def state_meta(self) -> dict:
        return {}


class SGD(Optimizer):
    def __init__(self, params, lr=0.1, momentum=0.0, weight_decay=0.0):
        super().__init__(params, lr, weight_decay)
        self.momentum = float(momentum)
        self.buf = np.zeros_like(self._data)
        self._scratch = np.empty_like(self._data)

    def _update(self) -> None:
        d, tmp = self._grad, self._scratch
        if self.weight_decay:
            d += np.multiply(self._data, self.weight_decay, tmp)
        if self.momentum:
            self.buf *= self.momentum
            self.buf += d
            d = self.buf
        self._data -= np.multiply(d, self.lr, tmp)

    def state_arrays(self):
        return {f"buf{i}": b for i, b in enumerate(self._views(self.buf))}


class Adam(Optimizer):
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        super().__init__(params, lr, weight_decay)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = np.zeros_like(self._data)
        self.v = np.zeros_like(self._data)
        self._scratch = np.empty((2,) + self._data.shape, self._data.dtype)

    def _update(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        g, (a, b) = self._grad, self._scratch
        if self.weight_decay:
            g += np.multiply(self._data, self.weight_decay, a)
        self.m *= self.beta1
        self.m += np.multiply(g, 1.0 - self.beta1, a)
        self.v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, a)
        self.v += np.multiply(a, g, a)
        # lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.multiply(np.divide(self.m, bc1, a), self.lr, a)
        np.add(np.sqrt(np.divide(self.v, bc2, b), b), self.eps, b)
        self._data -= np.divide(a, b, a)

    def state_arrays(self):
        out = {}
        for i, (m, v) in enumerate(zip(self._views(self.m),
                                       self._views(self.v))):
            out[f"m{i}"] = m
            out[f"v{i}"] = v
        return out

    def state_meta(self):
        return {"t": self.t}

    def load_state(self, arrays, meta):
        self.t = int(meta["t"])
        super().load_state(arrays, meta)


class CompositeOptimizer:
    """Steps several member optimizers as one (weights + masks, typically).
    A step is atomic: every member gathers and checks its gradients before
    any member updates, so a missing or non-finite gradient anywhere leaves
    every parameter and slot unchanged."""

    def __init__(self, members: list[Optimizer]):
        self.members = [m for m in members if m is not None and m.params]

    @property
    def params(self):
        return [p for m in self.members for p in m.params]

    def step(self) -> None:
        for m in self.members:
            m._gather()
        for m in self.members:
            m._apply()

    def state_arrays(self):
        out = {}
        for i, m in enumerate(self.members):
            for k, a in m.state_arrays().items():
                out[f"opt{i}.{k}"] = a
        return out

    def state_meta(self):
        return {str(i): m.state_meta() for i, m in enumerate(self.members)}

    def load_state(self, arrays, meta):
        for i, m in enumerate(self.members):
            sub = {k.split(".", 1)[1]: a for k, a in arrays.items()
                   if k.startswith(f"opt{i}.")}
            m.load_state(sub, meta.get(str(i), {}))

    def scale_lr(self, factor: float) -> None:
        for m in self.members:
            m.lr *= factor
