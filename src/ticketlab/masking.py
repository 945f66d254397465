"""Gate mathematics for learned sparsity.

A maskable weight tensor w is paired with same-shape mask logits s. The
deterministic soft gate multiplies w by sigmoid(beta * s); as the inverse
temperature beta grows, the gate approaches the hard step H(s) = 1[s > 0],
so the gated objective approaches the binary-mask objective with an exact
L0 count. The stochastic gate instead samples a Bernoulli(sigmoid(s)) mask
per forward pass and trains s with a straight-through gradient.

Conventions fixed here:

* H(0) = 0 - a logit exactly at the boundary counts as pruned.
* A soft gate below ``PRUNED_GATE_EPS`` counts as removed in mid-training
  sparsity reports (``remaining_fraction``); final masks are always the
  exact hard step, so the threshold never affects emitted tickets, whose
  remaining fraction is ``kept_fraction`` of their masks.
* The straight-through backward is the identity by default (gradient of the
  sampled mask passed to s unchanged); a sigmoid-derivative-scaled variant
  is available via ``st_variant="sigmoid"``.
* Permanently removed components are tracked with a boolean sentinel array
  rather than a -inf logit, which keeps all arithmetic finite.
* Only ``init_gate``, ``freeze`` and ``prune_forever`` change a group's
  gate state, and they keep one invariant: the mode is ``GATE_HARD``
  exactly when a mask is frozen, and only soft and stochastic groups have
  logits. Readers dispatch on the mode alone.

A gated group's gate records no tape node. ``gate`` returns it for one
step as a ``StepGate``: sigmoid(beta * s) ⊙ k for a soft group (k: the
components not permanently removed), a Bernoulli(sigmoid(s)) draw for a
stochastic one. It carries its L1 penalty's value in ``penalty``, and the
layer node that reads it (``linear`` or ``conv2d``) owns it: the one
gradient that node hands the gate goes straight to the logits, together
with the penalty's gradient. That is the gradient of loss + penalty only
when the caller differentiates exactly that sum with a seed of 1, and
the gate feeds one node on the loss path; ``train`` does so and adds the
penalty values to the reported loss off the tape. A second gradient into
a gate raises ``GradientError``. ``gate_penalty`` is the penalty as a
node over s, and ``soft_gate`` the gated weight ``gate ⊙ w``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (GradientError, Tensor, _hand, _HandedOver, apply_op,
                     expit, mul)

GATE_NONE = "none"
GATE_SOFT = "soft-deterministic"
GATE_HARD = "hard"
GATE_STOCHASTIC = "stochastic-bernoulli"

GATE_MODES = (GATE_NONE, GATE_SOFT, GATE_HARD, GATE_STOCHASTIC)

ST_VARIANTS = ("identity", "sigmoid")

# Soft-gate value below which a weight is reported as removed mid-training.
PRUNED_GATE_EPS = 1e-6


@dataclass
class TemperatureSchedule:
    """Exponential inverse-temperature annealing: beta(t) = beta_final^(t/T).

    beta(0) = 1, beta(T) = beta_final, non-decreasing in between. ``step``
    is called once per optimizer iteration.
    """

    beta_final: float
    total_iters: int
    current_iter: int = 0

    def __post_init__(self):
        if self.beta_final < 1.0:
            raise ValueError("final temperature must be >= 1")
        if self.total_iters < 1:
            raise ValueError("schedule length must be >= 1")

    def at(self, t: int) -> float:
        if not 0 <= t <= self.total_iters:
            raise ValueError(f"iteration {t} outside schedule [0, {self.total_iters}]")
        return float(self.beta_final ** (t / self.total_iters))

    @property
    def current_beta(self) -> float:
        return self.at(self.current_iter)

    def step(self) -> float:
        """Advance one iteration and return the new temperature."""
        self.current_iter += 1
        return self.at(self.current_iter)

    def reset(self) -> None:
        self.current_iter = 0


@dataclass
class MaskedParameterGroup:
    """A weight tensor, its optional mask logits, and the gating mode.

    Invariant: ``mode == GATE_HARD`` exactly when ``frozen_mask`` is set;
    ``mask_logits`` exist exactly in the soft and stochastic modes, and
    ``pruned_forever`` marks their components that later rounds may never
    revive. Only ``init_gate``, ``freeze`` and ``prune_forever`` change it.
    """

    name: str
    weights: Tensor
    maskable: bool = True
    mode: str = GATE_NONE
    mask_logits: Tensor | None = None
    mask_init: float = 0.0
    frozen_mask: np.ndarray | None = None
    pruned_forever: np.ndarray | None = None

    def init_gate(self, mode: str, mask_init: float = 0.0) -> None:
        """Switch the gating mode with constant-initialized logits. Logits
        the group already has are reset in place, so an optimizer built on
        them keeps training them."""
        if mode not in GATE_MODES:
            raise ValueError(f"unknown gate mode {mode!r}")
        if not self.maskable and mode != GATE_NONE and mode != GATE_HARD:
            raise ValueError(f"group {self.name!r} is not maskable")
        if mode == GATE_HARD:
            self.freeze(np.ones(self.weights.shape, dtype=self.weights.dtype))
            return
        logits = self.mask_logits
        self.mode = mode
        self.frozen_mask = self.pruned_forever = self.mask_logits = None
        if mode != GATE_NONE:
            self.mask_init = float(mask_init)
            if logits is None:
                dt = self.weights.dtype
                logits = Tensor(np.empty(self.weights.shape, dtype=dt),
                                requires_grad=True, dtype=dt)
            logits.data[...] = self.mask_init
            self.mask_logits = logits

    def freeze(self, mask) -> None:
        """Fix a copy of ``mask``: hard mode, no logits, no sentinel."""
        self.mode = GATE_HARD
        self.mask_logits = None
        self.pruned_forever = None
        self.frozen_mask = np.array(mask, dtype=self.weights.dtype)

    def prune_forever(self, dropped: np.ndarray) -> None:
        """Remove the ``dropped`` components of a gated group for good."""
        if self.mode not in (GATE_SOFT, GATE_STOCHASTIC):
            raise ValueError(f"group {self.name!r} has no gate to prune")
        self.pruned_forever = (np.array(dropped, dtype=bool)
                               if self.pruned_forever is None
                               else self.pruned_forever | dropped)

    def kept(self) -> np.ndarray | None:
        """Float mask of components not permanently removed, or None."""
        if self.pruned_forever is None:
            return None
        return (~self.pruned_forever).astype(self.weights.dtype)

    def sample_mask(self, rng) -> np.ndarray:
        """One draw of m ~ Bernoulli(sigmoid(s)), as ``_draw`` makes it."""
        return _draw(self, expit(self.mask_logits.data), rng)

    def gate_values(self, beta: float = 1.0) -> np.ndarray:
        """Current gate value per component, for sparsity reporting."""
        if self.mode == GATE_HARD:
            return self.frozen_mask
        if self.mode == GATE_NONE:
            return np.ones(self.weights.shape, dtype=self.weights.dtype)
        g = expit(self.mask_logits.data,
                  beta if self.mode == GATE_SOFT else 1.0)
        k = self.kept()
        return g * k if k is not None else g

    def current_hard_mask(self) -> np.ndarray:
        """Exact binary mask this group would emit right now."""
        if self.mode in (GATE_HARD, GATE_NONE):  # its gate values are binary
            return self.gate_values().copy()
        m = hard_mask(self.mask_logits.data)
        k = self.kept()
        return m * k if k is not None else m


def _soft(group: MaskedParameterGroup, beta: float):
    """The logits, sigmoid(beta * s), the kept mask k (or None) and the
    gate sigmoid(beta * s) ⊙ k of a group with mask logits."""
    s = group.mask_logits
    sig = expit(s.data, beta)
    k = group.kept()
    return s, sig, k, (sig if k is None else sig * k)


def _draw(group: MaskedParameterGroup, sig: np.ndarray, rng) -> np.ndarray:
    """m ~ Bernoulli(sig), one uniform per component in flat order, with
    the group's sentinel-removed components 0."""
    m = (rng.random(sig.shape) < sig).astype(group.weights.dtype)
    if group.pruned_forever is not None:
        m[group.pruned_forever] = 0.0
    return m


def _logit_grad(g, sig, beta: float, k):
    """Gradient on s of a gate whose output gradient is ``g``:
    g · beta · sig · (1 - sig) · k, formed in one buffer."""
    gs = 1.0 - sig
    gs *= sig
    gs *= beta
    gs *= g
    if k is not None:
        gs *= k
    return gs


class StepGate(Tensor):
    """A gated group's gate for one step, owned by the one layer node that
    reads it and hands it the gradient g. A soft gate sigmoid(beta * s) ⊙ k
    gives the logits ``_logit_grad(g + lam, sig, beta, k)``. A stochastic
    gate, a Bernoulli draw (``st_variant`` its straight-through estimator,
    None on a soft gate), gives them its penalty's gradient
    ``_logit_grad(lam, sig, 1, k)``, then g · k, or g · sig · (1 - sig) · k
    for the sigmoid variant. ``penalty`` is lam * sum(sigmoid(beta * s) ⊙ k),
    with beta = 1 for a stochastic gate. A second gradient raises
    ``GradientError`` naming the group. The arrays it forms for the logits,
    and the layer's own array when the layer handed it over, become the
    logits' gradient without a copy (``tensor._hand``).

    With lam > 0 the logit gradient is that of loss + penalty only if the
    caller adds ``penalty`` to the objective it differentiates, seeds the
    backward pass with exactly 1, and puts the reading node on the loss
    path; otherwise the penalty's gradient is wrong or lost. Callers
    outside ``train`` should pass lam = 0 and use ``gate_penalty``."""

    __slots__ = ("group_name", "logits", "sig", "beta", "kept", "lam",
                 "st_variant", "penalty", "spent")

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.spent:
            raise GradientError(
                f"the step gate of group {self.group_name!r} received a second "
                f"gradient; a step gate feeds exactly one node")
        self.spent = True
        s, sig, k = self.logits, self.sig, self.kept
        if self.st_variant is None:  # soft: the penalty's gradient joins g
            if self.lam > 0.0:
                g = g + self.lam
            _hand(s, _logit_grad(g, sig, self.beta, k))
            return
        if self.lam > 0.0:  # stochastic: the penalty's gradient comes first
            _hand(s, _logit_grad(self.lam, sig, self.beta, k))
        if self.st_variant == "sigmoid":
            g = g * sig * (1.0 - sig)
        elif k is None and type(g) is not _HandedOver:
            s.accumulate_grad(g)  # an array the caller may still hold
            return
        _hand(s, g if k is None else g * k)


def gate(group: MaskedParameterGroup, beta: float, lam: float = 0.0,
         rng=None, st_variant: str = "identity") -> StepGate:
    """This step's ``StepGate`` of a soft or stochastic group, recording no
    tape node; a stochastic gate is ``sample_mask``'s draw from ``rng``.
    ``penalty`` is an exact zero for lam = 0; see ``StepGate`` for what
    lam > 0 asks of the caller."""
    if group.mode not in (GATE_SOFT, GATE_STOCHASTIC):
        raise ValueError(f"gate requires a soft or stochastic group, "
                         f"group {group.name!r} is {group.mode!r}")
    if lam < 0:
        raise ValueError("penalty strength must be non-negative")
    if group.mode == GATE_SOFT:
        s, sig, k, gv = _soft(group, beta)
        out, st_variant = gv, None
    else:
        if rng is None:
            raise ValueError("stochastic gate requires an RNG")
        if st_variant not in ST_VARIANTS:
            raise ValueError(f"unknown straight-through variant {st_variant!r}")
        s, k, beta = group.mask_logits, group.kept(), 1.0
        sig = expit(s.data)  # one sigmoid for the draw, penalty and gradient
        out = _draw(group, sig, rng)
        gv = sig if k is None or lam == 0.0 else sig * k  # the penalized gate
    step = StepGate(out, requires_grad=s.requires_grad, dtype=out.dtype)
    step.group_name, step.logits, step.sig, step.kept = group.name, s, sig, k
    step.beta, step.lam, step.st_variant = beta, float(lam), st_variant
    step.spent = False
    step.penalty = (np.asarray(np.add.reduce(gv, axis=None) * lam,
                               dtype=gv.dtype) if lam > 0.0
                    else np.zeros((), dtype=out.dtype))
    return step


def soft_gate(group: MaskedParameterGroup, beta: float) -> Tensor:
    """sigmoid(beta * s) ⊙ k ⊙ w, with gradients to both w and s."""
    if group.mode != GATE_SOFT:
        raise ValueError(f"soft_gate requires mode {GATE_SOFT!r}, "
                         f"group {group.name!r} is {group.mode!r}")
    return mul(gate(group, beta), group.weights)


def hard_mask(s) -> np.ndarray:
    """Element-wise step: 1 where s > 0, else 0 (boundary prunes)."""
    d = s.data if isinstance(s, Tensor) else np.asarray(s)
    return (d > 0).astype(d.dtype if d.dtype.kind == "f" else np.float64)


def gate_penalty(group: MaskedParameterGroup, beta: float, lam: float) -> Tensor:
    """lam * sum(sigmoid(beta * s) ⊙ k) of a gated group as one tape node
    over s; gates are positive, so the L1 norm is a plain sum. lam = 0
    contributes an exact off-tape zero."""
    if lam < 0:
        raise ValueError("penalty strength must be non-negative")
    if lam == 0.0:
        dt = group.weights.dtype
        return Tensor(np.zeros((), dtype=dt), dtype=dt)
    s, sig, k, gv = _soft(group, beta)
    out = np.asarray(gv.sum() * lam, dtype=gv.dtype)

    def backward_fn(g):
        if s.requires_grad:
            _hand(s, _logit_grad(g * lam, sig, beta, k))

    return apply_op("gate_penalty", (s,), out, backward_fn)


def reset_mask(group: MaskedParameterGroup, end_logits: np.ndarray,
               beta_end: float) -> None:
    """Between-round reset: s <- min(beta_end * end_logits, s_init).

    Re-opens the gate for components the round kept (positive logits return
    to their initial value) while leaving suppressed components strongly
    negative. The caller resets the temperature schedule to 1 alongside.
    """
    if group.mask_logits is None:
        raise ValueError(f"group {group.name!r} has no mask logits to reset")
    # in place: an optimizer holding the logits updates this very array
    group.mask_logits.data[...] = np.minimum(
        beta_end * np.asarray(end_logits, dtype=group.weights.dtype),
        group.mask_init)


def kept_fraction(masks: dict[str, np.ndarray]) -> float:
    """Fraction of components kept by a dict of binary masks, divided in
    float64 whatever the masks' dtype."""
    total = sum(m.size for m in masks.values())
    if total == 0:
        raise ValueError("no masked components to report on")
    return sum(float(m.sum()) for m in masks.values()) / total


def remaining_fraction(groups, beta: float = 1.0, gates=None,
                       stacked: bool = False):
    """Size-weighted remaining fraction across gated groups: gate values
    at or above ``PRUNED_GATE_EPS`` count as kept. ``gates`` maps soft
    groups' names to their ``gate`` at this beta, read instead of
    computing the sigmoid again. The groups of a stacked model
    (``models.stack_models``, ``stacked``) give a list, each slice's
    fraction."""
    gates = gates or {}
    total = 0
    kept = 0.0
    for g in groups:
        vals = gates[g.name].data if g.name in gates else g.gate_values(beta)
        hits = vals >= PRUNED_GATE_EPS
        if stacked:
            total += vals[0].size
            kept = kept + hits.reshape(len(hits), -1).sum(axis=1)
        else:
            total += vals.size
            kept += float(hits.sum())
    if total == 0:
        raise ValueError("no gated components to report on")
    return (kept / total).tolist() if stacked else kept / total
