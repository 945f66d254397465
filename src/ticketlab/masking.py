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

On the tape, a soft group's gate sigmoid(beta * s) ⊙ k (k: the components
not permanently removed) is one node, ``gate``, and so is the L1 term
``gate_penalty``; each has a hand-written backward. A training step
computes each group's gate once: ``train`` makes the ``gate`` node, hands
it to ``Model.forward`` (which fuses it into the layer) and to
``gate_penalty``, and the logit gradient is formed once from the sum of
their contributions. ``soft_gate`` is the gated weight ``gate ⊙ w``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, apply_op, expit, mul

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
                logits = Tensor(np.empty(self.weights.shape, dtype=self.weights.dtype),
                                requires_grad=True)
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
        """One draw of m ~ Bernoulli(sigmoid(s)), one uniform per component
        in flat order; sentinel-removed components are 0."""
        p = expit(self.mask_logits.data)
        m = (rng.random(p.shape) < p).astype(self.weights.dtype)
        if self.pruned_forever is not None:
            m[self.pruned_forever] = 0.0
        return m

    def weight_and_gate(self, beta: float = 1.0, rng=None,
                        st_variant: str = "identity",
                        step_gate: Tensor | None = None) -> tuple[Tensor, Tensor | None]:
        """The weight tensor and the gate multiplying it in this forward
        pass: (w, frozen mask) in hard mode, (w, ``gate``) for a soft gate,
        (sampled m ⊙ w, None) for a stochastic gate and (w, None) ungated.
        ``step_gate`` is the step's ``gate`` node of a soft group; it is
        computed here when not given."""
        if self.mode == GATE_HARD:
            return self.weights, Tensor(self.frozen_mask, dtype=self.weights.dtype)
        if self.mode == GATE_SOFT:
            return self.weights, step_gate if step_gate is not None else gate(self, beta)
        if self.mode == GATE_STOCHASTIC:
            return stochastic_gate(self, rng, st_variant), None
        return self.weights, None

    def gate_values(self, beta: float = 1.0) -> np.ndarray:
        """Current gate value per component, for sparsity reporting."""
        if self.mode == GATE_HARD:
            return self.frozen_mask
        if self.mode == GATE_NONE:
            return np.ones(self.weights.shape, dtype=self.weights.dtype)
        g = expit(beta * self.mask_logits.data if self.mode == GATE_SOFT
                  else self.mask_logits.data)
        k = self.kept()
        return g * k if k is not None else g

    def current_hard_mask(self) -> np.ndarray:
        """Exact binary mask this group would emit right now."""
        if self.mode in (GATE_HARD, GATE_NONE):  # its gate values are binary
            return self.gate_values().copy()
        m = hard_mask(self.mask_logits.data)
        k = self.kept()
        return m * k if k is not None else m


def _require_mode(group: MaskedParameterGroup, mode: str, what: str) -> None:
    if group.mode != mode:
        raise ValueError(f"{what} requires mode {mode!r}, "
                         f"group {group.name!r} is {group.mode!r}")


def _soft(group: MaskedParameterGroup, beta: float):
    """The logits, sigmoid(beta * s), the kept mask k (or None) and the
    gate sigmoid(beta * s) ⊙ k of a group with mask logits."""
    s = group.mask_logits
    sig = expit(beta * s.data)
    k = group.kept()
    return s, sig, k, (sig if k is None else sig * k)


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


def gate(group: MaskedParameterGroup, beta: float) -> Tensor:
    """The gate sigmoid(beta * s) ⊙ k as one tape node over s."""
    _require_mode(group, GATE_SOFT, "gate")
    s, sig, k, out = _soft(group, beta)

    def backward_fn(g):
        if s.requires_grad:
            s.accumulate_grad(_logit_grad(g, sig, beta, k))

    return apply_op("gate", (s,), out, backward_fn)


def soft_gate(group: MaskedParameterGroup, beta: float) -> Tensor:
    """sigmoid(beta * s) ⊙ k ⊙ w, with gradients to both w and s."""
    _require_mode(group, GATE_SOFT, "soft_gate")
    return mul(gate(group, beta), group.weights)


def hard_mask(s) -> np.ndarray:
    """Element-wise step: 1 where s > 0, else 0 (boundary prunes)."""
    d = s.data if isinstance(s, Tensor) else np.asarray(s)
    return (d > 0).astype(d.dtype if d.dtype.kind == "f" else np.float64)


def gate_penalty(group: MaskedParameterGroup, beta: float, lam: float,
                 step_gate: Tensor | None = None) -> Tensor:
    """lam * sum(sigmoid(beta * s) ⊙ k) as one tape node over s; gates are
    positive, so the L1 norm is a plain sum. lam = 0 contributes an exact
    off-tape zero.

    ``step_gate`` is this step's ``gate`` node of the group: when given,
    the penalty reads its values instead of computing sigmoid(beta * s)
    again and hangs off it on the tape.
    """
    if lam < 0:
        raise ValueError("penalty strength must be non-negative")
    if lam == 0.0:
        return Tensor(np.zeros((), dtype=group.weights.dtype))
    if step_gate is not None:
        m = step_gate
        out = np.asarray(m.data.sum() * lam, dtype=m.dtype)

        def backward_fn(g):
            if m.requires_grad:
                m.accumulate_grad(np.full(m.shape, g * lam, dtype=m.dtype))

        return apply_op("gate_penalty", (m,), out, backward_fn)
    s, sig, k, gv = _soft(group, beta)
    out = np.asarray(gv.sum() * lam, dtype=gv.dtype)

    def backward_fn(g):
        if s.requires_grad:
            s.accumulate_grad(_logit_grad(g * lam, sig, beta, k))

    return apply_op("gate_penalty", (s,), out, backward_fn)


def stochastic_gate(group: MaskedParameterGroup, rng,
                    st_variant: str = "identity") -> Tensor:
    """Sample m ~ Bernoulli(sigmoid(s)) and return m ⊙ w.

    Backward: grad(w) = m ⊙ g; grad(s) uses the straight-through estimator -
    identity by default (grad(s) = g ⊙ w), or scaled by sigmoid'(s) when
    ``st_variant="sigmoid"``. Sentinel-frozen components sample 0 and pass
    no gradient to s.
    """
    _require_mode(group, GATE_STOCHASTIC, "stochastic_gate")
    if rng is None:
        raise ValueError("stochastic gate requires an RNG")
    if st_variant not in ST_VARIANTS:
        raise ValueError(f"unknown straight-through variant {st_variant!r}")
    w, s = group.weights, group.mask_logits
    m = group.sample_mask(rng)
    out = m * w.data

    def backward_fn(g):
        if w.requires_grad:
            w.accumulate_grad(g * m)
        if s.requires_grad:
            gs = g * w.data
            if st_variant == "sigmoid":
                p = expit(s.data)
                gs = gs * p * (1.0 - p)
            if group.pruned_forever is not None:
                gs = gs * (~group.pruned_forever)
            s.accumulate_grad(gs)

    return apply_op("stochastic_gate", (w, s), out, backward_fn)


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


def remaining_fraction(groups, beta: float = 1.0) -> float:
    """Size-weighted remaining fraction across gated groups: gate values
    at or above ``PRUNED_GATE_EPS`` count as kept."""
    total = 0
    kept = 0.0
    for g in groups:
        vals = g.gate_values(beta)
        total += vals.size
        kept += float((vals >= PRUNED_GATE_EPS).sum())
    if total == 0:
        raise ValueError("no gated components to report on")
    return kept / total
