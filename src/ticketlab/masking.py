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

A gated group's gate records no tape node. A ``GateSet`` of groups
returns one step's gates of each as a ``StepGate``: sigmoid(beta * s) ⊙ k
for a soft group (k: the components not permanently removed), a
Bernoulli(sigmoid(s)) draw for a stochastic one. Consecutive groups of one
mode form their gates together: one sigmoid over their logits, read in
place when an optimizer keeps them in one arena, each gate a view of the
result, the layer gradients written into one buffer, and one
logit-gradient pass once every gate has its layer gradient, written into
the optimizer's gradient arena when it keeps the logits' gradients there
in order. ``gate`` is its one-group case. The arena ops are elementwise,
so a batch gives bitwise what one group at a time gives.

A gate carries its L1 penalty's value in ``penalty``, summed per group,
and the layer node that reads it (``linear`` or ``conv2d``) owns it: the
one gradient that node hands the gate goes to the logits, together with
the penalty's gradient. That is the gradient of loss + penalty only when
the caller differentiates exactly that sum with a seed of 1, and the gate
feeds one node on the loss path; ``train`` does so and adds the penalty
values to the reported loss off the tape. A second gradient into a gate
raises ``GradientError``. ``gate_penalty`` is the penalty as a node over
s, and ``soft_gate`` the gated weight ``gate ⊙ w``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import GradientError, Tensor, _dest, _st, apply_op, expit, mul

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
        t = self.current_iter = self.current_iter + 1
        if not 0 <= t <= self.total_iters:
            return self.at(t)  # raises
        return float(self.beta_final ** (t / self.total_iters))


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
    # ``mask_tensor``'s Tensor of ``frozen_mask``
    _mask: Tensor | None = field(default=None, init=False, repr=False,
                                 compare=False)

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

    def mask_tensor(self) -> Tensor:
        """The frozen mask as a constant Tensor of the weights' dtype, as
        ``Tensor(frozen_mask, dtype=weights.dtype)`` wraps it: one held
        while ``frozen_mask`` is the same array of that dtype, so that
        writes into it show, and made anew when ``freeze`` rebinds it."""
        t, fm = self._mask, self.frozen_mask
        if t is None or t.data is not fm or fm.dtype is not self.weights.dtype:
            t = self._mask = Tensor(fm, dtype=self.weights.dtype)
        return t

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
        return _draw(expit(self.mask_logits.data), self.kept(), rng,
                     self.weights.dtype)

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


def _draw(sig: np.ndarray, kept, rng, dtype) -> np.ndarray:
    """m ~ Bernoulli(sig) in ``dtype``, one uniform per component in flat
    order, with the components that the kept mask ``kept`` removes 0
    (None: none removed)."""
    m = (rng.random(sig.shape) < sig).astype(dtype)
    if kept is not None:
        m *= kept
    return m


def _logit_grad(g, sig, beta: float, k, out=None):
    """Gradient on s of a gate whose output gradient is ``g``:
    g · beta · sig · (1 - sig) · k, formed in one buffer, ``out`` when
    given."""
    gs = np.subtract(1.0, sig, out=out)
    gs *= sig
    gs *= beta
    gs *= g
    if k is not None:
        gs *= k
    return gs


def _address(a: np.ndarray) -> int:
    """Where ``a``'s first element lies in memory."""
    return a.__array_interface__["data"][0]


def _consecutive(arrays: list, bounds: list) -> np.ndarray | None:
    """``arrays`` as one 1-d view of the array that they lie in
    consecutively and in order, C-ordered, at ``bounds`` (as an optimizer
    keeps its parameters and their gradients, ``optim.Optimizer``), or
    None when they do not."""
    first, base = arrays[0], arrays[0].base
    if len(arrays) == 1:
        return first.reshape(-1) if first.flags.c_contiguous else None
    if (base is None or base.ndim != 1 or not base.flags.c_contiguous
            or not all(a.base is base and a.dtype == base.dtype
                       and a.flags.c_contiguous for a in arrays)):
        return None
    start = _address(first)
    if any(_address(a) != start + lo * base.itemsize
           for a, (lo, _) in zip(arrays, bounds)):
        return None
    lo = (start - _address(base)) // base.itemsize
    return base[lo:lo + bounds[-1][1]]


class _Batch:
    """Consecutive groups of a ``GateSet`` that share a mode and dtypes
    (``key``), whose gates form together, and their layout: the logits,
    each one's ``bounds`` in the batch's 1-d arenas of ``size`` elements,
    whether each trains (``trains``), the ``idle`` bounds of logits that
    do not (their layer gradient stands at zero), ``kept``, the kept masks
    k as one array (None when no group has a sentinel), ``arena``, the
    logits as one view of the array that they lie in consecutively (an
    optimizer's parameter arena), or None when they do not and each step
    copies them into one array, and ``grad_arena``, likewise the logits'
    gradient destinations when every logit trains and has one, or None."""

    __slots__ = ("key", "soft", "groups", "names", "logits", "arrays",
                 "bounds", "size", "trains", "idle", "pending", "kept",
                 "arena", "dests", "grad_arena")

    def __init__(self, key: tuple, groups: list):
        self.key, self.groups = key, groups
        self.soft = key[0] == GATE_SOFT
        self.names = [g.name for g in groups]
        self.logits = [g.mask_logits for g in self.groups]
        self.arrays = [s.data for s in self.logits]
        self.bounds, n = [], 0
        for a in self.arrays:
            self.bounds.append((n, n + a.size))
            n += a.size
        self.size = n
        self.trains = [s.requires_grad for s in self.logits]
        self.idle = [b for t, b in zip(self.trains, self.bounds) if not t]
        self.pending = len(self.logits) - len(self.idle)
        self.kept = None
        for g, (lo, hi) in zip(self.groups, self.bounds):
            if g.pruned_forever is not None:
                if self.kept is None:
                    self.kept = np.ones(n, dtype=key[2])
                self.kept[lo:hi][g.pruned_forever.reshape(-1)] = 0.0
        self.arena = _consecutive(self.arrays, self.bounds)
        self.dests = [s.grad_dest for s in self.logits]
        self.grad_arena = (
            None if self.idle or any(d is None for d in self.dests)
            else _consecutive(self.dests, self.bounds))

    def make(self) -> tuple:
        """A fresh ``_Step`` of this batch, with its sigmoid array (and a
        soft batch's gate array), and its ``StepGate`` of each group, for
        ``form`` to arm."""
        step = _Step()
        step.batch, step.pending, step.buf, step.grads = self, 0, None, True
        step.kept, step.st_variant = self.kept, None
        step.sig = np.empty(self.size, self.key[1])
        if self.soft:  # the gates: the sigmoid itself, or times k
            step.values = (step.sig if self.kept is None
                           else np.empty(self.size, self.key[2]))
        gates = []
        for i, (g, t, a, (lo, hi)) in enumerate(zip(
                self.groups, self.trains, self.arrays, self.bounds)):
            m = StepGate.__new__(StepGate)
            m.group_name, m.step, m.index = g.name, step, i
            m.grad, m.requires_grad = None, t
            if self.soft:
                m.data = step.values[lo:hi].reshape(a.shape)
            gates.append(m)
        return step, gates

    def form(self, step: "_Step", gates: list, beta: float, lam: float,
             rng, st_variant: str, grads: bool) -> None:
        """Arm ``step`` and ``gates`` (``make``'s, whose last step is
        over) as this step's gates of the batch's groups. Their arrays are
        reused: the sigmoid, a soft batch's gates and the layer-gradient
        buffer stay where the last call left them. With ``grads`` False
        the gates take no gradient, and the step is over as formed."""
        buf = step.buf
        if buf is None:  # the first, or the last one went to the logits
            buf = step.buf = np.empty(self.size, self.key[2])
            for m, t, a, (lo, hi) in zip(gates, self.trains, self.arrays,
                                         self.bounds):
                m.dest = buf[lo:hi].reshape(a.shape) if t else None
        step.grad = buf
        for lo, hi in self.idle:
            buf[lo:hi] = 0.0
        if grads is not step.grads:  # the gates take gradients or not
            step.grads = grads
            for m, t in zip(gates, self.trains):
                m.requires_grad = t and grads
        step.pending = self.pending if grads else 0
        step.lam = lam
        k = self.kept
        if not self.soft:  # a draw's sigmoid takes beta = 1
            beta, step.st_variant = 1.0, st_variant
        step.beta = beta
        sig = expit(np.concatenate(self.arrays, axis=None)
                    if self.arena is None else self.arena, beta, step.sig)
        if self.soft:
            values = penalized = step.values
            if k is not None:
                np.multiply(sig, k, out=values)
        else:  # one sigmoid for the draw, penalty and gradient
            values = step.values = _draw(sig, k, rng, self.key[2])
            penalized = sig if k is None or lam == 0.0 else sig * k
            for m, a, (lo, hi) in zip(gates, self.arrays, self.bounds):
                m.data = values[lo:hi].reshape(a.shape)
        if lam == 0.0:
            zero = values.dtype.type(0)
            for m in gates:
                m.grad_dest, m.penalty = m.dest, zero
        elif penalized is values:  # each gate's penalty: lam * its sum
            lam = values.dtype.type(lam)
            for m in gates:
                m.grad_dest = m.dest
                m.penalty = np.add.reduce(m.data, axis=None) * lam
        else:
            lam = penalized.dtype.type(lam)
            for m, a, (lo, hi) in zip(gates, self.arrays, self.bounds):
                m.grad_dest = m.dest
                m.penalty = (np.add.reduce(penalized[lo:hi].reshape(a.shape),
                                           axis=None) * lam)


class _Step:
    """One step's gates of a ``_Batch`` (``batch``): the arenas ``sig`` =
    sigmoid(beta * s), ``kept`` (the batch's kept masks k) and ``values``
    (the gates), and ``grad``, the buffer each gate's layer gradient is
    written into, at the gate's bounds (``StepGate.grad_dest``): ``buf``,
    unless a wider gradient widened it. When the last gate whose logits
    train has its gradient (``pending`` counts those still to come), one
    pass over the arenas forms every group's logit gradient, into the
    logits' gradient arena (``_Batch.grad_arena``) when they have one and
    no gradient yet, and each group's part of it becomes that group's
    gradient as it is (``Tensor.take_grad``). ``grads`` says whether its
    gates take gradients. A step holds no gate, so that step and gates
    form no reference cycle."""

    __slots__ = ("batch", "sig", "kept", "values", "beta", "lam",
                 "st_variant", "buf", "grad", "pending", "grads")

    def put(self, i: int, g: np.ndarray) -> None:
        """Write gate ``i``'s layer gradient ``g``, formed elsewhere than
        at the gate's view of ``grad``, into ``grad``, widening ``grad``
        when ``g`` is wider."""
        buf = self.grad
        wide = np.result_type(buf, g)
        if wide != buf.dtype:  # a float32 model fed float64 inputs
            self.grad = buf = buf.astype(wide)  # exact
        lo, hi = self.batch.bounds[i]
        buf[lo:hi].reshape(g.shape)[...] = g

    def finish(self) -> None:
        """Hand the logits their gradients: every gate whose logits train
        has its layer gradient in ``grad``."""
        b, g, sig, k, lam = self.batch, self.grad, self.sig, self.kept, self.lam
        self.grad = None
        out = b.grad_arena
        if out is not None:
            for s in b.logits:
                if s.grad is not None:  # a second gradient: added to the
                    out = None  # first
                    break
        if self.st_variant is None:  # soft: the penalty's gradient joins g
            if lam > 0.0:
                g += lam
            self._give(_logit_grad(g, sig, self.beta, k, out))
            return
        if lam > 0.0:  # stochastic: the penalty's gradient comes first
            self._give(_logit_grad(lam, sig, self.beta, k, out))
        if self.st_variant == "sigmoid":
            g *= sig
            g *= 1.0 - sig
        if k is not None:
            g *= k
        if lam == 0.0 and out is not None:  # the logits' first gradient
            out[...] = g
            g = out
        elif g is self.buf:  # it may become the logits' gradient
            self.buf = None
        self._give(g)

    def _give(self, grad: np.ndarray) -> None:
        """Hand each training logit its part of ``grad``: its gradient
        destination itself when ``grad`` is their arena."""
        b = self.batch
        if grad is b.grad_arena:
            for s, d in zip(b.logits, b.dests):
                s.take_grad(d)
            return
        for s, a, (lo, hi) in zip(b.logits, b.arrays, b.bounds):
            if s.requires_grad:
                s.take_grad(grad[lo:hi].reshape(a.shape))


class StepGate(Tensor):
    """A gated group's gate for one step, owned by the one layer node that
    reads it and hands it the gradient g. A soft gate sigmoid(beta * s) ⊙ k
    gives the logits ``_logit_grad(g + lam, sig, beta, k)``. A stochastic
    gate, a Bernoulli draw (``st_variant`` its straight-through estimator),
    gives them its penalty's gradient ``_logit_grad(lam, sig, 1, k)``, then
    g · k, or g · sig · (1 - sig) · k for the sigmoid variant. ``penalty``
    is lam * sum(sigmoid(beta * s) ⊙ k), with beta = 1 for a stochastic
    gate, a NumPy scalar of the gate's dtype. A second gradient raises
    ``GradientError`` naming the group.

    The gate is a view of what its ``GateSet`` formed for the step
    together with the gates of its batch (``step``), and its gradient
    destination a view of the step's layer-gradient buffer (``dest``),
    until it has its gradient; the logits get theirs when every gate of
    the batch whose logits train has its own.

    With lam > 0 the logit gradient is that of loss + penalty only if the
    caller adds ``penalty`` to the objective it differentiates, seeds the
    backward pass with exactly 1, and puts the reading node on the loss
    path; otherwise the penalty's gradient is wrong or lost. Callers
    outside ``train`` should pass lam = 0 and use ``gate_penalty``."""

    __slots__ = ("group_name", "step", "index", "penalty", "dest")

    def take_grad(self, g: np.ndarray) -> None:
        d = self.grad_dest
        if d is None:
            raise GradientError(
                f"the step gate of group {self.group_name!r} received a second "
                f"gradient; a step gate feeds exactly one node")
        self.grad_dest = None
        step = self.step
        if g is not d or step.grad is not step.buf:  # formed elsewhere
            step.put(self.index, g)
        step.pending -= 1
        if not step.pending:  # the last gate of the batch that waited
            step.finish()

    accumulate_grad = take_grad


class GateSet:
    """Soft and stochastic groups whose gates form together. Calling it
    returns one step's ``StepGate`` of each group, by name in group order,
    recording no tape node. Consecutive groups of one mode and dtype form
    theirs as one batch: one sigmoid over their logits, read in place when
    they lie consecutively in one array (an optimizer's arena), each gate
    a view of the result, and one logit-gradient pass once the batch has
    its layer gradients. A stochastic gate is a Bernoulli draw from
    ``rng``; a batch draws its uniforms with one call, in group order, as
    one call per group would. ``penalty`` is summed per group, an exact
    zero for lam = 0; see ``StepGate`` for what lam > 0 asks of the
    caller.

    The batches and their layout, kept masks included, are worked out on
    the first call, and again when a group's mode, logits or sentinel
    array (``prune_forever`` makes a new one) have changed since, so a
    training loop that calls one ``GateSet`` every step works them out
    once. A call reuses the gates, their step and their arrays that the
    set's last call returned (and the dict it returned them in), so a
    call's gates stay valid until that set's next call; a call made while
    the last call's step is unfinished (a gate whose logits train still
    waits for its gradient) builds fresh ones, leaving those of that step
    as they are. A call made under ``tensor.no_grad`` forms gates that
    take no gradient (their ``requires_grad`` is False): its step is
    finished as formed, so the set's next call reuses them, and a node
    recorded on them later hands their logits nothing."""

    def __init__(self, groups):
        self.groups = list(groups)
        # each group's (mode, logits, array, trains, sentinel)
        self._held = None
        self._batches, self._draws = [], False
        self._made = []  # each batch's last step and gates
        self._gates = None  # the gates of ``_made`` by group name

    def __call__(self, beta: float, lam: float = 0.0, rng=None,
                 st_variant: str = "identity") -> dict[str, StepGate]:
        held = self._held
        if held is None:
            self._settle()
        else:
            for g, (mode, s, a, trains, p) in zip(self.groups, held):
                if (g.mode != mode or g.mask_logits is not s or s.data is not a
                        or s.requires_grad != trains
                        or g.pruned_forever is not p):
                    self._settle()
                    break
        if lam < 0:
            raise ValueError("penalty strength must be non-negative")
        if self._draws:
            if rng is None:
                raise ValueError("stochastic gate requires an RNG")
            if st_variant not in ST_VARIANTS:
                raise ValueError(f"unknown straight-through variant "
                                 f"{st_variant!r}")
        # as floats, so that the sigmoid takes the logits' dtype
        beta, lam = float(beta), float(lam)
        grads = not _st.no_grad
        gates, made = self._gates, self._made
        for i, b in enumerate(self._batches):
            step, gs = made[i]
            if step.pending:  # its step still waits for gradients
                step, gs = made[i] = b.make()
                gates = None
            b.form(step, gs, beta, lam, rng, st_variant, grads)
        if gates is None:  # a new dict: the last one keeps its gates
            gates = self._gates = {
                name: m for b, (_, gs) in zip(self._batches, made)
                for name, m in zip(b.names, gs)}
        return gates

    def _settle(self) -> None:
        runs = []  # (mode and dtypes, consecutive groups that share them)
        for g in self.groups:
            if g.mode not in (GATE_SOFT, GATE_STOCHASTIC):
                raise ValueError(f"gate requires a soft or stochastic group, "
                                 f"group {g.name!r} is {g.mode!r}")
            key = (g.mode, g.mask_logits.data.dtype, g.weights.data.dtype)
            if runs and runs[-1][0] == key:
                runs[-1][1].append(g)
            else:
                runs.append((key, [g]))
        self._batches = [_Batch(key, groups) for key, groups in runs]
        self._made = [b.make() for b in self._batches]
        self._gates = None
        self._draws = any(key[0] == GATE_STOCHASTIC for key, _ in runs)
        self._held = [(g.mode, g.mask_logits, g.mask_logits.data,
                       g.mask_logits.requires_grad, g.pruned_forever)
                      for g in self.groups]


def gate(group: MaskedParameterGroup, beta: float, lam: float = 0.0,
         rng=None, st_variant: str = "identity") -> StepGate:
    """This step's ``StepGate`` of a soft or stochastic group: the
    one-group case of ``GateSet``; a stochastic gate is ``sample_mask``'s
    draw from ``rng``."""
    return GateSet([group])(beta, lam, rng, st_variant)[group.name]


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
    s, k = group.mask_logits, group.kept()
    sig = expit(s.data, beta)
    gv = sig if k is None else sig * k
    out = np.asarray(gv.sum() * lam, dtype=gv.dtype)

    def backward_fn(g):
        if s.requires_grad:
            s.take_grad(_logit_grad(g * lam, sig, beta, k,
                                    _dest(s, sig.dtype)))

    return apply_op("gate_penalty", (s,), out, backward_fn)


def reset_mask(group: MaskedParameterGroup, end_logits: np.ndarray,
               beta_end: float) -> None:
    """Between-round reset: s <- min(beta_end * end_logits, s_init).

    Re-opens the gate for components the round kept (positive logits return
    to their initial value) while leaving suppressed components strongly
    negative. The next round anneals the temperature from 1 again on a
    fresh schedule.
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
    at or above ``PRUNED_GATE_EPS`` count as kept. ``gates``, soft groups'
    gates at this beta from one ``GateSet`` call over some of ``groups``,
    are read instead of computing the sigmoid again, each of their batches
    counted in one pass. The groups of a stacked model
    (``models.stack_models``, ``stacked``), which have no such gates, give
    a list, each slice's fraction."""
    gates = gates or {}
    total = 0
    kept = 0.0
    read = {}  # each batch the gates come from: how many of its gates
    for g in groups:
        if g.name in gates:
            step = gates[g.name].step
            read[step] = read.get(step, 0) + 1
            continue
        vals = g.gate_values(beta)
        hits = vals >= PRUNED_GATE_EPS
        if stacked:
            total += vals[0].size
            kept = kept + hits.reshape(len(hits), -1).sum(axis=1)
        else:
            total += vals.size
            kept += float(hits.sum())
    for step, n in read.items():
        if n != len(step.batch.groups):
            raise ValueError("gates must hold whole batches of the groups "
                             "reported on")
        total += step.values.size
        kept += float(np.count_nonzero(step.values >= PRUNED_GATE_EPS))
    if total == 0:
        raise ValueError("no gated components to report on")
    return (kept / total).tolist() if stacked else kept / total
