"""The gate math behind learned sparsity.

Each maskable weight w gets a logit s; the effective weight is
sigmoid(beta * s) * w. At beta = 1 this is a soft gate; as beta grows the
gate converges to the hard step H(s) = 1[s > 0], so training with an
annealed beta walks a continuation path from a smooth objective to the
L0-regularized one. The between-round reset s <- min(beta_end * s_end,
s_init) re-opens kept gates and leaves suppressed ones shut.
"""
import numpy as np

from ticketlab.masking import (GATE_SOFT, MaskedParameterGroup,
                               TemperatureSchedule, hard_mask,
                               remaining_fraction, reset_mask)
from ticketlab.tensor import Tensor, expit

print("=== exponential temperature schedule, beta(t) = beta_T^(t/T) ===")
sched = TemperatureSchedule(beta_final=200.0, total_iters=500)
for t in (0, 125, 250, 375, 500):
    print(f"  t = {t:3d}/500 -> beta = {sched.at(t):8.3f}")

print()
print("=== soft gate converging to the hard step ===")
s = np.array([-0.30, -0.05, 0.05, 0.30])
print(f"  logits: {s},  hard step H(s): {hard_mask(s)}")
for beta in (1.0, 10.0, 100.0, 1000.0):
    print(f"  beta {beta:7.1f}: gates {np.round(expit(beta * s), 6)}")

print()
print("=== a gate pushed below numeric resolution counts as pruned ===")
g = MaskedParameterGroup("demo", Tensor(np.ones(4), requires_grad=True))
g.init_gate(GATE_SOFT, 0.0)
g.mask_logits.data = s.copy()
for beta in (1.0, 50.0, 500.0):
    vals = g.gate_values(beta=beta)
    print(f"  beta {beta:6.1f}: min gate {vals.min():.3e}, "
          f"remaining fraction reported "
          f"{remaining_fraction([g], beta):.2f}")

print()
print("=== between-round reset: kept gates re-open, suppressed stay shut ===")
end_logits = np.array([-0.10, 0.02, 0.30, -0.01])
g.mask_init = 0.05
g.mask_logits.data = end_logits.copy()
reset_mask(g, end_logits, beta_end=200.0)
print(f"  end-of-round logits : {end_logits}")
print(f"  after reset (s0=0.05): {g.mask_logits.data}")
print("  positive logits returned to s0; negative ones are now strongly")
print("  negative, so the next round cannot casually revive them.")
