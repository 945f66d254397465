"""A tour of the tensor engine: tape, gradients, and optimizers.

The engine records every operation on a thread-local tape during the
forward pass and walks it backwards exactly once. This script builds a
tiny expression, checks its gradient against central finite differences,
and runs the two optimizers on a quadratic bowl.
"""
import numpy as np

from ticketlab.optim import SGD, Adam
from ticketlab.tensor import (Tensor, backward, matmul, mul, no_grad,
                              relu, reset_tape, sigmoid, tensor_sum)

print("=== forward/backward on a small expression ===")
rng = np.random.default_rng(0)
a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)

reset_tape()
out = tensor_sum(relu(matmul(a, b)))
backward(out)
print(f"loss = {out.item():.6f}")
print(f"d(loss)/d(a) first row: {np.round(a.grad[0], 4)}")

# central finite differences as the independent oracle
eps = 1e-5
fd = np.zeros_like(a.data)
for i in range(3):
    for j in range(3):
        orig = a.data[i, j]
        for sign, slot in ((+1, 0), (-1, 1)):
            a.data[i, j] = orig + sign * eps
            with no_grad():
                val = float(np.maximum(a.data @ b.data, 0).sum())
            fd[i, j] += sign * val / (2 * eps)
        a.data[i, j] = orig
rel = np.abs(a.grad - fd) / np.maximum(np.abs(fd), 1e-8)
print(f"max relative error vs finite differences: {rel.max():.2e}")

print()
print("=== sigmoid saturation, the effect the soft gate relies on ===")
for x in (0.0, 5.0, 40.0, 500.0):
    reset_tape()
    t = Tensor([x], requires_grad=True)
    backward(tensor_sum(sigmoid(t)))
    print(f"  sigmoid({x:6.1f}) = {sigmoid(Tensor([x])).data[0]:.3e}, "
          f"derivative = {t.grad[0]:.3e}")

print()
print("=== SGD with momentum vs Adam on sum(w^2) ===")
for name, make in (("sgd+momentum", lambda p: SGD(p, lr=0.1, momentum=0.9)),
                   ("adam", lambda p: Adam(p, lr=0.1))):
    w = Tensor(np.full(4, 5.0), requires_grad=True)
    opt = make([w])
    for step in range(50):
        reset_tape()
        backward(tensor_sum(mul(w, w)))
        opt.step()
    print(f"  {name:12s} |w| after 50 steps: {np.abs(w.data).max():.2e}")
