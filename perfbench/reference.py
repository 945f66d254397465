"""Host speed reference: fixed NumPy work that shares no code with ticketlab.

The host this benchmark was written on runs the same code up to twice as
fast or slow for tens of seconds at a time (other load on the same
physical cores, presumably), so raw times of one workload spread by up to 30% between runs.
Each workload therefore has a reference kernel doing the same kind of work
(small matmuls and Python overhead for cs-mlp and set-up, the same on two
threads for the two-worker sweep, per-offset ``einsum`` convolutions for
conv6), timed before and after each
repeat. A repeat's times are divided by the ``slowdown`` those two timings
give: the result is seconds at the host speed the nominal kernel times
were taken at. Raw times are reported next to the scaled ones.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import expit


def mlp_kernel(steps: int = 1500) -> float:
    """Forward and backward of a gated (2,64,64,2) MLP on batch 32, one
    closure per op as a tape would record them."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 2))
    ws = [rng.standard_normal(s) * 0.1 for s in ((2, 64), (64, 64), (64, 2))]
    ss = [np.full(w.shape, 0.03) for w in ws]
    total = 0.0
    for _ in range(steps):
        tape = []
        h = x
        for w, s in zip(ws, ss):
            g = expit(200.0 * s)
            we = w * g
            z = h @ we
            a = np.maximum(z, 0.0)
            tape.append((h, we, z, g, lambda d, z=z: d * (z > 0)))
            h = a
        grad = np.ones_like(h) / h.shape[0]
        for i in range(len(tape) - 1, -1, -1):
            h_in, we, z, g, relu_back = tape[i]
            grad = relu_back(grad)
            gw = h_in.T @ grad
            ws[i] = ws[i] - 1e-6 * gw * g
            ss[i] = ss[i] - 1e-6 * gw * ws[i] * g * (1.0 - g)
            grad = grad @ we.T
        total += float(grad.sum())
    return total


def conv_kernel(reps: int = 16) -> float:
    """Per-offset einsum convolutions, forward and kernel gradient, on
    conv6-like shapes."""
    rng = np.random.default_rng(0)
    total = 0.0
    for cin, cout, side in ((1, 8, 16), (8, 8, 16), (8, 16, 8), (16, 16, 8)):
        x = np.pad(rng.standard_normal((32, cin, side, side)), ((0, 0), (0, 0), (1, 1), (1, 1)))
        k = rng.standard_normal((cout, cin, 3, 3))
        for _ in range(reps):
            out = np.zeros((32, cout, side, side))
            for i in range(3):
                for j in range(3):
                    out += np.einsum("ncxy,oc->noxy", x[:, :, i:i + side, j:j + side], k[:, :, i, j])
            gk = np.zeros_like(k)
            for i in range(3):
                for j in range(3):
                    gk[:, :, i, j] = np.einsum("noxy,ncxy->oc", out, x[:, :, i:i + side, j:j + side])
            total += float(gk.sum())
    return total


def mlp_two_threads() -> float:
    """Two half-length ``mlp_kernel`` calls on a pool of two threads, the
    way a two-worker sweep runs its jobs."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return sum(pool.map(mlp_kernel, (750, 750)))


# kind -> (kernel, nominal seconds): the nominal time is what one call
# takes at the host speed scaled times refer to, on a 2-vCPU x86_64 VM with
# OpenBLAS pinned to one thread (calls took 0.20-0.34 s for "mlp" and
# 0.19-0.29 s for "conv" there as the host's speed changed; the two-thread
# kernel took 0.33 s while "mlp" took 0.195 s).
KERNELS = {"mlp": (mlp_kernel, 0.30), "conv": (conv_kernel, 0.22),
           "mlp-2threads": (mlp_two_threads, 0.50)}


def measure(kind: str) -> float:
    """Seconds one call of a reference kernel takes now."""
    kernel, _ = KERNELS[kind]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdown(kind: str, before: float, after: float) -> float:
    """Host slowdown over an interval bracketed by two kernel timings
    (1: nominal speed, 2: half speed)."""
    return (before + after) / 2 / KERNELS[kind][1]
