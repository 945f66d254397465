"""Shared test oracles: central finite differences and relative error."""
import numpy as np

from ticketlab import tensor as T


def fd_grads(f, arrays, eps=1e-5):
    """Central finite differences of the scalar ``f()`` w.r.t. each array.

    ``f`` must recompute the scalar from the (in-place mutated) arrays on
    every call, independently of the autodiff path being checked.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def max_rel_err(a, b, floor=1e-6):
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def continuation_gaps(betas, seed=0, lam=1e-2, n=32, widths=(4, 16, 2)):
    """|L_beta - (L(H(s) ⊙ w) + lam * ||H(s)||_0)| at each beta, for one
    fixed (w, s) with |s| bounded away from zero, on a fixed batch.

    The limit objective is evaluated independently, through a hard-masked
    clone of the network, so the soft path under test never touches it.
    """
    from scipy.special import expit

    from ticketlab import GATE_SOFT, build_mlp, hard_mask
    from ticketlab.tensor import softmax_cross_entropy

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, widths[0]))
    y = rng.integers(0, widths[-1], n)

    model = build_mlp(list(widths), seed=seed)
    model.set_gate_mode(GATE_SOFT)
    for g in model.maskable_groups():
        mags = rng.uniform(0.1, 2.0, g.weights.shape)
        signs = np.where(rng.random(g.weights.shape) < 0.5, -1.0, 1.0)
        g.mask_logits.data = mags * signs

    masks = {g.name: hard_mask(g.mask_logits.data)
             for g in model.maskable_groups()}
    limit_model = build_mlp(list(widths), seed=seed)
    limit_model.load_weight_arrays(model.weight_arrays(copy=True))
    limit_model.apply_hard_masks(masks)
    with T.no_grad():
        ce = softmax_cross_entropy(limit_model.forward(T.Tensor(x)), y)
    l0 = sum(float(m.sum()) for m in masks.values())
    limit_value = float(ce.data) + lam * l0

    gaps = []
    for beta in betas:
        with T.no_grad():
            ce = softmax_cross_entropy(model.forward(T.Tensor(x), beta=beta), y)
        pen = lam * sum(expit(beta * g.mask_logits.data).sum()
                        for g in model.maskable_groups())
        gaps.append(abs(float(ce.data) + pen - limit_value))
    return gaps


def check_grad(build, arrays, eps=1e-5, proj_seed=0):
    """Compare autodiff and finite-difference gradients of sum(out * P) for
    a fixed random projection P; returns the max relative error.

    ``build(*tensors)`` runs the op under test on Tensor-wrapped views of
    ``arrays`` (which the finite-difference loop mutates in place).
    """
    with T.no_grad():
        probe = build(*[T.Tensor(a) for a in arrays])
    proj = np.random.default_rng(proj_seed).standard_normal(probe.shape)

    def scalar():
        with T.no_grad():
            out = build(*[T.Tensor(a) for a in arrays])
            return float((out.data * proj).sum())

    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    T.reset_tape()
    out = build(*tensors)
    loss = T.tensor_sum(T.mul(out, T.Tensor(proj)))
    T.backward(loss)
    ad = [t.grad for t in tensors]
    fd = fd_grads(scalar, arrays, eps=eps)
    T.reset_tape()
    return max(max_rel_err(a, f) for a, f in zip(ad, fd))


def off_kink_bias(pre, bias, axis, margin=0.01):
    """``bias`` shifted per output channel so that every pre-activation
    ``pre`` (computed with ``bias``; channels along ``axis``) lies at
    least ``margin`` from the ReLU's kink at 0, which finite differences
    must not straddle. Each channel takes the smallest shift in steps of
    ``2 * margin`` that works; each value rules out at most one step."""
    out = np.array(bias, dtype=np.float64)
    for c in range(out.size):
        v = np.take(pre, c, axis=axis).ravel()
        shifts = 2 * margin * np.arange(v.size + 1)
        ok = (np.abs(v[None, :] + shifts[:, None]) >= margin).all(axis=1)
        out[c] += shifts[np.argmax(ok)]
    return out
