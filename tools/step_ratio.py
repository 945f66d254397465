"""Time a CS search iteration of ticketlab against hand-fused NumPy code
that makes the same ufunc and BLAS calls.

usage: python tools/step_ratio.py [--src DIR] [--repeats N] [--steps S]
                                  [--case NAME ...]

Three cases, on the (2,64,64,2) MLP with batch 32 over two-moons data of
256 train and 256 test examples, in float64:

* ``cs-step``: a soft-gate CS training step, ``training.train`` with
  recording off (lam 1e-8, beta annealed towards 200, SGD with momentum
  on the weights and on the mask logits, as ``cs-mlp`` runs it);
* ``recorded-epoch``: what a recorded epoch adds to its steps,
  ``training._record_epoch``: the record gate set's call, the remaining
  fraction, ``evaluate`` on the train split (accuracy) and on the test
  split (loss and accuracy), and the two rows;
* ``imp-step``: a stacked K = 3 IMP training step (hard masks, one batch
  per ticket), ``training.train`` with recording off.

Each hand-fused reference is straight-line code that makes the library's
NumPy calls on the same arrays in the same order, and no other work.
``check`` runs the library and the reference from the same state and
returns what differs between their losses, gradients, weights,
accuracies and remaining fractions (bitwise); the timing refuses to run
if anything does. Each repeat times the library and the reference once,
in alternating order; the tool prints each side's median time per step
(or per recorded epoch) in µs, and the median of the repeats' ratios of
library time to reference time. BLAS runs
on one thread. ``--src`` is the directory holding the ``ticketlab``
package (default: this checkout's ``src/``).
"""
from __future__ import annotations

import os

if __name__ == "__main__":  # BLAS reads its thread count as NumPy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CASES = ("cs-step", "recorded-epoch", "imp-step")

WIDTHS = (2, 64, 64, 2)
BATCH = 32
N = 256  # examples per split
S0, LAM, BETA_FINAL, ROUND = 0.03, 1e-8, 200.0, 400  # as cs-mlp's round
EPS = 1e-6  # masking.PRUNED_GATE_EPS


def load(src: Path | None = None):
    """The ``ticketlab`` package under ``src`` (default: this checkout)."""
    sys.path.insert(0, str(src or ROOT / "src"))
    import ticketlab
    return ticketlab


class Setup:
    """One case's library objects and the reference's copies of their
    arrays, from the same state: ``model``, ``opt`` (a
    ``CompositeOptimizer`` built as ``search.train_round`` builds it),
    the splits, and for the reference each optimizer's parameter arena,
    gradient arena, momentum and scratch arrays (``W``, ``GW``, ``BW``,
    ``TW``; ``S``, ``GS``, ``BS``, ``TS`` for mask logits) with their
    per-parameter views."""

    def __init__(self, tl, stacked: bool, seed: int = 1):
        self.tl = tl
        T = tl.tensor
        T.set_default_dtype("float64")
        self.stacked, self.k = stacked, 3 if stacked else 1
        self.train, self.test = tl.DataConfig(
            kind="two_moons", n_train=N, n_test=N, noise_sd=0.1,
            seed=7).build()
        build = tl.ModelConfig(kind="mlp", widths=WIDTHS).build
        if stacked:
            model = tl.models.stack_models([build(seed + i)
                                            for i in range(self.k)])
            model.set_gate_mode(tl.GATE_HARD)
        else:
            model = build(seed)
            model.set_gate_mode(tl.GATE_SOFT, S0)
        self.model = model
        cfg = tl.RoundConfig()
        self.wd, self.mom, self.lr = (cfg.weight_opt.weight_decay,
                                      cfg.weight_opt.momentum,
                                      cfg.weight_opt.lr)
        members = [cfg.weight_opt.build(model.weight_tensors())]
        if not stacked:
            members.append(cfg.mask_opt.build(model.mask_tensors()))
        self.opt = tl.CompositeOptimizer(members)
        self.shuffle = [np.random.default_rng(seed + i)
                        for i in range(self.k)]
        self.sched = tl.TemperatureSchedule(BETA_FINAL, ROUND)
        self.cursor = tl.training.TrainCursor()
        # the reference's copies
        self.ref_shuffle = [np.random.default_rng(seed + i)
                            for i in range(self.k)]
        self.iteration = 0
        self.perm, self.pos = None, 0
        wopt = members[0]
        self.W, self.BW = wopt._data.copy(), wopt.buf.copy()
        self.GW, self.TW = np.empty_like(self.W), np.empty_like(self.W)
        shapes = [t.shape for t in model.weight_tensors()]
        self.w = self._views(self.W, shapes)
        self.gw = self._views(self.GW, shapes)
        self.masks = [g.frozen_mask.copy() for g in model.groups] if stacked \
            else None
        if not stacked:
            mopt = members[1]
            self.S, self.BS = mopt._data.copy(), mopt.buf.copy()
            self.GS, self.TS = np.empty_like(self.S), np.empty_like(self.S)
            self.sig = np.empty_like(self.S)  # the step's gates
            self.gbuf = np.empty_like(self.S)  # their layer gradients
            self.rsig = np.empty_like(self.S)  # the record set's gates
            shapes = [g.weights.shape for g in model.groups]
            self.gates = self._views(self.sig, shapes)
            self.ggates = self._views(self.gbuf, shapes)
            self.rgates = self._views(self.rsig, shapes)
        self.ledger = np.zeros(self.k)

    @staticmethod
    def _views(arena, shapes):
        out, lo = [], 0
        for shape in shapes:
            size = math.prod(shape)
            out.append(arena[lo:lo + size].reshape(shape))
            lo += size
        return out

    # ------------------------------------------------------------ library

    def lib_steps(self, steps: int) -> None:
        """``steps`` library training steps, recording off."""
        tl = self.tl
        tl.training.train(
            self.model, self.train, self.opt, steps, batch_size=BATCH,
            shuffle_rng=self.shuffle if self.stacked else self.shuffle[0],
            schedule=None if self.stacked else self.sched,
            lam=0.0 if self.stacked else LAM, cursor=self.cursor)

    def lib_record(self, rows: list, gate_set, beta: float) -> None:
        """The library's recorded epoch, its rows appended to ``rows``."""
        tl = self.tl
        groups = self.model.maskable_groups()
        tl.training._record_epoch(
            self.model, self.train, self.test, groups, gate_set, beta, None,
            "identity", False, [tl.training.RunInfo()], [rows.append], 1, 8,
            self.ledger / 8)

    # ---------------------------------------------------------- reference

    def ref_cs_steps(self, steps: int) -> None:
        """``steps`` hand-fused CS training steps."""
        inputs, labels = self.train.inputs, self.train.labels
        w0, w1, w2, b0, b1, b2 = self.w
        gw0, gw1, gw2, gb0, gb1, gb2 = self.gw
        g0, g1, g2 = self.gates
        d0, d1, d2 = self.ggates
        W, GW, BW, TW = self.W, self.GW, self.BW, self.TW
        S, GS, BS, TS, sig, gbuf = (self.S, self.GS, self.BS, self.TS,
                                    self.sig, self.gbuf)
        wd, mom, lr = self.wd, self.mom, self.lr
        lam, ledger, nb = np.float64(LAM), self.ledger, N // BATCH
        rng, perm, pos = self.ref_shuffle[0], self.perm, self.pos
        for _ in range(steps):
            self.iteration += 1
            beta = float(BETA_FINAL ** (self.iteration / ROUND))
            if perm is None:
                perm, pos = rng.permutation(N), 0
            idx = perm[..., pos * BATCH:pos * BATCH + BATCH]
            x, y = inputs[idx], labels[idx]
            # the gates and their penalties
            np.multiply(S, -beta, out=sig)
            np.exp(sig, sig)
            sig += 1.0
            np.divide(1.0, sig, sig)
            p0 = np.add.reduce(g0, axis=None) * lam
            p1 = np.add.reduce(g1, axis=None) * lam
            p2 = np.add.reduce(g2, axis=None) * lam
            # forward
            we0 = w0 * g0
            a0 = x @ we0
            a0 += b0
            np.maximum(a0, 0, out=a0)
            we1 = w1 * g1
            a1 = a0 @ we1
            a1 += b1
            np.maximum(a1, 0, out=a1)
            we2 = w2 * g2
            z = a1 @ we2
            z += b2
            # loss
            if np.minimum.reduce(y, axis=None) < 0 or \
                    np.maximum.reduce(y, axis=None) >= 2:
                raise IndexError("label out of range")
            logp = np.subtract(z, np.maximum.reduce(z, axis=-1,
                                                    keepdims=True),
                               order="C")
            logp -= np.log(np.add.reduce(np.exp(logp), axis=-1,
                                         keepdims=True))
            at = np.arange(0, z.size, 2)
            np.add(at, y, out=at, casting="unsafe")
            picked = logp.reshape(-1).take(at)
            loss = -(np.add.reduce(picked, axis=-1) / BATCH)
            losses = loss + p0 + p1 + p2
            if not math.isfinite(losses):
                raise FloatingPointError("non-finite loss")
            # backward
            g = np.exp(logp)
            g.reshape(-1)[at] -= 1.0
            g *= 1.0 / BATCH
            gx = g @ we2.swapaxes(-1, -2)
            gwe = np.matmul(a1.swapaxes(-1, -2), g, out=gw2)
            np.multiply(gwe, w2, out=d2)
            gwe *= g2
            np.add.reduce(g, axis=-2, out=gb2)
            g = gx * (a1 > 0)
            gx = g @ we1.swapaxes(-1, -2)
            gwe = np.matmul(a0.swapaxes(-1, -2), g, out=gw1)
            np.multiply(gwe, w1, out=d1)
            gwe *= g1
            np.add.reduce(g, axis=-2, out=gb1)
            g = gx * (a0 > 0)
            gwe = np.matmul(x.swapaxes(-1, -2), g, out=gw0)
            np.multiply(gwe, w0, out=d0)
            gbuf += LAM  # the penalty's gradient, then the logits'
            np.subtract(1.0, sig, out=GS)
            GS *= sig
            GS *= beta
            GS *= gbuf
            gwe *= g0
            np.add.reduce(g, axis=-2, out=gb0)
            # the optimizers: every gradient checked, then both updates
            if not np.logical_and.reduce(np.isfinite(GW), axis=None) or \
                    not np.logical_and.reduce(np.isfinite(GS), axis=None):
                raise FloatingPointError("non-finite gradient")
            GW += np.multiply(W, wd, TW)
            BW *= mom
            BW += GW
            W -= np.multiply(BW, lr, TW)
            BS *= mom
            BS += GS
            S -= np.multiply(BS, lr, TS)
            ledger += losses
            pos += 1
            if pos == nb:
                perm = None
        self.perm, self.pos = perm, pos

    def ref_imp_steps(self, steps: int) -> None:
        """``steps`` hand-fused stacked IMP training steps."""
        inputs, labels = self.train.inputs, self.train.labels
        w0, w1, w2, b0, b1, b2 = self.w
        gw0, gw1, gw2, gb0, gb1, gb2 = self.gw
        m0, m1, m2 = self.masks
        W, GW, BW, TW = self.W, self.GW, self.BW, self.TW
        wd, mom, lr = self.wd, self.mom, self.lr
        ledger, nb = self.ledger, N // BATCH
        perm, pos = self.perm, self.pos
        for _ in range(steps):
            if perm is None:
                perm, pos = np.stack([r.permutation(N)
                                      for r in self.ref_shuffle]), 0
            idx = perm[..., pos * BATCH:pos * BATCH + BATCH]
            x, y = inputs[idx], labels[idx]
            # forward
            we0 = w0 * m0
            a0 = x @ we0
            a0 += b0[:, None]
            np.maximum(a0, 0, out=a0)
            we1 = w1 * m1
            a1 = a0 @ we1
            a1 += b1[:, None]
            np.maximum(a1, 0, out=a1)
            we2 = w2 * m2
            z = a1 @ we2
            z += b2[:, None]
            # each ticket's loss, and their sum
            if np.minimum.reduce(y, axis=None) < 0 or \
                    np.maximum.reduce(y, axis=None) >= 2:
                raise IndexError("label out of range")
            logp = np.subtract(z, np.maximum.reduce(z, axis=-1,
                                                    keepdims=True),
                               order="C")
            logp -= np.log(np.add.reduce(np.exp(logp), axis=-1,
                                         keepdims=True))
            at = np.arange(0, z.size, 2).reshape(z.shape[:-1])
            np.add(at, y, out=at, casting="unsafe")
            picked = logp.reshape(-1).take(at)
            losses = -(np.add.reduce(picked, axis=-1) / BATCH)
            np.add.reduce(losses, axis=None)  # the summed loss
            if not math.isfinite(np.add.reduce(losses, axis=None)):
                raise FloatingPointError("non-finite loss")
            # backward
            seed = np.empty(losses.shape)
            np.copyto(seed, 1.0, casting="unsafe")
            g = np.exp(logp)
            g.reshape(-1)[at] -= 1.0
            g *= np.array([float(s) / BATCH for s in seed])[:, None, None]
            gx = g @ we2.swapaxes(-1, -2)
            gwe = np.matmul(a1.swapaxes(-1, -2), g, out=gw2)
            gwe *= m2
            np.add.reduce(g, axis=-2, out=gb2)
            g = gx * (a1 > 0)
            gx = g @ we1.swapaxes(-1, -2)
            gwe = np.matmul(a0.swapaxes(-1, -2), g, out=gw1)
            gwe *= m1
            np.add.reduce(g, axis=-2, out=gb1)
            g = gx * (a0 > 0)
            gwe = np.matmul(x.swapaxes(-1, -2), g, out=gw0)
            gwe *= m0
            np.add.reduce(g, axis=-2, out=gb0)
            # the optimizer
            if not np.logical_and.reduce(np.isfinite(GW), axis=None):
                raise FloatingPointError("non-finite gradient")
            GW += np.multiply(W, wd, TW)
            BW *= mom
            BW += GW
            W -= np.multiply(BW, lr, TW)
            ledger += losses
            pos += 1
            if pos == nb:
                perm = None
        self.perm, self.pos = perm, pos

    def ref_record(self, rows: list, beta: float) -> None:
        """The hand-fused recorded epoch, its rows appended to ``rows``."""
        w0, w1, w2, b0, b1, b2 = self.w
        g0, g1, g2 = self.rgates
        S, sig = self.S, self.rsig
        np.multiply(S, -beta, out=sig)
        np.exp(sig, sig)
        sig += 1.0
        np.divide(1.0, sig, sig)
        rem = float(np.count_nonzero(sig >= EPS)) / sig.size
        figures = []
        for data, with_loss in ((self.train, False), (self.test, True)):
            x, y = data.inputs[0:N], data.labels[0:N]
            we0 = w0 * g0
            a0 = x @ we0
            a0 += b0
            np.maximum(a0, 0, out=a0)
            we1 = w1 * g1
            a1 = a0 @ we1
            a1 += b1
            np.maximum(a1, 0, out=a1)
            we2 = w2 * g2
            z = a1 @ we2
            z += b2
            if with_loss:
                if np.minimum.reduce(y, axis=None) < 0 or \
                        np.maximum.reduce(y, axis=None) >= 2:
                    raise IndexError("label out of range")
                logp = np.subtract(z, np.maximum.reduce(z, axis=-1,
                                                        keepdims=True),
                                   order="C")
                logp -= np.log(np.add.reduce(np.exp(logp), axis=-1,
                                             keepdims=True))
                at = np.arange(0, z.size, 2)
                np.add(at, y, out=at, casting="unsafe")
                picked = logp.reshape(-1).take(at)
                loss = -(np.add.reduce(picked, axis=-1) / N)
                loss = float((0.0 + loss * N) / N)
            else:
                loss = float(self.ledger[0] / 8)
            acc = float((z.argmax(axis=-1) == y).sum(axis=-1) / N)
            figures.append((loss, acc))
        record = self.tl.training.RunInfo().record
        for split, (loss, acc) in zip(("train", "test"), figures):
            rows.append(record(1, 8, split, loss=loss, accuracy=acc,
                               remaining_frac=rem, beta=beta))


def check(tl, steps: int = 20) -> list[str]:
    """Run each case's library code and its reference from one state:
    what differs between them, one line each (empty when all is
    bitwise equal)."""
    out = []

    def same(name, a, b):
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            out.append(name)

    for stacked in (False, True):
        st = Setup(tl, stacked)
        case = "imp-step" if stacked else "cs-step"
        # each epoch's mean loss (plus penalties), from the train rows
        rows = []
        tl.training.train(
            st.model, st.train, st.opt, steps, batch_size=BATCH,
            shuffle_rng=st.shuffle,
            schedule=None if stacked else st.sched,
            lam=0.0 if stacked else LAM, cursor=st.cursor,
            recorder=[rows.append] * st.k, record_every=1,
            run_info=[tl.training.RunInfo()] * st.k)
        ref_rows = []
        for _ in range(steps):
            (st.ref_imp_steps if stacked else st.ref_cs_steps)(1)
            if st.perm is None:  # an epoch ended
                ref_rows += (st.ledger / (N // BATCH)).tolist()
                st.ledger[:] = 0.0
        if repr([r.loss for r in rows]) != repr(ref_rows):  # bitwise
            out.append(f"{case}: epoch losses")
        wopt = st.opt.members[0]
        same(f"{case}: weight gradients", wopt._grad, st.GW)
        same(f"{case}: weights", wopt._data, st.W)
        same(f"{case}: weight momentum", wopt.buf, st.BW)
        if not stacked:
            mopt = st.opt.members[1]
            same(f"{case}: logit gradients", mopt._grad, st.GS)
            same(f"{case}: logits", mopt._data, st.S)
            same(f"{case}: logit momentum", mopt.buf, st.BS)
            # the recorded epoch, at this state
            st.ledger[:] = 0.0
            lib_rows, ref_rows = [], []
            beta = st.sched.current_beta
            with tl.tensor.quiet():  # as in ``train``
                st.lib_record(lib_rows, tl.masking.GateSet(
                    st.model.maskable_groups()), beta)
                st.ref_record(ref_rows, beta)
            if repr(lib_rows) != repr(ref_rows):
                out.append("recorded-epoch: rows")
    return out


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(tl, case: str, repeats: int, steps: int) -> tuple:
    """Each side's median time in µs per step (per recorded epoch for
    ``recorded-epoch``) over ``repeats`` alternating repeats of ``steps``
    steps each, and the median over the repeats of the library's time
    over the reference's: the host's speed drifts, and a repeat's two
    sides run next to each other."""
    st = Setup(tl, case == "imp-step")
    if case == "recorded-epoch":
        gate_set = tl.masking.GateSet(st.model.maskable_groups())
        rows: list = []

        def lib():
            for _ in range(steps):
                st.lib_record(rows, gate_set, 50.0)
            rows.clear()

        def ref():
            for _ in range(steps):
                st.ref_record(rows, 50.0)
            rows.clear()
    else:
        def lib():
            if case == "cs-step":  # anneal within one round
                st.sched.current_iter = 0
            st.lib_steps(steps)

        def ref():
            st.iteration = 0
            (st.ref_imp_steps if case == "imp-step" else st.ref_cs_steps)(
                steps)
    times = ([], [])
    # a recorded epoch runs inside ``train``'s ``quiet``
    with tl.tensor.quiet():
        lib(), ref()  # warm up
        for r in range(repeats):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[side].append(_time((lib, ref)[side]) / steps * 1e6)
    ratios = [a / b for a, b in zip(*times)]
    return (statistics.median(times[0]), statistics.median(times[1]),
            statistics.median(ratios))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", type=Path, default=None,
                   help="directory holding the ticketlab package")
    p.add_argument("--repeats", type=int, default=60)
    p.add_argument("--steps", type=int, default=50,
                   help="steps (or recorded epochs) per timed repeat")
    p.add_argument("--case", action="append", choices=CASES,
                   help="time only this case (repeatable)")
    args = p.parse_args(argv)
    tl = load(args.src)
    bad = check(tl)
    if bad:
        print("the references differ from the library: " + ", ".join(bad))
        return 1
    print(f"{'case':<16}{'library µs':>12}{'fused µs':>12}{'ratio':>8}")
    for case in args.case or CASES:
        lib, ref, ratio = measure(tl, case, args.repeats, args.steps)
        print(f"{case:<16}{lib:>12.1f}{ref:>12.1f}{ratio:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
