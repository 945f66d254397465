"""Spans and counters at ticketlab's layer boundaries, recorded from outside.

``Tracer.install(ticketlab)`` replaces the functions and methods each layer
exposes with timing wrappers, in every ticketlab module that binds them
(``ticketlab.training.backward``, ``ticketlab.models.conv2d``, ...), and
``uninstall`` puts the originals back. No source file changes.

A span is (id, name, parent id, start, end), times from
``time.perf_counter``. Its parent is the innermost open span on the same
thread; the first span on a worker thread (sweep jobs run on a thread pool)
takes the innermost open span of the main thread as parent. Spans opened
while an ``evaluate`` call is running get an ``eval.`` name prefix, so
per-step figures leave evaluation out. Spans and counters stay in memory
until ``take`` hands them over.

Per-op spans: each op function (any ticketlab function that calls
``apply_op``) gets an ``op.fwd.<op>`` span named after the ``_Node.op`` it
records, and each backward closure it hands to ``apply_op`` is wrapped in an
``op.bwd.<op>`` span.
"""
from __future__ import annotations

import functools
import inspect
import os
import threading
import time
from array import array
from typing import NamedTuple

_now = time.perf_counter

CONTROLLERS = ("run_cs", "run_imp", "run_iss", "run_sequential_cs",
               "run_supermask", "freeze_mask_and_finetune")
HARNESS_SPANS = ("dense_baseline", "retrain_ticket", "finetune_ticket",
                 "masked_accuracy")
PERSIST_SPANS = ("write_records", "save_checkpoint", "save_mask_artifact")


def conv2d_cost(x_shape, k_shape, out_shape, itemsize: int) -> tuple[int, int]:
    """Computed FLOPs and compulsory bytes of one conv2d product (forward,
    kernel gradient and input gradient cost the same): each reads two of
    input, kernel and output and writes the third."""
    n, cin, h, w = x_shape
    cout, _, kh, kw = k_shape
    oh, ow = out_shape[2], out_shape[3]
    flop = 2 * n * cout * oh * ow * cin * kh * kw
    nbytes = itemsize * (n * cin * h * w + cout * cin * kh * kw + n * cout * oh * ow)
    return flop, nbytes


def matmul_cost(a_shape, b_shape, itemsize: int) -> tuple[int, int]:
    """Computed FLOPs and compulsory bytes of one (m,k)@(k,n) product; each
    of the two backward products costs the same."""
    m, k = a_shape
    n = b_shape[1]
    return 2 * m * k * n, itemsize * (m * k + k * n + m * n)


_KERNEL_OPS = ("conv2d", "matmul")


def _op_cost(op, inputs, out_shape) -> tuple[int, int]:
    a, b = inputs
    itemsize = a.data.itemsize
    if op == "conv2d":
        return conv2d_cost(a.shape, b.shape, out_shape, itemsize)
    return matmul_cost(a.shape, b.shape, itemsize)


class _ThreadLog:
    """One thread's spans (columnar) plus its open-span stack and counters."""

    def __init__(self, slot: int):
        self.slot = slot
        self.stack: list[int] = []
        self.eval_depth = 0
        self.gate_depth = 0
        self.last_op = None
        self.clear()

    def clear(self) -> None:
        self.names = array("i")
        self.parents = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict[str, float] = {}


class Trace(NamedTuple):
    """Spans and counters handed over by ``Tracer.take``."""

    spans: list  # of (id, name, parent id, start, end)
    counters: dict


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._main: _ThreadLog | None = None
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._eval_id: list[int] = []
        self._op_ids: dict[str, tuple[int, int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        """Id of a span name; each name has an ``eval.`` twin."""
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.get(name)
                if nid is None:
                    nid = self._new_name(name)
                    self._eval_id[nid] = self._new_name("eval." + name)
        return nid

    def _new_name(self, name: str) -> int:
        nid = len(self._names)
        self._names.append(name)
        self._ids[name] = nid
        self._eval_id.append(nid)
        return nid

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            pass
        with self._lock:
            log = _ThreadLog(len(self._logs))
            self._logs.append(log)
            if threading.current_thread() is threading.main_thread():
                self._main = log
        self._local.log = log
        return log

    def enter(self, nid: int):
        log = self._log()
        stack = log.stack
        if stack:
            parent = (log.slot << 32) | stack[-1]
        else:
            main = self._main
            if main is not None and main is not log and main.stack:
                parent = (main.slot << 32) | main.stack[-1]
            else:
                parent = -1
        if log.eval_depth:
            nid = self._eval_id[nid]
        idx = len(log.t0)
        log.names.append(nid)
        log.parents.append(parent)
        log.t1.append(0.0)
        stack.append(idx)
        log.t0.append(_now())
        return log, idx

    @staticmethod
    def exit(log: _ThreadLog, idx: int) -> None:
        log.t1[idx] = _now()
        log.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        c = self._log().counters
        c[key] = c.get(key, 0) + value

    def take(self) -> Trace:
        """Hand over and forget everything recorded so far. Call only while
        no span is open."""
        spans = []
        counters: dict[str, float] = {}
        with self._lock:
            for log in self._logs:
                base = log.slot << 32
                names = self._names
                for i, (nid, parent, t0, t1) in enumerate(
                        zip(log.names, log.parents, log.t0, log.t1)):
                    spans.append((base | i, names[nid], parent, t0, t1))
                for k, v in log.counters.items():
                    counters[k] = counters.get(k, 0) + v
                log.clear()
        return Trace(spans, counters)

    # ------------------------------------------------------------- wrappers

    def span(self, fn, name: str):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log, i = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(log, i)
        return wrapper

    def _depth_span(self, fn, name: str, depth: str):
        """A span that also marks its extent (evaluation or gate work) on
        the thread, so ops inside it can be told apart."""
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log, i = enter(nid)
            setattr(log, depth, getattr(log, depth) + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(log, depth, getattr(log, depth) - 1)
                exit_(log, i)
        return wrapper

    def _ids_for_op(self, op: str) -> tuple[int, int, int]:
        ids = self._op_ids.get(op)
        if ids is None:
            fwd = self.name_id(f"op.fwd.{op}")
            ids = self._op_ids[op] = (fwd, self._eval_id[fwd],
                                      self.name_id(f"op.bwd.{op}"))
        return ids

    def op_forward(self, fn):
        unknown = self.name_id("op.fwd.?")
        enter, exit_, ids_for = self.enter, self.exit, self._ids_for_op

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log, i = enter(unknown)
            log.last_op = None
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(log, i)
                if log.last_op is not None:
                    fwd, eval_fwd, _ = ids_for(log.last_op)
                    log.names[i] = eval_fwd if log.eval_depth else fwd
        return wrapper

    def apply_op(self, fn):
        enter, exit_, ids_for, get_log = (self.enter, self.exit,
                                          self._ids_for_op, self._log)

        @functools.wraps(fn)
        def wrapper(op, inputs, out_data, backward_fn):
            log = get_log()
            log.last_op = op
            bid = ids_for(op)[2]
            cost = None
            if op in _KERNEL_OPS and not log.eval_depth:
                cost = _op_cost(op, inputs, out_data.shape)
                c = log.counters
                c[f"{op}.flop"] = c.get(f"{op}.flop", 0) + cost[0]
                c[f"{op}.bytes"] = c.get(f"{op}.bytes", 0) + cost[1]

            def timed_backward(g):
                blog, j = enter(bid)
                try:
                    backward_fn(g)
                finally:
                    exit_(blog, j)
                if cost is not None:
                    products = sum(1 for t in inputs if t.requires_grad)
                    c = blog.counters
                    c[f"{op}.flop"] = c.get(f"{op}.flop", 0) + products * cost[0]
                    c[f"{op}.bytes"] = c.get(f"{op}.bytes", 0) + products * cost[1]

            out = fn(op, inputs, out_data, timed_backward)
            if log.gate_depth and out.requires_grad:
                c = log.counters
                c["gate_nodes"] = c.get("gate_nodes", 0) + 1
            return out
        return wrapper

    def backward(self, fn, active_tape):
        inner = self.span(fn, "tensor.backward")
        count = self.count

        @functools.wraps(fn)
        def wrapper(loss):
            count("tape_nodes", len(active_tape().nodes))
            return inner(loss)
        return wrapper

    def accumulate_grad(self, fn):
        get_log = self._log

        @functools.wraps(fn)
        def wrapper(tensor, g):
            c = get_log().counters
            c["accumulate"] = c.get("accumulate", 0) + 1
            if tensor.grad is None:
                c["grad_alloc"] = c.get("grad_alloc", 0) + 1
            return fn(tensor, g)
        return wrapper

    def optimizer_step(self, fn):
        inner = self.span(fn, "optim.step")
        count = self.count

        @functools.wraps(fn)
        def wrapper(opt):
            count("optim.elements", sum(p.data.size for p in opt.params))
            return inner(opt)
        return wrapper

    def job(self, fn):
        """A sweep job: also charges its thread CPU time."""
        inner = self.span(fn, "harness.run_point")
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c0 = time.thread_time()
            try:
                return inner(*args, **kwargs)
            finally:
                count("harness.job_cpu_s", time.thread_time() - c0)
        return wrapper

    def persist(self, fn, name: str):
        inner = self.span(fn, f"persist.{name}")
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if name == "write_records":
                paths = [args[1] if len(args) > 1 else kwargs["path"]]
            elif name == "save_checkpoint":
                paths = [args[0] if args else kwargs["path"]]
            else:
                base = str(args[0] if args else kwargs["path_base"])
                paths = [base + ".bits", base + ".json"]
            count("persist.files", len(paths))
            count("persist.bytes", sum(os.path.getsize(p) for p in paths))
            return result
        return wrapper

    def cli_main(self, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(argv=None):
            sub = argv[0] if argv else "?"
            log, i = enter(self.name_id(f"cli.{sub}"))
            try:
                return fn(argv)
            finally:
                exit_(log, i)
        return wrapper

    # --------------------------------------------------------- installation

    def install(self, tl) -> None:
        """Wrap ticketlab's layer boundaries; ``tl`` is the ticketlab
        package with its ``cli`` submodule imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        T, M = tl.tensor, tl.masking
        wrappers = {}  # id(original) -> (original, wrapper)

        def add(fn, wrapper):
            wrappers[id(fn)] = (fn, wrapper)

        for mod in (T, M):
            for fn in list(vars(mod).values()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and "apply_op" in fn.__code__.co_names):
                    add(fn, self.op_forward(fn))
        add(T.apply_op, self.apply_op(T.apply_op))
        add(T.backward, self.backward(T.backward, T.active_tape))
        add(M.soft_gate, self._depth_span(M.soft_gate, "masking.soft_gate", "gate_depth"))
        add(M.gate_penalty, self._depth_span(M.gate_penalty, "masking.gate_penalty", "gate_depth"))
        add(M.reset_mask, self.span(M.reset_mask, "masking.reset_mask"))
        add(tl.training.train, self.span(tl.training.train, "training.train"))
        add(tl.training.evaluate, self._depth_span(
            tl.training.evaluate, "training.evaluate", "eval_depth"))
        for name in CONTROLLERS:
            fn = getattr(tl.search, name)
            add(fn, self.span(fn, "search.controller"))
        for name in HARNESS_SPANS:
            fn = getattr(tl.harness, name)
            add(fn, self.span(fn, f"harness.{name}"))
        add(tl.harness.run_point, self.job(tl.harness.run_point))
        for name in PERSIST_SPANS:
            fn = getattr(tl.persist, name)
            add(fn, self.persist(fn, name))
        add(tl.cli.main, self.cli_main(tl.cli.main))

        modules = [tl] + [getattr(tl, m) for m in (
            "tensor", "masking", "models", "optim", "training", "search",
            "harness", "persist", "cli", "data", "config", "seeding")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self._patch(T.Tensor, "accumulate_grad",
                    self.accumulate_grad(T.Tensor.accumulate_grad))
        self._patch(tl.models.Model, "forward",
                    self.span(tl.models.Model.forward, "models.forward"))
        self._patch(tl.optim.CompositeOptimizer, "step",
                    self.optimizer_step(tl.optim.CompositeOptimizer.step))
        self._patch(tl.data.DataConfig, "build",
                    self.span(tl.data.DataConfig.build, "data.build"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
