"""The benchmark's tracer still fits the library.

``perfbench/tracing.py`` wraps ticketlab functions by name (``soft_gate``,
``gate_penalty``, the controllers, the persistence calls, ...), so renaming
or deleting one of them breaks only a traced benchmark run. This loads the
tracer by path, installs it, runs a short traced search of each gate kind,
and checks that ``uninstall`` puts every patched attribute back. A traced
CS search on ``conv2`` covers the conv, pooling and flatten path of
``Model.forward``.
"""
import importlib.util
from pathlib import Path

import ticketlab
import ticketlab.cli  # noqa: F401  (the tracer wraps ``cli.main``)
import numpy as np

from ticketlab.data import Dataset, gen_two_moons
from ticketlab.models import build_mlp, build_small_conv
from ticketlab.search import RoundConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    mods = [ticketlab] + [getattr(ticketlab, m) for m in (
        "tensor", "masking", "models", "optim", "training", "search",
        "harness", "persist", "cli", "data", "config", "seeding")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_installs_and_restores_every_patched_attribute():
    tracer = _load_tracing().Tracer()
    before = _bindings()
    tracer.install(ticketlab)
    patches = list(tracer._patches)
    try:
        assert patches
        patched = {(owner.__name__, attr) for owner, attr, _ in patches}
        for key in (("ticketlab.masking", "soft_gate"),
                    ("ticketlab.masking", "gate_penalty"),
                    ("ticketlab.tensor", "linear"),
                    ("ticketlab.training", "train"),
                    ("Tensor", "accumulate_grad")):
            assert key in patched, key
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, (owner, attr)
        # a traced soft-gate and a traced stochastic-gate search both run
        data = gen_two_moons(32, 0.1, seed=3)
        cfg = RoundConfig(iters_per_round=4, batch_size=16, lam=1e-3,
                          record_every=1)
        ticketlab.search.run_cs(build_mlp([2, 8, 2], seed=1), data, cfg)
        ticketlab.search.run_iss(build_mlp([2, 8, 2], seed=1), data, cfg)
        # and a traced search through conv layers, pooling and the flatten
        rng = np.random.default_rng(0)
        images = Dataset(rng.random((16, 1, 8, 8)), rng.integers(0, 2, 16))
        tracer.take()
        ticketlab.search.run_cs(
            build_small_conv("conv2", seed=1, in_shape=(1, 8, 8)), images,
            RoundConfig(iters_per_round=3, batch_size=8, record_every=0))
        names = {span[1] for span in tracer.take().spans}
        for name in ("models.forward", "op.fwd.conv_layer",
                     "op.fwd.max_pool2d", "op.fwd.reshape", "op.fwd.linear",
                     "op.bwd.conv_layer", "op.bwd.max_pool2d"):
            assert name in names, name
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, (owner, attr)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
