"""A search's results do not depend on how many threads BLAS uses.

Convolution and matmul both go through BLAS GEMM, so the same seed must
give bitwise the same masks and weights with one BLAS thread or two. The
thread count is fixed when NumPy loads, hence one subprocess per setting.
The soft-gate MLP search is also run twice in one process.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints one SHA-256 per precision over the final masks and weights of a
# short CS search on conv6-scaled, and over the searched model's logits on
# 128 images without recording: conv2d splits that batch into several
# im2col blocks. The GEMMs of batch 32 on 16x16 images are large enough for
# OpenBLAS to split them over threads.
SEARCH = """
import hashlib
import numpy as np
from ticketlab.data import Dataset
from ticketlab.models import build_small_conv
from ticketlab.search import RoundConfig, run_cs
from ticketlab.tensor import Tensor, no_grad, set_default_dtype

rng = np.random.default_rng(0)
x = rng.random((64, 1, 16, 16)) * 0.2
y = rng.integers(0, 2, 64)
x[y == 1] += 0.6
x_eval = rng.random((128, 1, 16, 16))
for precision in ("float64", "float32"):
    set_default_dtype(precision)
    model = build_small_conv("conv6-scaled", seed=1, in_shape=(1, 16, 16),
                             num_classes=2)
    cfg = RoundConfig(iters_per_round=8, rewind_iter=2, mask_init=0.05,
                      batch_size=32, record_every=0)
    res = run_cs(model, Dataset(x, y), cfg, seed=1)
    h = hashlib.sha256()
    for arrays in (res.masks, res.final_weights):
        for name in sorted(arrays):
            h.update(name.encode())
            h.update(np.ascontiguousarray(arrays[name]).tobytes())
    with no_grad():
        h.update(model.forward(Tensor(x_eval)).data.tobytes())
    print(precision, h.hexdigest())
"""


# The same for a short CS search on the (2,64,64,2) MLP: one gate node per
# group, fused gated layers, the L1 penalty on. Each precision runs twice.
MLP_SEARCH = """
import hashlib
import numpy as np
from ticketlab.data import gen_two_moons
from ticketlab.models import build_mlp
from ticketlab.search import RoundConfig, run_cs
from ticketlab.tensor import set_default_dtype

for precision in ("float64", "float32"):
    set_default_dtype(precision)
    for _ in range(2):
        model = build_mlp([2, 64, 64, 2], seed=3)
        cfg = RoundConfig(rounds=2, iters_per_round=60, rewind_iter=4,
                          lam=1e-4, mask_init=0.03, batch_size=32,
                          record_every=0)
        res = run_cs(model, gen_two_moons(128, 0.1, seed=5), cfg, seed=3)
        h = hashlib.sha256()
        for arrays in (res.masks, res.final_weights):
            for name in sorted(arrays):
                h.update(name.encode())
                h.update(np.ascontiguousarray(arrays[name]).tobytes())
        print(precision, h.hexdigest())
"""


def _hashes(blas_threads: int, script: str = SEARCH) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cs_conv_search_is_bitwise_equal_across_blas_threads():
    one, two = _hashes(1), _hashes(2)
    assert one.split()[::2] == ["float64", "float32"]
    assert one == two


def test_cs_mlp_search_is_bitwise_equal_across_runs_and_blas_threads():
    one, two = _hashes(1, MLP_SEARCH), _hashes(2, MLP_SEARCH)
    lines = one.splitlines()
    assert [line.split()[0] for line in lines] == ["float64"] * 2 + ["float32"] * 2
    assert lines[0] == lines[1] and lines[2] == lines[3]
    assert lines[0].split()[1] != lines[2].split()[1]
    assert one == two


# One SHA-256 over the report rows, the round masks and the records of an
# IMP run on conv6-scaled whose three round tickets are retrained one at a
# time, in float64 and in float32.
IMP_CONV_RETRAIN = """
import hashlib
import numpy as np
from ticketlab.data import Dataset
from ticketlab.harness import ExperimentPlan, run_point
from ticketlab.models import ModelConfig
from ticketlab.search import RoundConfig

rng = np.random.default_rng(0)
x = rng.random((64, 1, 8, 8)) * 0.2
y = rng.integers(0, 2, 64)
x[y == 1] += 0.6
y = np.where(rng.random(64) < 0.3, 1 - y, y)
for precision in ("float64", "float32"):
    plan = ExperimentPlan(
        algorithm="imp", evaluate="rounds", precision=precision,
        model_cfg=ModelConfig(kind="conv6-scaled", in_shape=(1, 8, 8)),
        round_cfg=RoundConfig(rounds=3, iters_per_round=6, rewind_iter=2,
                              prune_rate=0.3, batch_size=32, record_every=0,
                              rewind_between_rounds=True))
    tickets, rows, records = run_point(plan, {"tau": 0.3}, 1,
                                       Dataset(x[:48], y[:48]),
                                       Dataset(x[48:], y[48:]))
    assert [r.split for r in records].count("retrain_test") == 3
    h = hashlib.sha256()
    for item in rows + records:
        h.update(repr(item).encode())
    for t in tickets:
        for name in sorted(t.masks):
            h.update(name.encode())
            h.update(np.ascontiguousarray(t.masks[name]).tobytes())
    print(precision, h.hexdigest())
"""


def test_imp_conv_retrain_is_bitwise_equal_across_blas_threads():
    one, two = _hashes(1, IMP_CONV_RETRAIN), _hashes(2, IMP_CONV_RETRAIN)
    assert one.split()[::2] == ["float64", "float32"]
    assert one == two
