"""A search's results do not depend on how many threads BLAS uses.

Convolution and matmul both go through BLAS GEMM, so the same seed must
give bitwise the same masks and weights with one BLAS thread or two. The
thread count is fixed when NumPy loads, hence one subprocess per setting.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints one SHA-256 over the final masks and weights of a short CS search
# on conv6-scaled per precision. The GEMMs of batch 32 on 16x16 images are
# large enough for OpenBLAS to split them over threads.
SEARCH = """
import hashlib
import numpy as np
from ticketlab.data import Dataset
from ticketlab.models import build_small_conv
from ticketlab.search import RoundConfig, run_cs
from ticketlab.tensor import set_default_dtype

rng = np.random.default_rng(0)
x = rng.random((64, 1, 16, 16)) * 0.2
y = rng.integers(0, 2, 64)
x[y == 1] += 0.6
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
    print(precision, h.hexdigest())
"""


def _hashes(blas_threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run([sys.executable, "-c", SEARCH], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cs_conv_search_is_bitwise_equal_across_blas_threads():
    one, two = _hashes(1), _hashes(2)
    assert one.split()[::2] == ["float64", "float32"]
    assert one == two
