"""Each workload runs end to end at a tiny size, untraced and traced."""
import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH
from metrics import END_TO_END, PER_LAYER


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("workload", ["cs-mlp", "cs-conv6", "sweep-imp"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload(workload, trace):
    proc = _run(BENCH.parent, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    want = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(want)
    for name, m in result["metrics"].items():
        assert m["unit"] == want[name][0]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import ticketlab
    import ticketlab.cli
    from tracing import Tracer

    def bindings():
        mods = [ticketlab] + [getattr(ticketlab, m) for m in (
            "tensor", "masking", "models", "optim", "training", "search",
            "harness", "persist", "cli", "data")]
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
                if callable(v)}

    before = bindings()
    t = Tracer()
    t.install(ticketlab)
    assert ticketlab.training.backward is not before[("ticketlab.training", "backward")]
    assert ticketlab.models.conv2d is not before[("ticketlab.models", "conv2d")]
    t.uninstall()
    after = bindings()
    assert all(after[k] is v for k, v in before.items())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "cs-mlp", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not os.path.exists(tmp_path / ".perfbench")
