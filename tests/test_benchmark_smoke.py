"""The benchmark still runs on the library.

``perfbench/run.py`` checks every repeat's outputs and prints ``correct``
on its last line. A change under ``src/`` that breaks a workload would
otherwise show only when someone runs the benchmark by hand, since
``perfbench/tests`` is not part of this suite. Each workload runs once at
its tiny size, untraced, in a subprocess.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cs-mlp", "cs-conv6", "sweep-imp"])
def test_tiny_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
