"""``tools/step_ratio.py``: each hand-fused reference makes bitwise the
library's losses, gradients, weights, accuracies and rows, and the tool
times all three cases."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

import ticketlab

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "step_ratio.py"


def _tool():
    spec = importlib.util.spec_from_file_location("step_ratio", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_references_equal_the_library():
    assert _tool().check(ticketlab) == []


def test_a_reference_that_differs_is_named(monkeypatch):
    tool = _tool()
    steps, record = tool.Setup.ref_cs_steps, tool.Setup.ref_record

    def nudged(self, n):  # the last logit gradient, one ulp off
        steps(self, n)
        self.GS[0] = np.nextafter(self.GS[0], np.inf)

    def short(self, rows, beta):
        record(self, rows, beta)
        rows.pop()

    monkeypatch.setattr(tool.Setup, "ref_cs_steps", nudged)
    monkeypatch.setattr(tool.Setup, "ref_record", short)
    assert tool.check(ticketlab) == ["cs-step: logit gradients",
                                     "recorded-epoch: rows"]


def test_the_tool_times_every_case():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--src", str(ROOT / "src"),
         "--repeats", "2", "--steps", "2"], capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["case", "library", "µs", "fused", "µs",
                                "ratio"]
    assert [line.split()[0] for line in lines[1:]] == [
        "cs-step", "recorded-epoch", "imp-step"]
    assert all(float(v) > 0 for line in lines[1:] for v in line.split()[1:])
