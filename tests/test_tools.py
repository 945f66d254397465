"""``tools/compare_trees.py``: a tree compared with itself shows no
difference, and a difference is named."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_trees.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_is_the_same_as_itself():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(TOOL), src, src, "--case", "dense",
         "--case", "cs-record-every-3"], capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        "dense: same (old exit codes 0)",
        "cs-record-every-3: same (old exit codes 0)"]


def test_differences_name_each_output_and_file():
    tool = _tool()
    old = {"runs": [(0, b"a", b"")], "files": {"run/x": "1", "run/y": "2"}}
    new = {"runs": [(1, b"a", b"err")], "files": {"run/x": "1", "run/z": "3"}}
    assert tool.differences("c", old, new) == [
        "c: command 1 exit code", "c: command 1 stderr", "c: run/y",
        "c: run/z"]
    assert tool.differences("c", old, old) == []
