"""Run a fixed list of ticketlab CLI cases on two source trees and compare
what each run prints and writes.

usage: python tools/compare_trees.py OLD_SRC NEW_SRC [--case NAME ...]

OLD_SRC and NEW_SRC are directories holding the ``ticketlab`` package (a
checkout's ``src/``). Each case runs its commands (``python -m ticketlab
...``) in a fresh temporary directory per tree, with the same relative
``--out`` and inputs, ``PYTHONDONTWRITEBYTECODE=1`` and BLAS on one thread.
For every command the exit code, standard output and standard error are
compared, and after the case the SHA-256 of every file in its directory.
Each case prints one line, with the old tree's exit codes; each difference
is then printed as ``case: what``, and the tool exits 1 when there is
any, else 0. ``--case`` runs only the named cases; ``--list``
prints their names.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# Every case's config before its own changes: a small two-moons MLP run.
BASE = {
    "dataset": {"n_train": 64, "n_test": 64, "noise_sd": 0.1, "seed": 7},
    "model": {"kind": "mlp", "widths": [2, 16, 16, 2]},
    "round": {"rounds": 2, "iters_per_round": 32, "rewind_iter": 2,
              "batch_size": 32, "record_every": 0},
    "evaluation": {"evaluate": "final", "budget_iters": 16},
}

# 16 8x8 IDX images of two classes, for the conv case.
IDX = {"kind": "idx", "train_images": "images.idx",
       "train_labels": "labels.idx", "test_images": "images.idx",
       "test_labels": "labels.idx"}


def _case(commands, **config):
    """A case: its commands, argv lists in which ``{cfg}`` stands for the
    case's config file, and that config, ``BASE`` with ``config``'s
    sections updated."""
    merged = {k: dict(v) for k, v in BASE.items()}
    for section, values in config.items():
        merged[section] = {**merged.get(section, {}), **values}
    return {"commands": commands, "config": merged}


def _run(algorithm, *flags):
    return [[algorithm, "--config", "{cfg}", "--out", "run", *flags]]


CASES = {
    "cs-record-every-1": _case(_run("cs", "--record-every", "1")),
    "cs-record-every-3": _case(_run("cs", "--record-every", "3")),
    "cs-rewind": _case(_run("cs", "--rewind", "on", "--record-every", "1")),
    "cs-float32": _case(_run("cs", "--precision", "float32",
                             "--record-every", "1")),
    "cs-conv2": _case(_run("cs", "--record-every", "1"), dataset=IDX,
                      model={"kind": "conv2", "in_shape": [1, 8, 8],
                             "num_classes": 2},
                      round={"iters_per_round": 8, "batch_size": 8}),
    "seqcs": _case(_run("seqcs", "--rounds", "3", "--record-every", "1")),
    "iss-identity": _case(_run("iss", "--record-every", "1"),
                          round={"st_variant": "identity"}),
    "iss-sigmoid": _case(_run("iss", "--record-every", "1"),
                         round={"st_variant": "sigmoid"}),
    "supermask-soft": _case(_run("supermask", "--variant", "soft",
                                 "--rounds", "1", "--record-every", "1")),
    "supermask-stochastic": _case(_run("supermask", "--variant",
                                       "stochastic", "--rounds", "1",
                                       "--record-every", "1")),
    "dense": _case(_run("dense", "--record-every", "1")),
    "imp-fine-tune": _case(_run("imp", "--rounds", "3", "--eval-mode",
                                "fine-tune", "--eval", "rounds")),
    "sweep-imp": _case(
        _run("sweep", "--algorithm", "imp", "--grid", "tau=0.2,0.4",
             "--seeds", "1,2,3", "--rounds", "3", "--eval", "rounds",
             "--workers", "2")
        + [["report", "--dir", "run"]]),
    # the gated searches' sweeps: an s0 grid, every epoch recorded
    **{f"sweep-{algorithm}": _case(
        _run("sweep", "--algorithm", algorithm, "--grid", "s0=0.0,0.05,0.1",
             "--seeds", "1,2", "--record-every", "1", "--eval", "final",
             "--workers", "2")
        + [["report", "--dir", "run"]]) for algorithm in ("cs", "iss")},
}


def _write_idx(directory: Path) -> None:
    """The conv case's images and labels: 16 8x8 images, the class saying
    which half is brighter."""
    rng = np.random.default_rng(0)
    labels = np.arange(16, dtype=np.uint8) % 2
    images = rng.integers(0, 128, (16, 8, 8), dtype=np.uint8)
    images[labels == 1, :4] += 127
    images[labels == 0, 4:] += 127
    (directory / "images.idx").write_bytes(
        struct.pack(">IIII", 0x803, 16, 8, 8) + images.tobytes())
    (directory / "labels.idx").write_bytes(
        struct.pack(">II", 0x801, 16) + labels.tobytes())


def run_case(src: Path, name: str) -> dict:
    """Run case ``name`` on the tree at ``src`` in a fresh directory:
    each command's exit code, stdout and stderr, and every file's
    SHA-256, by path relative to the directory."""
    case = CASES[name]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        here = Path(tmp)
        (here / "case.json").write_text(json.dumps(case["config"]))
        if case["config"]["dataset"].get("kind") == "idx":
            _write_idx(here)
        runs = []
        for argv in case["commands"]:
            argv = [a.replace("{cfg}", "case.json") for a in argv]
            done = subprocess.run([sys.executable, "-m", "ticketlab", *argv],
                                  cwd=here, env=env, capture_output=True)
            runs.append((done.returncode, done.stdout, done.stderr))
        files = {str(p.relative_to(here)):
                 hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(here.rglob("*")) if p.is_file()}
    return {"runs": runs, "files": files}


def differences(name: str, old: dict, new: dict) -> list[str]:
    """What differs between two results of case ``name``, one line each."""
    out = []
    for i, (a, b) in enumerate(zip(old["runs"], new["runs"])):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                out.append(f"{name}: command {i + 1} {what}")
    for path in sorted(set(old["files"]) | set(new["files"])):
        if old["files"].get(path) != new["files"].get(path):
            out.append(f"{name}: {path}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_src", type=Path, nargs="?")
    p.add_argument("new_src", type=Path, nargs="?")
    p.add_argument("--case", action="append", choices=sorted(CASES),
                   help="run only this case (repeatable)")
    p.add_argument("--list", action="store_true", help="list the cases")
    args = p.parse_args(argv)
    if args.list:
        print("\n".join(CASES))
        return 0
    if args.new_src is None:
        p.error("OLD_SRC and NEW_SRC are required")
    found = []
    for name in args.case or list(CASES):
        old = run_case(args.old_src.resolve(), name)
        diff = differences(name, old, run_case(args.new_src.resolve(), name))
        codes = " ".join(str(run[0]) for run in old["runs"])
        print(f"{name}: {'differs' if diff else 'same'} (old exit codes "
              f"{codes})", flush=True)
        found += diff
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
