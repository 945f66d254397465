"""Output checks. Each returns a list of problems; an empty list passes.

A run with any problem counts as failed: it raises ``failed`` in the result
line and makes the benchmark exit non-zero.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np


def mask_hash(masks: dict) -> str:
    """SHA-256 over the names, shapes and kept bits of a set of masks."""
    h = hashlib.sha256()
    for name in sorted(masks):
        m = np.asarray(masks[name])
        h.update(f"{name}:{m.shape};".encode())
        h.update(np.packbits(m.reshape(-1) > 0).tobytes())
    return h.hexdigest()


def mask_problems(masks: dict, shapes: dict, where: str = "") -> list[str]:
    """Masks must cover exactly the maskable weights, match their shapes,
    and hold only 0 and 1."""
    out = []
    if set(masks) != set(shapes):
        out.append(f"{where}mask names {sorted(masks)} != weights {sorted(shapes)}")
    for name in sorted(set(masks) & set(shapes)):
        m = np.asarray(masks[name])
        if m.shape != tuple(shapes[name]):
            out.append(f"{where}mask {name} shape {m.shape} != weights {tuple(shapes[name])}")
        if not np.isin(m, (0.0, 1.0)).all():
            out.append(f"{where}mask {name} is not binary")
    return out


def remaining(masks: dict) -> float:
    total = sum(np.asarray(m).size for m in masks.values())
    return float(sum(np.asarray(m).sum() for m in masks.values()) / total)


def iteration_problems(got: int, rounds: int, iters_per_round: int,
                       where: str = "") -> list[str]:
    want = rounds * iters_per_round
    if got != want:
        return [f"{where}search ran {got} iterations, expected "
                f"{rounds} x {iters_per_round} = {want}"]
    return []


def imp_round_problems(round_masks: list[dict], rate: float,
                       where: str = "") -> list[str]:
    """Global-scope IMP: each round's mask lies inside the previous one and
    removes exactly floor(rate * kept) weights (at least one while more
    than one remains)."""
    out = []
    prev = None
    prev_kept = sum(np.asarray(m).size for m in round_masks[0].values())
    for r, masks in enumerate(round_masks, start=1):
        kept = int(sum(np.asarray(m).sum() for m in masks.values()))
        cut = int(math.floor(rate * prev_kept + 1e-9))
        if cut == 0 and prev_kept > 1:
            cut = 1
        if kept != prev_kept - cut:
            out.append(f"{where}round {r} kept {kept} weights, expected "
                       f"{prev_kept} - {cut} = {prev_kept - cut}")
        if prev is not None:
            for name, m in masks.items():
                if np.any((np.asarray(m) > 0) & ~(np.asarray(prev[name]) > 0)):
                    out.append(f"{where}round {r} mask {name} is not nested "
                               f"in round {r - 1}")
        prev, prev_kept = masks, kept
    return out


def _close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-12)


def _selection_problems(key: str, ours, theirs) -> list[str]:
    if (ours is None) != (theirs is None):
        return [f"report {key}: sweep has {ours is not None}, "
                f"recomputed has {theirs is not None}"]
    if ours is None:
        return []
    out = []
    for field in ("run_id", "round"):
        if ours[field] != theirs[field]:
            out.append(f"report {key}.{field}: {ours[field]!r} != {theirs[field]!r}")
    # records CSVs hold 9 significant digits
    for field in ("accuracy", "remaining_frac"):
        if not _close(ours[field], theirs[field], 1e-8):
            out.append(f"report {key}.{field}: {ours[field]} != {theirs[field]}")
    return out


def report_problems(sweep_report: dict, recomputed: dict) -> list[str]:
    """``ticketlab report --dir`` must reproduce the sweep's selections,
    dense accuracy and search-cost totals."""
    out = []
    for key in ("best_performing", "sparsest_matching"):
        out += _selection_problems(key, sweep_report.get(key),
                                   recomputed.get(key))
    if not _close(sweep_report.get("dense_accuracy"),
                  recomputed.get("dense_accuracy"), 1e-8):
        out.append(f"report dense_accuracy: {sweep_report.get('dense_accuracy')}"
                   f" != {recomputed.get('dense_accuracy')}")
    ours, theirs = sweep_report.get("cost", {}), recomputed.get("cost", {})
    if set(ours) != set(theirs):
        out.append(f"report cost algorithms {sorted(ours)} != {sorted(theirs)}")
    for alg in sorted(set(ours) & set(theirs)):
        for field, value in ours[alg].items():
            if not _close(value, theirs[alg].get(field), 1e-9):
                out.append(f"report cost {alg}.{field}: {value} != "
                           f"{theirs[alg].get(field)}")
    return out
