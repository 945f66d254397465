"""Run records (CSV), binary checkpoints, and mask artifacts.

The records CSV has one fixed schema for every subcommand::

    run_id,algorithm,seed,round,epoch,iter,split,loss,accuracy,remaining_frac,beta,lambda,s0

Floats are written at 9 significant digits; missing values are empty
fields. Checkpoints are versioned binary files: a 4-byte magic, a
little-endian u32 version, a little-endian u64 header length, a JSON
header (array manifest + metadata), then raw little-endian array payloads.
"""
from __future__ import annotations

import csv
import io
import json
import struct
from dataclasses import dataclass, fields

import numpy as np

RECORD_HEADER = ("run_id", "algorithm", "seed", "round", "epoch", "iter",
                 "split", "loss", "accuracy", "remaining_frac", "beta",
                 "lambda", "s0")

CHECKPOINT_MAGIC = b"TLCP"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


class CheckpointVersionError(CheckpointError):
    """Version byte does not match; the file needs migration."""


class CheckpointIntegrityError(CheckpointError):
    """Bad magic or truncated payload; no partial state is returned."""


@dataclass
class RunRecord:
    run_id: str
    algorithm: str
    seed: int
    round: int
    epoch: int
    iter: int
    split: str
    loss: float | None = None
    accuracy: float | None = None
    remaining_frac: float | None = None
    beta: float | None = None
    lam: float | None = None
    s0: float | None = None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.9g}"
    return str(v)


def _parse_float(s: str) -> float | None:
    return None if s == "" else float(s)


def write_records(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(RECORD_HEADER)
        for r in records:
            w.writerow([_fmt(v) for v in
                        (r.run_id, r.algorithm, r.seed, r.round, r.epoch,
                         r.iter, r.split, r.loss, r.accuracy,
                         r.remaining_frac, r.beta, r.lam, r.s0)])


def read_records(path) -> list[RunRecord]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = tuple(next(reader))
        if header != RECORD_HEADER:
            raise ValueError(f"unexpected records header in {path!r}: {header}")
        for row in reader:
            (run_id, algorithm, seed, rnd, epoch, it, split, loss, acc,
             rem, beta, lam, s0) = row
            out.append(RunRecord(
                run_id=run_id, algorithm=algorithm, seed=int(seed),
                round=int(rnd), epoch=int(epoch), iter=int(it), split=split,
                loss=_parse_float(loss), accuracy=_parse_float(acc),
                remaining_frac=_parse_float(rem), beta=_parse_float(beta),
                lam=_parse_float(lam), s0=_parse_float(s0)))
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    manifest = []
    chunks = []
    offset = 0
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        le = a.astype(a.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        manifest.append({"name": name, "dtype": a.dtype.name,
                         "shape": list(a.shape), "offset": offset,
                         "nbytes": len(raw)})
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps({"meta": meta, "arrays": manifest}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for raw in chunks:
            f.write(raw)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointIntegrityError(f"not a checkpoint file: {path!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} needs migration "
            f"(current {CHECKPOINT_VERSION}): {path!r}")
    (hlen,) = struct.unpack("<Q", blob[8:16])
    if len(blob) < 16 + hlen:
        raise CheckpointIntegrityError(f"truncated checkpoint header: {path!r}")
    header = json.loads(blob[16:16 + hlen].decode("utf-8"))
    payload = blob[16 + hlen:]
    arrays = {}
    for ent in header["arrays"]:
        end = ent["offset"] + ent["nbytes"]
        if end > len(payload):
            raise CheckpointIntegrityError(f"truncated checkpoint payload: {path!r}")
        dt = np.dtype(ent["dtype"]).newbyteorder("<")
        arr = np.frombuffer(payload[ent["offset"]:end], dtype=dt)
        arrays[ent["name"]] = arr.reshape(ent["shape"]).astype(
            np.dtype(ent["dtype"]), copy=True)
    return arrays, header["meta"]


# ---------------------------------------------------------------------------
# mask artifacts
# ---------------------------------------------------------------------------

def save_mask_artifact(path_base, masks: dict[str, np.ndarray]) -> None:
    """Write a compact bitset (.bits) plus a readable summary (.json)."""
    manifest = []
    bit_chunks = []
    summary = {}
    for name in sorted(masks):
        m = np.asarray(masks[name])
        flat = (m.reshape(-1) > 0).astype(np.uint8)
        packed = np.packbits(flat)
        manifest.append({"name": name, "shape": list(m.shape),
                         "bits": int(flat.size), "bytes": int(packed.size)})
        bit_chunks.append(packed.tobytes())
        summary[name] = {"size": int(m.size), "remaining": int(flat.sum()),
                         "remaining_frac": (float(flat.mean()) if flat.size
                                            else 0.0)}
    header = json.dumps(manifest).encode("utf-8")
    with open(str(path_base) + ".bits", "wb") as f:
        f.write(struct.pack("<Q", len(header)))
        f.write(header)
        for c in bit_chunks:
            f.write(c)
    total = sum(v["size"] for v in summary.values())
    kept = sum(v["remaining"] for v in summary.values())
    summary["__global__"] = {"size": total, "remaining": kept,
                             "remaining_frac": kept / total if total else 0.0}
    with open(str(path_base) + ".json", "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)


def load_mask_artifact(path_base) -> dict[str, np.ndarray]:
    with open(str(path_base) + ".bits", "rb") as f:
        (hlen,) = struct.unpack("<Q", f.read(8))
        manifest = json.loads(f.read(hlen).decode("utf-8"))
        masks = {}
        for ent in manifest:
            packed = np.frombuffer(f.read(ent["bytes"]), dtype=np.uint8)
            flat = np.unpackbits(packed, count=ent["bits"])
            masks[ent["name"]] = flat.reshape(ent["shape"]).astype(np.float64)
    return masks
