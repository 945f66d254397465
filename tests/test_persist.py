import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from ticketlab.data import DataConfig
from ticketlab.harness import retrain_ticket
from ticketlab.models import ModelConfig
from ticketlab.optim import CompositeOptimizer, OptimizerConfig
from ticketlab.persist import (RECORD_HEADER, CheckpointIntegrityError,
                               CheckpointVersionError, RunRecord,
                               load_checkpoint, load_mask_artifact,
                               read_records, save_checkpoint,
                               save_mask_artifact, write_records)
from ticketlab.search import RewindStore, RoundConfig, run_cs
from ticketlab.seeding import STREAM_MASK, STREAM_SHUFFLE, seeded_rng
from ticketlab.tensor import reset_tape
from ticketlab.training import (TrainCursor, capture_train_state,
                                restore_train_state, train)


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


MC = ModelConfig(kind="mlp", widths=(2, 16, 2))


class TestRecordsCSV:
    def test_header_contract(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records([], path)
        text = path.read_text(encoding="utf-8")
        assert text == ",".join(RECORD_HEADER) + "\n"

    def test_round_trip_at_nine_digits(self, tmp_path):
        rec = RunRecord("run-1", "cs", 3, 2, 10, 500, "train",
                        loss=0.123456789123, accuracy=0.987654321987,
                        remaining_frac=1 / 3, beta=np.sqrt(200.0),
                        lam=1e-8, s0=-0.3)
        path = tmp_path / "records.csv"
        write_records([rec], path)
        back = read_records(path)[0]
        for field in ("loss", "accuracy", "remaining_frac", "beta", "lam", "s0"):
            a = getattr(rec, field)
            b = getattr(back, field)
            assert b == float(f"{a:.9g}")
        assert (back.run_id, back.algorithm, back.seed, back.round,
                back.epoch, back.iter, back.split) == \
               ("run-1", "cs", 3, 2, 10, 500, "train")

    def test_none_fields_round_trip_as_empty(self, tmp_path):
        rec = RunRecord("r", "dense", 1, 1, 0, 0, "test")
        path = tmp_path / "records.csv"
        write_records([rec], path)
        back = read_records(path)[0]
        assert back.loss is None and back.s0 is None

    def test_five_round_run_logs_five_ticket_rows(self, tmp_path):
        train_ds, _ = DataConfig(n_train=64, n_test=64, seed=7).build()
        res = run_cs(MC.build(1), train_ds,
                     RoundConfig(rounds=5, iters_per_round=8, rewind_iter=0,
                                 batch_size=32, record_every=0), seed=1)
        path = tmp_path / "records.csv"
        write_records(res.records, path)
        back = read_records(path)
        assert sum(r.split == "ticket" for r in back) == 5

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records(path)


class TestCheckpointFile:
    def arrays(self):
        rng = np.random.default_rng(0)
        return {"w": rng.standard_normal((3, 4)),
                "b": rng.standard_normal(4).astype(np.float32),
                "flags": np.array([1, 0, 1], dtype=np.uint8)}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        meta = {"round": 3, "note": "x"}
        save_checkpoint(path, self.arrays(), meta)
        arrays, back = load_checkpoint(path)
        assert back == meta
        for k, v in self.arrays().items():
            assert np.array_equal(arrays[k], v)
            assert arrays[k].dtype == v.dtype

    def test_wrong_version_is_migration_error(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, self.arrays(), {})
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # little-endian version field
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_truncated_payload_is_integrity_error(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint(path, self.arrays(), {})
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)

    def test_bad_magic_is_integrity_error(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointIntegrityError):
            load_checkpoint(path)


class TestResumeEquivalence:
    def _pieces(self, seed=3):
        train_ds, _ = DataConfig(n_train=128, n_test=64, seed=7).build()
        cfg = RoundConfig(rounds=1, iters_per_round=150, rewind_iter=0,
                          batch_size=32, record_every=0)
        model = MC.build(seed)
        model.set_gate_mode("soft-deterministic", 0.05)
        opt = CompositeOptimizer([
            cfg.weight_opt.build(model.weight_tensors()),
            cfg.mask_opt.build(model.mask_tensors())])
        from ticketlab.masking import TemperatureSchedule
        sched = TemperatureSchedule(cfg.beta_final, 150)
        return train_ds, cfg, model, opt, sched

    def test_save_load_resume_matches_uninterrupted(self, tmp_path):
        # straight 150 iterations
        train_ds, cfg, model, opt, sched = self._pieces()
        rng = seeded_rng(3, STREAM_SHUFFLE)
        cur = TrainCursor()
        train(model, train_ds, opt, 150, batch_size=32, shuffle_rng=rng,
              schedule=sched, lam=cfg.lam, cursor=cur)
        straight = {k: v.copy() for k, v in model.weight_arrays().items()}
        straight_s = {g.name: g.mask_logits.data.copy()
                      for g in model.maskable_groups()}

        # 100 iterations, checkpoint to disk, reload into fresh objects, 50 more
        train_ds, cfg, model, opt, sched = self._pieces()
        rng = seeded_rng(3, STREAM_SHUFFLE)
        cur = TrainCursor()
        train(model, train_ds, opt, 100, batch_size=32, shuffle_rng=rng,
              schedule=sched, lam=cfg.lam, cursor=cur)
        arrays, meta = capture_train_state(model, opt, cur, rng,
                                           schedule=sched,
                                           extra={"done": 100})
        path = tmp_path / "resume.ckpt"
        save_checkpoint(path, arrays, meta)

        train_ds, cfg, model2, opt2, sched2 = self._pieces()
        rng2 = seeded_rng(999, STREAM_SHUFFLE)  # state overwritten by restore
        cur2 = TrainCursor()
        arrays2, meta2 = load_checkpoint(path)
        extra = restore_train_state(arrays2, meta2, model2, opt2, cur2, rng2,
                                    schedule=sched2)
        assert extra["done"] == 100
        train(model2, train_ds, opt2, 50, batch_size=32, shuffle_rng=rng2,
              schedule=sched2, lam=cfg.lam, cursor=cur2,
              start_iteration=100)
        for k, v in model2.weight_arrays().items():
            assert np.array_equal(v, straight[k])
        for g in model2.maskable_groups():
            assert np.array_equal(g.mask_logits.data, straight_s[g.name])

    def test_rewind_store_reload_reproduces_retrain_bitwise(self, tmp_path):
        train_ds, test_ds = DataConfig(n_train=128, n_test=128, seed=7).build()
        cfg = RoundConfig(rounds=2, iters_per_round=40, rewind_iter=4,
                          batch_size=32, record_every=0)
        res = run_cs(MC.build(5), train_ds, cfg, seed=5)
        row_mem = retrain_ticket(MC, res.masks, res.rewind, train_ds, test_ds,
                                 cfg, 40, 5)
        path = tmp_path / "rewind.ckpt"
        save_checkpoint(path, res.rewind.arrays,
                        {"rewind_iter": res.rewind.rewind_iter})
        arrays, meta = load_checkpoint(path)
        store = RewindStore(meta["rewind_iter"], arrays)
        row_disk = retrain_ticket(MC, res.masks, store, train_ds, test_ds,
                                  cfg, 40, 5)
        assert row_disk.accuracy == row_mem.accuracy
        assert row_disk.remaining_frac == row_mem.remaining_frac


class TestMaskArtifact:
    def test_bitset_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        masks = {"dense0": (rng.random((4, 9)) < 0.3).astype(float),
                 "dense1": (rng.random((9, 2)) < 0.7).astype(float)}
        base = tmp_path / "mask"
        save_mask_artifact(base, masks)
        back = load_mask_artifact(base)
        for k in masks:
            assert np.array_equal(back[k], masks[k])

    def test_summary_is_readable_json(self, tmp_path):
        masks = {"a": np.array([1.0, 0.0, 1.0, 0.0])}
        base = tmp_path / "mask"
        save_mask_artifact(base, masks)
        summary = json.loads((tmp_path / "mask.json").read_text())
        assert summary["a"]["remaining"] == 2
        assert summary["__global__"]["remaining_frac"] == 0.5


def _round_trip(masks):
    """Masks saved and loaded again, plus the summary JSON (which must be
    strict JSON: no NaN or Infinity)."""
    def strict(name):
        raise ValueError(f"{name} in the mask summary")

    with tempfile.TemporaryDirectory() as d:
        base = Path(d) / "mask"
        save_mask_artifact(base, masks)
        summary = json.loads((Path(d) / "mask.json").read_text(),
                             parse_constant=strict)
        return load_mask_artifact(base), summary


def _masks(elements):
    """1-3 named arrays of any shape up to 4-d, size-0 and 0-d included."""
    return st.dictionaries(
        st.text("abcdefgh0123456789._", min_size=1, max_size=8),
        arrays(np.float64, array_shapes(min_dims=0, max_dims=4, min_side=0,
                                        max_side=5), elements=elements),
        min_size=1, max_size=3)


_props = settings(derandomize=True, database=None, max_examples=200,
                  deadline=None)


class TestMaskArtifactProperties:
    @_props
    @given(_masks(st.sampled_from([0.0, 1.0])))
    @example({"empty": np.zeros((0, 3)), "one": np.ones(1)})
    @example({"zero_d": np.array(0.0), "none": np.zeros(0)})
    def test_binary_masks_round_trip(self, masks):
        back, summary = _round_trip(masks)
        assert back.keys() == masks.keys()
        for k, m in masks.items():
            assert back[k].dtype == np.float64
            assert back[k].shape == m.shape
            assert np.array_equal(back[k], m)
            assert summary[k]["remaining"] == int(m.sum())

    @_props
    @given(_masks(st.floats(allow_nan=False)))
    @example({"one": np.array([0.3]), "neg": np.array([-0.0, -2.5, 5e-324])})
    def test_any_positive_value_reads_back_as_one(self, masks):
        back, _ = _round_trip(masks)
        for k, m in masks.items():
            assert np.array_equal(back[k], (m > 0).astype(np.float64))
