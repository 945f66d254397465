import struct

import numpy as np
import pytest

from ticketlab import tensor as T
from ticketlab.data import (DataConfig, IdxFormatError, gen_sparse_teacher,
                            gen_two_moons, load_idx)
from ticketlab.masking import GATE_SOFT
from ticketlab.models import Model, build_mlp, build_small_conv, stack_models
from ticketlab.optim import Adam
from ticketlab.tensor import (ShapeError, Tensor, backward, reset_tape,
                              softmax_cross_entropy)


@pytest.fixture(autouse=True)
def fresh_tape():
    reset_tape()
    yield
    reset_tape()


class TestBuildMlp:
    def test_parameter_count_with_biases(self):
        m = build_mlp([2, 64, 64, 2], seed=0)
        assert m.parameter_count() == (2 * 64 + 64) + (64 * 64 + 64) + (64 * 2 + 2)

    def test_same_seed_bitwise_identical(self):
        a = build_mlp([2, 16, 2], seed=42)
        b = build_mlp([2, 16, 2], seed=42)
        for ka, kb in zip(a.weight_arrays().values(), b.weight_arrays().values()):
            assert np.array_equal(ka, kb)

    def test_different_seed_differs(self):
        a = build_mlp([2, 16, 2], seed=1)
        b = build_mlp([2, 16, 2], seed=2)
        assert not np.array_equal(a.groups[0].weights.data,
                                  b.groups[0].weights.data)

    def test_no_maskable_layers_allocates_no_logits(self):
        m = build_mlp([2, 8, 2], maskable=[False, False], seed=0)
        m.set_gate_mode(GATE_SOFT)
        assert m.mask_tensors() == []
        assert m.maskable_groups() == []

    def test_too_few_widths_rejected(self):
        with pytest.raises(ValueError):
            build_mlp([5], seed=0)

    def test_masked_and_dense_share_initial_weights(self):
        dense = build_mlp([2, 8, 2], seed=7)
        gated = build_mlp([2, 8, 2], seed=7)
        gated.set_gate_mode(GATE_SOFT, 0.1)
        for ka, kb in zip(dense.weight_arrays().values(),
                          gated.weight_arrays().values()):
            assert np.array_equal(ka, kb)


class TestModel:
    def test_unequal_layer_lists_rejected(self):
        m = build_mlp([2, 8, 8, 2], seed=0)
        for parts in ((m.layers[:2], m.groups, m.biases),
                      (m.layers, m.groups[:2], m.biases),
                      (m.layers, m.groups, m.biases[:2])):
            with pytest.raises(ValueError, match="one group and one bias"):
                Model(*parts)

    def test_mlp_rejects_image_input(self):
        m = build_mlp([2, 8, 2], seed=0)
        with pytest.raises(ShapeError):
            m.forward(Tensor(np.zeros((2, 1, 1, 2))))


def _masked(model, seed):
    """``model`` with a random binary mask frozen on each maskable group."""
    rng = np.random.default_rng(seed)
    model.apply_hard_masks({g.name: (rng.random(g.weights.shape) < 0.6)
                            for g in model.maskable_groups()})
    return model


class TestStackModels:
    def test_each_slice_is_its_models_forward(self):
        x = np.ones((5, 2))
        models = [_masked(build_mlp([2, 8, 8, 2], seed=s), s) for s in (1, 2, 3)]
        stack = stack_models(models)
        assert all(g.weights.shape[0] == 3 for g in stack.groups)
        with T.no_grad():
            logits = stack.forward(Tensor(x))
            for k, m in enumerate(models):
                assert np.array_equal(logits.data[k], m.forward(Tensor(x)).data)
        name = models[0].maskable_groups()[0].name
        assert np.array_equal(stack.masks()[name][1], models[1].masks()[name])

    def test_only_hard_masked_or_ungated_groups_stack(self):
        soft = build_mlp([2, 4, 2], seed=0)
        soft.set_gate_mode(GATE_SOFT)
        with pytest.raises(ValueError, match="hard-masked or ungated"):
            stack_models([soft, build_mlp([2, 4, 2], seed=1)])
        with pytest.raises(ValueError, match="share their layers"):
            stack_models([build_mlp([2, 4, 2], seed=0),
                          build_small_conv("conv2", seed=0, in_shape=(1, 8, 8))])

    def test_conv_models_do_not_stack(self):
        convs = [_masked(build_small_conv("conv2", seed=s, in_shape=(1, 8, 8)), s)
                 for s in (1, 2)]
        with pytest.raises(ValueError, match="conv layers"):
            stack_models(convs)


class TestFrozenMaskTensor:
    """``Model.forward`` reads each hard group's frozen mask through the
    one Tensor the group holds (``mask_tensor``), and its next forward
    sees the mask change, by a re-freeze or by writes into the mask,
    with logits bitwise those of a fresh wrap of every mask."""

    @staticmethod
    def forward(model, x, fresh=False):
        """The logits; with ``fresh``, every mask wrapped anew."""
        gates = ({g.name: Tensor(g.frozen_mask, dtype=g.weights.dtype)
                  for g in model.groups if g.frozen_mask is not None}
                 if fresh else None)
        with T.no_grad():
            return model.forward(Tensor(x), gates=gates).data

    def test_one_tensor_per_group_until_a_refreeze(self):
        rng = np.random.default_rng(4)
        model = _masked(build_mlp([2, 8, 8, 2], seed=0), 0)
        x = rng.standard_normal((6, 2))
        before = self.forward(model, x)
        held = [g.mask_tensor() for g in model.groups]
        assert self.forward(model, x).tobytes() == before.tobytes()
        assert all(g.mask_tensor() is t for g, t in zip(model.groups, held))
        for g in model.groups:
            g.freeze(rng.random(g.weights.shape) < 0.3)
        after = self.forward(model, x)
        assert after.tobytes() == self.forward(model, x, fresh=True).tobytes()
        assert after.tobytes() != before.tobytes()
        assert not any(g.mask_tensor() is t
                       for g, t in zip(model.groups, held))

    def test_writes_into_a_stacks_masks_show(self):
        """As ``search._run_rounds`` writes each slice's new mask into the
        stack's (``g.frozen_mask[i] = ...``)."""
        rng = np.random.default_rng(5)
        models = [_masked(build_mlp([2, 8, 8, 2], seed=s), s)
                  for s in (1, 2, 3)]
        stack = stack_models(models)
        x = rng.standard_normal((6, 2))
        before = self.forward(stack, x)
        for g in stack.groups:
            g.frozen_mask[1] = rng.random(g.weights.shape[1:]) < 0.3
        after = self.forward(stack, x)
        assert after.tobytes() == self.forward(stack, x, fresh=True).tobytes()
        assert after[1].tobytes() != before[1].tobytes()
        assert after[[0, 2]].tobytes() == before[[0, 2]].tobytes()


class TestBuildSmallConv:
    def test_conv6_scaled_head_geometry(self):
        m = build_small_conv("conv6-scaled", seed=0, in_shape=(1, 16, 16),
                             num_classes=10)
        dense_in = next(g for g in m.groups if g.name == "dense0")
        assert dense_in.weights.shape[0] == 32 * 2 * 2  # three pools: 16 -> 2

    def test_conv2_zero_input_yields_bias_logits(self):
        m = build_small_conv("conv2", seed=3, in_shape=(1, 8, 8), num_classes=4)
        x = Tensor(np.zeros((2, 1, 8, 8)))
        logits = m.forward(x)
        assert np.array_equal(logits.data, np.zeros((2, 4)))

    def test_parameter_count_stable_across_seeds(self):
        a = build_small_conv("conv6-scaled", seed=0)
        b = build_small_conv("conv6-scaled", seed=99)
        assert a.parameter_count() == b.parameter_count()

    def test_indivisible_resolution_rejected(self):
        with pytest.raises(ValueError):
            build_small_conv("conv6-scaled", seed=0, in_shape=(1, 12, 12))

    def test_forward_shape(self):
        m = build_small_conv("conv6-scaled", seed=0, in_shape=(1, 16, 16),
                             num_classes=10)
        out = m.forward(Tensor(np.zeros((3, 1, 16, 16))))
        assert out.shape == (3, 10)

    def test_conv_model_trains(self):
        # smoke: conv2 fits a trivial bright-vs-dark image task
        rng = np.random.default_rng(0)
        n = 64
        x = rng.random((n, 1, 8, 8)) * 0.2
        y = rng.integers(0, 2, n)
        x[y == 1] += 0.6
        m = build_small_conv("conv2", seed=1, in_shape=(1, 8, 8),
                             num_classes=2)
        opt = Adam(m.weight_tensors(), lr=0.01)
        losses = []
        for step in range(30):
            idx = rng.integers(0, n, 16)
            reset_tape()
            loss = softmax_cross_entropy(m.forward(Tensor(x[idx])), y[idx])
            losses.append(float(loss.data))
            backward(loss)
            opt.step()
        assert losses[-1] < losses[0]


class TestTwoMoons:
    def test_zero_noise_class0_on_unit_half_circle(self):
        ds = gen_two_moons(200, noise_sd=0.0, seed=5)
        pts = ds.inputs[ds.labels == 0]
        radii = np.hypot(pts[:, 0], pts[:, 1])
        assert np.allclose(radii, 1.0, atol=1e-12)
        assert np.all(pts[:, 1] >= -1e-12)

    def test_balanced_classes(self):
        ds = gen_two_moons(300, noise_sd=0.1, seed=5)
        assert (ds.labels == 0).sum() == 150

    def test_deterministic_by_seed(self):
        a = gen_two_moons(1000, noise_sd=0.1, seed=9)
        b = gen_two_moons(1000, noise_sd=0.1, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            gen_two_moons(101, 0.1, 0)

    def test_dense_mlp_fits_two_moons(self):
        # baseline sanity: >= 99% train accuracy within 2000 Adam steps
        ds = gen_two_moons(256, noise_sd=0.1, seed=7)
        model = build_mlp([2, 64, 64, 2], seed=1)
        opt = Adam([t for t in model.weight_tensors()], lr=0.01)
        rng = np.random.default_rng(0)
        for step in range(2000):
            idx = rng.integers(0, len(ds), 32)
            reset_tape()
            loss = softmax_cross_entropy(model.forward(Tensor(ds.inputs[idx])),
                                         ds.labels[idx])
            backward(loss)
            opt.step()
        with T.no_grad():
            logits = model.forward(Tensor(ds.inputs))
        acc = (logits.data.argmax(axis=1) == ds.labels).mean()
        assert acc >= 0.99


class TestSparseTeacher:
    def test_full_density_is_dense(self):
        _, info = gen_sparse_teacher(8, 16, density=1.0, n=10, seed=0)
        assert info.mask_ones() == 8 * 16 + 16 * 2

    def test_mask_count_is_exact_ceiling(self):
        _, info = gen_sparse_teacher(8, 16, density=0.3, n=10, seed=1)
        total = 8 * 16 + 16 * 2
        assert info.mask_ones() == int(np.ceil(0.3 * total))

    def test_labels_reproducible(self):
        a, _ = gen_sparse_teacher(6, 10, 0.5, n=64, seed=3)
        b, _ = gen_sparse_teacher(6, 10, 0.5, n=64, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.inputs, b.inputs)

    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            gen_sparse_teacher(4, 4, 0.0, 10, 0)

    def test_teacher_weights_respect_mask(self):
        _, info = gen_sparse_teacher(8, 16, 0.2, n=10, seed=2)
        for w, m in zip(info.weights, info.mask):
            assert np.all(w[m == 0] == 0.0)


def write_idx_pair(tmp_path, n=3, h=4, w=4, image_magic=0x803, label_magic=0x801,
                   truncate_images=False):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (n, h, w), dtype=np.uint8)
    labels = rng.integers(0, 10, n, dtype=np.uint8)
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    raw = images.tobytes()
    if truncate_images:
        raw = raw[:-5]
    ip.write_bytes(struct.pack(">IIII", image_magic, n, h, w) + raw)
    lp.write_bytes(struct.pack(">II", label_magic, n) + labels.tobytes())
    return ip, lp, images, labels


class TestIdxLoader:
    def test_well_formed_round_trip(self, tmp_path):
        ip, lp, images, labels = write_idx_pair(tmp_path, n=5, h=28, w=28)
        ds = load_idx(ip, lp, limit=3)
        assert ds.inputs.shape == (3, 1, 28, 28)
        assert np.allclose(ds.inputs[0, 0], images[0] / 255.0)
        assert np.array_equal(ds.labels, labels[:3].astype(np.int64))

    def test_big_endian_dimension_parse(self, tmp_path):
        # dimension bytes 0x0000001C must parse as 28
        ip, lp, *_ = write_idx_pair(tmp_path, n=1, h=28, w=28)
        ds = load_idx(ip, lp)
        assert ds.inputs.shape[2:] == (28, 28)

    def test_corrupt_magic_names_file(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path, image_magic=0xDEADBEEF)
        with pytest.raises(IdxFormatError, match="images.idx"):
            load_idx(ip, lp)

    def test_truncated_file_is_io_error(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path, truncate_images=True)
        with pytest.raises(OSError):
            load_idx(ip, lp)

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        ds = load_idx(ip, lp)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    @pytest.mark.parametrize("limit", [0, -1, -4])
    def test_limit_below_one_is_rejected(self, tmp_path, limit):
        ip, lp, *_ = write_idx_pair(tmp_path, n=10)
        with pytest.raises(ValueError, match=f"limit must be at least 1, got {limit}"):
            load_idx(ip, lp, limit=limit)
        cfg = DataConfig(kind="idx", train_images=str(ip), train_labels=str(lp),
                         test_images=str(ip), test_labels=str(lp), limit=limit)
        with pytest.raises(ValueError, match="limit"):
            cfg.build()
        assert len(load_idx(ip, lp, limit=1)) == 1


class TestDataConfig:
    def test_two_moons_split_disjoint_seeds(self):
        train, test = DataConfig(kind="two_moons", n_train=64, n_test=64,
                                 noise_sd=0.1, seed=3).build()
        assert not np.array_equal(train.inputs, test.inputs)
        assert train.split == "train" and test.split == "test"

    def test_teacher_split_shares_one_teacher(self):
        cfg = DataConfig(kind="sparse_teacher", n_train=50, n_test=30, seed=4)
        train, test = cfg.build()
        assert len(train) == 50 and len(test) == 30

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DataConfig(kind="cifar").build()
