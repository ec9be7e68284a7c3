import struct

import numpy as np
import pytest

from depthflow import (Dataset, FullyIidLaw, ModelConfig, SeedSpec,
                       TrainConfig, backward, forward_loss, load_idx, sgd_run)
from depthflow.activations import IDENTITY, TANH
from depthflow.config import make_rng
from depthflow.errors import ConfigError, DataFormatError
from depthflow.train import increment_scales, init_params, toy_blobs


def toy_two_class_separable(n: int, n_features: int, seed: int) -> Dataset:
    """Linearly separable 2-class set (a linear model achieves 1.0)."""
    rng = make_rng(SeedSpec(seed, experiment="toy_separable"))
    w = rng.standard_normal(n_features)
    w /= np.linalg.norm(w)
    inputs = rng.standard_normal((n, n_features))
    margin = inputs @ w
    inputs += np.where(margin[:, None] >= 0, 0.75, -0.75) * w
    labels = (inputs @ w >= 0).astype(int)
    targets = np.zeros((n, 2))
    targets[np.arange(n), labels] = 1.0
    return Dataset(inputs=inputs, targets=targets, name="toy_separable")


def iid_model(depth, width, sigma_w=1.0, sigma_b=1.0):
    law = FullyIidLaw(sigma_w=sigma_w, sigma_b=sigma_b, dim=width)
    return ModelConfig(depth=depth, width=width, horizon=1.0, phi=TANH,
                       psi=IDENTITY, law=law)


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                    + images.astype(np.uint8).tobytes())
    lab.write_bytes(struct.pack(">II", 0x00000801, n)
                    + labels.astype(np.uint8).tobytes())
    return img, lab


class TestIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 3, 4))
        labels = np.array([0, 9, 3, 3, 7])
        img, lab = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img, lab)
        assert ds.inputs.shape == (5, 12)
        assert np.allclose(ds.inputs, images.reshape(5, 12) / 255.0)
        assert np.array_equal(ds.targets.argmax(axis=1), labels)
        assert np.array_equal(ds.targets.sum(axis=1), np.ones(5))

    def test_bad_image_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), np.zeros(1))
        img.write_bytes(struct.pack(">IIII", 0xdeadbeef, 1, 2, 2) + b"\0" * 4)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(img, lab)

    def test_truncated_images(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        img.write_bytes(img.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), np.zeros(2))
        lab = tmp_path / "lab2.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 3) + b"\0" * 3)
        with pytest.raises(DataFormatError, match="count"):
            load_idx(img, lab)

    def test_label_out_of_range(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)),
                                  np.array([11]))
        with pytest.raises(DataFormatError, match="0..9"):
            load_idx(img, lab)


class TestToyData:
    def test_blobs_shapes_and_determinism(self):
        a = toy_blobs(100, 6, 3, seed=4)
        b = toy_blobs(100, 6, 3, seed=4)
        assert a.inputs.shape == (100, 6)
        assert a.targets.shape == (100, 3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_separable_has_linear_separator(self):
        ds = toy_two_class_separable(400, 5, seed=8)
        # least squares on the one-hot targets must classify perfectly
        X = np.column_stack([ds.inputs, np.ones(ds.n)])
        W, *_ = np.linalg.lstsq(X, ds.targets, rcond=None)
        pred = (X @ W).argmax(axis=1)
        assert (pred == ds.targets.argmax(axis=1)).all()


class TestForwardLoss:
    def test_uniform_logits_give_log_k(self):
        model = iid_model(2, 4)
        params, adapt = init_params(model, 3, 5, "standard", SeedSpec(1, "u"))
        adapt.W_O = np.zeros_like(adapt.W_O)
        X = np.random.default_rng(2).standard_normal((7, 3))
        Y = np.zeros((7, 5))
        Y[:, 0] = 1.0
        loss, _ = forward_loss(model, adapt, params, X, Y, "standard")
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)

    def test_large_logits_do_not_overflow(self):
        model = iid_model(1, 2)
        params, adapt = init_params(model, 2, 2, "standard", SeedSpec(2, "s"))
        adapt.W_O = np.array([[1e4, 0.0], [0.0, 1e4]])
        X = np.array([[1.0, 1.0]])
        Y = np.array([[1.0, 0.0]])
        loss, cache = forward_loss(model, adapt, params, X, Y, "standard")
        assert np.isfinite(loss)
        assert np.isfinite(cache["probs"]).all()

    def test_loss_against_duplicate_implementation(self):
        # independent oracle: rebuild the forward pass with explicit loops
        model = iid_model(3, 4)
        params, adapt = init_params(model, 2, 3, "reparametrized",
                                    SeedSpec(3, "dup"))
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 2))
        Y = np.zeros((6, 3))
        Y[np.arange(6), rng.integers(0, 3, 6)] = 1.0
        loss, _ = forward_loss(model, adapt, params, X, Y, "reparametrized")

        sw, sb = increment_scales(model)
        total = 0.0
        for b in range(6):
            x = adapt.W_I @ X[b]
            for l in range(model.depth):
                h = (params["theta_W"][l] * sw) @ x + params["theta_b"][l] * sb
                x = x + np.tanh(h)
            logits = adapt.W_O @ x
            p = np.exp(logits - logits.max())
            p /= p.sum()
            total += -np.log(p[Y[b].argmax()])
        assert loss == pytest.approx(total / 6, abs=1e-12)

    def test_modes_agree_at_initialization(self):
        model = iid_model(4, 6)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 3))
        Y = np.zeros((5, 2))
        Y[:, 1] = 1.0
        losses = {}
        for mode in ("reparametrized", "standard"):
            params, adapt = init_params(model, 3, 2, mode, SeedSpec(4, "eq"))
            losses[mode], _ = forward_loss(model, adapt, params, X, Y, mode)
        assert losses["reparametrized"] == pytest.approx(losses["standard"],
                                                         rel=1e-12)


class TestBackward:
    @staticmethod
    def setup_case(mode, seed=11, depth=3, width=5):
        model = iid_model(depth, width, sigma_w=1.3, sigma_b=0.6)
        params, adapt = init_params(model, 4, 3, mode, SeedSpec(seed, "fd"))
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((8, 4))
        Y = np.zeros((8, 3))
        Y[np.arange(8), rng.integers(0, 3, 8)] = 1.0
        return model, params, adapt, X, Y

    @pytest.mark.parametrize("mode", ["reparametrized", "standard"])
    def test_gradients_match_finite_differences(self, mode):
        model, params, adapt, X, Y = self.setup_case(mode)
        _, cache = forward_loss(model, adapt, params, X, Y, mode)
        grads = backward(cache)
        eps = 1e-6
        rng = np.random.default_rng(0)

        def loss_at():
            return forward_loss(model, adapt, params, X, Y, mode)[0]

        for name in ("theta_W", "theta_b"):
            flat = params[name]
            for _ in range(6):
                idx = tuple(rng.integers(0, s) for s in flat.shape)
                old = flat[idx]
                flat[idx] = old + eps
                up = loss_at()
                flat[idx] = old - eps
                down = loss_at()
                flat[idx] = old
                fd = (up - down) / (2 * eps)
                assert grads[name][idx] == pytest.approx(fd, abs=1e-6)

    def test_adaptation_gradients_match_finite_differences(self):
        model, params, adapt, X, Y = self.setup_case("standard", seed=13)
        _, cache = forward_loss(model, adapt, params, X, Y, "standard")
        grads = backward(cache)
        eps = 1e-6
        rng = np.random.default_rng(1)
        for name, arr in (("W_I", adapt.W_I), ("W_O", adapt.W_O)):
            for _ in range(6):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                old = arr[idx]
                arr[idx] = old + eps
                up = forward_loss(model, adapt, params, X, Y, "standard")[0]
                arr[idx] = old - eps
                down = forward_loss(model, adapt, params, X, Y, "standard")[0]
                arr[idx] = old
                fd = (up - down) / (2 * eps)
                assert grads[name][idx] == pytest.approx(fd, abs=1e-6)

    def test_reparametrized_gradients_are_scaled_standard(self):
        model = iid_model(3, 5, sigma_w=1.3, sigma_b=0.6)
        rng = np.random.default_rng(17)
        X = rng.standard_normal((8, 4))
        Y = np.zeros((8, 3))
        Y[np.arange(8), rng.integers(0, 3, 8)] = 1.0
        out = {}
        for mode in ("reparametrized", "standard"):
            params, adapt = init_params(model, 4, 3, mode, SeedSpec(6, "sc"))
            _, cache = forward_loss(model, adapt, params, X, Y, mode)
            out[mode] = backward(cache)
        sw, sb = increment_scales(model)
        assert np.allclose(out["reparametrized"]["theta_W"],
                           out["standard"]["theta_W"] * sw, rtol=1e-12)
        assert np.allclose(out["reparametrized"]["theta_b"],
                           out["standard"]["theta_b"] * sb, rtol=1e-12)
        assert np.allclose(out["reparametrized"]["W_I"],
                           out["standard"]["W_I"], rtol=1e-12)


class TestSgd:
    def test_config_validation(self):
        model = iid_model(2, 3)
        with pytest.raises(ConfigError):
            TrainConfig(mode="adam", learning_rate=0.1, batch_size=8,
                        epochs=1, model=model, seed=SeedSpec(0))
        with pytest.raises(ConfigError):
            TrainConfig(mode="standard", learning_rate=-0.1, batch_size=8,
                        epochs=1, model=model, seed=SeedSpec(0))

    def test_zero_learning_rate_constant_loss(self):
        model = iid_model(3, 4)
        data = toy_blobs(64, 3, 2, seed=21)
        cfg = TrainConfig(mode="reparametrized", learning_rate=0.0,
                          batch_size=16, epochs=2, model=model,
                          seed=SeedSpec(7, "lr0"))
        trace = sgd_run(cfg, data)
        # each epoch sees the same batches in a different order, but with
        # lr=0 the parameters never move, so per-example losses are fixed
        assert np.ptp([np.mean(trace.batch_losses[:4]),
                       np.mean(trace.batch_losses[4:])]) <= 1e-12
        assert not trace.diverged

    def test_deterministic_given_seed(self):
        model = iid_model(3, 8)
        data = toy_blobs(64, 4, 3, seed=23)
        cfg = TrainConfig(mode="standard", learning_rate=0.05, batch_size=16,
                          epochs=1, model=model, seed=SeedSpec(8, "det"))
        a = sgd_run(cfg, data)
        b = sgd_run(cfg, data)
        assert a.batch_losses == b.batch_losses
        assert a.final_train_accuracy == b.final_train_accuracy

    def test_loss_decreases_on_blobs(self):
        model = iid_model(4, 16)
        data = toy_blobs(256, 4, 3, seed=25)
        cfg = TrainConfig(mode="reparametrized", learning_rate=0.1,
                          batch_size=32, epochs=10, model=model,
                          seed=SeedSpec(9, "dec"))
        trace = sgd_run(cfg, data)
        assert not trace.diverged
        head = np.mean(trace.batch_losses[:8])
        tail = np.mean(trace.batch_losses[-8:])
        assert tail < 0.5 * head

    def test_separable_toy_reaches_high_accuracy(self):
        model = iid_model(4, 16)
        full = toy_two_class_separable(768, 6, seed=27)
        from depthflow import Dataset
        data = Dataset(full.inputs[:512], full.targets[:512], "train")
        test = Dataset(full.inputs[512:], full.targets[512:], "test")
        cfg = TrainConfig(mode="reparametrized", learning_rate=0.2,
                          batch_size=32, epochs=15, model=model,
                          seed=SeedSpec(10, "sep"))
        trace = sgd_run(cfg, data, test_data=test)
        assert trace.final_train_accuracy >= 0.95
        assert trace.final_test_accuracy >= 0.90

    def test_divergence_flagged_not_raised(self):
        model = iid_model(6, 16, sigma_w=2.0)
        data = toy_blobs(64, 4, 2, seed=29, spread=5.0)
        cfg = TrainConfig(mode="standard", learning_rate=1e4, batch_size=16,
                          epochs=40, model=model, seed=SeedSpec(11, "div"))
        trace = sgd_run(cfg, data)
        assert trace.diverged
