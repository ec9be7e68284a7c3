"""Supervised training of the discrete residual model.

The residual stack is wrapped in trainable input/output adaptation layers
and fitted with plain SGD on softmax cross-entropy. Gradients are
hand-rolled reverse mode through the recursion, and can be taken either
with respect to the raw increments (standard mode) or with respect to the
standardized noises behind them (reparametrized mode); the two
parameterizations describe the same function and their gradients differ
exactly by the increment scaling constants.

Also hosts the IDX (MNIST distribution format) reader and the in-process
toy dataset generator.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig, SeedSpec, make_rng
from .errors import ConfigError, DataFormatError
from .laws import FullyIidLaw

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray
    targets: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ConfigError("inputs and targets must have the same length")
        if self.inputs.shape[0] < 1:
            raise ConfigError("dataset must be non-empty")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


@dataclass
class AdaptationLayers:
    """Input map W_I (D x Z) and output map W_O (Y x D)."""

    W_I: np.ndarray
    W_O: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    learning_rate: float
    batch_size: int
    epochs: int
    model: ModelConfig
    seed: SeedSpec

    def __post_init__(self):
        if self.mode not in ("reparametrized", "standard"):
            raise ConfigError(f"unknown gradient mode {self.mode!r}")
        if not self.learning_rate >= 0:
            raise ConfigError("learning rate must be nonnegative")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not isinstance(self.model.law, FullyIidLaw):
            raise ConfigError("training supports the fully i.i.d. law")


@dataclass
class TrainTrace:
    batch_losses: list = field(default_factory=list)
    final_train_accuracy: float = float("nan")
    final_test_accuracy: float = float("nan")
    diverged: bool = False


def load_idx(images_path, labels_path) -> Dataset:
    """Parse the big-endian IDX image/label pair into a flat dataset.

    Pixels are scaled to [0, 1]; labels are one-hot encoded over 10
    classes; images are flattened row-major.
    """
    with open(images_path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise DataFormatError(f"{images_path}: truncated image header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}"
            )
        raw = f.read(count * rows * cols)
        if len(raw) < count * rows * cols:
            raise DataFormatError(f"{images_path}: truncated image data")
        images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        header = f.read(8)
        if len(header) < 8:
            raise DataFormatError(f"{labels_path}: truncated label header")
        magic, lcount = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}"
            )
        raw = f.read(lcount)
        if len(raw) < lcount:
            raise DataFormatError(f"{labels_path}: truncated label data")
        labels = np.frombuffer(raw, dtype=np.uint8)
    if count != lcount:
        raise DataFormatError(
            f"image count {count} != label count {lcount}"
        )
    if labels.size and labels.max() > 9:
        raise DataFormatError("labels must be in 0..9")
    targets = np.zeros((count, 10))
    targets[np.arange(count), labels] = 1.0
    return Dataset(inputs=images.astype(float) / 255.0, targets=targets,
                   name="idx")


def toy_blobs(n: int, n_features: int, n_classes: int, seed: int,
              spread: float = 1.0) -> Dataset:
    """Gaussian-cluster classification set generated from a seed."""
    rng = make_rng(SeedSpec(seed, experiment="toy_blobs"))
    centers = 3.0 * rng.standard_normal((n_classes, n_features))
    labels = rng.integers(0, n_classes, size=n)
    inputs = centers[labels] + spread * rng.standard_normal((n, n_features))
    targets = np.zeros((n, n_classes))
    targets[np.arange(n), labels] = 1.0
    return Dataset(inputs=inputs, targets=targets, name="toy_blobs")


def increment_scales(model: ModelConfig) -> tuple[float, float]:
    """Scaling from standardized noises to raw increments (weights, biases)."""
    law = model.law
    sqdt = np.sqrt(model.dt)
    return (law.sigma_w * sqdt / np.sqrt(model.width), law.sigma_b * sqdt)


def init_params(model: ModelConfig, n_in: int, n_out: int, mode: str,
                seed: SeedSpec):
    """Initial trainable tensors plus adaptation layers.

    Both gradient modes start from the same function: the residual leaves
    are the same sampled standardized noises, stored either raw
    (reparametrized) or pre-scaled into increments (standard).
    """
    D, L = model.width, model.depth
    rng = make_rng(seed.with_stream(experiment=seed.experiment + "/init"))
    epsW = rng.standard_normal((L, D, D))
    epsb = rng.standard_normal((L, D))
    W_I = rng.standard_normal((D, n_in))
    W_O = rng.standard_normal((n_out, D))
    sw, sb = increment_scales(model)
    if mode == "reparametrized":
        params = {"theta_W": epsW, "theta_b": epsb}
    elif mode == "standard":
        params = {"theta_W": epsW * sw, "theta_b": epsb * sb}
    else:
        raise ConfigError(f"unknown gradient mode {mode!r}")
    adapt = AdaptationLayers(W_I=W_I, W_O=W_O)
    return params, adapt


def _increments(model: ModelConfig, params: dict, mode: str):
    sw, sb = increment_scales(model)
    if mode == "reparametrized":
        return params["theta_W"] * sw, params["theta_b"] * sb
    return params["theta_W"], params["theta_b"]


def forward_loss(model: ModelConfig, adapt: AdaptationLayers, params: dict,
                 inputs: np.ndarray, targets: np.ndarray, mode: str):
    """Batch loss of the adapted residual stack, with a backward cache.

    Computes x_0 = W_I z, the L-step residual recursion, logits
    W_O x_T, and log-sum-exp-stabilized softmax cross-entropy averaged
    over the batch.
    """
    dW, db = _increments(model, params, mode)
    phi, psi = model.phi, model.psi
    x = inputs @ adapt.W_I.T
    xs = [x]
    hs = []
    pxs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(model.depth):
            px = psi(x)
            h = px @ dW[l].T + db[l]
            x = x + phi(h)
            pxs.append(px)
            hs.append(h)
            xs.append(x)
        logits = x @ adapt.W_O.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(lse - (shifted * targets).sum(axis=1)))
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
    cache = {
        "xs": xs, "hs": hs, "pxs": pxs, "probs": probs, "inputs": inputs,
        "targets": targets, "dW": dW, "mode": mode, "model": model,
        "adapt": adapt,
    }
    return loss, cache


def backward(cache: dict) -> dict:
    """Reverse-mode gradients of the cached batch loss.

    Returns gradients for the mode's trainable leaves (theta_W, theta_b)
    and for the adaptation layers.
    """
    model: ModelConfig = cache["model"]
    adapt: AdaptationLayers = cache["adapt"]
    phi, psi = model.phi, model.psi
    xs, hs, pxs = cache["xs"], cache["hs"], cache["pxs"]
    dW = cache["dW"]
    B = cache["inputs"].shape[0]
    L, D = model.depth, model.width

    dlogits = (cache["probs"] - cache["targets"]) / B
    g_WO = dlogits.T @ xs[-1]
    xbar = dlogits @ adapt.W_O

    g_dW = np.empty((L, D, D))
    g_db = np.empty((L, D))
    for l in range(L - 1, -1, -1):
        g = phi.deriv(hs[l]) * xbar
        g_dW[l] = g.T @ pxs[l]
        g_db[l] = g.sum(axis=0)
        xbar = xbar + psi.deriv(xs[l]) * (g @ dW[l])
    g_WI = xbar.T @ cache["inputs"]

    sw, sb = increment_scales(model)
    if cache["mode"] == "reparametrized":
        grads = {"theta_W": g_dW * sw, "theta_b": g_db * sb}
    else:
        grads = {"theta_W": g_dW, "theta_b": g_db}
    grads["W_I"] = g_WI
    grads["W_O"] = g_WO
    return grads


def _accuracy(model, adapt, params, mode, data: Dataset,
              batch_size: int = 1000) -> float:
    hits = 0
    for start in range(0, data.n, batch_size):
        X = data.inputs[start:start + batch_size]
        Y = data.targets[start:start + batch_size]
        _, cache = forward_loss(model, adapt, params, X, Y, mode)
        pred = cache["probs"].argmax(axis=1)
        hits += int((pred == Y.argmax(axis=1)).sum())
    return hits / data.n


def sgd_run(config: TrainConfig, data: Dataset,
            test_data: Dataset | None = None) -> TrainTrace:
    """Plain SGD with a fixed learning rate over shuffled mini-batches.

    Halts and flags on a non-finite loss instead of raising.
    """
    model = config.model
    n_in = data.inputs.shape[1]
    n_out = data.targets.shape[1]
    params, adapt = init_params(model, n_in, n_out, config.mode, config.seed)
    shuffle_rng = make_rng(config.seed.with_stream(
        experiment=config.seed.experiment + "/shuffle"))
    trace = TrainTrace()
    lr = config.learning_rate

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(data.n)
        for start in range(0, data.n, config.batch_size):
            idx = order[start:start + config.batch_size]
            X, Y = data.inputs[idx], data.targets[idx]
            loss, cache = forward_loss(model, adapt, params, X, Y, config.mode)
            trace.batch_losses.append(loss)
            if not np.isfinite(loss):
                trace.diverged = True
                return trace
            grads = backward(cache)
            params["theta_W"] -= lr * grads["theta_W"]
            params["theta_b"] -= lr * grads["theta_b"]
            adapt.W_I -= lr * grads["W_I"]
            adapt.W_O -= lr * grads["W_O"]

    trace.final_train_accuracy = _accuracy(model, adapt, params, config.mode,
                                           data)
    if test_data is not None:
        trace.final_test_accuracy = _accuracy(model, adapt, params,
                                              config.mode, test_data)
    return trace
