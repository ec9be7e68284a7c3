"""Experiment orchestration: declarative configs, runners, CSV/SVG output.

Each runner consumes one validated :class:`ExperimentConfig`, simulates with
the core library, and writes deterministic CSV files (and, for heatmaps, a
self-contained SVG) into the output directory. Reruns with the same config
and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .activations import get_activation
from .config import ModelConfig, SeedSpec, make_rng
from .errors import ConfigError, DepthflowError
from .laws import FullyIidLaw, sample_eps, scale_eps
from .resnet import (DRAW_CHUNK, HARD_CAP, FeedforwardConfig,
                     _batched_psd_factor, _freeze_diverged, eoc_solve,
                     feedforward_forward, resnet_forward)
from .sde import SdeCoefficients, simulate_paths
from .stats import corr_over_inputs, kde1d, ks_two_sample, summarize
from .train import Dataset, TrainConfig, load_idx, sgd_run, toy_blobs

EXPERIMENT_KINDS = ("sanity_check", "function_space", "corr_heatmap", "sgd",
                    "abc")
MODEL_KINDS = ("diffusion", "eoc")
SCALE_PRESETS = {"desk": 64, "paper": 500}
DATA_ROOT_ENV = "DEPTHFLOW_DATA_ROOT"


@dataclass(frozen=True)
class ModelSpec:
    """Declarative model block shared by the simulation experiments."""

    kind: str = "diffusion"
    activation: str = "tanh"
    inner: str = "identity"
    sigma_w2: float = 1.0
    sigma_b2: float = 1.0
    depth: int = 64
    width: int = 64
    horizon: float = 1.0


@dataclass(frozen=True)
class SgdSpec:
    modes: tuple = ("reparametrized", "standard")
    depths: tuple = (8, 64)
    widths: tuple = (32, 128)
    learning_rate: float = 0.05
    batch_size: int = 200
    epochs: int = 1
    sigma_w2: float = 1.0
    sigma_b2: float = 1.0
    dataset: tuple = (("kind", "toy_blobs"), ("n", 10000), ("features", 16),
                      ("classes", 10), ("test_n", 2000))


@dataclass(frozen=True)
class AbcSpec:
    observations: tuple = ()
    prior_draws: int = 10000
    keep: int = 10
    eoc_sigma_b2: float = 0.05

    def __post_init__(self):
        if self.keep < 1:
            raise ConfigError(f"abc.keep: must be >= 1, got {self.keep}")
        if self.keep > self.prior_draws:
            raise ConfigError(
                f"abc.keep: {self.keep} exceeds prior_draws {self.prior_draws}"
            )
        if not self.eoc_sigma_b2 >= 0:
            raise ConfigError(f"abc.eoc_sigma_b2: must be nonnegative, "
                              f"got {self.eoc_sigma_b2}")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    out: str
    model: ModelSpec = ModelSpec()
    inputs: tuple = (0.0, 1.0)
    draws: int = 10000
    functions: int = 30
    sgd: SgdSpec = SgdSpec()
    abc: AbcSpec = AbcSpec()


def _typed(raw: dict, path: str, key: str, kind, default):
    """Fetch raw[key] coerced to ``kind``, naming the key path on failure."""
    loc = f"{path}.{key}" if path else key
    if key not in raw:
        if default is None:
            raise ConfigError(f"{loc}: required key missing")
        return default
    value = raw.pop(key)
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            return _finite(float(value), loc)
        if kind is str:
            if not isinstance(value, str):
                raise ValueError
            return value
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{loc}: expected {kind.__name__}, got {value!r}")
    return value


def _finite(value: float, loc: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{loc}: must be finite, got {value}")
    return value


def _typed_list(raw: dict, path: str, key: str, kind, default) -> tuple:
    """Fetch the non-empty list raw[key], each entry coerced like _typed."""
    values = raw.pop(key, default)
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError(f"{path}.{key}: expected a non-empty list, "
                          f"got {values!r}")
    return tuple(_typed({key: v}, path, key, kind, None) for v in values)


def _block(raw: dict, key: str) -> dict:
    value = raw.pop(key, {})
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected a mapping, got {value!r}")
    return dict(value)


def _reject_unknown(raw: dict, path: str):
    if raw:
        keys = ", ".join(sorted(map(str, raw)))
        loc = path or "top level"
        raise ConfigError(f"{loc}: unknown key(s) {keys}")


def _parse_model(raw: dict) -> ModelSpec:
    spec = ModelSpec(
        kind=_typed(raw, "model", "kind", str, "diffusion"),
        activation=_typed(raw, "model", "activation", str, "tanh"),
        inner=_typed(raw, "model", "inner", str, "identity"),
        sigma_w2=_typed(raw, "model", "sigma_w2", float, 1.0),
        sigma_b2=_typed(raw, "model", "sigma_b2", float, 1.0),
        depth=_typed(raw, "model", "depth", int, 64),
        width=_typed(raw, "model", "width", int, 64),
        horizon=_typed(raw, "model", "horizon", float, 1.0),
    )
    _reject_unknown(raw, "model")
    if spec.kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind: expected one of {MODEL_KINDS}, "
                          f"got {spec.kind!r}")
    for key in ("sigma_w2", "sigma_b2"):
        if not getattr(spec, key) >= 0:
            raise ConfigError(f"model.{key}: must be nonnegative")
    for key in ("depth", "width"):
        if getattr(spec, key) < 1:
            raise ConfigError(f"model.{key}: must be >= 1")
    if not spec.horizon > 0:
        raise ConfigError("model.horizon: must be > 0")
    get_activation(spec.activation)
    get_activation(spec.inner)
    return spec


def _parse_inputs(raw) -> tuple:
    """values list, or a {start, stop, points} grid of scalar inputs."""
    if raw is None:
        return (0.0, 1.0)
    if not isinstance(raw, dict):
        raise ConfigError(f"inputs: expected a mapping, got {raw!r}")
    raw = dict(raw)
    if "values" in raw:
        values = raw.pop("values")
        _reject_unknown(raw, "inputs")
        if not isinstance(values, list) or not values:
            raise ConfigError("inputs.values: expected a non-empty list")
        try:
            return tuple(_finite(float(v), "inputs.values") for v in values)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"inputs.values: non-numeric entry in {values!r}")
    if "grid" in raw:
        grid = _block(raw, "grid")
        _reject_unknown(raw, "inputs")
        start = _typed(grid, "inputs.grid", "start", float, -2.0)
        stop = _typed(grid, "inputs.grid", "stop", float, 2.0)
        points = _typed(grid, "inputs.grid", "points", int, 400)
        _reject_unknown(grid, "inputs.grid")
        if points < 1 or not stop > start:
            raise ConfigError("inputs.grid: need points >= 1 and stop > start")
        # finite ends far apart can still overflow the spacing
        _finite(stop - start, "inputs.grid: stop - start")
        return tuple(np.linspace(start, stop, points).tolist())
    raise ConfigError("inputs: expected a 'values' list or a 'grid' block")


DATASET_KEYS = {"kind": str, "n": int, "features": int, "classes": int,
                "test_n": int, "images": str, "labels": str,
                "test_images": str, "test_labels": str}


def _parse_sgd(raw: dict) -> SgdSpec:
    given = _block(raw, "dataset") or dict(SgdSpec().dataset)
    dataset = {key: _typed(given, "train.dataset", key, kind, None)
               for key, kind in DATASET_KEYS.items() if key in given}
    _reject_unknown(given, "train.dataset")
    spec = SgdSpec(
        modes=_typed_list(raw, "train", "modes", str,
                          ["reparametrized", "standard"]),
        depths=_typed_list(raw, "train", "depths", int, [8, 64]),
        widths=_typed_list(raw, "train", "widths", int, [32, 128]),
        learning_rate=_typed(raw, "train", "learning_rate", float, 0.05),
        batch_size=_typed(raw, "train", "batch_size", int, 200),
        epochs=_typed(raw, "train", "epochs", int, 1),
        sigma_w2=_typed(raw, "train", "sigma_w2", float, 1.0),
        sigma_b2=_typed(raw, "train", "sigma_b2", float, 1.0),
        dataset=tuple(sorted(dataset.items())),
    )
    _reject_unknown(raw, "train")
    for mode in spec.modes:
        if mode not in ("reparametrized", "standard"):
            raise ConfigError(f"train.modes: unknown mode {mode!r}")
    return spec


def _parse_abc(raw: dict) -> AbcSpec:
    obs = raw.pop("observations", [])
    if not isinstance(obs, list):
        raise ConfigError("abc.observations: expected a list of [z, y] pairs")
    pairs = []
    for k, pair in enumerate(obs):
        loc = f"abc.observations[{k}]"
        try:
            z, y = pair
            pairs.append((_finite(float(z), loc), _finite(float(y), loc)))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{loc}: expected a [z, y] pair, got {pair!r}")
    spec = AbcSpec(
        observations=tuple(pairs),
        prior_draws=_typed(raw, "abc", "prior_draws", int, 10000),
        keep=_typed(raw, "abc", "keep", int, 10),
        eoc_sigma_b2=_typed(raw, "abc", "eoc_sigma_b2", float, 0.05),
    )
    _reject_unknown(raw, "abc")
    return spec


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a mapping")
    raw = dict(raw)
    kind = _typed(raw, "", "experiment", str, None)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"experiment: expected one of {EXPERIMENT_KINDS}, "
                          f"got {kind!r}")
    cfg = ExperimentConfig(
        kind=kind,
        seed=_typed(raw, "", "seed", int, 0),
        out=_typed(raw, "", "out", str, "out"),
        model=_parse_model(_block(raw, "model")),
        inputs=_parse_inputs(raw.pop("inputs", None)),
        draws=_typed(raw, "", "draws", int, 10000),
        functions=_typed(raw, "", "functions", int, 30),
        sgd=_parse_sgd(_block(raw, "train")),
        abc=_parse_abc(_block(raw, "abc")),
    )
    _reject_unknown(raw, "")
    if cfg.draws < 2:
        raise ConfigError("draws: must be >= 2")
    if cfg.kind == "abc":
        _check_observations(cfg)
    return cfg


def _check_observations(cfg: ExperimentConfig):
    """ABC needs observations, each at one of the evaluation inputs."""
    if not cfg.abc.observations:
        raise ConfigError("abc.observations: at least one [z, y] pair needed")
    z = np.asarray(cfg.inputs)
    for zo, _ in cfg.abc.observations:
        if not (np.abs(z - zo) <= 1e-9).any():
            raise ConfigError(f"abc.observations: input {zo!r} is not on the "
                              f"evaluation grid")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid syntax: {exc}")
    return parse_config(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-dict form of a config; parse(serialize(cfg)) == cfg."""
    return {
        "experiment": cfg.kind,
        "seed": cfg.seed,
        "out": cfg.out,
        "model": dataclasses.asdict(cfg.model),
        "inputs": {"values": list(cfg.inputs)},
        "draws": cfg.draws,
        "functions": cfg.functions,
        "train": {
            "modes": list(cfg.sgd.modes),
            "depths": list(cfg.sgd.depths),
            "widths": list(cfg.sgd.widths),
            "learning_rate": cfg.sgd.learning_rate,
            "batch_size": cfg.sgd.batch_size,
            "epochs": cfg.sgd.epochs,
            "sigma_w2": cfg.sgd.sigma_w2,
            "sigma_b2": cfg.sgd.sigma_b2,
            "dataset": dict(cfg.sgd.dataset),
        },
        "abc": {
            "observations": [list(p) for p in cfg.abc.observations],
            "prior_draws": cfg.abc.prior_draws,
            "keep": cfg.abc.keep,
            "eoc_sigma_b2": cfg.abc.eoc_sigma_b2,
        },
    }


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w") as f:
        yaml.safe_dump(config_to_dict(cfg), f, sort_keys=False)


def apply_overrides(cfg: ExperimentConfig, seed=None, out=None,
                    scale=None) -> ExperimentConfig:
    """Apply CLI-level overrides; ``scale`` resets model depth and width."""
    changes = {}
    if seed is not None:
        changes["seed"] = int(seed)
    if out is not None:
        changes["out"] = str(out)
    if scale is not None:
        if scale not in SCALE_PRESETS:
            raise ConfigError(f"scale: expected one of "
                              f"{tuple(SCALE_PRESETS)}, got {scale!r}")
        size = SCALE_PRESETS[scale]
        changes["model"] = dataclasses.replace(cfg.model, depth=size,
                                               width=size)
    return dataclasses.replace(cfg, **changes) if changes else cfg


# ---------------------------------------------------------------------------
# output helpers


def fmt(value) -> str:
    """Stable scalar formatting for CSV cells (full float precision)."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _heat_color(value: float) -> str:
    """Diverging blue-white-red map on the fixed scale [-1, 1]."""
    v = min(1.0, max(-1.0, value))
    if v >= 0:
        lo, hi = (255, 255, 255), (178, 24, 43)
        t = v
    else:
        lo, hi = (255, 255, 255), (33, 102, 172)
        t = -v
    r, g, b = (round(a + t * (b_ - a)) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def svg_heatmap(matrix: np.ndarray, axis_values, path, title=""):
    """Self-contained SVG heatmap; the numeric matrix rides in <metadata>."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    cell = max(4, 480 // max(n, 1))
    size = n * cell
    margin = 40
    payload = json.dumps({
        "axis": [float(v) for v in axis_values],
        "matrix": [[float(v) for v in row] for row in matrix],
        "scale": [-1.0, 1.0],
    })
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{size + 2 * margin}" height="{size + 2 * margin}">',
        f'<metadata id="matrix-data">{payload}</metadata>',
        f'<title>{title}</title>' if title else "",
    ]
    for i in range(n):
        for j in range(n):
            x = margin + j * cell
            y = margin + (n - 1 - i) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(matrix[i, j])}"/>'
            )
    lo, hi = axis_values[0], axis_values[-1]
    parts.append(
        f'<text x="{margin}" y="{size + margin + 16}" font-size="12">'
        f'{fmt(float(lo))}</text>')
    parts.append(
        f'<text x="{margin + size - 20}" y="{size + margin + 16}" '
        f'font-size="12">{fmt(float(hi))}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(p for p in parts if p) + "\n")


def read_svg_matrix(path):
    """Recover the matrix embedded in an SVG heatmap's metadata."""
    text = Path(path).read_text()
    start = text.index('<metadata id="matrix-data">') + \
        len('<metadata id="matrix-data">')
    stop = text.index("</metadata>", start)
    data = json.loads(text[start:stop])
    return np.asarray(data["matrix"]), np.asarray(data["axis"])


# ---------------------------------------------------------------------------
# model assembly


def build_model(spec: ModelSpec) -> ModelConfig:
    if spec.kind != "diffusion":
        raise ConfigError("build_model expects model.kind = diffusion")
    law = FullyIidLaw(sigma_w=float(np.sqrt(spec.sigma_w2)),
                      sigma_b=float(np.sqrt(spec.sigma_b2)), dim=spec.width)
    return ModelConfig(depth=spec.depth, width=spec.width,
                       horizon=spec.horizon, phi=get_activation(spec.activation),
                       psi=get_activation(spec.inner), law=law)


def build_feedforward(spec: ModelSpec) -> FeedforwardConfig:
    act = get_activation(spec.activation)
    sigma_w2 = eoc_solve(act, spec.sigma_b2)
    return FeedforwardConfig(depth=spec.depth, width=spec.width,
                             sigma_w2=sigma_w2, sigma_b2=spec.sigma_b2,
                             activation=act)


def embed_inputs(z_values, width: int) -> np.ndarray:
    """Scalar inputs as constant hidden-width vectors: x0 = z * 1_D."""
    z = np.asarray(z_values, dtype=float)
    return np.repeat(z[:, None], width, axis=1)


def _first_coordinate(cfg: ExperimentConfig, seed: SeedSpec):
    """Propagate all scalar inputs jointly; return (draws x inputs, diverged)."""
    x0 = embed_inputs(cfg.inputs, cfg.model.width)
    if cfg.model.kind == "eoc":
        batch = feedforward_forward(build_feedforward(cfg.model), x0,
                                    cfg.draws, seed)
    else:
        batch = resnet_forward(build_model(cfg.model), x0, cfg.draws, seed)
    return batch.xT[:, :, 0], batch.diverged


# ---------------------------------------------------------------------------
# runners


def run_sanity_check(cfg: ExperimentConfig) -> dict:
    """Residual-network vs. limiting-diffusion agreement at each input."""
    model = build_model(cfg.model)
    x0 = embed_inputs(cfg.inputs, model.width)
    net = resnet_forward(model, x0, cfg.draws,
                         SeedSpec(cfg.seed, "sanity/resnet"))
    coeffs = SdeCoefficients(law=model.law, phi=model.phi, psi=model.psi)
    sde = simulate_paths(coeffs, x0, model.depth, model.horizon, cfg.draws,
                         SeedSpec(cfg.seed, "sanity/sde"))
    samplers = {"resnet": net, "sde": sde}

    out = Path(cfg.out)
    draw_rows, kde_rows, summary_rows = [], [], []
    summary = {"inputs": [], "ks": [], "threshold": []}
    for k, z in enumerate(cfg.inputs):
        values = {name: b.xT[:, k, 0] for name, b in samplers.items()}
        stat, thr = ks_two_sample(values["resnet"], values["sde"])
        lo = min(v.min() for v in values.values())
        hi = max(v.max() for v in values.values())
        grid = np.linspace(lo, hi, 256) if hi > lo else np.array([lo])
        row = [z, stat, thr]
        for name, b in samplers.items():
            v = values[name]
            draw_rows.extend((name, z, d, v[d]) for d in range(v.size))
            if v.std(ddof=1) > 0 and grid.size > 1:
                k1 = kde1d(v, grid)
                kde_rows.extend((name, z, g, dens)
                                for g, dens in zip(grid, k1.density))
            row.extend([v.mean(), v.var(ddof=1), int(b.diverged[:, k].sum())])
        summary_rows.append(row)
        summary["inputs"].append(z)
        summary["ks"].append(stat)
        summary["threshold"].append(thr)

    write_csv(out / "draws.csv", ["sampler", "input", "draw", "value"],
              draw_rows)
    write_csv(out / "kde.csv", ["sampler", "input", "grid", "density"],
              kde_rows)
    joint_header = ["sampler", "draw"] + [f"x{k}" for k in range(len(cfg.inputs))]
    joint_rows = []
    for name, b in samplers.items():
        finals = b.xT[:, :, 0]
        joint_rows.extend([name, d] + list(finals[d])
                          for d in range(finals.shape[0]))
    write_csv(out / "joint.csv", joint_header, joint_rows)
    write_csv(out / "summary.csv",
              ["input", "ks_stat", "ks_threshold", "mean_resnet",
               "var_resnet", "explosive_resnet", "mean_sde", "var_sde",
               "explosive_sde"], summary_rows)
    return summary


def run_function_space(cfg: ExperimentConfig) -> dict:
    """Sampled input-to-output functions on a grid, with quantile bands."""
    values, _ = _first_coordinate(cfg, SeedSpec(cfg.seed, "funcspace"))
    z = np.asarray(cfg.inputs)
    out = Path(cfg.out)

    n_funcs = min(cfg.functions, cfg.draws)
    func_rows = [(d, z[k], values[d, k])
                 for d in range(n_funcs) for k in range(z.size)]
    write_csv(out / "functions.csv", ["draw", "z", "value"], func_rows)

    s = summarize(values, levels=(0.05, 0.5, 0.95))
    q_rows = [(z[k], s.quantiles[0.05][k], s.quantiles[0.5][k],
               s.quantiles[0.95][k]) for k in range(z.size)]
    write_csv(out / "quantiles.csv", ["z", "q05", "q50", "q95"], q_rows)

    within = float(values.std(axis=1, ddof=1).mean()) if z.size > 1 else 0.0
    center = int(np.argmin(np.abs(z)))
    across = float(values[:, center].std(ddof=1))
    ratio = within / across if across > 0 else float("inf")
    write_csv(out / "summary.csv",
              ["within_draw_sd", "across_draw_sd", "ratio"],
              [(within, across, ratio)])
    return {"within_draw_sd": within, "across_draw_sd": across,
            "ratio": ratio}


def run_corr_heatmap(cfg: ExperimentConfig) -> dict:
    """Correlation of first-coordinate outputs over all pairs of inputs."""
    values, _ = _first_coordinate(cfg, SeedSpec(cfg.seed, "corr"))
    corr = corr_over_inputs(values)
    z = np.asarray(cfg.inputs)
    out = Path(cfg.out)
    rows = [(z[i], z[j], corr[i, j])
            for i in range(z.size) for j in range(z.size)]
    write_csv(out / "corr.csv", ["z1", "z2", "rho"], rows)
    svg_heatmap(corr, z, out / "heatmap.svg",
                title="output correlation over inputs")
    return {"corr": corr, "inputs": z}


def _sgd_dataset(spec: SgdSpec, seed: int):
    opts = dict(spec.dataset)
    kind = opts.get("kind", "toy_blobs")
    if kind == "toy_blobs":
        n = opts.get("n", 10000)
        test_n = opts.get("test_n", 2000)
        full = toy_blobs(n + test_n, opts.get("features", 16),
                         opts.get("classes", 10), seed=seed)
        train = Dataset(full.inputs[:n], full.targets[:n], "train")
        test = Dataset(full.inputs[n:], full.targets[n:], "test")
        return train, test
    if kind == "idx":
        root = Path(os.environ.get(DATA_ROOT_ENV, "."))
        try:
            train = load_idx(root / opts["images"], root / opts["labels"])
            test = load_idx(root / opts["test_images"],
                            root / opts["test_labels"])
        except KeyError as exc:
            raise ConfigError(f"train.dataset: missing key {exc.args[0]!r} "
                              f"for the idx dataset kind")
        except OSError as exc:
            raise ConfigError(f"train.dataset: {exc}")
        n = opts.get("n", train.n)
        train = Dataset(train.inputs[:n], train.targets[:n], "train")
        test_n = opts.get("test_n", test.n)
        test = Dataset(test.inputs[:test_n], test.targets[:test_n], "test")
        return train, test
    raise ConfigError(f"train.dataset.kind: unknown kind {kind!r}")


def run_sgd(cfg: ExperimentConfig) -> dict:
    """Training traces over a (depth, width, gradient-mode) grid."""
    spec = cfg.sgd
    train, test = _sgd_dataset(spec, cfg.seed)
    phi = get_activation(cfg.model.activation)
    psi = get_activation(cfg.model.inner)
    out = Path(cfg.out)
    summary_rows = []
    cells = {}
    for mode in spec.modes:
        for depth in spec.depths:
            for width in spec.widths:
                law = FullyIidLaw(sigma_w=float(np.sqrt(spec.sigma_w2)),
                                  sigma_b=float(np.sqrt(spec.sigma_b2)),
                                  dim=width)
                model = ModelConfig(depth=depth, width=width,
                                    horizon=cfg.model.horizon, phi=phi,
                                    psi=psi, law=law)
                tc = TrainConfig(mode=mode, learning_rate=spec.learning_rate,
                                 batch_size=spec.batch_size,
                                 epochs=spec.epochs, model=model,
                                 seed=SeedSpec(cfg.seed, "sgd"))
                trace = sgd_run(tc, train, test_data=test)
                name = f"trace_{mode}_L{depth}_D{width}.csv"
                write_csv(out / name, ["batch", "loss"],
                          list(enumerate(trace.batch_losses)))
                summary_rows.append(
                    (mode, depth, width, trace.batch_losses[-1],
                     trace.final_train_accuracy, trace.final_test_accuracy,
                     int(trace.diverged)))
                cells[(mode, depth, width)] = trace
    write_csv(out / "summary.csv",
              ["mode", "depth", "width", "final_loss", "train_accuracy",
               "test_accuracy", "diverged"], summary_rows)
    return {"cells": cells}


def _abc_outputs(spec: ModelSpec, z_values: np.ndarray, seed: SeedSpec,
                 n_draws: int, eoc_sigma_b2: float = 0.05,
                 select: dict | None = None,
                 z_grid: np.ndarray | None = None) -> np.ndarray:
    """First-coordinate outputs x_{T,1}(z) for scalar inputs z = W_I z.

    Without ``select``: every draw's outputs at the observation inputs
    ``z_values``, each layer drawn as Z R + b (see resnet._layer_increment)
    with psi(X)^T = Q R and Z a D x min(N, D) normal.

    ``select`` maps chunk index -> within-chunk draw indexes to keep; the
    result holds those draws' outputs at ``z_grid``. Their observation
    trajectories are replayed bit for bit, and each layer's weights are
    completed as W = Z Q^T + E (I - Q Q^T), E a D x D normal from a
    per-draw stream. For i.i.d. Gaussian W, W Q and W (I - Q Q^T) are
    independent, so W keeps its law given the observation outputs. The
    diffusion arm freezes at ``HARD_CAP``, the eoc arm on non-finite rows.
    """
    D, L = spec.width, spec.depth
    phi = get_activation(spec.activation)
    psi = get_activation(spec.inner)
    if spec.kind == "eoc":
        sigma_w2, sigma_b2 = eoc_solve(phi, eoc_sigma_b2), eoc_sigma_b2
        cap = None
    else:
        dt = spec.horizon / L
        sigma_w2, sigma_b2 = spec.sigma_w2 * dt, spec.sigma_b2 * dt
        cap = HARD_CAP
    law = FullyIidLaw(sigma_w=float(np.sqrt(sigma_w2)),
                      sigma_b=float(np.sqrt(sigma_b2)), dim=D)
    sw = law.sigma_w / np.sqrt(D)
    complement = seed.with_stream(experiment=seed.experiment + "/complement")

    def step(x, h, div):
        # h is a temporary, so the residual sum may reuse it in place
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = phi(h)
            if spec.kind == "diffusion":
                x_new += x
        return _freeze_diverged(x_new, x, div, cap=cap)

    z = np.asarray(z_values, dtype=float)
    pieces = []
    for start in range(0, n_draws, DRAW_CHUNK):
        chunk = min(DRAW_CHUNK, n_draws - start)
        rep = start // DRAW_CHUNK
        if select is None:
            sel = slice(None)
        elif rep in select:
            sel = np.asarray(select[rep], dtype=int)
        else:
            continue
        rng_in = make_rng(seed.with_stream(
            experiment=seed.experiment + "/input", replicate=rep))
        W_I = rng_in.standard_normal((chunk, D))[sel]
        x = z[None, :, None] * W_I[:, None, :]
        div = np.zeros(x.shape[:2], dtype=bool)
        if select is not None:
            g = z_grid[None, :, None] * W_I[:, None, :]
            gdiv = np.zeros(g.shape[:2], dtype=bool)
        for l in range(L):
            rng = make_rng(seed.with_stream(replicate=rep, layer=l))
            if select is None:
                R = _batched_psd_factor(psi(x))
            else:
                # the same R, bit for bit, as the "r" mode of pass 1
                Q, R = np.linalg.qr(np.swapaxes(psi(x), -1, -2))
            epsW, epsb = sample_eps(law, rng, chunk, cols=R.shape[-2])
            sW, sb = scale_eps(law, epsW[sel], epsb[sel])
            if select is not None:
                E = sw * np.stack([make_rng(complement.with_stream(
                    replicate=start + int(d), layer=l)).standard_normal((D, D))
                    for d in sel])
                W = E + (sW - E @ Q) @ np.swapaxes(Q, -1, -2)
                hg = psi(g) @ np.swapaxes(W, -1, -2)
                hg += sb[:, None, :]
                g, gdiv = step(g, hg, gdiv)
            h = np.swapaxes(sW @ R, -1, -2) + sb[:, None, :]
            x, div = step(x, h, div)
        pieces.append((x if select is None else g)[:, :, 0])
    return np.concatenate(pieces, axis=0)


def _abc_arm(cfg: ExperimentConfig, spec: ModelSpec, arm: str) -> dict:
    abc = cfg.abc
    z = np.asarray(cfg.inputs)
    obs_z = np.array([p[0] for p in abc.observations])
    obs_y = np.array([p[1] for p in abc.observations])
    # parse_config put every observation on the grid
    idx = [int(np.flatnonzero(np.abs(z - zo) <= 1e-9)[0]) for zo in obs_z]
    seed = SeedSpec(cfg.seed, f"abc/{arm}")

    # pass 1: outputs at the observation inputs only, for every prior draw
    at_obs = _abc_outputs(spec, z[idx], seed, abc.prior_draws,
                          eoc_sigma_b2=abc.eoc_sigma_b2)
    distances = np.linalg.norm(at_obs - obs_y, axis=1)
    order = np.lexsort((np.arange(abc.prior_draws), distances))
    accepted = np.sort(order[:abc.keep])

    # pass 2: full-grid functions for the accepted draws plus a prior sample
    wanted = np.unique(np.concatenate(
        [accepted, np.arange(min(cfg.functions, abc.prior_draws))]))
    select = {}
    for d in wanted:
        select.setdefault(int(d) // DRAW_CHUNK, []).append(int(d) % DRAW_CHUNK)
    funcs = _abc_outputs(spec, z[idx], seed, abc.prior_draws,
                         eoc_sigma_b2=abc.eoc_sigma_b2, select=select,
                         z_grid=z)
    row_of = {int(d): r for r, d in enumerate(sorted(wanted))}

    out = Path(cfg.out)
    suffix = "" if arm == "diffusion" else f"_{arm}"
    prior_rows = [(d, z[k], funcs[row_of[d], k])
                  for d in range(min(cfg.functions, abc.prior_draws))
                  for k in range(z.size)]
    write_csv(out / f"prior{suffix}.csv", ["draw", "z", "value"], prior_rows)
    post_rows = [(int(d), z[k], funcs[row_of[int(d)], k])
                 for d in accepted for k in range(z.size)]
    write_csv(out / f"posterior{suffix}.csv", ["draw", "z", "value"],
              post_rows)
    acc_mask = np.zeros(abc.prior_draws, dtype=int)
    acc_mask[accepted] = 1
    write_csv(out / f"distances{suffix}.csv", ["draw", "distance", "accepted"],
              [(d, distances[d], acc_mask[d])
               for d in range(abc.prior_draws)])
    q = np.quantile(distances, [0.001, 0.01, 0.05, 0.5])
    return {"accepted": accepted, "distances": distances,
            "accepted_mean": float(distances[accepted].mean()),
            "quantiles": {"q001": float(q[0]), "q01": float(q[1]),
                          "q05": float(q[2]), "q50": float(q[3])}}


def run_abc(cfg: ExperimentConfig) -> dict:
    """Rejection-sampling regression: keep the k closest prior functions.

    Runs the configured diffusion prior plus a feedforward comparison arm
    initialized at the depth-correlation critical point.
    """
    diff = _abc_arm(cfg, cfg.model, "diffusion")
    eoc_spec = dataclasses.replace(cfg.model, kind="eoc")
    eoc = _abc_arm(cfg, eoc_spec, "eoc")
    out = Path(cfg.out)
    rows = []
    for arm, res in (("diffusion", diff), ("eoc", eoc)):
        rows.append((arm, res["accepted_mean"], res["quantiles"]["q001"],
                     res["quantiles"]["q01"], res["quantiles"]["q05"],
                     res["quantiles"]["q50"]))
    write_csv(out / "summary.csv",
              ["arm", "accepted_mean_distance", "dist_q001", "dist_q01",
               "dist_q05", "dist_q50"], rows)
    return {"diffusion": diff, "eoc": eoc}


RUNNERS = {
    "sanity_check": run_sanity_check,
    "function_space": run_function_space,
    "corr_heatmap": run_corr_heatmap,
    "sgd": run_sgd,
    "abc": run_abc,
}


def run_experiment(cfg: ExperimentConfig) -> dict:
    try:
        runner = RUNNERS[cfg.kind]
    except KeyError:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    return runner(cfg)
