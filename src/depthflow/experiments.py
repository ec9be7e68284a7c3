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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .activations import get_activation
from .config import ModelConfig, SeedSpec, make_rng
from .errors import ConfigError, DegenerateDistributionError
from .laws import FullyIidLaw, scale_eps
from .resnet import (DRAW_CHUNK, FeedforwardConfig, _batched_psd_factor,
                     _chunks, _memory_limit, _propagate, _stream_draw,
                     eoc_solve, feedforward_forward, resnet_forward)
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

    def __post_init__(self):
        if not self.horizon > 0:
            raise ConfigError(f"model.horizon: must be > 0, got {self.horizon}")
        for key in ("activation", "inner"):
            try:
                get_activation(getattr(self, key))
            except ConfigError as exc:
                raise ConfigError(f"model.{key}: {exc}") from None


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
    # sorted by key, as parsed
    dataset: tuple = (("classes", 10), ("features", 16), ("kind", "toy_blobs"),
                      ("n", 10000), ("test_n", 2000))


@dataclass(frozen=True)
class AbcSpec:
    observations: tuple = ()
    prior_draws: int = 10000
    keep: int = 10
    eoc_sigma_b2: float = 0.05

    def __post_init__(self):
        if self.keep > self.prior_draws:
            raise ConfigError(f"abc.keep: {self.keep} exceeds prior_draws "
                              f"{self.prior_draws}")


@dataclass(frozen=True)
class ExperimentConfig:
    # metadata "key": the config key, where it is not the field's name
    kind: str = field(metadata={"key": "experiment"})
    seed: int = 0
    out: str = "out"
    model: ModelSpec = ModelSpec()
    inputs: tuple = (0.0, 1.0)
    draws: int = 10000
    functions: int = 30
    sgd: SgdSpec = field(default=SgdSpec(), metadata={"key": "train"})
    abc: AbcSpec = AbcSpec()


@dataclass(frozen=True)
class InputGrid:
    start: float = -2.0
    stop: float = 2.0
    points: int = 400


DATASET_KEYS = {"kind": str, "n": int, "features": int, "classes": int,
                "test_n": int, "images": str, "labels": str,
                "test_images": str, "test_labels": str}

# Each config key is a spec field, with its type and default; these tables
# hold the bounds by key path. LEAST bounds each entry of a list.
LEAST = {"draws": 2, "functions": 0, "inputs.grid.points": 1,
         "model.sigma_w2": 0, "model.sigma_b2": 0, "model.depth": 1,
         "model.width": 1, "train.depths": 1, "train.widths": 1,
         "train.learning_rate": 0, "train.batch_size": 1, "train.epochs": 1,
         "train.sigma_w2": 0, "train.sigma_b2": 0, "train.dataset.n": 1,
         "train.dataset.features": 1, "train.dataset.classes": 1,
         "train.dataset.test_n": 1, "abc.keep": 1, "abc.eoc_sigma_b2": 0}
CHOICES = {"experiment": EXPERIMENT_KINDS, "model.kind": MODEL_KINDS,
           "train.modes": ("reparametrized", "standard"),
           "train.dataset.kind": ("toy_blobs", "idx")}


def _scalar(value, loc: str, kind):
    """``value`` coerced to ``kind`` and checked against its key's bounds."""
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            value = int(value)
        elif kind is float:
            value = float(value)
        elif not isinstance(value, str):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{loc}: expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{loc}: must be finite, got {value}")
    if loc in LEAST and not value >= LEAST[loc]:
        raise ConfigError(f"{loc}: must be >= {LEAST[loc]}, got {value}")
    if loc in CHOICES and value not in CHOICES[loc]:
        raise ConfigError(f"{loc}: expected one of {CHOICES[loc]}, "
                          f"got {value!r}")
    return value


def _mapping(raw, loc: str) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{loc or 'config root'}: expected a mapping, "
                          f"got {raw!r}")
    return dict(raw)


def _reject_unknown(raw: dict, path: str):
    if raw:
        raise ConfigError(f"{path or 'top level'}: unknown key(s) "
                          f"{', '.join(sorted(map(str, raw)))}")


def _parse(cls, raw, path: str = ""):
    """A ``cls`` from the mapping ``raw``: a missing key takes its field's
    default, and a value is coerced to the default's type. A tuple default
    takes a non-empty list, a dataclass default a block of its own fields,
    and the keys in ``PARSERS`` a format of their own."""
    raw, values = _mapping(raw, path), {}
    for f in dataclasses.fields(cls):
        key, default = f.metadata.get("key", f.name), f.default
        loc = f"{path}.{key}" if path else key
        if key not in raw:
            if default is dataclasses.MISSING:
                raise ConfigError(f"{loc}: required key missing")
            continue
        value = raw.pop(key)
        if loc in PARSERS:
            value = PARSERS[loc](value, loc)
        elif dataclasses.is_dataclass(default):
            value = _parse(type(default), value, loc)
        elif isinstance(default, tuple):
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(f"{loc}: expected a non-empty list, "
                                  f"got {value!r}")
            value = tuple(_scalar(v, loc, type(default[0])) for v in value)
        else:
            # the one field with no default, ``experiment``, is a string
            kind = str if default is dataclasses.MISSING else type(default)
            value = _scalar(value, loc, kind)
        values[f.name] = value
    _reject_unknown(raw, path)
    return cls(**values)


def _parse_inputs(raw, loc: str) -> tuple:
    """values list, or a {start, stop, points} grid of scalar inputs."""
    raw = _mapping(raw, loc)
    if "values" in raw:
        values = raw.pop("values")
        _reject_unknown(raw, loc)
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{loc}.values: expected a non-empty list")
        return tuple(_scalar(v, f"{loc}.values", float) for v in values)
    if "grid" in raw:
        grid = _parse(InputGrid, raw.pop("grid"), f"{loc}.grid")
        _reject_unknown(raw, loc)
        # finite ends far apart can still overflow the spacing
        span = grid.stop - grid.start
        if not 0 < span < math.inf:
            raise ConfigError(f"{loc}.grid: stop - start must be finite and "
                              f"> 0, got {span}")
        # refused before numpy tries to allocate it. At its peak the parse
        # holds 40 bytes per input: a Python float (24) and a pointer to it
        # in both the list and the tuple (8 each)
        need, limit = 40 * grid.points, _memory_limit()
        if limit is not None and need > limit:
            raise ConfigError(f"{loc}.grid.points: {grid.points} inputs need "
                              f"{need} bytes, more than the "
                              f"{limit} bytes of physical memory")
        return tuple(np.linspace(grid.start, grid.stop, grid.points).tolist())
    raise ConfigError(f"{loc}: expected a 'values' list or a 'grid' block")


def _parse_dataset(raw, loc: str) -> tuple:
    given = _mapping(raw, loc) or dict(SgdSpec.dataset)
    dataset = {key: _scalar(given.pop(key), f"{loc}.{key}", kind)
               for key, kind in DATASET_KEYS.items() if key in given}
    _reject_unknown(given, loc)
    return tuple(sorted(dataset.items()))


def _parse_observations(raw, loc: str) -> tuple:
    if not isinstance(raw, list):
        raise ConfigError(f"{loc}: expected a list of [z, y] pairs")
    pairs = []
    for k, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{loc}[{k}]: expected a [z, y] pair, "
                              f"got {pair!r}")
        pairs.append(tuple(_scalar(v, f"{loc}[{k}]", float) for v in pair))
    return tuple(pairs)


PARSERS = {"inputs": _parse_inputs, "train.dataset": _parse_dataset,
           "abc.observations": _parse_observations}


def parse_config(raw: dict) -> ExperimentConfig:
    cfg = _parse(ExperimentConfig, raw)
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


def config_to_dict(spec) -> dict:
    """Plain-dict form of a config; parse(serialize(cfg)) == cfg."""
    out = {}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if dataclasses.is_dataclass(value):
            value = config_to_dict(value)
        elif f.name == "inputs":
            value = {"values": list(value)}
        elif f.name == "dataset":
            value = dict(value)
        elif isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out[f.metadata.get("key", f.name)] = value
    return out


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


# cell types the csv module writes as fmt does: str as is, int by str and
# float by repr
PLAIN_CELLS = frozenset((str, int, float))


def write_csv(path, header, rows):
    """Write ``header`` and the list ``rows`` as CSV, each cell as
    :func:`fmt` writes it. Runners pass Python str, int and float cells,
    which the csv module writes alike in one call; if any cell is of
    another type (a numpy scalar, a bool), every cell goes through
    :func:`fmt`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        if not PLAIN_CELLS.issuperset(type(v) for row in rows for v in row):
            rows = [map(fmt, row) for row in rows]
        writer.writerows(rows)


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
    """Propagate all scalar inputs jointly; return the (draws x inputs)
    outputs of every draw, and of the draws that never diverged: the only
    ones the statistics read. Fewer than 2 of those end the run."""
    x0 = embed_inputs(cfg.inputs, cfg.model.width)
    if cfg.model.kind == "eoc":
        batch = feedforward_forward(build_feedforward(cfg.model), x0,
                                    cfg.draws, seed, coords=[0])
    else:
        batch = resnet_forward(build_model(cfg.model), x0, cfg.draws, seed,
                               coords=[0])
    values = batch.xT[:, :, 0]
    kept = values[~batch.diverged.any(axis=1)]
    if len(kept) < 2:
        raise DegenerateDistributionError(
            f"only {len(kept)} of {cfg.draws} draws did not diverge at any "
            f"input; the statistics need at least 2")
    return values, kept


# ---------------------------------------------------------------------------
# runners


def run_sanity_check(cfg: ExperimentConfig) -> dict:
    """Residual-network vs. limiting-diffusion agreement at each input."""
    model = build_model(cfg.model)
    x0 = embed_inputs(cfg.inputs, model.width)
    # the statistics read the first coordinate only
    net = resnet_forward(model, x0, cfg.draws,
                         SeedSpec(cfg.seed, "sanity/resnet"), coords=[0])
    coeffs = SdeCoefficients(law=model.law, phi=model.phi, psi=model.psi)
    sde = simulate_paths(coeffs, x0, model.depth, model.horizon, cfg.draws,
                         SeedSpec(cfg.seed, "sanity/sde"), coords=[0])
    samplers = {"resnet": net, "sde": sde}

    out = Path(cfg.out)
    draw_rows, kde_rows, summary_rows = [], [], []
    summary = {"inputs": [], "ks": [], "threshold": []}
    for k, z in enumerate(cfg.inputs):
        # the statistics see only the draws that did not diverge: a
        # diverged draw is frozen, not a sample of the law
        alive = {name: b.xT[~b.diverged[:, k], k, 0]
                 for name, b in samplers.items()}
        # with fewer than 10 draws in all, the KS test raises a config error
        if min(v.size for v in alive.values()) < 10 <= cfg.draws:
            raise DegenerateDistributionError(
                f"input {z!r}: only {alive['resnet'].size} resnet and "
                f"{alive['sde'].size} sde draws of {cfg.draws} did not "
                f"diverge; the comparison needs at least 10 on each side")
        stat, thr = ks_two_sample(alive["resnet"], alive["sde"])
        lo = min(v.min() for v in alive.values())
        hi = max(v.max() for v in alive.values())
        grid = np.linspace(lo, hi, 256) if hi > lo else np.array([lo])
        row = [z, stat, thr]
        for name, b in samplers.items():
            draw_rows.extend((name, z, d, x)
                             for d, x in enumerate(b.xT[:, k, 0].tolist()))
            v = alive[name]
            if v.std(ddof=1) > 0 and grid.size > 1:
                k1 = kde1d(v, grid)
                kde_rows.extend((name, z, g, dens) for g, dens in
                                zip(grid.tolist(), k1.density.tolist()))
            row.extend([float(v.mean()), float(v.var(ddof=1)),
                        int(b.diverged[:, k].sum())])
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
        joint_rows.extend([name, d] + finals for d, finals in
                          enumerate(b.xT[:, :, 0].tolist()))
    write_csv(out / "joint.csv", joint_header, joint_rows)
    write_csv(out / "summary.csv",
              ["input", "ks_stat", "ks_threshold", "mean_resnet",
               "var_resnet", "explosive_resnet", "mean_sde", "var_sde",
               "explosive_sde"], summary_rows)
    return summary


def run_function_space(cfg: ExperimentConfig) -> dict:
    """Sampled input-to-output functions on a grid, with quantile bands."""
    values, kept = _first_coordinate(cfg, SeedSpec(cfg.seed, "funcspace"))
    z = np.asarray(cfg.inputs)
    out = Path(cfg.out)

    n_funcs = min(cfg.functions, cfg.draws)
    func_rows = [(d, zk, v) for d, func in enumerate(values[:n_funcs].tolist())
                 for zk, v in zip(cfg.inputs, func)]
    write_csv(out / "functions.csv", ["draw", "z", "value"], func_rows)

    s = summarize(kept, levels=(0.05, 0.5, 0.95))
    q_rows = list(zip(cfg.inputs, *(s.quantiles[lv].tolist()
                                     for lv in (0.05, 0.5, 0.95))))
    write_csv(out / "quantiles.csv", ["z", "q05", "q50", "q95"], q_rows)

    within = float(kept.std(axis=1, ddof=1).mean()) if z.size > 1 else 0.0
    center = int(np.argmin(np.abs(z)))
    across = float(kept[:, center].std(ddof=1))
    ratio = within / across if across > 0 else float("inf")
    write_csv(out / "summary.csv",
              ["within_draw_sd", "across_draw_sd", "ratio"],
              [(within, across, ratio)])
    return {"within_draw_sd": within, "across_draw_sd": across,
            "ratio": ratio, "draws_used": len(kept), "draws": cfg.draws}


def run_corr_heatmap(cfg: ExperimentConfig) -> dict:
    """Correlation of first-coordinate outputs over all pairs of inputs."""
    _, kept = _first_coordinate(cfg, SeedSpec(cfg.seed, "corr"))
    corr = corr_over_inputs(kept)
    z = np.asarray(cfg.inputs)
    out = Path(cfg.out)
    rows = [(z1, z2, rho) for z1, corr_row in zip(cfg.inputs, corr.tolist())
            for z2, rho in zip(cfg.inputs, corr_row)]
    write_csv(out / "corr.csv", ["z1", "z2", "rho"], rows)
    svg_heatmap(corr, z, out / "heatmap.svg",
                title="output correlation over inputs")
    return {"corr": corr, "inputs": z, "draws_used": len(kept),
            "draws": cfg.draws}


def _sgd_dataset(spec: SgdSpec, seed: int):
    given = dict(spec.dataset)
    opts = {**dict(SgdSpec.dataset), **given}
    if opts["kind"] == "toy_blobs":
        n = opts["n"]
        full = toy_blobs(n + opts["test_n"], opts["features"],
                         opts["classes"], seed=seed)
        train = Dataset(full.inputs[:n], full.targets[:n], "train")
        test = Dataset(full.inputs[n:], full.targets[n:], "test")
        return train, test
    # the idx kind: the sizes default to the files' own
    root = Path(os.environ.get(DATA_ROOT_ENV, "."))
    try:
        train = load_idx(root / opts["images"], root / opts["labels"])
        test = load_idx(root / opts["test_images"], root / opts["test_labels"])
    except KeyError as exc:
        raise ConfigError(f"train.dataset: missing key {exc.args[0]!r} "
                          f"for the idx dataset kind")
    except OSError as exc:
        raise ConfigError(f"train.dataset: {exc}")
    n = given.get("n", train.n)
    train = Dataset(train.inputs[:n], train.targets[:n], "train")
    test_n = given.get("test_n", test.n)
    test = Dataset(test.inputs[:test_n], test.targets[:test_n], "test")
    return train, test


def run_sgd(cfg: ExperimentConfig) -> dict:
    """Training traces over a (depth, width, gradient-mode) grid."""
    spec = cfg.sgd
    train, test = _sgd_dataset(spec, cfg.seed)
    out = Path(cfg.out)
    summary_rows = []
    cells = {}
    for mode in spec.modes:
        for depth in spec.depths:
            for width in spec.widths:
                model = build_model(dataclasses.replace(
                    cfg.model, kind="diffusion", depth=depth, width=width,
                    sigma_w2=spec.sigma_w2, sigma_b2=spec.sigma_b2))
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
                     float(trace.final_train_accuracy),
                     float(trace.final_test_accuracy), int(trace.diverged)))
                cells[(mode, depth, width)] = trace
    write_csv(out / "summary.csv",
              ["mode", "depth", "width", "final_loss", "train_accuracy",
               "test_accuracy", "diverged"], summary_rows)
    return {"cells": cells}


def _abc_law(spec: ModelSpec, eoc_sigma_b2: float) -> FullyIidLaw:
    """An ABC arm's per-layer parameter law: the diffusion prior's at
    dt = horizon / depth, or the edge-of-chaos baseline's at bias variance
    ``eoc_sigma_b2`` and the weight variance :func:`eoc_solve` finds."""
    if spec.kind == "eoc":
        phi = get_activation(spec.activation)
        sigma_w2, sigma_b2 = eoc_solve(phi, eoc_sigma_b2), eoc_sigma_b2
    else:
        dt = spec.horizon / spec.depth
        sigma_w2, sigma_b2 = spec.sigma_w2 * dt, spec.sigma_b2 * dt
    return FullyIidLaw(sigma_w=float(np.sqrt(sigma_w2)),
                       sigma_b=float(np.sqrt(sigma_b2)), dim=spec.width)


def _abc_outputs(spec: ModelSpec, z_values: np.ndarray, seed: SeedSpec,
                 n_draws: int, law: FullyIidLaw | None = None,
                 select: dict | None = None,
                 z_grid: np.ndarray | None = None) -> np.ndarray:
    """First-coordinate outputs x_{T,1}(z) at ``z_values`` for every draw,
    or at ``z_grid`` for the draws ``select`` keeps (chunk index ->
    ascending within-chunk draw indexes). A draw's input layer w, from its
    chunk's ``/input`` stream, embeds input z as x_0 = z w. ``law`` is the
    arm's :func:`_abc_law`, by default at ``AbcSpec``'s bias variance; both
    passes of an arm take the same one.

    Kept draws replay their rows at ``z_values`` bit for bit; their
    weights are completed for the grid rows as W = Z^T Q^T + E (I - Q Q^T),
    with Z the draw's rows-first K x D projected noise, psi(X)^T = Q R at
    ``z_values`` and E a per-draw D x D normal. For
    i.i.d. Gaussian W, W Q and W (I - Q Q^T) are independent, so W keeps
    its law given the outputs at ``z_values``. A chunk's input layers and
    noise are drawn only up to its last kept draw, in row order as the
    kernel asks for its kept rows: both draws are prefix-invariant.
    """
    D, L = spec.width, spec.depth
    phi = get_activation(spec.activation)
    psi = get_activation(spec.inner)
    if law is None:
        law = _abc_law(spec, AbcSpec.eoc_sigma_b2)
    sw = law.sigma_w / np.sqrt(D)
    complement = seed.with_stream(experiment=seed.experiment + "/complement")
    z = np.asarray(z_values, dtype=float)
    n_obs = z.size
    # chunk -> how many draws run, which ones, and how many are drawn
    rows = drawn = _chunks(n_draws)
    picks = {rep: np.arange(n) for rep, n in rows.items()}
    if select is not None:
        picks = {rep: np.asarray(select[rep], dtype=int)
                 for rep in sorted(select)}
        rows = {rep: sel.size for rep, sel in picks.items()}
        drawn = {rep: int(sel.max()) + 1 for rep, sel in picks.items()}
        z = np.concatenate([z, z_grid])
    layer_noise = _stream_draw(seed, law, "projected", n_obs, drawn)
    inputs = {}

    def prefix(c, a, b):
        # the drawn rows p:q of chunk c up to its run rows a:b, and where
        # those sit among them
        sel = picks[c]
        p = int(sel[a - 1]) + 1 if a else 0
        return p, int(sel[b - 1]) + 1, sel[a:b] - p

    def start(c, a, b):
        p, q, kept = prefix(c, a, b)
        rng = inputs.pop(c, None) or make_rng(seed.with_stream(
            experiment=seed.experiment + "/input", replicate=c))
        if q < drawn[c]:
            inputs[c] = rng
        w = rng.standard_normal((q - p, D))[kept]
        return z[None, :, None] * w[:, None, :]

    def draw(c, l, a, b):
        p, q, kept = prefix(c, a, b)
        epsW, epsb = layer_noise(c, l, p, q)
        E = None
        if select is not None:
            E = sw * np.stack([make_rng(complement.with_stream(
                replicate=c * DRAW_CHUNK + int(d), layer=l)).standard_normal(
                    (D, D)) for d in picks[c][a:b]])
        return (*scale_eps(law, epsW[kept], epsb[kept]), E)

    def step(x, eps, l):
        sW, sb, E = eps
        px = psi(x)
        h = np.empty_like(x)
        if E is None:
            R = _batched_psd_factor(px[:, :n_obs])
        else:
            # the same R, bit for bit, as pass 1's _batched_psd_factor
            Q, R = np.linalg.qr(np.swapaxes(px[:, :n_obs], -1, -2))
            W = E + (np.swapaxes(sW, -1, -2) - E @ Q) @ np.swapaxes(Q, -1, -2)
            np.matmul(px[:, n_obs:], np.swapaxes(W, -1, -2),
                      out=h[:, n_obs:])
            h[:, n_obs:] += sb[:, None, :]
        np.add(np.swapaxes(R, -1, -2) @ sW, sb[:, None, :], out=h[:, :n_obs])
        # h is a temporary, so the residual sum may reuse it in place
        y = phi(h)
        if spec.kind == "diffusion":
            y += x
        return y

    batch = _propagate(start, (z.size, D), rows, L, 1.0, step, draw,
                       coords=[0])
    return batch.xT[:, 0 if select is None else n_obs:, 0]


def _abc_arm(cfg: ExperimentConfig, spec: ModelSpec, arm: str) -> dict:
    abc = cfg.abc
    z = np.asarray(cfg.inputs)
    obs_z = np.array([p[0] for p in abc.observations])
    obs_y = np.array([p[1] for p in abc.observations])
    # parse_config put every observation on the grid
    idx = [int(np.flatnonzero(np.abs(z - zo) <= 1e-9)[0]) for zo in obs_z]
    seed = SeedSpec(cfg.seed, f"abc/{arm}")
    law = _abc_law(spec, abc.eoc_sigma_b2)

    # pass 1: outputs at the observation inputs only, for every prior draw
    at_obs = _abc_outputs(spec, z[idx], seed, abc.prior_draws, law=law)
    distances = np.linalg.norm(at_obs - obs_y, axis=1)
    order = np.lexsort((np.arange(abc.prior_draws), distances))
    accepted = np.sort(order[:abc.keep])

    # pass 2: full-grid functions for the accepted draws plus a prior sample
    wanted = np.unique(np.concatenate(
        [accepted, np.arange(min(cfg.functions, abc.prior_draws))]))
    select = {}
    for d in wanted:
        select.setdefault(int(d) // DRAW_CHUNK, []).append(int(d) % DRAW_CHUNK)
    funcs = _abc_outputs(spec, z[idx], seed, abc.prior_draws, law=law,
                         select=select, z_grid=z).tolist()
    row_of = {int(d): r for r, d in enumerate(sorted(wanted))}

    out = Path(cfg.out)
    suffix = "" if arm == "diffusion" else f"_{arm}"
    prior_rows = [(d, zk, v)
                  for d in range(min(cfg.functions, abc.prior_draws))
                  for zk, v in zip(cfg.inputs, funcs[row_of[d]])]
    write_csv(out / f"prior{suffix}.csv", ["draw", "z", "value"], prior_rows)
    post_rows = [(d, zk, v) for d in accepted.tolist()
                 for zk, v in zip(cfg.inputs, funcs[row_of[d]])]
    write_csv(out / f"posterior{suffix}.csv", ["draw", "z", "value"],
              post_rows)
    acc_mask = np.zeros(abc.prior_draws, dtype=int)
    acc_mask[accepted] = 1
    write_csv(out / f"distances{suffix}.csv", ["draw", "distance", "accepted"],
              list(zip(range(abc.prior_draws), distances.tolist(),
                       acc_mask.tolist())))
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
    # no mkdir here: the writers make the directory, so a run that fails
    # before its first write leaves none behind
    return runner(cfg)
