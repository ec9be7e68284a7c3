"""The four benchmark workloads: generated configs and output checks.

Each workload starts from one shipped config in ``configs/``, keeps its
model block, inputs and experiment options, and replaces only the master
seed (the benchmark's ``--seed``), the draw count (the run length fixed
here) and the output directory. The program sees only that generated
config. After every run the checks below read the files the run wrote;
a run whose files fail them counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import yaml

# corrcoef divides row and column scales in turn, so symmetry holds only to
# rounding
TOL = 1e-12


class OutputCheckError(Exception):
    """A run's output files violate a workload invariant."""


@dataclass(frozen=True)
class Workload:
    name: str
    shipped: str          # config file under configs/ the model comes from
    draws: int            # run length: draws, or abc.prior_draws for abc
    expected_spans: tuple  # spans that must record calls in a traced run


WORKLOADS = {w.name: w for w in (
    Workload("sanity", "sanity_tanh.yaml", 1024,
             ("config.make_rng", "resnet.resnet_forward",
              "resnet._freeze_diverged", "resnet._batched_psd_factor",
              "sde.simulate_paths", "sde._batched_drift", "stats.kde1d",
              "stats.ks_two_sample", "experiments.write_csv")),
    Workload("corr", "corr_heatmap.yaml", 256,
             ("config.make_rng", "laws.sample_eps", "laws.scale_eps",
              "resnet.resnet_forward", "resnet._freeze_diverged",
              "stats.corr_over_inputs", "experiments.write_csv",
              "experiments.svg_heatmap")),
    Workload("fspace", "function_space.yaml", 128,
             ("config.make_rng", "laws.sample_eps", "laws.scale_eps",
              "resnet.resnet_forward", "resnet._freeze_diverged",
              "stats.summarize", "experiments.write_csv")),
    Workload("abc", "abc_regression.yaml", 1280,
             ("config.make_rng", "resnet.eoc_solve",
              "experiments._abc_outputs", "experiments.write_csv")),
)}


def make_config(workload: Workload, root: Path, seed: int, out: Path,
                draws: int | None = None) -> dict:
    """The generated config: shipped model and options, our seed and size."""
    with open(root / "configs" / workload.shipped) as f:
        raw = yaml.safe_load(f)
    raw["seed"] = int(seed)
    raw["out"] = str(out)
    n = workload.draws if draws is None else int(draws)
    if raw["experiment"] == "abc":
        raw["abc"]["prior_draws"] = n
    else:
        raw["draws"] = n
    return raw


def draw_count(config: dict) -> int:
    """Monte Carlo draws one run delivers."""
    if config["experiment"] == "abc":
        return int(config["abc"]["prior_draws"])
    return int(config["draws"])


def output_digests(out: Path) -> dict:
    """sha256 of every file the run wrote, keyed by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        raise OutputCheckError(f"{path.name}: missing")
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _expect(cond: bool, message: str):
    if not cond:
        raise OutputCheckError(message)


def _n_inputs(config: dict) -> int:
    inputs = config["inputs"]
    if "values" in inputs:
        return len(inputs["values"])
    return int(inputs["grid"]["points"])


def check_sanity(out: Path, config: dict):
    rows = _rows(out / "summary.csv")
    _expect(len(rows) == _n_inputs(config),
            f"summary.csv: {len(rows)} rows, expected {_n_inputs(config)}")
    for row in rows:
        stat, thr = float(row["ks_stat"]), float(row["ks_threshold"])
        _expect(stat <= thr, f"summary.csv: input {row['input']}: ks_stat "
                             f"{stat} > ks_threshold {thr}")


def check_corr(out: Path, config: dict):
    import numpy as np

    from depthflow.experiments import read_svg_matrix

    rows = _rows(out / "corr.csv")
    n = _n_inputs(config)
    _expect(len(rows) == n * n,
            f"corr.csv: {len(rows)} rows, expected {n * n}")
    corr = np.array([float(r["rho"]) for r in rows]).reshape(n, n)
    _expect(np.allclose(corr, corr.T, rtol=0, atol=TOL),
            "corr.csv: matrix is not symmetric")
    _expect(np.allclose(np.diag(corr), 1.0, rtol=0, atol=TOL),
            "corr.csv: diagonal is not 1")
    _expect(np.all(np.abs(corr) <= 1.0 + TOL),
            "corr.csv: entry outside [-1, 1]")
    svg, _ = read_svg_matrix(out / "heatmap.svg")
    _expect(svg.shape == corr.shape
            and np.allclose(svg, corr, rtol=0, atol=TOL),
            "heatmap.svg: embedded matrix differs from corr.csv")


def check_fspace(out: Path, config: dict):
    n = _n_inputs(config)
    q = _rows(out / "quantiles.csv")
    _expect(len(q) == n, f"quantiles.csv: {len(q)} rows, expected {n}")
    for row in q:
        q05, q50, q95 = (float(row[k]) for k in ("q05", "q50", "q95"))
        _expect(q05 <= q50 <= q95,
                f"quantiles.csv: z={row['z']}: q05 <= q50 <= q95 fails")
    funcs = min(int(config["functions"]), int(config["draws"]))
    f = _rows(out / "functions.csv")
    _expect(len(f) == funcs * n,
            f"functions.csv: {len(f)} rows, expected {funcs * n}")
    s = _rows(out / "summary.csv")
    _expect(len(s) == 1, f"summary.csv: {len(s)} rows, expected 1")


def check_abc(out: Path, config: dict):
    keep = int(config["abc"]["keep"])
    prior = int(config["abc"]["prior_draws"])
    n = _n_inputs(config)
    for suffix in ("", "_eoc"):
        dist = _rows(out / f"distances{suffix}.csv")
        _expect(len(dist) == prior, f"distances{suffix}.csv: {len(dist)} "
                                    f"rows, expected {prior}")
        acc = [float(r["distance"]) for r in dist if r["accepted"] == "1"]
        rej = [float(r["distance"]) for r in dist if r["accepted"] != "1"]
        _expect(len(acc) == keep, f"distances{suffix}.csv: {len(acc)} "
                                  f"accepted, expected {keep}")
        _expect(not rej or max(acc) <= min(rej),
                f"distances{suffix}.csv: an accepted distance exceeds a "
                f"rejected one")
        accepted = {r["draw"] for r in dist if r["accepted"] == "1"}
        post = _rows(out / f"posterior{suffix}.csv")
        drawn = {r["draw"] for r in post}
        _expect(drawn == accepted, f"posterior{suffix}.csv: draws "
                                   f"{len(drawn)} differ from the accepted "
                                   f"{len(accepted)}")
        _expect(len(post) == keep * n, f"posterior{suffix}.csv: {len(post)}"
                                       f" rows, expected {keep * n}")


CHECKS = {"sanity": check_sanity, "corr": check_corr, "fspace": check_fspace,
          "abc": check_abc}
